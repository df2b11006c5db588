"""Similarity classification and the Table 1 preferability grid."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hardware import (
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    WPS_ONLY,
    Component,
    HardwareSet,
)
from repro.core.intervals import Interval
from repro.core.similarity import (
    HARDWARE_CLASSIFIERS,
    FourLevelHardware,
    HardwareSimilarity,
    ThreeLevelHardware,
    TimeSimilarity,
    TwoLevelHardware,
    classify_hardware,
    classify_time,
    preference,
)

from .test_hardware import hardware_sets, wakelockable


class TestHardwareSimilarity:
    def test_identical_nonempty_is_high(self):
        assert classify_hardware(WIFI_ONLY, WIFI_ONLY) is HardwareSimilarity.HIGH

    def test_partial_overlap_is_medium(self):
        both = HardwareSet({Component.WIFI, Component.WPS})
        assert classify_hardware(both, WIFI_ONLY) is HardwareSimilarity.MEDIUM

    def test_disjoint_is_low(self):
        assert classify_hardware(WIFI_ONLY, WPS_ONLY) is HardwareSimilarity.LOW

    def test_empty_vs_empty_is_low(self):
        # Identical but empty: aligning saves only the wake energy.
        assert (
            classify_hardware(EMPTY_HARDWARE, EMPTY_HARDWARE)
            is HardwareSimilarity.LOW
        )

    def test_empty_vs_nonempty_is_low(self):
        assert classify_hardware(EMPTY_HARDWARE, WIFI_ONLY) is HardwareSimilarity.LOW

    @given(hardware_sets, hardware_sets)
    def test_symmetric(self, a, b):
        assert classify_hardware(a, b) is classify_hardware(b, a)

    @given(hardware_sets)
    def test_self_similarity_high_unless_empty(self, a):
        expected = (
            HardwareSimilarity.LOW if a.is_empty() else HardwareSimilarity.HIGH
        )
        assert classify_hardware(a, a) is expected


class TestTimeSimilarity:
    def test_window_overlap_is_high(self):
        sim = classify_time(
            Interval(0, 10), Interval(0, 50), Interval(5, 20), Interval(5, 80)
        )
        assert sim is TimeSimilarity.HIGH

    def test_grace_only_overlap_is_medium(self):
        sim = classify_time(
            Interval(0, 10), Interval(0, 50), Interval(20, 30), Interval(20, 80)
        )
        assert sim is TimeSimilarity.MEDIUM

    def test_no_overlap_is_low(self):
        sim = classify_time(
            Interval(0, 10), Interval(0, 20), Interval(50, 60), Interval(50, 70)
        )
        assert sim is TimeSimilarity.LOW

    def test_none_window_cannot_be_high(self):
        # Entries aligned via grace overlap can have an empty window
        # intersection; they are at best medium-similar.
        sim = classify_time(
            Interval(0, 10), Interval(0, 50), None, Interval(5, 80)
        )
        assert sim is TimeSimilarity.MEDIUM

    def test_none_grace_cannot_be_medium(self):
        sim = classify_time(Interval(0, 10), None, Interval(20, 30), None)
        assert sim is TimeSimilarity.LOW


class TestClassifierVariants:
    def test_three_level_matches_enum(self):
        classifier = ThreeLevelHardware()
        assert classifier.rank(WIFI_ONLY, WIFI_ONLY) == 0
        assert classifier.rank(WIFI_ONLY, WPS_ONLY) == 2

    def test_two_level_shares_any(self):
        classifier = TwoLevelHardware()
        both = HardwareSet({Component.WIFI, Component.WPS})
        assert classifier.rank(both, WIFI_ONLY) == 0
        assert classifier.rank(WIFI_ONLY, WPS_ONLY) == 1

    def test_four_level_splits_medium_by_energy_hungry(self):
        classifier = FourLevelHardware()
        wps_wifi = HardwareSet({Component.WIFI, Component.WPS})
        # Shared WPS is energy hungry -> rank 1.
        assert classifier.rank(wps_wifi, WPS_ONLY) == 1
        # Shared Wi-Fi is not in the energy-hungry catalog -> rank 2.
        wifi_accel = HardwareSet({Component.WIFI, Component.ACCELEROMETER})
        assert classifier.rank(wifi_accel, WIFI_ONLY) == 2
        assert classifier.rank(WIFI_ONLY, WIFI_ONLY) == 0
        assert classifier.rank(WIFI_ONLY, WPS_ONLY) == 3

    def test_registry_names(self):
        assert set(HARDWARE_CLASSIFIERS) == {
            "two-level",
            "three-level",
            "four-level",
        }

    @given(hardware_sets, hardware_sets)
    def test_ranks_within_bounds(self, a, b):
        for classifier in HARDWARE_CLASSIFIERS.values():
            rank = classifier.rank(a, b)
            assert 0 <= rank < classifier.num_ranks

    @pytest.mark.parametrize("name", sorted(HARDWARE_CLASSIFIERS))
    def test_repeated_rank_matches_fresh_rank_on_every_pair(self, name):
        subsets = [
            frozenset(chosen)
            for size in range(len(wakelockable) + 1)
            for chosen in itertools.combinations(wakelockable, size)
        ]
        assert len(subsets) == 128
        classifier = HARDWARE_CLASSIFIERS[name]
        # Warm every pair, then ask again with equal but distinct sets.
        for first, second in itertools.product(subsets, repeat=2):
            classifier.rank(HardwareSet(first), HardwareSet(second))
        for first, second in itertools.product(subsets, repeat=2):
            a, b = HardwareSet(first), HardwareSet(second)
            assert classifier.rank(a, b) == type(classifier)().rank(a, b)


class TestPreferenceTable:
    @pytest.mark.parametrize(
        "hw_rank, time_sim, expected",
        [
            (0, TimeSimilarity.HIGH, 1),
            (0, TimeSimilarity.MEDIUM, 2),
            (1, TimeSimilarity.HIGH, 3),
            (1, TimeSimilarity.MEDIUM, 4),
            (2, TimeSimilarity.HIGH, 5),
            (2, TimeSimilarity.MEDIUM, 6),
        ],
    )
    def test_matches_paper_table1(self, hw_rank, time_sim, expected):
        assert preference(hw_rank, time_sim) == expected

    @pytest.mark.parametrize("hw_rank", [0, 1, 2])
    def test_low_time_similarity_inapplicable(self, hw_rank):
        assert math.isinf(preference(hw_rank, TimeSimilarity.LOW))

    def test_hardware_dominates_time(self):
        # Any better hardware rank beats any time rank within it.
        assert preference(0, TimeSimilarity.MEDIUM) < preference(
            1, TimeSimilarity.HIGH
        )

    @given(st.integers(min_value=0, max_value=3))
    def test_time_breaks_ties(self, hw_rank):
        assert preference(hw_rank, TimeSimilarity.HIGH) < preference(
            hw_rank, TimeSimilarity.MEDIUM
        )
