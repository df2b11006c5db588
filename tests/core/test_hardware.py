"""Hardware sets: essential filtering, perceptibility, set algebra."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hardware import (
    EMPTY_HARDWARE,
    ENERGY_HUNGRY_COMPONENTS,
    ESSENTIAL_COMPONENTS,
    PERCEPTIBLE_COMPONENTS,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    WPS_ONLY,
    Component,
    ComponentPower,
    HardwareSet,
)

wakelockable = sorted(
    set(Component) - ESSENTIAL_COMPONENTS, key=lambda c: c.value
)
hardware_sets = st.builds(
    HardwareSet, st.sets(st.sampled_from(wakelockable), max_size=4)
)


class TestConstruction:
    def test_empty(self):
        assert EMPTY_HARDWARE.is_empty()
        assert len(EMPTY_HARDWARE) == 0

    def test_essential_components_dropped(self):
        hw = HardwareSet({Component.CPU, Component.MEMORY, Component.WIFI})
        assert hw == WIFI_ONLY
        assert Component.CPU not in hw

    def test_all_essential_becomes_empty(self):
        assert HardwareSet({Component.CPU, Component.MEMORY}).is_empty()

    def test_membership(self):
        assert Component.WIFI in WIFI_ONLY
        assert Component.WPS not in WIFI_ONLY

    def test_iteration_is_sorted_and_deterministic(self):
        hw = HardwareSet({Component.WPS, Component.WIFI})
        assert list(hw) == sorted(hw.components, key=lambda c: c.value)


class TestPerceptibility:
    def test_wifi_is_imperceptible(self):
        assert not WIFI_ONLY.is_perceptible()

    def test_speaker_vibrator_is_perceptible(self):
        assert SPEAKER_VIBRATOR_ONLY.is_perceptible()

    def test_screen_is_perceptible(self):
        assert HardwareSet({Component.SCREEN}).is_perceptible()

    def test_mixed_set_perceptible(self):
        hw = HardwareSet({Component.WIFI, Component.SPEAKER_VIBRATOR})
        assert hw.is_perceptible()

    def test_empty_imperceptible(self):
        assert not EMPTY_HARDWARE.is_perceptible()

    def test_perceptible_components_are_wakelockable(self):
        assert not PERCEPTIBLE_COMPONENTS & ESSENTIAL_COMPONENTS


class TestAlgebra:
    def test_union(self):
        union = WIFI_ONLY.union(WPS_ONLY)
        assert Component.WIFI in union and Component.WPS in union

    def test_intersection(self):
        both = HardwareSet({Component.WIFI, Component.WPS})
        assert both.intersection(WIFI_ONLY) == WIFI_ONLY

    def test_disjoint_intersection_empty(self):
        assert WIFI_ONLY.intersection(WPS_ONLY).is_empty()

    def test_equality_with_frozenset(self):
        assert WIFI_ONLY == frozenset({Component.WIFI})

    def test_hashable(self):
        assert len({WIFI_ONLY, HardwareSet({Component.WIFI})}) == 1

    def test_energy_hungry(self):
        assert WPS_ONLY.energy_hungry() == {Component.WPS}
        assert WIFI_ONLY.energy_hungry() == frozenset()
        assert ENERGY_HUNGRY_COMPONENTS  # non-empty catalog

    @given(hardware_sets, hardware_sets)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(hardware_sets, hardware_sets)
    def test_intersection_subset_of_union(self, a, b):
        inter = a.intersection(b)
        union = a.union(b)
        assert inter.components <= union.components

    @given(hardware_sets)
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(st.sets(st.sampled_from(list(Component))))
    def test_iteration_is_sorted_by_value_every_time(self, components):
        hardware = HardwareSet(components)
        expected = sorted(hardware.components, key=lambda c: c.value)
        assert list(hardware) == expected
        assert list(hardware) == expected


#: ``HardwareSet({GPS, WIFI, CPU})`` pickled at protocol 5 (the result
#: cache's protocol) when the class held only a ``_components`` slot.
COMPONENTS_ONLY_PICKLE = (
    b"\x80\x05\x95i\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.core.hardware"
    b"\x94\x8c\x0bHardwareSet\x94\x93\x94)\x81\x94N}\x94\x8c\x0b_components"
    b"\x94(h\x00\x8c\tComponent\x94\x93\x94\x8c\x03gps\x94\x85\x94R\x94h\x07"
    b"\x8c\x04wifi\x94\x85\x94R\x94\x91\x94s\x86\x94b."
)


class TestPickle:
    def test_components_only_pickle_behaves_as_fresh(self):
        restored = pickle.loads(COMPONENTS_ONLY_PICKLE)
        fresh = HardwareSet({Component.GPS, Component.WIFI})
        assert list(restored) == list(fresh) == [Component.GPS, Component.WIFI]
        assert restored == fresh and fresh == restored
        assert hash(restored) == hash(fresh)
        assert len({restored, fresh}) == 1
        assert restored.union(WPS_ONLY) == fresh.union(WPS_ONLY)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_after_iteration(self, protocol):
        hardware = HardwareSet({Component.WPS, Component.SCREEN})
        before = list(hardware)
        restored = pickle.loads(pickle.dumps(hardware, protocol=protocol))
        assert restored == hardware
        assert list(restored) == before


class TestComponentPower:
    def test_valid(self):
        spec = ComponentPower(Component.WIFI, 100.0, 50.0)
        assert spec.activation_energy_mj == 100.0

    def test_negative_activation_rejected(self):
        with pytest.raises(ValueError):
            ComponentPower(Component.WIFI, -1.0, 50.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ComponentPower(Component.WIFI, 1.0, -50.0)
