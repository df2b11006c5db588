"""SIMTY policy: search-phase applicability and selection-phase preference."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.entry import QueueEntry
from repro.core.hardware import SPEAKER_VIBRATOR_ONLY, WIFI_ONLY, WPS_ONLY
from repro.core.intervals import Interval
from repro.core.similarity import (
    FourLevelHardware,
    TimeSimilarity,
    TwoLevelHardware,
    classify_time,
)
from repro.core.simty import Probe, SimtyPolicy, applicability

from ..conftest import make_alarm, oneshot
from .test_entry import members


def build_queue(policy, *alarms):
    queue = policy.make_queue()
    entries = [policy.insert(queue, alarm, 0) for alarm in alarms]
    return queue, entries


class TestSearchPhase:
    def test_imperceptible_pair_aligns_on_grace_overlap(self):
        policy = SimtyPolicy()
        queue, entries = build_queue(
            policy,
            make_alarm(nominal=1_000, window=10, grace=30_000),
            make_alarm(nominal=20_000, window=10, grace=30_000),
        )
        assert entries[0] is entries[1]

    def test_imperceptible_pair_rejects_disjoint_graces(self):
        policy = SimtyPolicy()
        queue, entries = build_queue(
            policy,
            make_alarm(nominal=1_000, window=10, grace=5_000),
            make_alarm(nominal=20_000, window=10, grace=5_000),
        )
        assert entries[0] is not entries[1]

    def test_perceptible_alarm_requires_window_overlap(self):
        policy = SimtyPolicy()
        imperceptible = make_alarm(nominal=1_000, window=10, grace=30_000)
        perceptible = make_alarm(
            nominal=20_000,
            window=10,
            grace=30_000,
            hardware=SPEAKER_VIBRATOR_ONLY,
        )
        queue, entries = build_queue(policy, imperceptible, perceptible)
        # Graces overlap but windows do not: not applicable.
        assert entries[0] is not entries[1]

    def test_perceptible_alarm_joins_on_window_overlap(self):
        policy = SimtyPolicy()
        imperceptible = make_alarm(nominal=1_000, window=5_000, grace=30_000)
        perceptible = make_alarm(
            nominal=2_000,
            window=5_000,
            grace=30_000,
            hardware=SPEAKER_VIBRATOR_ONLY,
        )
        queue, entries = build_queue(policy, imperceptible, perceptible)
        assert entries[0] is entries[1]

    def test_perceptible_entry_requires_window_overlap(self):
        policy = SimtyPolicy()
        perceptible = make_alarm(
            nominal=1_000, window=10, grace=30_000, hardware=SPEAKER_VIBRATOR_ONLY
        )
        imperceptible = make_alarm(nominal=20_000, window=10, grace=30_000)
        queue, entries = build_queue(policy, perceptible, imperceptible)
        assert entries[0] is not entries[1]

    def test_unknown_hardware_treated_perceptible(self):
        # Footnote 5: a newly registered alarm's hardware is unknown.
        policy = SimtyPolicy()
        known = make_alarm(nominal=1_000, window=10, grace=30_000)
        unknown = make_alarm(
            nominal=20_000, window=10, grace=30_000, known=False
        )
        queue, entries = build_queue(policy, known, unknown)
        assert entries[0] is not entries[1]

    def test_one_shot_treated_perceptible(self):
        policy = SimtyPolicy()
        repeating = make_alarm(nominal=1_000, window=10, grace=30_000)
        one_shot = oneshot(nominal=20_000, window=10)
        queue, entries = build_queue(policy, repeating, one_shot)
        assert entries[0] is not entries[1]

    def test_grace_aligned_entry_never_accepts_perceptible(self):
        # An entry whose window intersection vanished can only ever be
        # grace-similar, which perceptible alarms must refuse.
        policy = SimtyPolicy()
        queue, entries = build_queue(
            policy,
            make_alarm(nominal=1_000, window=10, grace=40_000),
            make_alarm(nominal=30_000, window=10, grace=40_000),
        )
        assert entries[0] is entries[1]
        assert entries[0].window is None
        perceptible = make_alarm(
            nominal=30_000,
            window=10,
            grace=40_000,
            hardware=SPEAKER_VIBRATOR_ONLY,
        )
        entry = policy.insert(queue, perceptible, 0)
        assert entry is not entries[0]


def classify_time_rule(window, grace, perceptible, entry):
    """Sec. 3.2.1 applicability stated on :func:`classify_time`: the time
    similarity of an applicable entry, ``None`` for an inapplicable one."""
    time_sim = classify_time(window, grace, entry.window, entry.grace)
    if perceptible or entry.perceptible:
        applicable = time_sim is TimeSimilarity.HIGH
    else:
        applicable = time_sim is not TimeSimilarity.LOW
    return time_sim if applicable else None


#: Closed intervals on a short timeline (touching endpoints are common),
#: or ``None`` for an intersection that vanished.
ticks = st.integers(0, 12)
maybe_intervals = st.none() | st.builds(
    lambda a, b: Interval(min(a, b), max(a, b)), ticks, ticks
)


class TestIntegerApplicability:
    @given(
        ticks,
        st.integers(0, 6),
        st.integers(0, 6),
        st.booleans(),
        maybe_intervals,
        maybe_intervals,
        st.booleans(),
    )
    def test_helper_agrees_with_classify_time_rule(
        self, start, window, extra, perceptible, entry_window, entry_grace,
        entry_perceptible,
    ):
        probe = Probe(start, start + window, start + window + extra, perceptible)
        entry = QueueEntry()
        entry.window, entry.grace = entry_window, entry_grace
        entry.perceptible = entry_perceptible
        expected = classify_time_rule(
            Interval(start, start + window),
            Interval(start, start + window + extra),
            perceptible,
            entry,
        )
        level = applicability(probe, entry)
        assert level == (None if expected is None else int(expected))

    @given(st.lists(members, min_size=1, max_size=4), members)
    def test_search_joins_exactly_an_applicable_entry(self, alarms, alarm):
        entry = QueueEntry(alarms)
        assume(entry.grace is not None)
        policy = SimtyPolicy()
        queue = policy.make_queue()
        queue.add_entry(entry)
        expected = classify_time_rule(
            alarm.window_interval(),
            alarm.grace_interval(),
            alarm.is_perceptible(),
            entry,
        )
        chosen = policy._search_and_select(queue, alarm, 0)
        assert (chosen is entry) == (expected is not None)


class TestSelectionPhase:
    def test_prefers_identical_hardware_over_earlier_window_match(self):
        # The Fig. 2 decision: the new WPS alarm skips the window-overlapping
        # speaker entry and joins the grace-overlapping WPS entry.
        policy = SimtyPolicy()
        speaker = make_alarm(
            nominal=1_000,
            window=5_000,
            grace=5_000,
            hardware=SPEAKER_VIBRATOR_ONLY,
            label="calendar",
        )
        wps_far = make_alarm(
            nominal=15_000, window=3_000, grace=40_000,
            hardware=WPS_ONLY, label="wps-a",
        )
        queue, _ = build_queue(policy, speaker, wps_far)
        new_wps = make_alarm(
            nominal=2_000, window=5_000, grace=40_000,
            hardware=WPS_ONLY, label="wps-b",
        )
        entry = policy.insert(queue, new_wps, 0)
        assert entry.contains_alarm_id(wps_far.alarm_id)

    def test_time_similarity_breaks_hardware_ties(self):
        policy = SimtyPolicy()
        # Two imperceptible Wi-Fi entries with equal (high) hardware
        # similarity to the new alarm: the earlier-queued one is only
        # grace-similar, the later one window-similar.  Table 1 ranks the
        # window-similar entry higher (1 < 2), overriding queue order.
        grace_only = make_alarm(
            nominal=1_000, window=10, grace=10_000, label="grace-only"
        )
        window_match = make_alarm(
            nominal=15_000, window=5_000, grace=10_000, label="window-match"
        )
        queue, entries = build_queue(policy, grace_only, window_match)
        assert entries[0] is not entries[1]
        new = make_alarm(nominal=10_000, window=6_000, grace=20_000)
        entry = policy.insert(queue, new, 0)
        assert entry.contains_alarm_id(window_match.alarm_id)

    def test_first_found_wins_among_equals(self):
        policy = SimtyPolicy()
        first = make_alarm(nominal=1_000, window=5_000, grace=30_000)
        second = make_alarm(nominal=40_000, window=5_000, grace=50_000)
        queue, entries = build_queue(policy, first, second)
        assert entries[0] is not entries[1]
        # Equally preferable (same hardware, both grace-overlap).
        new = make_alarm(nominal=25_000, window=10, grace=30_000)
        entry = policy.insert(queue, new, 0)
        assert entry is entries[0]

    def test_stale_instance_removed_before_search(self):
        policy = SimtyPolicy()
        alarm = make_alarm(nominal=1_000, window=10, grace=30_000)
        queue, _ = build_queue(policy, alarm)
        alarm.nominal_time = 61_000
        policy.insert(queue, alarm, 0)
        assert queue.alarm_count() == 1


class TestClassifierInjection:
    def test_two_level_classifier_changes_selection(self):
        # Under the 2-level classifier a partial overlap ranks as high as an
        # identical set, so the earlier partial-overlap entry wins by
        # first-found; the 3-level classifier picks the identical entry.
        def seed_queue(policy):
            shared = make_alarm(
                nominal=1_000,
                window=10,
                grace=20_000,
                hardware=WIFI_ONLY.union(WPS_ONLY),
                label="partial",
            )
            identical = make_alarm(
                nominal=25_000, window=10, grace=20_000,
                hardware=WIFI_ONLY, label="identical",
            )
            queue, entries = build_queue(policy, shared, identical)
            assert entries[0] is not entries[1]
            return queue, shared, identical

        def new_alarm():
            return make_alarm(nominal=20_000, window=10, grace=30_000)

        three = SimtyPolicy()
        queue, shared, identical = seed_queue(three)
        assert three.insert(queue, new_alarm(), 0).contains_alarm_id(
            identical.alarm_id
        )

        two = SimtyPolicy(hardware_classifier=TwoLevelHardware())
        queue2, shared2, identical2 = seed_queue(two)
        assert two.insert(queue2, new_alarm(), 0).contains_alarm_id(
            shared2.alarm_id
        )

    def test_four_level_prefers_energy_hungry_overlap(self):
        four = SimtyPolicy(hardware_classifier=FourLevelHardware())
        wps_partial = make_alarm(
            nominal=1_000, window=10, grace=50_000,
            hardware=WIFI_ONLY.union(WPS_ONLY), label="wps-partial",
        )
        queue, _ = build_queue(four, wps_partial)
        new = make_alarm(
            nominal=20_000, window=10, grace=50_000, hardware=WPS_ONLY
        )
        entry = four.insert(queue, new, 0)
        assert entry.contains_alarm_id(wps_partial.alarm_id)


class TestGuarantees:
    def test_grace_delivery_bound_for_all_members(self):
        policy = SimtyPolicy()
        queue = policy.make_queue()
        for i in range(40):
            policy.insert(
                queue,
                make_alarm(
                    nominal=1_000 + 700 * i,
                    window=(i % 4) * 500,
                    grace=20_000,
                ),
                0,
            )
        for entry in queue.entries():
            delivery = entry.delivery_time(grace_mode=True)
            for alarm in entry:
                assert alarm.grace_interval().contains(delivery)
                if alarm.is_perceptible():
                    assert alarm.window_interval().contains(delivery)
