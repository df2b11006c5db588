"""The Sec. 3.2.2 invariants as pure predicates."""

from dataclasses import dataclass, replace

from repro.core.alarm import RepeatKind
from repro.core.entry import QueueEntry
from repro.core.exact import ExactPolicy
from repro.core.intervals import Interval
from repro.core.invariants import (
    DOUBLE_DELIVERY,
    DUPLICATE_QUEUED,
    EARLY_DELIVERY,
    EMPTY_ENTRY,
    ENTRY_ALGEBRA,
    GAP_BOUNDS,
    GRACE_EXCEEDED,
    OVERDUE_ENTRY,
    QUEUE_ORDER,
    UNREGISTERED_QUEUED,
    WINDOW_EXCEEDED,
    Violation,
    ViolationSummary,
    check_delivery,
    check_delivery_gap,
    check_exactly_once,
    check_overdue,
    check_queue,
)
from repro.core.queue import AlarmQueue

from ..conftest import make_alarm


@dataclass
class Record:
    """Duck-typed stand-in for AlarmDeliveryRecord (plain attributes only)."""

    alarm_id: int = 1
    label: str = "a"
    wakeup: bool = True
    perceptible: bool = False
    repeat_kind: RepeatKind = RepeatKind.STATIC
    repeat_interval: int = 60_000
    nominal_time: int = 60_000
    window_end: int = 90_000
    grace_end: int = 110_000
    delivered_at: int = 60_000


def kinds(violations):
    return [violation.kind for violation in violations]


class TestCheckDelivery:
    def test_on_time_delivery_is_clean(self):
        assert check_delivery(Record()) == []

    def test_delivery_at_grace_deadline_is_clean(self):
        assert check_delivery(Record(delivered_at=110_000)) == []

    def test_early_delivery_flagged(self):
        violations = check_delivery(Record(delivered_at=59_999))
        assert kinds(violations) == [EARLY_DELIVERY]

    def test_grace_exceeded_flagged(self):
        violations = check_delivery(Record(delivered_at=110_001))
        assert kinds(violations) == [GRACE_EXCEEDED]

    def test_perceptible_window_exceeded_flagged(self):
        record = Record(perceptible=True, delivered_at=100_000)
        assert kinds(check_delivery(record)) == [WINDOW_EXCEEDED]

    def test_imperceptible_may_use_full_grace(self):
        # Past the window but inside grace: legal for imperceptible alarms.
        assert check_delivery(Record(delivered_at=100_000)) == []

    def test_tolerance_absorbs_wake_latency(self):
        record = Record(delivered_at=110_350)
        assert check_delivery(record, tolerance_ms=350) == []
        assert kinds(check_delivery(record, tolerance_ms=349)) == [
            GRACE_EXCEEDED
        ]

    def test_late_registration_floors_deadline(self):
        # Registered after the grace deadline passed: prompt delivery is
        # legal, dawdling past the registration time is not.
        record = Record(delivered_at=200_000)
        assert check_delivery(record, registered_at=200_000) == []
        assert kinds(
            check_delivery(record, registered_at=199_999)
        ) == [GRACE_EXCEEDED]

    def test_nonwakeup_has_no_lateness_guarantee(self):
        assert check_delivery(Record(wakeup=False, delivered_at=999_999)) == []

    def test_nonwakeup_still_checked_for_early_delivery(self):
        record = Record(wakeup=False, delivered_at=10_000)
        assert kinds(check_delivery(record)) == [EARLY_DELIVERY]


class TestCheckDeliveryGap:
    def previous(self, delivered_at):
        return Record(delivered_at=delivered_at)

    def test_exact_grid_gap_is_clean(self):
        record = Record(nominal_time=120_000, window_end=150_000,
                        grace_end=170_000, delivered_at=120_000)
        assert check_delivery_gap(self.previous(60_000), record) == []

    def test_static_grid_absorbs_lateness(self):
        # beta*ReIn = 50_000: a 10_000 gap (late then punctual) is legal.
        record = Record(nominal_time=120_000, window_end=150_000,
                        grace_end=170_000, delivered_at=120_000)
        assert check_delivery_gap(self.previous(110_000), record) == []

    def test_gap_below_static_lower_bound_flagged(self):
        record = Record(nominal_time=120_000, window_end=150_000,
                        grace_end=170_000, delivered_at=120_000)
        violations = check_delivery_gap(self.previous(111_000), record)
        assert kinds(violations) == [GAP_BOUNDS]

    def test_gap_above_upper_bound_flagged(self):
        # Upper bound: ReIn + beta*ReIn = 110_000.  The nominal time also
        # skipped a grid step; the breach is still one gap violation.
        record = Record(nominal_time=180_000, window_end=210_000,
                        grace_end=230_000, delivered_at=180_000)
        violations = check_delivery_gap(self.previous(60_000), record)
        assert kinds(violations) == [GAP_BOUNDS]
        assert violations[0].detail.startswith(
            "adjacent-delivery gap 120000ms outside [10000, 110000]"
        )

    def test_skipped_static_occurrence_inside_gap_bound_flagged(self):
        # beta = 0.96: a late delivery, then the occurrence two ReIn on,
        # delivered on time.  The 70 s gap fits [2_400, 117_600], but the
        # grid advanced by 2 ReIn: one occurrence was skipped.
        previous = Record(grace_end=117_600, delivered_at=110_000)
        record = Record(nominal_time=180_000, window_end=210_000,
                        grace_end=237_600, delivered_at=180_000)
        violations = check_delivery_gap(previous, record)
        assert kinds(violations) == [GAP_BOUNDS]
        assert "nominal time 180000" in violations[0].detail
        assert "at 60000" in violations[0].detail

    def test_dynamic_record_not_grid_checked(self):
        # A dynamic nominal is re-appointed from the delivery, not a grid.
        previous = Record(repeat_kind=RepeatKind.DYNAMIC,
                          delivered_at=130_000)
        record = Record(repeat_kind=RepeatKind.DYNAMIC, nominal_time=190_000,
                        window_end=220_000, grace_end=240_000,
                        delivered_at=200_000)
        assert check_delivery_gap(previous, record) == []

    def test_nonwakeup_static_record_not_grid_checked(self):
        record = Record(wakeup=False, nominal_time=180_000,
                        window_end=210_000, grace_end=230_000,
                        delivered_at=180_000)
        assert check_delivery_gap(self.previous(110_000), record) == []

    def test_dynamic_gap_may_not_undercut_interval(self):
        # Dynamic alarms re-appoint from the previous delivery: the gap may
        # never be shorter than ReIn.
        record = Record(repeat_kind=RepeatKind.DYNAMIC, nominal_time=120_000,
                        window_end=150_000, grace_end=170_000,
                        delivered_at=120_000)
        assert check_delivery_gap(self.previous(60_000), record) == []
        assert kinds(
            check_delivery_gap(self.previous(61_000), record)
        ) == [GAP_BOUNDS]

    def test_one_shot_has_no_gap_bound(self):
        record = Record(repeat_kind=RepeatKind.ONE_SHOT, repeat_interval=0,
                        delivered_at=60_000)
        assert check_delivery_gap(self.previous(59_000), record) == []


class TestCheckExactlyOnce:
    def test_first_delivery_is_clean(self):
        assert check_exactly_once(None, Record()) == []

    def test_forced_double_delivery_caught(self):
        # The known-bad injection: the same occurrence (alarm, nominal)
        # delivered twice must be flagged.
        record = Record()
        violations = check_exactly_once(record, record)
        assert kinds(violations) == [DOUBLE_DELIVERY]
        assert violations[0].alarm_id == record.alarm_id

    def test_new_occurrence_of_same_alarm_is_clean(self):
        assert check_exactly_once(Record(), Record(nominal_time=120_000)) == []

    def test_earlier_occurrence_flagged(self):
        # Nominal times only increase between registrations.
        previous = Record(nominal_time=120_000)
        violations = check_exactly_once(previous, Record(nominal_time=60_000))
        assert kinds(violations) == [DOUBLE_DELIVERY]


class TestCheckQueue:
    def fill(self, *alarms):
        policy = ExactPolicy()
        # The list backend: the corruption tests below reach into its
        # storage directly.
        queue = AlarmQueue(grace_mode=policy.grace_mode, backend="list")
        for alarm in alarms:
            policy.insert(queue, alarm, 0)
        return queue

    def test_well_formed_queue_is_clean(self):
        a = make_alarm(nominal=50_000, label="a")
        b = make_alarm(nominal=80_000, label="b")
        queue = self.fill(a, b)
        ids = {a.alarm_id, b.alarm_id}
        assert check_queue(queue, 0, registered_ids=ids) == []

    def test_duplicate_queued_alarm_flagged(self):
        # A broken policy queues the alarm in two entries at once; the
        # real insert() implementations self-heal, so corrupt directly.
        alarm = make_alarm(nominal=50_000, label="dup")
        queue = AlarmQueue(grace_mode=False, backend="list")
        # Reach through the facade into the list backend's storage.
        queue._backend._entries.append(QueueEntry([alarm]))
        queue._backend._entries.append(QueueEntry([alarm]))
        violations = check_queue(queue, 0)
        assert DUPLICATE_QUEUED in kinds(violations)

    def test_empty_entry_flagged(self):
        queue = self.fill(make_alarm(nominal=50_000))
        queue._backend._entries.append(QueueEntry())
        assert EMPTY_ENTRY in kinds(check_queue(queue, 0))

    def test_out_of_order_entries_flagged(self):
        queue = self.fill(
            make_alarm(nominal=50_000, label="a"),
            make_alarm(nominal=80_000, label="b"),
        )
        queue._backend._entries.reverse()  # corrupt the sort order directly
        assert QUEUE_ORDER in kinds(check_queue(queue, 0))

    def test_entry_algebra_drift_flagged(self):
        queue = self.fill(make_alarm(nominal=50_000, window=10_000))
        entry = next(iter(queue.entries()))
        entry.window = Interval(0, 1)  # drifted from its members
        assert ENTRY_ALGEBRA in kinds(check_queue(queue, 0))

    def test_cached_perceptibility_drift_flagged(self):
        queue = self.fill(make_alarm(nominal=50_000, window=10_000))
        entry = next(iter(queue.entries()))
        assert not entry.perceptible
        entry.perceptible = True  # drifted from its (imperceptible) member
        violations = check_queue(queue, 0)
        assert ENTRY_ALGEBRA in kinds(violations)
        assert "perceptible True vs False" in violations[0].detail

    def test_unregistered_alarm_lingering_flagged(self):
        alarm = make_alarm(nominal=50_000, label="ghost")
        queue = self.fill(alarm)
        violations = check_queue(queue, 0, registered_ids=set())
        assert UNREGISTERED_QUEUED in kinds(violations)

    def test_overdue_entry_flagged_only_when_asked(self):
        queue = self.fill(make_alarm(nominal=10_000))
        assert check_queue(queue, 50_000) == []
        violations = check_queue(queue, 50_000, overdue_tolerance_ms=0)
        assert OVERDUE_ENTRY in kinds(violations)

    def test_overdue_tolerance_respected(self):
        queue = self.fill(make_alarm(nominal=10_000))
        assert check_queue(queue, 10_300, overdue_tolerance_ms=350) == []

    def test_check_overdue_is_the_overdue_part_of_check_queue(self):
        queue = self.fill(
            *(make_alarm(nominal=t) for t in (10_000, 20_000, 30_000, 40_000))
        )
        for now, tolerance in ((5_000, 0), (25_000, 0), (41_000, 0), (30_500, 600)):
            full = check_queue(queue, now, overdue_tolerance_ms=tolerance)
            assert check_overdue(queue, now, tolerance_ms=tolerance) == [
                violation for violation in full if violation.kind == OVERDUE_ENTRY
            ]

    def test_check_overdue_stops_at_the_first_entry_not_due(self):
        # It trusts the queue order a clean audit found: an entry out of
        # order behind a future one is not looked at.
        queue = self.fill(
            make_alarm(nominal=50_000, label="a"),
            make_alarm(nominal=10_000, label="b"),
        )
        queue._backend._entries.reverse()
        assert OVERDUE_ENTRY in kinds(
            check_queue(queue, 20_000, overdue_tolerance_ms=0)
        )
        assert check_overdue(queue, 20_000) == []


class TestViolationRendering:
    def test_format_carries_kind_label_and_time(self):
        violation = Violation(
            kind=GRACE_EXCEEDED, time=123, detail="late", label="mail"
        )
        text = violation.format()
        assert "t=123ms" in text and GRACE_EXCEEDED in text and "mail" in text

    def test_summary_counts_by_kind(self):
        summary = ViolationSummary.of(
            [
                Violation(kind=GAP_BOUNDS, time=1, detail=""),
                Violation(kind=GAP_BOUNDS, time=2, detail=""),
                Violation(kind=EMPTY_ENTRY, time=3, detail=""),
            ]
        )
        assert summary.total == 3
        assert summary.by_kind == {GAP_BOUNDS: 2, EMPTY_ENTRY: 1}
        assert "gap-bounds=2" in summary.format()

    def test_empty_summary_reads_clean(self):
        assert ViolationSummary.of([]).format() == "no violations"
