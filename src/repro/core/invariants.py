"""The Sec. 3.2.2 delivery-behaviour invariants, as pure checkable predicates.

The paper proves three properties of SIMTY's delivery behaviour: every
imperceptible repeating alarm is delivered exactly once per repeating
interval; the gap between adjacent deliveries stays within
``[(1-beta)*ReIn, (1+beta)*ReIn]``; and perceptible alarms are delivered
inside their window interval.  Until now these were asserted *post-hoc* on a
handful of fixed scenarios; this module states them (plus the structural
invariants the queues themselves must uphold) as pure functions over queue
state and delivery records, so an online monitor
(:class:`repro.simulator.monitor.InvariantMonitor`) can enforce them on
every mutation of a live run.

Every check returns a list of :class:`Violation` values — empty when the
invariant holds — and never raises; escalation policy (raise / warn /
record) belongs to the monitor, not to the predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .alarm import RepeatKind
from .entry import QueueEntry
from .hardware import EMPTY_HARDWARE
from .queue import AlarmQueue

# ---------------------------------------------------------------------------
# Violation kinds
# ---------------------------------------------------------------------------

#: Queue-structural kinds.
DUPLICATE_QUEUED = "duplicate-queued"
EMPTY_ENTRY = "empty-entry"
QUEUE_ORDER = "queue-order"
ENTRY_ALGEBRA = "entry-algebra"
PERCEPTIBLE_NO_WINDOW = "perceptible-no-window"
UNREGISTERED_QUEUED = "unregistered-queued"
OVERDUE_ENTRY = "overdue-entry"

#: Delivery-behaviour kinds (Sec. 3.2.2).
DOUBLE_DELIVERY = "double-delivery"
EARLY_DELIVERY = "early-delivery"
WINDOW_EXCEEDED = "window-exceeded"
GRACE_EXCEEDED = "grace-exceeded"
GAP_BOUNDS = "gap-bounds"

#: Every kind the monitor can emit, for docs and CLI rendering.
ALL_KINDS = (
    DUPLICATE_QUEUED,
    EMPTY_ENTRY,
    QUEUE_ORDER,
    ENTRY_ALGEBRA,
    PERCEPTIBLE_NO_WINDOW,
    UNREGISTERED_QUEUED,
    OVERDUE_ENTRY,
    DOUBLE_DELIVERY,
    EARLY_DELIVERY,
    WINDOW_EXCEEDED,
    GRACE_EXCEEDED,
    GAP_BOUNDS,
)


@dataclass(frozen=True)
class Violation:
    """One observed breach of a delivery or queue invariant.

    ``time`` is the simulation instant at which the breach was observed;
    ``alarm_id``/``label`` identify the offending alarm when one exists
    (structural breaches may concern an entry instead).  ``detail`` is a
    human-readable explanation carrying the concrete numbers.
    """

    kind: str
    time: int
    detail: str
    alarm_id: Optional[int] = None
    label: str = ""

    def format(self) -> str:
        who = f" [{self.label}]" if self.label else ""
        return f"t={self.time}ms {self.kind}{who}: {self.detail}"


# ---------------------------------------------------------------------------
# Delivery-record shape (duck-typed to avoid a simulator import cycle)
# ---------------------------------------------------------------------------
#
# The checks below consume ``AlarmDeliveryRecord`` instances from
# :mod:`repro.simulator.trace` but only touch plain attributes
# (alarm_id, label, wakeup, perceptible, repeat_kind, repeat_interval,
# nominal_time, window_end, grace_end, delivered_at), so core stays
# simulator-independent.


def check_delivery(
    record,
    *,
    registered_at: int = 0,
    tolerance_ms: int = 0,
) -> List[Violation]:
    """Check one delivery against the window/grace guarantees.

    ``registered_at`` is when the alarm was (re-)registered: an alarm
    registered after its window already passed is legally delivered as soon
    as possible, so deadlines are floored at the registration time.
    ``tolerance_ms`` absorbs the RTC wake-from-sleep latency, which the
    paper itself observes as an unavoidable delivery delay (Sec. 4.2).
    """
    violations: List[Violation] = []
    delivered = record.delivered_at
    if delivered < record.nominal_time:
        violations.append(
            Violation(
                kind=EARLY_DELIVERY,
                time=delivered,
                alarm_id=record.alarm_id,
                label=record.label,
                detail=(
                    f"delivered at {delivered} before nominal time "
                    f"{record.nominal_time}"
                ),
            )
        )
    if not record.wakeup:
        # Non-wakeup alarms are delivered whenever the device happens to be
        # awake; the paper gives them no lateness guarantee.
        return violations
    window_deadline = max(record.window_end, registered_at) + tolerance_ms
    grace_deadline = max(record.grace_end, registered_at) + tolerance_ms
    if record.perceptible and delivered > window_deadline:
        violations.append(
            Violation(
                kind=WINDOW_EXCEEDED,
                time=delivered,
                alarm_id=record.alarm_id,
                label=record.label,
                detail=(
                    f"perceptible alarm delivered at {delivered}, "
                    f"{delivered - window_deadline}ms past its window "
                    f"deadline {window_deadline}"
                ),
            )
        )
    if delivered > grace_deadline:
        violations.append(
            Violation(
                kind=GRACE_EXCEEDED,
                time=delivered,
                alarm_id=record.alarm_id,
                label=record.label,
                detail=(
                    f"wakeup alarm delivered at {delivered}, "
                    f"{delivered - grace_deadline}ms past its grace "
                    f"deadline {grace_deadline}"
                ),
            )
        )
    return violations


def check_delivery_gap(
    previous,
    record,
    *,
    tolerance_ms: int = 0,
) -> List[Violation]:
    """Check the adjacent-delivery gap bound (Sec. 3.2.2).

    For a repeating wakeup alarm delivered within its grace interval the gap
    between adjacent deliveries lies in ``[(1-beta)*ReIn, (1+beta)*ReIn]``
    for static alarms (the grid absorbs lateness) and in
    ``[ReIn, (1+beta)*ReIn]`` for dynamic alarms (the interval is
    re-appointed from the previous delivery).  ``beta*ReIn`` is read off
    the record as ``grace_end - nominal_time``, so per-alarm betas are
    honoured.  A gap below the lower bound means a double delivery within
    one repeating interval; above the upper bound, a skipped occurrence —
    both break "exactly once per ReIn".
    """
    if record.repeat_kind is RepeatKind.ONE_SHOT or not record.wakeup:
        return []
    interval = record.repeat_interval
    if interval <= 0:
        return []
    grace_length = record.grace_end - record.nominal_time
    if record.repeat_kind is RepeatKind.STATIC:
        lower = interval - grace_length
    else:
        lower = interval
    upper = interval + grace_length
    gap = record.delivered_at - previous.delivered_at
    if gap < lower - tolerance_ms or gap > upper + tolerance_ms:
        return [
            Violation(
                kind=GAP_BOUNDS,
                time=record.delivered_at,
                alarm_id=record.alarm_id,
                label=record.label,
                detail=(
                    f"adjacent-delivery gap {gap}ms outside "
                    f"[{lower}, {upper}] (ReIn={interval}, "
                    f"beta*ReIn={grace_length}, kind={record.repeat_kind.value})"
                ),
            )
        ]
    return []


def check_exactly_once(
    delivered_occurrences: Set[Tuple[int, int]], record
) -> List[Violation]:
    """Flag a second delivery of the same occurrence ``(alarm, nominal)``.

    The caller owns ``delivered_occurrences`` and must add the record's key
    after the check; keeping the state outside makes the predicate pure.
    """
    key = (record.alarm_id, record.nominal_time)
    if key in delivered_occurrences:
        return [
            Violation(
                kind=DOUBLE_DELIVERY,
                time=record.delivered_at,
                alarm_id=record.alarm_id,
                label=record.label,
                detail=(
                    f"occurrence with nominal time {record.nominal_time} "
                    "delivered more than once"
                ),
            )
        ]
    return []


# ---------------------------------------------------------------------------
# Queue-structural invariants
# ---------------------------------------------------------------------------


def check_queue(
    queue: AlarmQueue,
    now: int,
    *,
    registered_ids: Optional[Set[int]] = None,
    overdue_tolerance_ms: Optional[int] = None,
) -> List[Violation]:
    """Structural audit of one queue.

    Checks: no empty entries; no alarm queued in two entries (or twice in
    one); entries sorted by delivery time; each entry's window/grace/
    hardware attributes equal the recomputed intersection/union of its
    members; perceptible entries keep a non-empty window intersection; and
    — when ``registered_ids`` is given — every queued alarm is still
    registered (an alignment target that was cancelled must not linger).

    ``overdue_tolerance_ms`` additionally flags entries whose delivery time
    lies more than that far in the past: the engine pops due entries every
    iteration, so an overdue resident entry is an orphaned batch.  Leave it
    ``None`` for queues that may legally hold overdue entries (non-wakeup
    alarms while the device sleeps).
    """
    violations: List[Violation] = []
    seen: Dict[int, str] = {}
    previous_delivery: Optional[int] = None
    for entry in queue.entries():
        if entry.is_empty():
            violations.append(
                Violation(
                    kind=EMPTY_ENTRY,
                    time=now,
                    detail=f"entry #{entry.entry_id} is empty but queued",
                )
            )
            continue
        delivery = entry.delivery_time(queue.grace_mode)
        if previous_delivery is not None and delivery < previous_delivery:
            violations.append(
                Violation(
                    kind=QUEUE_ORDER,
                    time=now,
                    detail=(
                        f"entry #{entry.entry_id} due at {delivery} is "
                        f"queued after an entry due at {previous_delivery}"
                    ),
                )
            )
        previous_delivery = delivery
        if overdue_tolerance_ms is not None and delivery + overdue_tolerance_ms < now:
            violations.append(
                Violation(
                    kind=OVERDUE_ENTRY,
                    time=now,
                    detail=(
                        f"entry #{entry.entry_id} was due at {delivery}, "
                        f"{now - delivery}ms ago, but is still queued"
                    ),
                )
            )
        for alarm in entry:
            if alarm.alarm_id in seen:
                violations.append(
                    Violation(
                        kind=DUPLICATE_QUEUED,
                        time=now,
                        alarm_id=alarm.alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm queued in entry #{entry.entry_id} and "
                            f"again in entry {seen[alarm.alarm_id]}"
                        ),
                    )
                )
            else:
                seen[alarm.alarm_id] = f"#{entry.entry_id}"
            if registered_ids is not None and alarm.alarm_id not in registered_ids:
                violations.append(
                    Violation(
                        kind=UNREGISTERED_QUEUED,
                        time=now,
                        alarm_id=alarm.alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm still queued in entry #{entry.entry_id} "
                            "after cancellation"
                        ),
                    )
                )
        violations.extend(_check_entry_algebra(entry, now))
    return violations


def _check_entry_algebra(entry: QueueEntry, now: int) -> List[Violation]:
    """Recompute an entry's attribute algebra and compare (Sec. 3.2.1)."""
    violations: List[Violation] = []
    window = None
    grace = None
    hardware = EMPTY_HARDWARE
    perceptible = False
    for index, alarm in enumerate(entry.alarms):
        perceptible = perceptible or alarm.is_perceptible()
        alarm_window = alarm.window_interval()
        alarm_grace = alarm.grace_interval()
        if index == 0:
            window = alarm_window
            grace = alarm_grace
        else:
            if window is not None:
                window = window.intersect(alarm_window)
            if grace is not None:
                grace = grace.intersect(alarm_grace)
        hardware = hardware.union(alarm.hardware)
    if (
        entry.window != window
        or entry.grace != grace
        or entry.hardware != hardware
        or entry.perceptible != perceptible
    ):
        violations.append(
            Violation(
                kind=ENTRY_ALGEBRA,
                time=now,
                detail=(
                    f"entry #{entry.entry_id} attributes drifted from its "
                    f"members: window {entry.window} vs recomputed {window}, "
                    f"grace {entry.grace} vs {grace}, hardware "
                    f"{entry.hardware} vs {hardware}, perceptible "
                    f"{entry.perceptible} vs {perceptible}"
                ),
            )
        )
    if perceptible and window is None:
        violations.append(
            Violation(
                kind=PERCEPTIBLE_NO_WINDOW,
                time=now,
                detail=(
                    f"perceptible entry #{entry.entry_id} has an empty "
                    "window intersection"
                ),
            )
        )
    return violations


@dataclass
class ViolationSummary:
    """Aggregated counts, for ``--stats`` tables and fuzz reports."""

    total: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def of(violations: List[Violation]) -> "ViolationSummary":
        summary = ViolationSummary(total=len(violations))
        for violation in violations:
            summary.by_kind[violation.kind] = (
                summary.by_kind.get(violation.kind, 0) + 1
            )
        return summary

    def format(self) -> str:
        if not self.total:
            return "no violations"
        parts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
        )
        return f"{self.total} violations ({parts})"
