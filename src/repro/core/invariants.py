"""The Sec. 3.2.2 delivery-behaviour invariants, as pure checkable predicates.

The paper proves three properties of SIMTY's delivery behaviour: every
imperceptible repeating alarm is delivered exactly once per repeating
interval; the gap between adjacent deliveries stays within
``[(1-beta)*ReIn, (1+beta)*ReIn]``; and perceptible alarms are delivered
inside their window interval.  This module states them (plus the
structural invariants the queues themselves must uphold) as pure functions
over queue state and delivery records, and the online monitor
(:class:`repro.simulator.monitor.InvariantMonitor`) enforces them on every
mutation of a run; it is the one Sec. 3.2.2 checker.

Every check returns a list of :class:`Violation` values — empty when the
invariant holds — and never raises; escalation policy (raise / warn /
record) belongs to the monitor, not to the predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from .alarm import RepeatKind
from .entry import QueueEntry, _bounded
from .hardware import Component, HardwareSet
from .intervals import Interval
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
    """Check the adjacent-delivery gap bound and the static grid (Sec. 3.2.2).

    For a repeating wakeup alarm delivered within its grace interval the gap
    between adjacent deliveries lies in ``[(1-beta)*ReIn, (1+beta)*ReIn]``
    for static alarms (the grid absorbs lateness) and in
    ``[ReIn, (1+beta)*ReIn]`` for dynamic alarms (the interval is
    re-appointed from the previous delivery).  ``beta*ReIn`` is read off
    the record as ``grace_end - nominal_time``, so per-alarm betas are
    honoured.  A gap below the lower bound means a double delivery within
    one repeating interval; above the upper bound, a skipped occurrence —
    both break "exactly once per ReIn".

    The gap bound alone cannot see a skipped static occurrence when
    ``beta >= 0.5``: the skip's gap of ``(2-beta)*ReIn`` fits under
    ``(1+beta)*ReIn``.  So a static record's nominal time must also lie
    exactly one ``ReIn`` after the previous one; a breach of either is one
    ``GAP_BOUNDS`` violation.
    """
    if record.repeat_kind is RepeatKind.ONE_SHOT or not record.wakeup:
        return []
    interval = record.repeat_interval
    if interval <= 0:
        return []
    grace_length = record.grace_end - record.nominal_time
    static = record.repeat_kind is RepeatKind.STATIC
    lower = interval - grace_length if static else interval
    upper = interval + grace_length
    gap = record.delivered_at - previous.delivered_at
    if gap < lower - tolerance_ms or gap > upper + tolerance_ms:
        detail = (
            f"adjacent-delivery gap {gap}ms outside "
            f"[{lower}, {upper}] (ReIn={interval}, "
            f"beta*ReIn={grace_length}, kind={record.repeat_kind.value})"
        )
    elif static and record.nominal_time - previous.nominal_time != interval:
        detail = (
            f"static occurrence at nominal time {record.nominal_time} "
            f"follows the one at {previous.nominal_time}, not one "
            f"ReIn={interval} later"
        )
    else:
        return []
    return [
        Violation(
            kind=GAP_BOUNDS,
            time=record.delivered_at,
            alarm_id=record.alarm_id,
            label=record.label,
            detail=detail,
        )
    ]


def check_exactly_once(previous, record) -> List[Violation]:
    """Flag a second delivery of an occurrence already delivered.

    ``previous`` is the alarm's last delivery since its (re-)registration,
    or ``None`` before its first.  Between registrations an alarm's nominal
    times strictly increase (static: one ``ReIn`` per delivery; dynamic:
    the delivery plus ``ReIn``; a one-shot is delivered once), so a record
    whose nominal time is not past ``previous``'s repeats an occurrence.
    """
    if previous is not None and record.nominal_time <= previous.nominal_time:
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

    The monitor runs this after every mutation, so it is one pass over the
    members per entry on integer bounds (an intersection of closed
    intervals is ``[max of starts, min of ends]``), compared field by field
    with the entry's attributes.  A healthy queue allocates no intervals or
    hardware sets; violations and their details are built only on failure.
    """
    violations: List[Violation] = []
    seen: Dict[int, int] = {}
    grace_mode = queue.grace_mode
    previous_delivery: Optional[int] = None
    for entry in queue.entries():
        alarms = entry.alarms
        if not alarms:
            violations.append(
                Violation(
                    kind=EMPTY_ENTRY,
                    time=now,
                    detail=f"entry #{entry.entry_id} is empty but queued",
                )
            )
            continue
        delivery = entry.delivery_time(grace_mode)
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
            violations.append(_overdue(entry, delivery, now))
        entry_id = entry.entry_id
        start = -math.inf
        window_end = grace_end = math.inf
        components = _NO_COMPONENTS
        perceptible = False
        for alarm in alarms:
            alarm_id = alarm.alarm_id
            if alarm_id in seen:
                violations.append(
                    Violation(
                        kind=DUPLICATE_QUEUED,
                        time=now,
                        alarm_id=alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm queued in entry #{entry_id} and "
                            f"again in entry #{seen[alarm_id]}"
                        ),
                    )
                )
            else:
                seen[alarm_id] = entry_id
            if registered_ids is not None and alarm_id not in registered_ids:
                violations.append(
                    Violation(
                        kind=UNREGISTERED_QUEUED,
                        time=now,
                        alarm_id=alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm still queued in entry #{entry_id} "
                            "after cancellation"
                        ),
                    )
                )
            nominal = alarm.nominal_time
            if nominal > start:
                start = nominal
            end = nominal + alarm.window_length
            if end < window_end:
                window_end = end
            end = nominal + alarm.grace_length
            if end < grace_end:
                grace_end = end
            member = alarm.observed_hardware._components
            if not member <= components:
                components = components | member
            perceptible = perceptible or alarm._perceptible
        window = entry.window
        grace = entry.grace
        hardware = entry.hardware
        if (
            not _interval_matches(window, start, window_end)
            or not _interval_matches(grace, start, grace_end)
            or (
                # Like the intervals: a foreign type meets plain equality.
                hardware._components != components
                if type(hardware) is HardwareSet
                else hardware != HardwareSet(components)
            )
            or entry.perceptible != perceptible
        ):
            violations.append(
                Violation(
                    kind=ENTRY_ALGEBRA,
                    time=now,
                    detail=(
                        f"entry #{entry_id} attributes drifted from its "
                        f"members: window {window} vs recomputed "
                        f"{_bounded(start, window_end)}, grace {grace} "
                        f"vs {_bounded(start, grace_end)}, hardware "
                        f"{hardware} vs {HardwareSet(components)}, "
                        f"perceptible {entry.perceptible} vs {perceptible}"
                    ),
                )
            )
        if perceptible and start > window_end:
            violations.append(
                Violation(
                    kind=PERCEPTIBLE_NO_WINDOW,
                    time=now,
                    detail=(
                        f"perceptible entry #{entry_id} has an empty "
                        "window intersection"
                    ),
                )
            )
    return violations


def check_overdue(
    queue: AlarmQueue, now: int, *, tolerance_ms: int = 0
) -> List[Violation]:
    """The overdue part of :func:`check_queue`, alone, on an ordered queue.

    Flags the entries whose delivery time lies more than ``tolerance_ms``
    before ``now``, exactly as ``check_queue(queue, now,
    overdue_tolerance_ms=tolerance_ms)`` does.  It stops at the first
    entry that is not overdue, so it is sound only for a queue that
    :func:`check_queue` found free of ``QUEUE_ORDER`` and ``EMPTY_ENTRY``
    breaches and that has not changed since: in delivery order, every
    entry after that one is due later still.  The monitor uses it at the
    end of an engine step that already made such an audit.
    """
    violations: List[Violation] = []
    grace_mode = queue.grace_mode
    for entry in queue.entries():
        delivery = entry.delivery_time(grace_mode)
        if delivery + tolerance_ms >= now:
            break
        violations.append(_overdue(entry, delivery, now))
    return violations


def _overdue(entry: QueueEntry, delivery: int, now: int) -> Violation:
    """The ``OVERDUE_ENTRY`` breach of one entry due at ``delivery``."""
    return Violation(
        kind=OVERDUE_ENTRY,
        time=now,
        detail=(
            f"entry #{entry.entry_id} was due at {delivery}, "
            f"{now - delivery}ms ago, but is still queued"
        ),
    )


#: The union seed for an entry's hardware recompute (no component).
_NO_COMPONENTS: FrozenSet[Component] = frozenset()


def _interval_matches(interval: object, start: int, end: int) -> bool:
    """``interval == _bounded(start, end)``, without building the right side.

    A value that is neither an exact :class:`Interval` nor ``None`` (a
    subclass, a tuple) is judged by that comparison itself, so a
    wrong-typed attribute is flagged exactly when equality would flag it.
    """
    if type(interval) is Interval:
        return start <= end and interval.start == start and interval.end == end
    if interval is None:
        return start > end
    return not interval != _bounded(start, end)


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
