"""Online invariant monitor: the engine's runtime conscience.

The :class:`InvariantMonitor` plugs into :class:`~repro.simulator.engine.
Simulator` and is called on every state mutation — registration,
cancellation, delivery, reinsert — enforcing the Sec. 3.2.2 delivery
guarantees and the queue-structural invariants of
:mod:`repro.core.invariants` *while the run executes*, not after it.

Escalation is configurable:

* ``on_violation="raise"`` — stop the run at the first breach with an
  :class:`InvariantViolationError` (development, unit tests);
* ``"record"`` — keep going and accumulate; violations land on
  ``trace.violations`` and surface through ``RunRecord`` / ``--stats``
  (chaos and fuzz runs);
* ``"warn"`` — like record, plus a ``warnings.warn`` per breach.

The monitor accounts for legitimate slack: the RTC wake-from-sleep latency
(the paper's own Sec. 4.2 artifact) is granted as tolerance on every
deadline, and an alarm (re-)registered after its window already passed is
only required to be delivered promptly after registration.

The step-end audit may reuse an earlier clean one, across the steps the
engine drives itself.  The structural part of an audit reads only the two
queues, their entries and member alarms, and the registered set; only its
overdue check depends on the time.  While the engine drives consecutive
steps itself (the ``run``, ``drain`` and ``advance_to`` loops), only
engine and policy code runs; every policy call (registration,
cancellation, reinsert) is followed by an audit, and everything else the
engine does to that state between two audits is a delivery: a pop, the
members' delivery bookkeeping and reschedule, and :meth:`InvariantMonitor.
on_delivery`.  A pop removes a whole entry, and a sorted, duplicate-free
queue minus one entry is still sorted and duplicate-free; the bookkeeping
mutates only the delivered alarms (a delivered one-shot also leaves the
registered set).  So once no delivered alarm is queued in either queue,
no entry's algebra, registration or perceptibility verdict has changed,
and a *clean* audit (no violation) still describes the queues at a later
step end, in the same step or a later one.  :meth:`~InvariantMonitor.
on_delivery` records the delivered ids and keeps the reuse;
:meth:`~InvariantMonitor.on_step_end` then makes one pass over the queued
member ids, with no entry algebra, and when none of them was delivered
runs only the overdue check on top of the clean audit, which a clean
audit's queue order lets stop at the first entry not yet due.  A
delivered id still queued means a full audit, and so does an unclean
audit or any entry from outside the engine (:meth:`~InvariantMonitor.
on_entry`: a public ``step()`` call and the start of each ``run``,
``drain`` or ``advance_to`` call), so a change made by outside code
between steps is always seen by the next step end.  The end-of-run audit
is always full.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Set

from ..core.alarm import Alarm, RepeatKind
from ..core.invariants import (
    Violation,
    ViolationSummary,
    check_delivery,
    check_delivery_gap,
    check_exactly_once,
    check_overdue,
    check_queue,
)

#: Accepted escalation modes.
ON_VIOLATION_MODES = ("raise", "record", "warn")


def _any_queued(manager, alarm_ids: Set[int]) -> bool:
    """Whether any of ``alarm_ids`` is a member of an entry in either queue.

    One pass over the members, read from the entries themselves rather
    than the queues' membership index, so an alarm an entry holds that the
    index forgot is still found.
    """
    for queue in (manager.wakeup_queue, manager.nonwakeup_queue):
        for entry in queue.entries():
            for alarm in entry.alarms:
                if alarm.alarm_id in alarm_ids:
                    return True
    return False


class InvariantViolationError(AssertionError):
    """Raised in ``on_violation="raise"`` mode; carries the violation."""

    def __init__(self, violation: Violation) -> None:
        self.violation = violation
        super().__init__(violation.format())


class InvariantMonitor:
    """Pluggable runtime checker for one simulation run.

    One monitor instance belongs to one run (it accumulates per-alarm
    delivery state); build a fresh one per simulator.  ``tolerance_ms``
    defaults to the simulator's wake latency when the engine binds the
    monitor; pass an explicit value to override.
    """

    def __init__(
        self,
        on_violation: str = "record",
        tolerance_ms: Optional[int] = None,
    ) -> None:
        if on_violation not in ON_VIOLATION_MODES:
            raise ValueError(
                f"on_violation must be one of {ON_VIOLATION_MODES}, "
                f"got {on_violation!r}"
            )
        self.on_violation = on_violation
        self.tolerance_ms = tolerance_ms
        self.violations: List[Violation] = []
        self._manager = None
        self._registered_ids: Set[int] = set()
        self._registered_at: Dict[int, int] = {}
        #: Each alarm's last delivery record since its (re-)registration; a
        #: cancel keeps it, so a delivery after the cancel is still checked.
        self._last_delivery: Dict[int, object] = {}
        self._checks = 0
        #: True while the last structural audit was clean and no entry from
        #: outside followed it (see the module docstring).
        self._clean = False
        #: Ids delivered since the last structural audit.
        self._delivered: List[int] = []

    # ------------------------------------------------------------------
    # Engine binding
    # ------------------------------------------------------------------
    def bind(self, manager, wake_latency_ms: int) -> None:
        """Attach to a run's alarm manager; called by the engine."""
        self._manager = manager
        if self.tolerance_ms is None:
            self.tolerance_ms = wake_latency_ms

    @property
    def check_count(self) -> int:
        """How many hook invocations ran (for overhead accounting)."""
        return self._checks

    def summary(self) -> ViolationSummary:
        return ViolationSummary.of(self.violations)

    # ------------------------------------------------------------------
    # Hooks (called by the engine)
    # ------------------------------------------------------------------
    def on_register(self, alarm: Alarm, now: int) -> None:
        self._registered_ids.add(alarm.alarm_id)
        self._registered_at[alarm.alarm_id] = now
        # A re-registration restarts the alarm's delivery grid: the gap to
        # any pre-churn delivery is no longer governed by the bound, and a
        # re-set one-shot (same nominal time) may legally fire again.
        self._last_delivery.pop(alarm.alarm_id, None)
        self._audit(now)

    def on_cancel(self, alarm: Alarm, now: int, removed: bool) -> None:
        self._registered_ids.discard(alarm.alarm_id)
        self._registered_at.pop(alarm.alarm_id, None)
        self._audit(now)

    def on_delivery(self, record, now: int) -> None:
        """Check one sealed delivery record against Sec. 3.2.2."""
        self._checks += 1
        # The delivery popped an entry and moved its members on; the step
        # end checks that none of them is still queued.
        self._delivered.append(record.alarm_id)
        registered_at = self._registered_at.get(record.alarm_id, 0)
        for violation in check_delivery(
            record,
            registered_at=registered_at,
            tolerance_ms=self.tolerance_ms or 0,
        ):
            self._emit(violation)
        previous = self._last_delivery.get(record.alarm_id)
        for violation in check_exactly_once(previous, record):
            self._emit(violation)
        if previous is not None:
            for violation in check_delivery_gap(
                previous, record, tolerance_ms=self.tolerance_ms or 0
            ):
                self._emit(violation)
        self._last_delivery[record.alarm_id] = record
        if record.repeat_kind is RepeatKind.ONE_SHOT:
            # A delivered one-shot leaves the registered set; finding it
            # queued afterwards is a structural breach.
            self._registered_ids.discard(record.alarm_id)

    def on_reinsert(self, alarm: Alarm, now: int) -> None:
        self._audit(now)

    def on_entry(self) -> None:
        """The engine is entered from outside; drop the clean audit.

        Code outside the engine may have changed the queues in place since
        the last audit, so the next step end audits in full.
        """
        self._clean = False

    def on_step_end(self, now: int) -> None:
        """Audit at the end of one main-loop iteration (a quiescent point).

        Only here is the overdue check sound: the engine has popped every
        wakeup entry due at or before ``now``, so a wakeup entry whose
        delivery time still lies in the past is an orphaned batch.  During
        registration or mid-delivery the queue legally holds entries that
        are about to be popped in the same iteration.

        After a clean audit with no entry from outside since, and with no
        alarm delivered since still queued, the queues are as that audit
        saw them less the popped entries, and only the overdue check runs;
        otherwise the audit is full.  A clean result stays reusable at the
        next step end.
        """
        if self._clean:
            delivered = self._delivered
            if delivered:
                if _any_queued(self._manager, set(delivered)):
                    self._audit(now, overdue_tolerance_ms=0)
                    return
                delivered.clear()
            # Cleared first, so a check that raises is never taken for a
            # clean one.
            self._clean = False
            self._checks += 1
            overdue = check_overdue(
                self._manager.wakeup_queue, now, tolerance_ms=0
            )
            for violation in overdue:
                self._emit(violation)
            self._clean = not overdue
            return
        self._audit(now, overdue_tolerance_ms=0)

    def on_run_end(self, horizon: int) -> None:
        """Final audit: nothing deliverable may be left behind.

        A wakeup entry whose delivery time lies inside the horizon but was
        never popped is an orphaned batch — exactly the failure mode a
        botched mid-run cancellation produces.
        """
        self._audit(horizon, overdue_tolerance_ms=0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _audit(self, now: int, overdue_tolerance_ms: Optional[int] = None) -> None:
        """Structural audit of both queues.

        The overdue check (wakeup queue only) belongs to quiescent points;
        after a mutation leave ``overdue_tolerance_ms`` at ``None``: a
        just-registered late alarm legally sits overdue until the delivery
        phase of the same iteration pops it.
        """
        if self._manager is None:
            return
        self._checks += 1
        # Cleared first, so an audit that raises (``"raise"`` mode) is
        # never taken for a clean one.
        self._clean = False
        # The audit reads every queued alarm, delivered or not.
        self._delivered.clear()
        wakeup = check_queue(
            self._manager.wakeup_queue,
            now,
            registered_ids=self._registered_ids,
            overdue_tolerance_ms=overdue_tolerance_ms,
        )
        for violation in wakeup:
            self._emit(violation)
        nonwakeup = check_queue(
            self._manager.nonwakeup_queue,
            now,
            registered_ids=self._registered_ids,
        )
        for violation in nonwakeup:
            self._emit(violation)
        self._clean = not wakeup and not nonwakeup

    def _emit(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.on_violation == "raise":
            raise InvariantViolationError(violation)
        if self.on_violation == "warn":
            warnings.warn(violation.format(), RuntimeWarning, stacklevel=3)
