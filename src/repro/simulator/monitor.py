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
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Set, Tuple

from ..core.alarm import Alarm, RepeatKind
from ..core.invariants import (
    Violation,
    ViolationSummary,
    check_delivery,
    check_delivery_gap,
    check_exactly_once,
    check_queue,
)

#: Accepted escalation modes.
ON_VIOLATION_MODES = ("raise", "record", "warn")


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
        self._delivered_occurrences: Set[Tuple[int, int]] = set()
        #: Nominal times delivered per alarm id, so a re-registration can
        #: forget that alarm's occurrences without scanning every delivery.
        self._delivered_nominals: Dict[int, List[int]] = {}
        self._last_delivery: Dict[int, object] = {}
        self._checks = 0

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
        for nominal in self._delivered_nominals.pop(alarm.alarm_id, ()):
            self._delivered_occurrences.discard((alarm.alarm_id, nominal))
        self._audit_queues(now)

    def on_cancel(self, alarm: Alarm, now: int, removed: bool) -> None:
        self._registered_ids.discard(alarm.alarm_id)
        self._registered_at.pop(alarm.alarm_id, None)
        self._last_delivery.pop(alarm.alarm_id, None)
        self._audit_queues(now)

    def on_delivery(self, record, now: int) -> None:
        """Check one sealed delivery record against Sec. 3.2.2."""
        self._checks += 1
        registered_at = self._registered_at.get(record.alarm_id, 0)
        for violation in check_delivery(
            record,
            registered_at=registered_at,
            tolerance_ms=self.tolerance_ms or 0,
        ):
            self._emit(violation)
        for violation in check_exactly_once(
            self._delivered_occurrences, record
        ):
            self._emit(violation)
        self._delivered_occurrences.add((record.alarm_id, record.nominal_time))
        self._delivered_nominals.setdefault(record.alarm_id, []).append(
            record.nominal_time
        )
        previous = self._last_delivery.get(record.alarm_id)
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
        self._audit_queues(now)

    def on_step_end(self, now: int) -> None:
        """Audit at the end of one main-loop iteration (a quiescent point).

        Only here is the overdue check sound: the engine has popped every
        wakeup entry due at or before ``now``, so a wakeup entry whose
        delivery time still lies in the past is an orphaned batch.  During
        registration or mid-delivery the queue legally holds entries that
        are about to be popped in the same iteration.
        """
        if self._manager is None:
            return
        self._checks += 1
        for violation in check_queue(
            self._manager.wakeup_queue,
            now,
            registered_ids=self._registered_ids,
            overdue_tolerance_ms=0,
        ):
            self._emit(violation)
        for violation in check_queue(
            self._manager.nonwakeup_queue,
            now,
            registered_ids=self._registered_ids,
        ):
            self._emit(violation)

    def on_run_end(self, horizon: int) -> None:
        """Final audit: nothing deliverable may be left behind.

        A wakeup entry whose delivery time lies inside the horizon but was
        never popped is an orphaned batch — exactly the failure mode a
        botched mid-run cancellation produces.
        """
        if self._manager is None:
            return
        self._checks += 1
        for violation in check_queue(
            self._manager.wakeup_queue,
            horizon,
            registered_ids=self._registered_ids,
            overdue_tolerance_ms=0,
        ):
            self._emit(violation)
        for violation in check_queue(
            self._manager.nonwakeup_queue,
            horizon,
            registered_ids=self._registered_ids,
        ):
            self._emit(violation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _audit_queues(self, now: int) -> None:
        """Structural audit after a mutation (no overdue check here: a
        just-registered late alarm legally sits overdue until the delivery
        phase of the same iteration pops it)."""
        if self._manager is None:
            return
        self._checks += 1
        for violation in check_queue(
            self._manager.wakeup_queue, now, registered_ids=self._registered_ids
        ):
            self._emit(violation)
        for violation in check_queue(
            self._manager.nonwakeup_queue,
            now,
            registered_ids=self._registered_ids,
        ):
            self._emit(violation)

    def _emit(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.on_violation == "raise":
            raise InvariantViolationError(violation)
        if self.on_violation == "warn":
            warnings.warn(violation.format(), RuntimeWarning, stacklevel=3)
