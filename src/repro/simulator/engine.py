"""The discrete-event simulation engine.

Drives the virtual clock through alarm registrations, RTC fires, batch
deliveries, non-wakeup catch-up deliveries, external wakes and device sleep
transitions, producing a :class:`~repro.simulator.trace.SimulationTrace`.

The engine is policy-agnostic: the same loop evaluates NATIVE, SIMTY, the
EXACT baseline and any custom :class:`~repro.core.policy.AlignmentPolicy`.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..core.alarm import Alarm, RepeatKind
from ..core.backend import BACKEND_NAMES
from ..core.entry import QueueEntry
from ..core.policy import AlignmentPolicy
from ..core.units import THREE_HOURS_MS
from ..obs.audit import NULL_AUDIT
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .alarm_manager import AlarmManager
from .clock import VirtualClock
from .device import DEFAULT_TAIL_MS, Device, WakeReason
from .external import ExternalWake
from .monitor import ON_VIOLATION_MODES, InvariantMonitor
from .rtc import DEFAULT_WAKE_LATENCY_MS, RealTimeClock
from .tasks import component_hold_times, schedule_batch_tasks
from .trace import BatchRecord, RegistrationRecord, SimulationTrace, snapshot_delivery


#: Default ceiling on consecutive loop iterations that fail to advance the
#: clock before the watchdog declares the simulation stalled.  Legitimate
#: same-instant chains (a registration plus its delivery, a rebatch) are a
#: handful of iterations; tens of thousands means a zero-interval alarm or a
#: policy rescheduling into the past.
DEFAULT_MAX_STALLED_EVENTS = 10_000


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunable device/runtime parameters (see DESIGN.md calibration notes).

    ``max_events`` is an optional hard budget on main-loop iterations — a
    guard against alarm storms that technically advance the clock but
    would run for hours; ``max_stalled_events`` bounds consecutive
    iterations at one instant (a non-advancing clock).  Exceeding either
    raises :class:`SimulationStalled` instead of hanging the process, so a
    supervisor can quarantine the run as FAILED.

    ``monitor`` arms the online invariant monitor
    (:class:`~repro.simulator.monitor.InvariantMonitor`) for the run:
    ``None`` (default) runs unmonitored, otherwise one of ``"raise"``,
    ``"record"`` or ``"warn"``.  Being a plain string, the mode is
    digestible, so spec-driven runs (``RunSpec``/``run_many``) can arm it
    through the cache without holding a live object.

    ``queue_backend`` selects the scheduling-kernel storage backend for
    the run's alarm queues (:data:`~repro.core.backend.BACKEND_NAMES`):
    ``None`` (default) defers to the policy, which defaults to
    ``"indexed"``.  Backend choice never changes alignment
    decisions — only their cost — and is part of the RunSpec digest so
    cached results are keyed by it.

    ``live`` arms the engine for service use: ``add_alarm`` /
    ``cancel_alarm`` / ``reregister_alarm`` stay legal *after*
    :meth:`Simulator.start`, inserting into the pending schedules at or
    ahead of the current instant (the alarm-service daemon feeds live
    register/cancel traffic this way).  Batch runs keep the default
    ``False``, where post-start mutation is an error — a spec that was
    already consumed must not silently grow new events.
    """

    horizon: int = THREE_HOURS_MS
    wake_latency_ms: int = DEFAULT_WAKE_LATENCY_MS
    tail_ms: int = DEFAULT_TAIL_MS
    max_events: Optional[int] = None
    max_stalled_events: int = DEFAULT_MAX_STALLED_EVENTS
    monitor: Optional[str] = None
    queue_backend: Optional[str] = None
    live: bool = False

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive (or None)")
        if self.max_stalled_events <= 0:
            raise ValueError("max_stalled_events must be positive")
        if self.monitor is not None and self.monitor not in ON_VIOLATION_MODES:
            raise ValueError(
                f"monitor must be None or one of {ON_VIOLATION_MODES}"
            )
        if (
            self.queue_backend is not None
            and self.queue_backend not in BACKEND_NAMES
        ):
            raise ValueError(
                f"queue_backend must be None or one of {list(BACKEND_NAMES)}"
            )


class SimulationStalled(RuntimeError):
    """The engine watchdog tripped: the run would never (usefully) finish.

    Carries the simulation time, how many loop iterations had run, and the
    tripped budget, so a supervisor can record a structured failure.
    """

    def __init__(self, reason: str, time_ms: int, events: int, budget: float):
        self.reason = reason
        self.time_ms = time_ms
        self.events = events
        self.budget = budget
        super().__init__(
            f"simulation stalled at t={time_ms}ms after {events} events: "
            f"{reason} (budget {budget})"
        )


@dataclass(order=True)
class _PendingRegistration:
    time: int
    sequence: int
    alarm: Alarm = field(compare=False)


@dataclass(order=True)
class _PendingReRegistration:
    """A scheduled cancel-and-re-register (app update / re-install churn)."""

    time: int
    sequence: int
    alarm: Alarm = field(compare=False)
    nominal_offset: Optional[int] = field(compare=False, default=None)


class Simulator:
    """One simulation run: a policy, a device, and a set of alarms."""

    def __init__(
        self,
        policy: AlignmentPolicy,
        config: Optional[SimulatorConfig] = None,
        external_events: Iterable[ExternalWake] = (),
        monitor: Optional[InvariantMonitor] = None,
        telemetry: Optional[Telemetry] = None,
        audit=None,
        deadline: Optional[float] = None,
    ) -> None:
        self.config = config or SimulatorConfig()
        # A time.monotonic() instant (the supervisor's timeout_s); wall
        # clock, so it stays out of the digested SimulatorConfig.
        self._deadline = deadline
        self.policy = policy
        # The run's claim on its alarms: a token, not ``self`` (see add_alarm).
        self._claim = object()
        # The hub is threaded through every decision point of the run —
        # the manager and the policy record onto the same timeline, so a
        # Chrome trace shows the SIMTY search *inside* its registration.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel_enabled = self.telemetry.enabled
        policy.bind_telemetry(self.telemetry)
        # The decision audit follows the same pattern: a null default, and
        # sealed records land on the trace (outside the digested payload).
        self.audit = audit if audit is not None else NULL_AUDIT
        policy.bind_audit(self.audit)
        self.manager = AlarmManager(
            policy,
            telemetry=self.telemetry,
            queue_backend=self.config.queue_backend,
        )
        self.clock = VirtualClock()
        self.device = Device(tail_ms=self.config.tail_ms)
        self.rtc = RealTimeClock(self.config.wake_latency_ms)
        self.trace = SimulationTrace(
            policy_name=policy.name, horizon=self.config.horizon
        )
        if monitor is None and self.config.monitor is not None:
            monitor = InvariantMonitor(on_violation=self.config.monitor)
        self.monitor = monitor
        if self.monitor is not None:
            self.monitor.bind(self.manager, self.config.wake_latency_ms)
        self._registrations: List[_PendingRegistration] = []
        self._registration_seq = 0
        self._registration_index = 0
        self._cancellations: List[_PendingRegistration] = []
        self._cancellation_index = 0
        self._reregistrations: List[_PendingReRegistration] = []
        self._reregistration_index = 0
        self._externals: List[ExternalWake] = sorted(
            external_events, key=lambda event: event.time
        )
        self._external_index = 0
        self._batch_index = 0
        self._session_fresh = False
        self._started = False
        self._finished = False
        #: True while :meth:`_drive` runs its steps (see there).
        self._driving = False
        self._events = 0
        self._stalled = 0
        self._last_instant = -1

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_alarm(self, alarm: Alarm, at: int = 0) -> None:
        """Schedule ``alarm`` to be registered at simulation time ``at``.

        Alarms are mutable and single-use: registering an alarm that a
        different :class:`Simulator` instance already claimed raises,
        because its nominal time, observed hardware and delivery counters
        were advanced by that run and a second run over the same object
        would silently produce wrong metrics.  Build a fresh workload for
        every run instead.

        The claim is a token private to this run, not the simulator
        itself: the alarm keeps the token alive, so the claim outlives the
        run, while no reference cycle runs back through the simulator and
        a finished run is freed as soon as its last reference drops.
        """
        if at < 0:
            raise ValueError("registration time must be non-negative")
        if at >= self.config.horizon:
            raise ValueError(
                f"registration time {at} is at or beyond the horizon "
                f"({self.config.horizon}); the alarm would silently never "
                "fire — register earlier or extend the horizon"
            )
        claim = alarm.claimed_by
        if claim is not None and claim is not self._claim:
            raise ValueError(
                f"alarm {alarm.label!r} was already consumed by a previous "
                "Simulator run; alarms are mutable and single-use — build a "
                "fresh workload (same builder, same config) for every run"
            )
        alarm.claimed_by = self._claim
        pending = _PendingRegistration(at, self._registration_seq, alarm)
        self._registration_seq += 1
        self._enqueue_pending(
            self._registrations, pending, self._registration_index
        )

    def add_alarms(self, alarms: Iterable[Alarm], at: int = 0) -> None:
        for alarm in alarms:
            self.add_alarm(alarm, at)

    def _enqueue_pending(self, schedule: List, pending, processed: int) -> None:
        """Append a pending op, or (live mode) insert it mid-run.

        Before :meth:`start` the schedule is an unsorted append-only list
        (``start`` sorts once).  After ``start`` the unprocessed tail is
        sorted, so a live op is placed with ``bisect.insort`` past the
        already-processed prefix; batch-mode post-start mutation raises —
        a consumed spec must not silently grow new events.
        """
        if not self._started:
            schedule.append(pending)
            return
        if not self.config.live:
            raise RuntimeError(
                "the run already started; scheduling new work mid-run "
                "requires SimulatorConfig(live=True) (service mode)"
            )
        if self._finished:
            raise RuntimeError("the run already finished; build a new Simulator")
        # An op behind the clock is legal: dispatching an instant can push
        # the clock a few ms past it (wake latency, task execution), and
        # batch mode processes such ops at ``max(now, t)`` — catch-up at
        # the next step.  Live mode keeps exactly those semantics; the
        # caller-facing "no scheduling in the past" policy belongs to the
        # service boundary, which validates against the *wall* clock.
        bisect.insort(schedule, pending, lo=processed)

    def cancel_alarm(self, alarm: Alarm, at: int) -> None:
        """Schedule an app-side cancellation of ``alarm`` at time ``at``.

        Cancelling an alarm that is not queued at that moment (e.g. a
        one-shot already delivered) is a no-op, as in Android.
        """
        if at < 0:
            raise ValueError("cancellation time must be non-negative")
        if at >= self.config.horizon:
            raise ValueError(
                f"cancellation time {at} is at or beyond the horizon "
                f"({self.config.horizon}); the cancellation would silently "
                "never take effect"
            )
        pending = _PendingRegistration(at, self._registration_seq, alarm)
        self._registration_seq += 1
        self._enqueue_pending(
            self._cancellations, pending, self._cancellation_index
        )

    def reregister_alarm(
        self, alarm: Alarm, at: int, nominal_offset: Optional[int] = None
    ) -> None:
        """Schedule a cancel-and-re-register of ``alarm`` at time ``at``.

        Models app-update churn: the app cancels its pending alarm and
        immediately sets it again.  ``nominal_offset`` places the new
        nominal time at ``at + nominal_offset``; when omitted, a repeating
        alarm whose nominal already passed is advanced to its next future
        occurrence (static alarms stay on their grid, dynamic alarms
        re-appoint from ``at``) so a re-registration never triggers a
        catch-up burst of stale occurrences.
        """
        if at < 0:
            raise ValueError("re-registration time must be non-negative")
        if at >= self.config.horizon:
            raise ValueError(
                f"re-registration time {at} is at or beyond the horizon "
                f"({self.config.horizon}); it would silently never take effect"
            )
        if nominal_offset is not None and nominal_offset < 0:
            raise ValueError("nominal offset must be non-negative")
        claim = alarm.claimed_by
        if claim is not None and claim is not self._claim:
            raise ValueError(
                f"alarm {alarm.label!r} was already consumed by a previous "
                "Simulator run; build a fresh workload for every run"
            )
        alarm.claimed_by = self._claim
        pending = _PendingReRegistration(
            at, self._registration_seq, alarm, nominal_offset
        )
        self._registration_seq += 1
        self._enqueue_pending(
            self._reregistrations, pending, self._reregistration_index
        )

    # ------------------------------------------------------------------
    # Main loop: the incremental stepping core
    #
    # ``start()`` freezes the pending schedules, ``step()`` owns exactly
    # one dispatch iteration, ``finish()`` seals the trace.  Batch
    # ``run()`` is a thin loop over the three and is proven bit-identical
    # to the pre-split loop by the fuzz corpus and paper-trace replay
    # (tests/integration/test_stepping_equivalence.py).  The alarm-service
    # daemon drives the same core through ``advance_to``.
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in ms."""
        return self.clock.now

    @property
    def started(self) -> bool:
        return self._started

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def pending_op_count(self) -> int:
        """Scheduled registrations/cancellations/re-registrations the loop
        has not dispatched yet (a live daemon's accepted-but-not-yet-
        effective backlog)."""
        return (
            (len(self._registrations) - self._registration_index)
            + (len(self._cancellations) - self._cancellation_index)
            + (len(self._reregistrations) - self._reregistration_index)
        )

    def start(self) -> None:
        """Freeze the pending schedules and arm the loop. Single-use."""
        if self._started:
            raise RuntimeError(
                "Simulator instances are single-use; build a new one"
            )
        self._started = True
        self._registrations.sort()
        self._registration_index = 0
        self._cancellations.sort()
        self._reregistrations.sort()
        self._events = 0
        self._stalled = 0
        self._last_instant = -1

    def step(self) -> Optional[int]:
        """Execute one dispatch iteration: advance to the next event
        instant and process every phase due there.

        Returns the instant processed, or ``None`` when no event remains
        before the horizon (the run is drained; call :meth:`finish`).
        :meth:`run`, :meth:`drain` and :meth:`advance_to` send every step
        through this method, so perfbench's step layer and its ``advance``
        latency probe, which patch it, see them all.
        """
        if not self._started:
            raise RuntimeError("call start() before step()")
        if self._finished:
            raise RuntimeError("the run already finished; build a new Simulator")
        instant = self._next_event_time()
        if instant is None or instant >= self.config.horizon:
            return None
        if not self._driving and self.monitor is not None:
            # A public call: the queues may have changed since the last step.
            self.monitor.on_entry()
        # Watchdog: a policy or injected fault that stops the clock
        # from advancing (or floods the loop past its event budget)
        # must raise a structured error rather than hang the process.
        # The delivery loops tick it too — an alarm that reschedules
        # itself due at the same instant stalls *inside* an iteration,
        # where the outer loop alone would never notice.
        self._watchdog_tick(instant)
        self.clock.advance_to(instant)
        self._dispatch()
        if self.monitor is not None:
            self.monitor.on_step_end(self.clock.now)
        return instant

    def advance_to(self, instant: int) -> int:
        """Process every event due at or before ``instant``; returns the
        number of dispatch iterations executed.

        Afterwards the clock rests at ``min(instant, horizon)`` (never
        moving backwards), so a live driver can park the engine at "wall
        now" even when the queues are quiet.  Events *at* the horizon
        never fire, exactly as in batch mode.
        """
        if not self._started:
            raise RuntimeError("call start() before advance_to()")
        if self._finished:
            raise RuntimeError("the run already finished; build a new Simulator")
        processed = self._drive(instant)
        park = min(instant, self.config.horizon)
        if park > self.clock.now:
            self.clock.advance_to(park)
        return processed

    def next_event_time(self) -> Optional[int]:
        """The instant :meth:`step` would process next, or ``None``."""
        return self._next_event_time()

    def finish(self) -> SimulationTrace:
        """Seal the trace (sessions, monitor epilogue, telemetry).

        Idempotent: a second call returns the already-sealed trace.
        """
        if not self._started:
            raise RuntimeError("call start() before finish()")
        if self._finished:
            return self.trace
        self._finished = True
        horizon = self.config.horizon
        # A wake triggered just before the horizon can resume after it; the
        # session closes at the real clock time and energy accounting clips
        # at the horizon.
        self.device.force_sleep(max(horizon, self.clock.now))
        self.trace.sessions = self.device.sessions
        if self.monitor is not None:
            self.monitor.on_run_end(horizon)
            self.trace.violations = self.monitor.violations
        if self._tel_enabled:
            self.trace.telemetry = self.telemetry.summary()
        if self.audit.enabled:
            self.trace.decisions = self.audit.records()
        return self.trace

    def drain(self) -> SimulationTrace:
        """Step until no event remains before the horizon, then seal.

        Starts the run if needed, so ``Simulator(...).drain()`` is the
        stepping-core spelling of :meth:`run`.
        """
        if not self._started:
            self.start()
        self._drive()
        return self.finish()

    def run(self) -> SimulationTrace:
        """Execute the run and return its trace. Single-use per instance."""
        self.start()
        with self.telemetry.span(
            "engine.run", policy=self.policy.name, horizon=self.config.horizon
        ):
            self._drive()
        return self.finish()

    def _drive(self, until: Optional[int] = None) -> int:
        """Step while an event is due before the horizon (and at or before
        ``until``, when given); returns the number of steps.

        Every step goes through :meth:`step`.  The call is one entry from
        outside the engine, so the monitor drops its clean audit once;
        between the steps it drives only engine code runs, so a clean
        audit may carry from one step end to the next.
        """
        if self.monitor is not None:
            self.monitor.on_entry()
        self._driving = True
        processed = 0
        try:
            if until is None:
                while self.step() is not None:
                    processed += 1
            else:
                horizon = self.config.horizon
                while True:
                    due = self._next_event_time()
                    if due is None or due > until or due >= horizon:
                        break
                    self.step()
                    processed += 1
        finally:
            self._driving = False
        return processed

    def _dispatch(self) -> None:
        """Process every phase due at the current instant, in fixed order.

        Each phase runs only when it has due work, inside its dispatch
        span and followed by its ``engine.events`` count; with telemetry
        off those go to the null hub.  Spans are only opened for phases
        with something due, so the Chrome trace shows real dispatches, not
        thousands of empty probes.  Only the gauges are gated: the queue
        depth costs a count over both queues.
        """
        tel = self.telemetry
        now = self.clock.now
        if self._tel_enabled:
            tel.gauge("engine.queue_depth", self.manager.pending_alarm_count())
            tel.gauge(
                "engine.pending_registrations",
                len(self._registrations) - self._registration_index,
            )
        if (
            self._registration_index < len(self._registrations)
            and self._registrations[self._registration_index].time <= now
        ):
            with tel.span("engine.dispatch.registration", t=now):
                count = self._process_registrations()
            tel.count("engine.events", count, type="registration")
        if (
            self._cancellation_index < len(self._cancellations)
            and self._cancellations[self._cancellation_index].time <= now
        ):
            with tel.span("engine.dispatch.cancellation", t=now):
                count = self._process_cancellations()
            tel.count("engine.events", count, type="cancellation")
        if (
            self._reregistration_index < len(self._reregistrations)
            and self._reregistrations[self._reregistration_index].time <= now
        ):
            with tel.span("engine.dispatch.reregistration", t=now):
                count = self._process_reregistrations()
            tel.count("engine.events", count, type="reregistration")
        if (
            self._external_index < len(self._externals)
            and self._externals[self._external_index].time <= now
        ):
            with tel.span("engine.dispatch.external", t=now):
                count = self._process_externals()
            tel.count("engine.events", count, type="external")
        due = self.manager.next_wakeup_time()
        if due is not None and due <= now:
            with tel.span("engine.dispatch.wakeup", t=now):
                count = self._deliver_due_wakeups()
            tel.count("engine.events", count, type="wakeup_batch")
        if self.device.awake:
            due = self.manager.next_nonwakeup_time()
            if due is not None and due <= self.clock.now:
                with tel.span("engine.dispatch.nonwakeup", t=self.clock.now):
                    count = self._deliver_due_nonwakeups()
                tel.count("engine.events", count, type="nonwakeup_batch")
            self.device.try_sleep(self.clock.now)

    def _watchdog_tick(self, instant: int) -> None:
        """Count one scheduler step; raise when a budget trips.

        ``max_events`` bounds total steps (outer iterations plus
        same-instant delivery pops); ``max_stalled_events`` bounds how many
        *consecutive* steps may share one instant before the run is
        declared stalled; ``deadline`` bounds the run's wall-clock time.
        """
        self._events += 1
        if self._tel_enabled:
            self.telemetry.count("engine.watchdog.ticks")
        max_events = self.config.max_events
        if max_events is not None and self._events > max_events:
            raise SimulationStalled(
                "event budget exhausted", self.clock.now, self._events, max_events
            )
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationStalled(
                "wall-clock deadline passed", self.clock.now, self._events, deadline
            )
        if instant <= self._last_instant:
            self._stalled += 1
            if self._tel_enabled:
                self.telemetry.count("engine.watchdog.stalled")
            if self._stalled > self.config.max_stalled_events:
                raise SimulationStalled(
                    "clock is not advancing",
                    self.clock.now,
                    self._events,
                    self.config.max_stalled_events,
                )
        else:
            self._stalled = 0
        self._last_instant = instant

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def _next_event_time(self) -> Optional[int]:
        """The earliest due time over every cursor, floored at ``now``.

        The floor is taken once, on the minimum: ``min(max(now, t) for t)``
        is ``max(now, min(t))``.  The awake device's sleep deadline is the
        one candidate that is not floored.
        """
        due = math.inf
        if self._registration_index < len(self._registrations):
            due = self._registrations[self._registration_index].time
        if self._cancellation_index < len(self._cancellations):
            due = min(due, self._cancellations[self._cancellation_index].time)
        if self._reregistration_index < len(self._reregistrations):
            due = min(
                due, self._reregistrations[self._reregistration_index].time
            )
        if self._external_index < len(self._externals):
            due = min(due, self._externals[self._external_index].time)
        next_wakeup = self.manager.next_wakeup_time()
        if next_wakeup is not None and next_wakeup < due:
            due = next_wakeup
        if self.device.awake:
            next_nonwakeup = self.manager.next_nonwakeup_time()
            if next_nonwakeup is not None and next_nonwakeup < due:
                due = next_nonwakeup
            return min(max(self.clock.now, due), self.device.sleep_at)
        if due is math.inf:
            return None
        return max(self.clock.now, due)

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _process_registrations(self) -> int:
        now = self.clock.now
        processed = 0
        while (
            self._registration_index < len(self._registrations)
            and self._registrations[self._registration_index].time <= now
        ):
            pending = self._registrations[self._registration_index]
            self._registration_index += 1
            self.manager.register(pending.alarm, now)
            self._record_registration(pending.alarm, now)
            processed += 1
        return processed

    def _record_registration(self, alarm: Alarm, now: int) -> None:
        self.trace.registrations.append(
            RegistrationRecord(
                now, alarm.alarm_id, alarm.app, alarm.label, alarm.wakeup
            )
        )
        if self.monitor is not None:
            self.monitor.on_register(alarm, now)

    def _process_cancellations(self) -> int:
        now = self.clock.now
        processed = 0
        while (
            self._cancellation_index < len(self._cancellations)
            and self._cancellations[self._cancellation_index].time <= now
        ):
            pending = self._cancellations[self._cancellation_index]
            self._cancellation_index += 1
            removed = self.manager.cancel(pending.alarm, now)
            if self.monitor is not None:
                self.monitor.on_cancel(pending.alarm, now, removed)
            processed += 1
        return processed

    def _process_reregistrations(self) -> int:
        now = self.clock.now
        processed = 0
        while (
            self._reregistration_index < len(self._reregistrations)
            and self._reregistrations[self._reregistration_index].time <= now
        ):
            pending = self._reregistrations[self._reregistration_index]
            self._reregistration_index += 1
            alarm = pending.alarm
            removed = self.manager.cancel(alarm, now)
            if self.monitor is not None:
                self.monitor.on_cancel(alarm, now, removed)
            if pending.nominal_offset is not None:
                alarm.nominal_time = now + pending.nominal_offset
            elif alarm.is_repeating and alarm.nominal_time <= now:
                # Advance past every stale occurrence so the re-register
                # never unleashes a catch-up burst: static alarms snap to
                # the next grid point, dynamic alarms re-appoint from now.
                interval = alarm.repeat_interval
                if alarm.repeat_kind is RepeatKind.STATIC:
                    behind = now - alarm.nominal_time
                    alarm.nominal_time += (behind // interval + 1) * interval
                else:
                    alarm.nominal_time = now + interval
            self.manager.register(alarm, now)
            self._record_registration(alarm, now)
            processed += 1
        return processed

    def _process_externals(self) -> int:
        now = self.clock.now
        processed = 0
        while (
            self._external_index < len(self._externals)
            and self._externals[self._external_index].time <= now
        ):
            event = self._externals[self._external_index]
            self._external_index += 1
            if not self.device.awake:
                self.device.wake(now, WakeReason.EXTERNAL)
                self._session_fresh = True
            self.device.extend_busy(now, event.hold_ms)
            processed += 1
        return processed

    def _deliver_due_wakeups(self) -> int:
        due_time = self.manager.next_wakeup_time()
        if due_time is None or due_time > self.clock.now:
            return 0
        if not self.device.awake:
            # RTC interrupt: the device needs wake_latency_ms before the
            # alarm manager runs; the latency shows up as delivery delay
            # (the Fig. 4 NATIVE artifact for alpha = 0 alarms).
            fire_time = self.clock.now
            self.device.wake(fire_time, WakeReason.ALARM)
            self._session_fresh = True
            resume = self.rtc.resume_time(fire_time, device_awake=False)
            self.device.extend_busy(fire_time, resume - fire_time)
            self.clock.advance_to(resume)
        delivered = 0
        while True:
            scheduled = self.manager.next_wakeup_time()
            if scheduled is None or scheduled > self.clock.now:
                break
            self._watchdog_tick(scheduled)
            entry = self.manager.pop_due_wakeup(self.clock.now)
            assert entry is not None
            self._deliver_entry(entry, scheduled)
            delivered += 1
        return delivered

    def _deliver_due_nonwakeups(self) -> int:
        delivered = 0
        while True:
            scheduled = self.manager.next_nonwakeup_time()
            if scheduled is None or scheduled > self.clock.now:
                break
            self._watchdog_tick(scheduled)
            entry = self.manager.pop_due_nonwakeup(self.clock.now)
            assert entry is not None
            self._deliver_entry(entry, scheduled)
            delivered += 1
        return delivered

    def _deliver_entry(self, entry: QueueEntry, scheduled: int) -> None:
        now = self.clock.now
        woke = self._session_fresh
        self._session_fresh = False
        self.device.note_batch()
        tasks = schedule_batch_tasks(entry.alarms, start=now)
        total_busy = sum(task.duration for task in tasks)
        # A task whose wakelock outlives its CPU work (a no-sleep bug,
        # Alarm.hold_duration) keeps the device up until the lock drops.
        max_hold = max((task.hold for task in tasks), default=0)
        self.device.extend_busy(now, max(total_busy, max_hold))
        holds = component_hold_times(tasks)
        self.trace.wakelocks.record_batch(holds)
        records = []
        repeats: List[Tuple[Alarm, bool]] = []
        for alarm in entry:
            records.append(snapshot_delivery(alarm, now, self._batch_index))
            alarm.record_delivery(now)
            repeats.append((alarm, alarm.reschedule(now)))
        self.trace.batches.append(
            BatchRecord(
                self._batch_index, scheduled, now, woke, records, tasks, holds
            )
        )
        self._batch_index += 1
        if self.monitor is not None:
            for record in records:
                self.monitor.on_delivery(record, now)
        # Reinsert after the batch record is sealed so a rebatch (NATIVE
        # realignment) never mutates a delivered entry's snapshot.
        for alarm, repeating in repeats:
            if repeating:
                self.manager.reinsert(alarm, now)
                if self.monitor is not None:
                    self.monitor.on_reinsert(alarm, now)


def simulate(
    policy: AlignmentPolicy,
    alarms: Iterable[Alarm],
    config: Optional[SimulatorConfig] = None,
    external_events: Iterable[ExternalWake] = (),
    telemetry: Optional[Telemetry] = None,
    audit=None,
) -> SimulationTrace:
    """Convenience one-shot runner: register ``alarms`` at t=0 and run."""
    simulator = Simulator(
        policy,
        config=config,
        external_events=external_events,
        telemetry=telemetry,
        audit=audit,
    )
    simulator.add_alarms(alarms)
    return simulator.run()
