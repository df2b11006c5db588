"""Structured simulation traces.

The engine emits a :class:`SimulationTrace`: every registration, batch
delivery, per-alarm delivery, wake session and wakelock aggregate from one
run.  All metrics (Figs. 3–4, Table 4) and the power model are pure
functions over this trace, which keeps simulation and evaluation cleanly
separated and makes runs easy to serialize for regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from ..core.alarm import Alarm, RepeatKind
from ..core.hardware import Component, HardwareSet
from ..core.invariants import Violation
from ..obs.summary import TelemetrySummary
from .device import WakeSession
from .tasks import TaskExecution
from .wakelock import WakelockLedger


class RegistrationRecord(NamedTuple):
    """An alarm registration seen by the alarm manager."""

    time: int
    alarm_id: int
    app: str
    label: str
    wakeup: bool


class AlarmDeliveryRecord(NamedTuple):
    """One delivery of one alarm.

    ``nominal_time``/``window_end``/``grace_end`` snapshot the occurrence
    that was delivered (repeating alarms mutate afterwards), so delay metrics
    can be computed offline.  ``perceptible`` reflects the alarm's *true*
    hardware usage — the classification the paper's Fig. 4 uses — while the
    policy may have believed otherwise before the first delivery.
    """

    alarm_id: int
    app: str
    label: str
    repeat_kind: RepeatKind
    repeat_interval: int
    wakeup: bool
    perceptible: bool
    hardware: HardwareSet
    nominal_time: int
    window_end: int
    grace_end: int
    delivered_at: int
    batch_index: int

    @property
    def window_delay(self) -> int:
        """Delay behind the window interval (ticks, >= 0)."""
        return max(0, self.delivered_at - self.window_end)

    @property
    def grace_delay(self) -> int:
        """Delay behind the grace interval (ticks, >= 0)."""
        return max(0, self.delivered_at - self.grace_end)

    @property
    def normalized_delay(self) -> float:
        """The paper's Fig. 4 metric: 0 inside the window, else the delay
        behind the window end normalized by the repeating interval.

        One-shot alarms normalize by their window length when it is
        positive; a one-shot with a point window contributes 1.0 if it was
        delivered late at all and 0.0 otherwise — callers typically
        exclude one-shots anyway.
        """
        if self.repeat_interval > 0:
            return self.window_delay / self.repeat_interval
        window_length = self.window_end - self.nominal_time
        if window_length > 0:
            return self.window_delay / window_length
        return float(self.window_delay > 0)


class BatchRecord(NamedTuple):
    """One batch (queue entry) delivery.

    The ``index`` field shadows ``tuple.index``; nothing searches a batch
    record by value, so the tuple method is not missed.
    """

    index: int
    scheduled_time: int
    delivered_at: int
    woke_device: bool
    alarms: List[AlarmDeliveryRecord]
    tasks: List[TaskExecution]
    hardware_holds: Dict[Component, int]

    @property
    def busy_ms(self) -> int:
        return sum(task.duration for task in self.tasks)


def snapshot_delivery(
    alarm: Alarm, delivered_at: int, batch_index: int
) -> AlarmDeliveryRecord:
    """Capture an alarm's occurrence state at the moment of delivery."""
    nominal = alarm.nominal_time
    return AlarmDeliveryRecord(
        alarm.alarm_id,
        alarm.app,
        alarm.label,
        alarm.repeat_kind,
        alarm.repeat_interval,
        alarm.wakeup,
        (
            alarm.repeat_kind is RepeatKind.ONE_SHOT
            or alarm.true_hardware.is_perceptible()
        ),
        alarm.true_hardware,
        nominal,
        nominal + alarm.window_length,
        nominal + alarm.grace_length,
        delivered_at,
        batch_index,
    )


@dataclass
class SimulationTrace:
    """Everything observable from one simulation run."""

    policy_name: str
    horizon: int
    registrations: List[RegistrationRecord] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    sessions: List[WakeSession] = field(default_factory=list)
    wakelocks: WakelockLedger = field(default_factory=WakelockLedger)
    #: Invariant breaches observed by an armed online monitor (empty when
    #: the run was unmonitored or clean).
    violations: List[Violation] = field(default_factory=list)
    #: Telemetry summary for the run (``None`` when the run was not
    #: instrumented).  Plain data, so it crosses process boundaries with
    #: pool workers and survives serialize round trips.
    telemetry: Optional[TelemetrySummary] = None
    #: Sampled decision-audit records (empty when the audit was off).
    #: Deliberately NOT serialized by ``trace_to_dict``: the fuzz and
    #: backend-equivalence suites byte-compare serialized traces, and
    #: audit data must ride outside the digested payload.
    decisions: List = field(default_factory=list)

    # ------------------------------------------------------------------
    # Pickling (result caches and pool workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict:
        # Records pickle as plain tuples, one C-level conversion each
        # rather than one reduce call per named tuple.
        state = self.__dict__.copy()
        state["registrations"] = list(map(tuple, self.registrations))
        state["batches"] = [
            (
                *batch[:4],
                list(map(tuple, batch.alarms)),
                list(map(tuple, batch.tasks)),
                batch.hardware_holds,
            )
            for batch in self.batches
        ]
        return state

    def __setstate__(self, state: Dict) -> None:
        state["registrations"] = list(
            map(RegistrationRecord._make, state["registrations"])
        )
        state["batches"] = [
            BatchRecord(
                *head,
                list(map(AlarmDeliveryRecord._make, alarms)),
                list(map(TaskExecution._make, tasks)),
                holds,
            )
            for *head, alarms, tasks, holds in state["batches"]
        ]
        # setattr interns the keys as pickle's default BUILD does, so a
        # reloaded trace re-pickles to the same bytes.
        for key, value in state.items():
            setattr(self, key, value)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def deliveries(self) -> List[AlarmDeliveryRecord]:
        """All per-alarm deliveries in batch order."""
        return [record for batch in self.batches for record in batch.alarms]

    def deliveries_for(self, label: str) -> List[AlarmDeliveryRecord]:
        """Deliveries of the alarm with the given label, in time order."""
        return [
            record for record in self.deliveries() if record.label == label
        ]

    def wake_count(self) -> int:
        """Device wake transitions (Table 4 CPU row)."""
        return len(self.sessions)

    def batch_count(self) -> int:
        return len(self.batches)

    def total_awake_ms(self) -> int:
        """Total awake time, clipping any open session at the horizon."""
        total = 0
        for session in self.sessions:
            end = session.end if session.end is not None else self.horizon
            total += min(end, self.horizon) - min(session.start, self.horizon)
        return total

    def total_sleep_ms(self) -> int:
        return self.horizon - self.total_awake_ms()

    def delivery_count(self) -> int:
        return sum(len(batch.alarms) for batch in self.batches)

    def last_delivery_time(self) -> Optional[int]:
        if not self.batches:
            return None
        return self.batches[-1].delivered_at
