"""The alarm manager: registration, alignment dispatch and delivery queues.

Mirrors Android's ``AlarmManager`` role in Figure 1: apps register alarms
with delivery-time attributes; the manager aligns them into queue entries via
the configured policy; the engine asks for due entries and hands back
repeating alarms for reinsertion.  Wakeup and non-wakeup alarms live in
separate queues and are aligned separately (Sec. 2.1, 3.2.1).
"""

from __future__ import annotations

from typing import Optional

from ..core.alarm import Alarm
from ..core.entry import QueueEntry
from ..core.policy import AlignmentPolicy
from ..core.queue import AlarmQueue
from ..obs.telemetry import NULL_TELEMETRY, Telemetry


class AlarmManager:
    """Policy-driven alarm registration and queueing."""

    def __init__(
        self,
        policy: AlignmentPolicy,
        telemetry: Optional[Telemetry] = None,
        queue_backend: Optional[str] = None,
    ) -> None:
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # ``queue_backend`` overrides the policy's own backend selection
        # (SimulatorConfig threads it here); None defers to the policy.
        self.wakeup_queue: AlarmQueue = policy.make_queue(backend=queue_backend)
        self.nonwakeup_queue: AlarmQueue = policy.make_queue(
            backend=queue_backend
        )

    def queue_for(self, alarm: Alarm) -> AlarmQueue:
        """The queue an alarm belongs to (wakeup vs non-wakeup)."""
        return self.wakeup_queue if alarm.wakeup else self.nonwakeup_queue

    # ------------------------------------------------------------------
    # App-facing operations
    # ------------------------------------------------------------------
    def register(self, alarm: Alarm, now: int) -> QueueEntry:
        """Insert a newly registered (or re-registered) alarm."""
        tel = self.telemetry
        with tel.span("manager.register", alarm=alarm.label, t=now):
            entry = self.policy.insert(self.queue_for(alarm), alarm, now)
        wakeup = "true" if alarm.wakeup else "false"
        tel.count("manager.register", wakeup=wakeup)
        return entry

    def cancel(self, alarm: Alarm, now: int = 0) -> bool:
        """Remove an alarm from its queue; True when it was queued.

        When the cancelled alarm shared an entry with other aligned alarms,
        the survivors are pulled out and re-aligned through the policy.
        Their old entry's attributes (window/grace intersection, delivery
        time) were computed *with* the cancelled alarm's intervals in the
        mix; keeping the shrunken entry as-is could pin survivors to an
        anchor that no longer exists.  Android does the same: a
        ``removeLocked`` triggers ``rebatchAllAlarmsLocked``.
        """
        tel = self.telemetry
        with tel.span("manager.cancel", alarm=alarm.label, t=now):
            queue = self.queue_for(alarm)
            removed, batch_mates = queue.detach_batch(alarm)
            survivors = sorted(
                batch_mates, key=lambda a: (a.nominal_time, a.alarm_id)
            )
            for follower in survivors:
                self.policy.insert(queue, follower, now)
        tel.count(
            "manager.cancel", removed="false" if removed is None else "true"
        )
        if survivors:
            tel.count("manager.reanchored", len(survivors))
        return removed is not None

    # ------------------------------------------------------------------
    # Engine-facing operations
    # ------------------------------------------------------------------
    def reinsert(self, alarm: Alarm, now: int) -> QueueEntry:
        """Re-queue a repeating alarm right after its delivery (Sec. 2.1)."""
        self.telemetry.count("manager.reinsert")
        return self.policy.reinsert(self.queue_for(alarm), alarm, now)

    def next_wakeup_time(self) -> Optional[int]:
        return self.wakeup_queue.next_delivery_time()

    def next_nonwakeup_time(self) -> Optional[int]:
        return self.nonwakeup_queue.next_delivery_time()

    def pop_due_wakeup(self, now: int) -> Optional[QueueEntry]:
        return self.wakeup_queue.pop_due(now)

    def pop_due_nonwakeup(self, now: int) -> Optional[QueueEntry]:
        return self.nonwakeup_queue.pop_due(now)

    def pending_alarm_count(self) -> int:
        return self.wakeup_queue.alarm_count() + self.nonwakeup_queue.alarm_count()
