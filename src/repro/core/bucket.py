"""BUCKET: fixed-interval forced alignment (the intro's "immediate remedy").

The paper's introduction cites an earlier mitigation [Lin et al., ISLPED'15]
that "allows a smartphone to be awakened only at a fixed time interval by
forcibly aligning background activities within each interval".  This policy
implements that remedy as a third comparator: every wakeup alarm is forced
to the next multiple of ``bucket_interval`` at or after its nominal time,
regardless of its window.

It brackets SIMTY from the other side of the design space: with a large
bucket it produces the fewest wakeups of all policies but violates window
(and even grace) intervals of perceptible alarms — exactly the
user-experience loss similarity-based alignment is designed to avoid.  The
A4 bench sweeps the bucket interval against SIMTY.
"""

from __future__ import annotations

from typing import Optional

from .alarm import Alarm
from .entry import QueueEntry
from .intervals import Interval
from .policy import AlignmentPolicy
from .queue import AlarmQueue


class FixedIntervalPolicy(AlignmentPolicy):
    """Force every alarm to the next fixed-interval boundary."""

    name = "BUCKET"
    grace_mode = False

    def __init__(
        self,
        bucket_interval: int = 300_000,
        queue_backend: Optional[str] = None,
    ) -> None:
        super().__init__(queue_backend=queue_backend)
        if bucket_interval <= 0:
            raise ValueError("bucket interval must be positive")
        self.bucket_interval = bucket_interval

    def bucket_time(self, nominal: int) -> int:
        """The first boundary at or after ``nominal``."""
        interval = self.bucket_interval
        return ((nominal + interval - 1) // interval) * interval

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        stale = queue.find_alarm(alarm.alarm_id)
        if stale is not None:
            # Drop the stale instance while its entry is unqueued.  That
            # rebuilds the entry's intervals from the survivors' own, which
            # need not even overlap; the bucket boundary, not that algebra,
            # is their delivery time, so they are pinned back to it.
            queue.remove_entry(stale)
            pinned = stale.window
            stale.remove(stale.contains_alarm_id(alarm.alarm_id))
            if not stale.is_empty():
                _pin(stale, pinned)
                queue.add_entry(stale)
        boundary = self.bucket_time(alarm.nominal_time)
        # Bucket entries carry the zero-width window [boundary, boundary],
        # so the zero-width probe finds exactly the entries anchored at (or
        # spanning) the boundary; the start == boundary check then picks
        # this bucket's own entry.
        probe = Interval(boundary, boundary)
        scanned = 0
        chosen: Optional[QueueEntry] = None
        for entry in queue.window_candidates(probe):
            scanned += 1
            if entry.window is not None and entry.window.start == boundary:
                chosen = entry
                break
        seq = self._sampled_seq()
        if seq is not None:
            mismatches = scanned - 1 if chosen is not None else scanned
            self._append_decision(
                seq,
                "insert",
                now,
                alarm,
                scanned=scanned,
                applicable=1 if chosen is not None else 0,
                rejections=(
                    (("bucket-mismatch", mismatches),) if mismatches else ()
                ),
                chosen_entry=chosen.entry_id if chosen is not None else None,
                new_entry=chosen is None,
                deferral_ms=boundary - alarm.nominal_time,
            )
        if chosen is not None:
            return self._place_in_bucket(queue, chosen, alarm, boundary)
        entry = QueueEntry([alarm])
        _pin(entry, probe)
        queue.add_entry(entry)
        return entry

    def _place_in_bucket(
        self, queue: AlarmQueue, entry: QueueEntry, alarm: Alarm, boundary: int
    ) -> QueueEntry:
        # Pull the entry out, grow it, re-pin its intervals, and re-index:
        # the bucket boundary, not the members' interval algebra, defines
        # the delivery time.
        queue.remove_entry(entry)
        entry.add(alarm)
        _pin(entry, Interval(boundary, boundary))
        queue.add_entry(entry)
        return entry


def _pin(entry: QueueEntry, boundary: Interval) -> None:
    """Pin both of ``entry``'s intervals to its zero-width bucket boundary."""
    entry.window = entry.grace = boundary
