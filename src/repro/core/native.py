"""NATIVE: Android 4.4's alignment policy (Sec. 2.1).

When an alarm is inserted, the manager sequentially examines the queue
entries to find one in which every member's window interval overlaps that of
the new alarm; the alarm joins the first such entry, otherwise a new entry is
created.  Because an entry maintains the running *intersection* of its
members' windows, the faithful (and Android-source-accurate, cf.
``Batch.canHold``) test is that the new alarm's window overlaps the entry's
intersected window — this guarantees pairwise overlap with every member *and*
that the intersection stays non-empty after the alarm joins.

Realignment: "if the same alarm still exists in the queue when an alarm is
to be reinserted, the alarm manager will reinsert all the other alarms,
together with the new alarm, into the queue according to their nominal
delivery times" — i.e. the whole queue is rebatched, mirroring Android's
``rebatchAllAlarms``.
"""

from __future__ import annotations

from typing import List, Optional

from .alarm import Alarm
from .entry import QueueEntry
from .policy import AlignmentPolicy
from .queue import AlarmQueue


class NativePolicy(AlignmentPolicy):
    """Android's window-overlap batching with rebatch-on-stale-reinsert."""

    name = "NATIVE"
    grace_mode = False

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        queue.remove_alarm(alarm)
        return self._basic_insert(queue, alarm, now)

    def reinsert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        stale = queue.remove_alarm(alarm)
        if stale is not None:
            return self._rebatch_with(queue, alarm, now)
        return self._basic_insert(queue, alarm, now)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _basic_insert(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> QueueEntry:
        entry = self._find_overlapping_entry(queue, alarm)
        seq = self._sampled_seq()
        if seq is not None:
            # Re-derive the scan the finder just did; only the sampled
            # fraction of decisions pays this second pass.
            start = alarm.nominal_time
            end = start + alarm.window_length
            candidates = queue.window_candidates(alarm.window_interval())
            overlapping = sum(
                1
                for cand in candidates
                if _window_overlaps(cand, start, end) and cand is not entry
            ) + (1 if entry is not None else 0)
            disjoint = len(candidates) - overlapping
        if entry is not None:
            placed = self._place_in_entry(queue, entry, alarm)
        else:
            placed = self._place_in_new_entry(queue, alarm)
        if seq is not None:
            self._append_insert(
                seq,
                now,
                alarm,
                entry,
                scanned=len(candidates),
                applicable=overlapping,
                rejections=(("window-disjoint", disjoint),) if disjoint else (),
                chosen_entry=entry.entry_id if entry is not None else None,
                new_entry=entry is None,
            )
        return placed

    def _find_overlapping_entry(
        self, queue: AlarmQueue, alarm: Alarm
    ) -> Optional[QueueEntry]:
        candidates = queue.window_candidates(alarm.window_interval())
        tel = self.telemetry
        if tel.enabled:
            tel.count("native.searches")
            tel.observe("native.candidates_scanned", len(candidates))
            tel.observe("native.candidates_pruned", len(queue) - len(candidates))
        start = alarm.nominal_time
        end = start + alarm.window_length
        for entry in candidates:
            if _window_overlaps(entry, start, end):
                return entry
        return None

    def _rebatch_with(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> QueueEntry:
        """Rebuild the whole queue in nominal-time order, then place alarm.

        Entries are built against a plain accumulator and loaded into the
        queue once at the end, so the backend pays one bulk ordering pass
        instead of a re-sort per re-inserted alarm.  Selecting the
        *minimum-key* overlapping entry from the accumulator is identical
        to the first-found scan over a sorted queue (queue order *is*
        ascending ``(delivery_time, entry_id)``), so the batching is
        bit-identical to re-inserting through the queue one alarm at a
        time.
        """
        alarms = queue.drain()
        alarms.append(alarm)
        alarms.sort(key=lambda item: (item.nominal_time, item.alarm_id))
        grace_mode = queue.grace_mode
        entries: List[QueueEntry] = []
        target: Optional[QueueEntry] = None
        for item in alarms:
            start = item.nominal_time
            end = start + item.window_length
            best: Optional[QueueEntry] = None
            best_key = None
            for entry in entries:
                if not _window_overlaps(entry, start, end):
                    continue
                key = (entry.delivery_time(grace_mode), entry.entry_id)
                if best_key is None or key < best_key:
                    best, best_key = entry, key
            if best is not None:
                best.add(item)
            else:
                best = QueueEntry([item])
                entries.append(best)
            if item is alarm:
                target = best
        queue.rebuild(entries)
        if self.telemetry.enabled:
            self.telemetry.count("native.rebatches")
            self.telemetry.observe("native.rebatch_alarms", len(alarms))
        assert target is not None
        seq = self._sampled_seq()
        if seq is not None:
            self._append_decision(
                seq,
                "rebatch",
                now,
                alarm,
                scanned=len(alarms),
                applicable=len(entries),
                chosen_entry=target.entry_id,
                new_entry=len(target) == 1,
                deferral_ms=target.delivery_time(self.grace_mode)
                - alarm.nominal_time,
            )
        return target


def _window_overlaps(entry: QueueEntry, start: int, end: int) -> bool:
    """Whether the entry's window intersection meets ``[start, end]``.

    The ``Batch.canHold`` test on integer bounds; an entry whose window
    intersection vanished holds nothing.
    """
    window = entry.window
    return window is not None and window.start <= end and start <= window.end
