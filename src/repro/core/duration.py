"""Duration-aware SIMTY: the paper's proposed extension (Sec. 5).

"A sensible extension of SIMTY is to align alarms that wakelock the same
hardware with the highest possible 'duration similarity', if the duration of
hardware wakelocking is specified during alarm registration."

This module implements that extension on the assumption (granted by the
paper's hypothetical future Android practice) that ``Alarm.task_duration``
is declared up front.  Applicability is unchanged — user-experience
guarantees are exactly SIMTY's — but the selection phase breaks Table 1 ties
by *duration similarity*: the normalized distance between the new alarm's
task duration and the mean task duration of the entry's members.  Aligning
tasks of similar length maximizes the hardware on-time that can actually be
shared, which matters once component hold energy (rather than activation
energy) dominates.
"""

from __future__ import annotations

import math
from typing import Optional

from ..obs.audit import DecisionRecord
from .alarm import Alarm
from .entry import QueueEntry
from .queue import AlarmQueue
from .simty import Probe, SimtyPolicy
from .similarity import preference


def duration_dissimilarity(alarm: Alarm, entry: QueueEntry) -> float:
    """Normalized duration distance in ``[0, 1]``; 0 means identical.

    Uses the ratio of the shorter to the longer of (alarm duration, mean
    entry duration); two zero-duration sides are maximally similar.
    """
    entry_mean = sum(member.task_duration for member in entry) / len(entry)
    longer = max(alarm.task_duration, entry_mean)
    shorter = min(alarm.task_duration, entry_mean)
    if longer <= 0:
        return 0.0
    return 1.0 - shorter / longer


class DurationAwareSimtyPolicy(SimtyPolicy):
    """SIMTY with duration-similarity tie-breaking in the selection phase."""

    name = "SIMTY+DUR"

    def _search_and_select(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> Optional[QueueEntry]:
        audit = self.audit
        sampled = False
        seq = 0
        if audit.enabled:
            seq = audit.next_seq()
            sampled = audit.should_sample()
        best_entry: Optional[QueueEntry] = None
        best_key = (math.inf, math.inf)
        best_ranks = None
        scanned = 0
        applicable_count = 0
        rejections: dict = {}
        # Same exact pre-filter as SIMTY: applicability implies grace
        # overlap, so only grace candidates can win.
        probe = Probe.of(alarm)
        for entry in queue.grace_candidates(probe.grace):
            scanned += 1
            applicable, time_sim = self._applicability(probe, entry)
            if not applicable:
                if sampled:
                    if probe.perceptible or entry.perceptible:
                        reason = f"perceptible-time-{time_sim.name.lower()}"
                    else:
                        reason = "time-low"
                    rejections[reason] = rejections.get(reason, 0) + 1
                continue
            applicable_count += 1
            hardware_rank = self.hardware_classifier.rank(
                alarm.hardware, entry.hardware
            )
            key = (
                preference(hardware_rank, time_sim),
                duration_dissimilarity(alarm, entry),
            )
            if key < best_key:
                best_key = key
                best_entry = entry
                best_ranks = (hardware_rank, time_sim)
        if sampled:
            won = best_entry is not None
            rank_names = self.hardware_classifier.rank_names
            audit.append(
                DecisionRecord(
                    seq=seq,
                    policy=self.name,
                    kind="insert",
                    time=now,
                    alarm_id=alarm.alarm_id,
                    label=alarm.label,
                    app=alarm.app,
                    wakeup=alarm.wakeup,
                    perceptible=alarm.is_perceptible(),
                    nominal_time=alarm.nominal_time,
                    scanned=scanned,
                    applicable=applicable_count,
                    rejections=tuple(sorted(rejections.items())),
                    chosen_entry=best_entry.entry_id if won else None,
                    new_entry=not won,
                    hw=rank_names[best_ranks[0]] if won else None,
                    time_sim=best_ranks[1].name.lower() if won else None,
                    table1_rank=int(best_key[0]) if won else None,
                    deferral_ms=(
                        best_entry.delivery_time(self.grace_mode)
                        - alarm.nominal_time
                        if won
                        else 0
                    ),
                )
            )
        return best_entry
