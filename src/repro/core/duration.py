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
from typing import List, Optional

from .alarm import Alarm
from .entry import QueueEntry
from .queue import AlarmQueue
from .simty import Probe, SimtyPolicy, applicability


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
        self,
        queue: AlarmQueue,
        alarm: Alarm,
        now: int,
        candidates: Optional[List[QueueEntry]] = None,
    ) -> Optional[QueueEntry]:
        """SIMTY's search with ``(preference, duration dissimilarity)``
        as the selection key; telemetry and the audit come from the
        inherited explain pass."""
        best_entry: Optional[QueueEntry] = None
        best_key = (math.inf, math.inf)
        probe = Probe.of(alarm)
        hardware = alarm.hardware
        rank = self.hardware_classifier.rank
        # Same exact pre-filter as SIMTY: applicability implies grace
        # overlap, so only grace candidates can win.
        if candidates is None:
            candidates = queue.grace_candidates(alarm.grace_interval())
        for entry in candidates:
            level = applicability(probe, entry)
            if level is None:
                continue
            key = (
                2 * rank(hardware, entry.hardware) + level + 1,
                duration_dissimilarity(alarm, entry),
            )
            if key < best_key:
                best_key = key
                best_entry = entry
        return best_entry
