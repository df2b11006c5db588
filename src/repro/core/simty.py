"""SIMTY: the paper's similarity-based alignment policy (Sec. 3.2).

The policy works in two phases.  Given an alarm to insert (after removing any
stale instance of the same alarm):

* **Search phase** — scan the queue entries in delivery-time order and keep
  the *applicable* ones.  If either the alarm or the entry is perceptible,
  the entry is applicable only when their time similarity is *high* (window
  intervals overlap), which guarantees every perceptible alarm is delivered
  within its window.  When both sides are imperceptible, *medium* time
  similarity (grace overlap) also qualifies, so imperceptible alarms may be
  postponed — but never beyond their grace interval.

* **Selection phase** — among applicable entries pick the most *preferable*
  per Table 1: hardware similarity dominates, time similarity breaks ties,
  and the first-found entry wins among equals.

The hardware-similarity granularity is pluggable (Sec. 3.1.1 sketches 2- and
4-level alternatives); the default is the paper's three-level classifier.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .alarm import Alarm
from .entry import QueueEntry
from .policy import AlignmentPolicy
from .queue import AlarmQueue
from .similarity import (
    HardwareSimilarityClassifier,
    ThreeLevelHardware,
    TimeSimilarity,
    classify_time,
    preference,
)


class Probe(NamedTuple):
    """The incoming alarm's side of every applicability test.

    Integer bounds: the window is ``[start, window_end]`` and the grace
    interval ``[start, grace_end]`` (both open at the nominal time).  Built
    once per insert rather than once per candidate entry.
    """

    start: int
    window_end: int
    grace_end: int
    perceptible: bool

    @classmethod
    def of(cls, alarm: Alarm) -> "Probe":
        nominal = alarm.nominal_time
        return cls(
            nominal,
            nominal + alarm.window_length,
            nominal + alarm.grace_length,
            alarm.is_perceptible(),
        )


#: Time-similarity levels as :func:`applicability` returns them.
_HIGH = int(TimeSimilarity.HIGH)
_MEDIUM = int(TimeSimilarity.MEDIUM)

#: The ``time`` label of each applicable level.
_TIME_LABELS = {_HIGH: "high", _MEDIUM: "medium"}

#: One applicable candidate as the search saw it: the entry, its
#: time-similarity level and its hardware-similarity rank.
Verdict = Tuple[QueueEntry, int, int]


def applicability(probe: Probe, entry: QueueEntry) -> Optional[int]:
    """Search-phase rule (Sec. 3.2.1), on integer bounds.

    Returns the entry's time-similarity level when it is applicable —
    ``int(TimeSimilarity.HIGH)`` when the windows overlap,
    ``int(TimeSimilarity.MEDIUM)`` when only the grace intervals do and
    neither side is perceptible — and ``None`` when it is not.  This is
    :func:`~repro.core.similarity.classify_time` followed by the
    perceptibility gate, without building an interval or an enum member.
    """
    start, window_end, grace_end, perceptible = probe
    window = entry.window
    if window is not None and window.start <= window_end and start <= window.end:
        return _HIGH
    if perceptible or entry.perceptible:
        return None
    grace = entry.grace
    if grace is not None and grace.start <= grace_end and start <= grace.end:
        return _MEDIUM
    return None


class SimtyPolicy(AlignmentPolicy):
    """Similarity-based alignment with search and selection phases."""

    name = "SIMTY"
    grace_mode = True

    def __init__(
        self,
        hardware_classifier: Optional[HardwareSimilarityClassifier] = None,
        queue_backend: Optional[str] = None,
    ) -> None:
        super().__init__(queue_backend=queue_backend)
        self.hardware_classifier = hardware_classifier or ThreeLevelHardware()

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        # "we first remove the same alarm if it is still in the queue"
        queue.remove_alarm(alarm)
        # Observed or not, the decision is the same search; only the span
        # is kept off the unobserved path (a null span per insert costs
        # about 1% of a heavy run).  The observed path has the search keep
        # its verdicts, and the explain pass reads them.
        decision = None
        if self.telemetry.enabled or self.audit.enabled:
            verdicts: List[Verdict] = []
            with self.telemetry.span("simty.search", alarm=alarm.label):
                candidates = queue.grace_candidates(alarm.grace_interval())
                best = self._search_and_select(
                    queue, alarm, now, candidates, verdicts
                )
            decision = self._explain(queue, alarm, best, candidates, verdicts)
        else:
            best = self._search_and_select(queue, alarm, now)
        if best is not None:
            entry = self._place_in_entry(queue, best, alarm)
        else:
            entry = self._place_in_new_entry(queue, alarm)
        if decision is not None:
            seq, outcome = decision
            self._append_insert(seq, now, alarm, best, **outcome)
        return entry

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _search_and_select(
        self,
        queue: AlarmQueue,
        alarm: Alarm,
        now: int,
        candidates: Optional[List[QueueEntry]] = None,
        verdicts: Optional[List[Verdict]] = None,
    ) -> Optional[QueueEntry]:
        """Run both phases and return the winning entry, if any.

        The scan keeps the best (lowest) preferability seen so far; because
        entries are examined in queue order, ties resolve to the first-found
        entry as the paper specifies.  ``candidates`` is the alarm's grace
        candidate list when the caller already queried it.  With
        ``verdicts`` given, the search appends one :data:`Verdict` per
        applicable candidate, in candidate order, for the explain pass.
        """
        best_entry: Optional[QueueEntry] = None
        best_score = math.inf
        probe = Probe.of(alarm)
        hardware = alarm.hardware
        rank = self.hardware_classifier.rank
        # Applicability needs at least MEDIUM time similarity, i.e. grace
        # overlap (window overlap implies it, since window ⊆ grace), so the
        # grace-candidate query is an exact search-phase pre-filter.
        if candidates is None:
            candidates = queue.grace_candidates(alarm.grace_interval())
        for entry in candidates:
            level = applicability(probe, entry)
            if level is None:
                continue
            hardware_rank = rank(hardware, entry.hardware)
            if verdicts is not None:
                verdicts.append((entry, level, hardware_rank))
            # Table 1 preferability, as :func:`preference` computes it.
            score = 2 * hardware_rank + level + 1
            if score < best_score:
                best_score = score
                best_entry = entry
        return best_entry

    def _explain(
        self,
        queue: AlarmQueue,
        alarm: Alarm,
        best: Optional[QueueEntry],
        candidates: List[QueueEntry],
        verdicts: List[Verdict],
    ) -> Optional[Tuple[int, dict]]:
        """Telemetry and decision audit for one finished search.

        Runs only when either is enabled, after the search and before the
        alarm is placed.  It reads the search's own ``verdicts`` (the
        applicable candidates with their time-similarity level and
        hardware rank): the applicable ones per hardware×time similarity
        cell (the Table 1 breakdown), tallied here and counted once per
        non-empty cell, and the winner's labels and Table 1 rank.  Which
        candidate won comes from the search, so subclasses that select
        differently (SIMTY+DUR) share this pass.  Returns the sampled
        decision's ``seq`` and fields, or None; :meth:`insert` seals it
        once the alarm is placed.  Only that record reads the rejection
        reasons, taken from the candidates the search found not
        applicable, so an unsampled decision skips them.
        """
        tel = self.telemetry
        seq = self._sampled_seq()
        rank_names = self.hardware_classifier.rank_names
        tel.count("simty.searches")
        cells: dict = {}
        winner: dict = {"new_entry": True}
        for entry, level, hardware_rank in verdicts:
            cell = (hardware_rank, level)
            cells[cell] = cells.get(cell, 0) + 1
            if entry is best:
                time_sim = TimeSimilarity(level)
                winner = {
                    "chosen_entry": entry.entry_id,
                    "hw": rank_names[hardware_rank],
                    "time_sim": time_sim.name.lower(),
                    "table1_rank": int(preference(hardware_rank, time_sim)),
                }
        for (hardware_rank, level), count in cells.items():
            tel.count(
                "simty.applicable",
                count,
                hw=rank_names[hardware_rank],
                time=_TIME_LABELS[level],
            )
        scanned = len(candidates)
        tel.observe("simty.candidates_scanned", scanned)
        tel.observe("simty.candidates_pruned", len(queue) - scanned)
        if best is None:
            tel.count("simty.new_entry")
        else:
            tel.count(
                "simty.selected", hw=winner["hw"], time=winner["time_sim"]
            )
        if seq is None:
            return None
        window, grace = alarm.window_interval(), alarm.grace_interval()
        perceptible = alarm.is_perceptible()
        applicable = {id(entry) for entry, _, _ in verdicts}
        rejections: dict = {}
        for entry in candidates:
            if id(entry) in applicable:
                continue
            if perceptible or entry.perceptible:
                time_sim = classify_time(window, grace, entry.window, entry.grace)
                reason = f"perceptible-time-{time_sim.name.lower()}"
            else:
                reason = "time-low"
            rejections[reason] = rejections.get(reason, 0) + 1
        return seq, dict(
            scanned=scanned,
            applicable=len(verdicts),
            rejections=tuple(sorted(rejections.items())),
            **winner,
        )
