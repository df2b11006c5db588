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
from typing import NamedTuple, Optional, Tuple

from .alarm import Alarm
from .entry import QueueEntry
from .intervals import Interval
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

    Built once per insert rather than once per candidate entry.
    """

    window: Interval
    grace: Interval
    perceptible: bool

    @classmethod
    def of(cls, alarm: Alarm) -> "Probe":
        return cls(
            alarm.window_interval(), alarm.grace_interval(), alarm.is_perceptible()
        )


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
        # about 1% of a heavy run).
        if self.telemetry.enabled or self.audit.enabled:
            with self.telemetry.span("simty.search", alarm=alarm.label):
                best = self._search_and_select(queue, alarm, now)
            self._explain(queue, alarm, now, best)
        else:
            best = self._search_and_select(queue, alarm, now)
        if best is not None:
            return self._place_in_entry(queue, best, alarm)
        return self._place_in_new_entry(queue, alarm)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _search_and_select(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> Optional[QueueEntry]:
        """Run both phases and return the winning entry, if any.

        The scan keeps the best (lowest) preferability seen so far; because
        entries are examined in queue order, ties resolve to the first-found
        entry as the paper specifies.
        """
        best_entry: Optional[QueueEntry] = None
        best_score = math.inf
        probe = Probe.of(alarm)
        hardware = alarm.hardware
        rank = self.hardware_classifier.rank
        # Applicability needs at least MEDIUM time similarity, i.e. grace
        # overlap (window overlap implies it, since window ⊆ grace), so the
        # grace-candidate query is an exact search-phase pre-filter.
        for entry in queue.grace_candidates(probe.grace):
            applicable, time_sim = self._applicability(probe, entry)
            if not applicable:
                continue
            hardware_rank = rank(hardware, entry.hardware)
            score = preference(hardware_rank, time_sim)
            if score < best_score:
                best_score = score
                best_entry = entry
        return best_entry

    def _explain(
        self,
        queue: AlarmQueue,
        alarm: Alarm,
        now: int,
        best: Optional[QueueEntry],
    ) -> None:
        """Telemetry and decision audit for one finished search.

        Runs only when either is enabled, after the search and before the
        alarm is placed, so it re-derives from the same queue state what
        the fused loop does not keep: how many candidates were scanned,
        the applicable ones per hardware×time similarity cell (the Table 1
        breakdown), rejections by reason, and the winner's labels and
        Table 1 rank.  Which candidate won comes from the search, so
        subclasses that select differently (SIMTY+DUR) share this pass.
        """
        tel = self.telemetry
        seq = self._sampled_seq()
        probe = Probe.of(alarm)
        hardware = alarm.hardware
        rank = self.hardware_classifier.rank
        rank_names = self.hardware_classifier.rank_names
        tel.count("simty.searches")
        scanned = 0
        applicable = 0
        rejections: dict = {}
        winner: dict = {"new_entry": True}
        for entry in queue.grace_candidates(probe.grace):
            scanned += 1
            ok, time_sim = self._applicability(probe, entry)
            if not ok:
                if probe.perceptible or entry.perceptible:
                    reason = f"perceptible-time-{time_sim.name.lower()}"
                else:
                    reason = "time-low"
                rejections[reason] = rejections.get(reason, 0) + 1
                continue
            applicable += 1
            hardware_rank = rank(hardware, entry.hardware)
            hw, time_label = rank_names[hardware_rank], time_sim.name.lower()
            tel.count("simty.applicable", hw=hw, time=time_label)
            if entry is best:
                winner = {
                    "chosen_entry": entry.entry_id,
                    "hw": hw,
                    "time_sim": time_label,
                    "table1_rank": int(preference(hardware_rank, time_sim)),
                    "deferral_ms": entry.delivery_time(self.grace_mode)
                    - alarm.nominal_time,
                }
        tel.observe("simty.candidates_scanned", scanned)
        tel.observe("simty.candidates_pruned", len(queue) - scanned)
        if best is None:
            tel.count("simty.new_entry")
        else:
            tel.count(
                "simty.selected", hw=winner["hw"], time=winner["time_sim"]
            )
        if seq is not None:
            self._append_decision(
                seq,
                "insert",
                now,
                alarm,
                scanned=scanned,
                applicable=applicable,
                rejections=tuple(sorted(rejections.items())),
                **winner,
            )

    @staticmethod
    def _applicability(
        probe: Probe, entry: QueueEntry
    ) -> Tuple[bool, TimeSimilarity]:
        """Search-phase rule (Sec. 3.2.1)."""
        window, grace, perceptible = probe
        time_sim = classify_time(window, grace, entry.window, entry.grace)
        if perceptible or entry.perceptible:
            return time_sim is TimeSimilarity.HIGH, time_sim
        return time_sim is not TimeSimilarity.LOW, time_sim
