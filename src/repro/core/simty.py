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

from ..obs.audit import DecisionRecord
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

        With telemetry (or the decision audit) enabled the two phases run
        separately (search collects every applicable entry, selection then
        ranks them) so each gets its own span; the fused single-pass below
        is the production path.  Both orderings resolve ties to the
        first-found entry — the ranking uses a strict ``<`` — so the chosen
        entry is identical.
        """
        if self.telemetry.enabled or self.audit.enabled:
            return self._search_and_select_instrumented(queue, alarm, now)
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

    def _search_and_select_instrumented(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> Optional[QueueEntry]:
        """Telemetry/audit variant: explicit search then selection phases.

        Records the Table 1 decision breakdown — per hardware×time
        similarity cell, how many candidates were applicable and which one
        won — plus search/selection timing and scan-width histograms.  When
        the decision audit sampled this insert, also captures the full
        selection path (rejection reasons, winner's ranks, deferral) as a
        :class:`~repro.obs.audit.DecisionRecord`.
        """
        tel = self.telemetry
        audit = self.audit
        seq = audit.next_seq()
        sampled = audit.enabled and audit.should_sample()
        rank_names = self.hardware_classifier.rank_names
        tel.count("simty.searches")
        rejections: dict = {}
        probe = Probe.of(alarm)
        with tel.span("simty.search", alarm=alarm.label):
            scanned = 0
            applicable = []
            for entry in queue.grace_candidates(probe.grace):
                scanned += 1
                ok, time_sim = self._applicability(probe, entry)
                if ok:
                    applicable.append((entry, time_sim))
                elif sampled:
                    if probe.perceptible or entry.perceptible:
                        reason = f"perceptible-time-{time_sim.name.lower()}"
                    else:
                        reason = "time-low"
                    rejections[reason] = rejections.get(reason, 0) + 1
        tel.observe("simty.candidates_scanned", scanned)
        tel.observe("simty.candidates_pruned", len(queue) - scanned)
        with tel.span("simty.select", candidates=len(applicable)):
            best_entry: Optional[QueueEntry] = None
            best_score = math.inf
            best_labels = None
            for entry, time_sim in applicable:
                hardware_rank = self.hardware_classifier.rank(
                    alarm.hardware, entry.hardware
                )
                labels = (rank_names[hardware_rank], time_sim.name.lower())
                tel.count("simty.applicable", hw=labels[0], time=labels[1])
                score = preference(hardware_rank, time_sim)
                if score < best_score:
                    best_score = score
                    best_entry = entry
                    best_labels = labels
        if best_entry is not None:
            tel.count("simty.selected", hw=best_labels[0], time=best_labels[1])
        else:
            tel.count("simty.new_entry")
        if sampled:
            won = best_entry is not None
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
                    applicable=len(applicable),
                    rejections=tuple(sorted(rejections.items())),
                    chosen_entry=best_entry.entry_id if won else None,
                    new_entry=not won,
                    hw=best_labels[0] if won else None,
                    time_sim=best_labels[1] if won else None,
                    table1_rank=int(best_score) if won else None,
                    deferral_ms=(
                        best_entry.delivery_time(self.grace_mode)
                        - alarm.nominal_time
                        if won
                        else 0
                    ),
                )
            )
        return best_entry

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
