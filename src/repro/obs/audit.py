"""Sampled decision-audit trail for the alignment policies.

The paper's contribution is a *decision procedure*: SIMTY's two-phase
search/selection over hardware x time similarity (Table 1).  The
telemetry hub (PR 4) counts how often and how fast those decisions
happen; this module records *why* — which candidates were considered,
which similarity ranks they scored, why losers were rejected, and what
deferral the winner bought — as plain-data :class:`DecisionRecord`\\ s
in a bounded ring buffer.

Design constraints (mirroring the telemetry hub):

* **Zero-cost when disabled.**  Policies hold a module-level
  :data:`NULL_AUDIT` whose ``enabled`` is ``False``; the hot path pays
  one attribute check, nothing else.
* **Deterministic sampling.**  Whether decision *n* is recorded is a
  pure function of the run digest and *n* (a seeded LCG advanced once
  per decision), never of wall time or process identity — so sampling
  is identical across queue backends, batch/stepping drivers and shard
  workers, and turning the audit on cannot perturb anything the run
  digests over.
* **Outside the digested payload.**  Records ride on
  ``SimulationTrace.decisions`` which ``trace_to_dict`` deliberately
  does not serialize; byte-identity suites never see them.

This module is dependency-free within the package: records duck-type
the alarm/entry objects they describe (attribute access only) so
``repro.obs`` keeps importing nothing from ``repro.core``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "DecisionAudit",
    "DecisionRecord",
    "NULL_AUDIT",
    "NullDecisionAudit",
]

# Knuth/Numerical-Recipes 64-bit LCG constants; full period mod 2**64.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class DecisionRecord:
    """One sampled search-and-select decision, as plain data.

    ``seq`` is the global decision index (0-based, counting *every*
    decision, sampled or not) so sampled records can be placed on the
    run's decision timeline.  Similarity fields are ``None`` for
    policies that don't classify (NATIVE, BUCKET).
    """

    seq: int
    policy: str
    #: "insert" (fresh registration) or "rebatch" (NATIVE re-anchoring).
    kind: str
    #: Simulation time (ms) when the decision was taken.
    time: int
    alarm_id: int
    label: str
    app: str
    wakeup: bool
    perceptible: bool
    nominal_time: int
    #: Candidates examined in the search window.
    scanned: int
    #: Candidates that passed the applicability test.
    applicable: int
    #: (reason, count) tallies for rejected candidates, sorted by reason.
    rejections: Tuple[Tuple[str, int], ...] = ()
    #: Winning entry's id, or None when a new entry was opened.
    chosen_entry: Optional[int] = None
    new_entry: bool = False
    #: Winner's hardware-similarity rank ("High"/"Low") if classified.
    hw: Optional[str] = None
    #: Winner's time-similarity rank ("High"/"Medium"/"Low") if classified.
    time_sim: Optional[str] = None
    #: Table-1 preference score of the winner (1 best), if classified.
    table1_rank: Optional[int] = None
    #: delivery_time - nominal_time at selection (later joins may shift it).
    deferral_ms: int = 0

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "policy": self.policy,
            "kind": self.kind,
            "time": self.time,
            "alarm_id": self.alarm_id,
            "label": self.label,
            "app": self.app,
            "wakeup": self.wakeup,
            "perceptible": self.perceptible,
            "nominal_time": self.nominal_time,
            "scanned": self.scanned,
            "applicable": self.applicable,
            "rejections": [list(pair) for pair in self.rejections],
            "chosen_entry": self.chosen_entry,
            "new_entry": self.new_entry,
            "hw": self.hw,
            "time_sim": self.time_sim,
            "table1_rank": self.table1_rank,
            "deferral_ms": self.deferral_ms,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "DecisionRecord":
        return cls(
            seq=payload["seq"],
            policy=payload["policy"],
            kind=payload["kind"],
            time=payload["time"],
            alarm_id=payload["alarm_id"],
            label=payload["label"],
            app=payload["app"],
            wakeup=payload["wakeup"],
            perceptible=payload["perceptible"],
            nominal_time=payload["nominal_time"],
            scanned=payload["scanned"],
            applicable=payload["applicable"],
            rejections=tuple(
                (reason, int(count))
                for reason, count in payload.get("rejections", [])
            ),
            chosen_entry=payload.get("chosen_entry"),
            new_entry=payload.get("new_entry", False),
            hw=payload.get("hw"),
            time_sim=payload.get("time_sim"),
            table1_rank=payload.get("table1_rank"),
            deferral_ms=payload.get("deferral_ms", 0),
        )


class DecisionAudit:
    """Digest-seeded, sampled, ring-buffered decision recorder.

    Every policy follows one contract per decision: read :meth:`next_seq`
    (the decision's sequence number), call :meth:`should_sample` exactly
    once (it advances both the counter and the sampling LCG, whether or
    not the caller records), and :meth:`append` the finished record only
    when it returned True::

        seq = audit.next_seq()
        if audit.should_sample():
            audit.append(DecisionRecord(seq=seq, ...))

    :class:`~repro.core.policy.AlignmentPolicy` wraps the two halves as
    ``_sampled_seq`` (which draws nothing while ``enabled`` is False) and
    ``_append_decision``.
    """

    enabled = True

    def __init__(
        self,
        seed: int = 0,
        sample_rate: float = 1.0,
        capacity: int = 4096,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.seed = int(seed) & _LCG_MASK
        self.sample_rate = float(sample_rate)
        self.capacity = capacity
        self._state = self.seed
        self._seq = 0
        self._sampled = 0
        self._ring: Deque[DecisionRecord] = deque(maxlen=capacity)

    @classmethod
    def for_digest(
        cls,
        digest: str,
        sample_rate: float = 1.0,
        capacity: int = 4096,
    ) -> "DecisionAudit":
        """Seed from a run/spec digest so sampling is reproducible."""
        return cls(
            seed=int(digest[:16], 16),
            sample_rate=sample_rate,
            capacity=capacity,
        )

    # ------------------------------------------------------------------
    @property
    def decisions_seen(self) -> int:
        return self._seq

    @property
    def decisions_sampled(self) -> int:
        return self._sampled

    def next_seq(self) -> int:
        """The sequence number the *next* decision will get."""
        return self._seq

    def should_sample(self) -> bool:
        """Advance to the next decision; True if it must be recorded.

        Must be called exactly once per decision regardless of whether
        the caller ends up emitting — the LCG sequence is the shared
        clock that keeps sampling identical across backends.
        """
        self._seq += 1
        self._state = (self._state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        if self.sample_rate >= 1.0:
            return True
        return (self._state >> 11) / float(1 << 53) < self.sample_rate

    def append(self, record: DecisionRecord) -> None:
        """Buffer a record whose :meth:`should_sample` draw returned True."""
        self._ring.append(record)
        self._sampled += 1

    def records(self) -> List[DecisionRecord]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._state = self.seed
        self._seq = 0
        self._sampled = 0


class NullDecisionAudit:
    """The disabled audit: one attribute check on the hot path."""

    enabled = False
    seed = 0
    sample_rate = 0.0
    capacity = 0
    decisions_seen = 0
    decisions_sampled = 0

    def next_seq(self) -> int:
        return 0

    def should_sample(self) -> bool:
        return False

    def append(self, record: DecisionRecord) -> None:
        pass

    def records(self) -> List[DecisionRecord]:
        return []

    def clear(self) -> None:
        pass


NULL_AUDIT = NullDecisionAudit()
