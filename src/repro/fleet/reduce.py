"""Constant-memory fleet aggregation: summaries that merge, never grow.

A million-device sweep cannot hold a million run results — each carries
a full trace.  The fleet therefore reduces *streamingly*: every
completed device collapses into a tiny :class:`DeviceSummary`, device
summaries fold into a per-shard :class:`ShardSummary`, and shard summaries
merge into the fleet report.  Everything here is plain data (dict
round-trippable, picklable, journal-able) and every merge is commutative
and associative, so the merged result is independent of shard count,
completion order, and how many times a crashed shard was re-run — the
property the chaos suite asserts byte-for-byte.

Three aggregate kinds:

* **Tallies** — device outcomes (:class:`~repro.runner.record.RunStatus`
  values plus ``"quarantined"``) and invariant-violation counts, overall
  and per archetype.  These ride through every merge so a fleet report
  can state per-archetype failure and violation *rates*, not just means.
* **Histograms** — :class:`~repro.obs.telemetry.Hist`, the telemetry
  hub's own histogram: power-of-two buckets, integer milli-unit totals
  (so merges are exact in any grouping), and a percentile estimator that
  reports a bucket upper bound (pessimistic, never flattering).
* **Reservoir** — a bounded exemplar sample of device summaries.  Rather
  than classic reservoir sampling (whose content depends on stream
  order), the fleet keeps the ``k`` devices with the smallest
  *rank* — a hash of (population digest, device index) — which is a
  uniform sample, yet merge-order independent and stable under resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..obs.summary import TelemetrySummary, merge_summaries
from ..obs.telemetry import Hist
from ..runner.supervision import Outcome

__all__ = [
    "DeviceSummary",
    "QuarantineRecord",
    "ShardSummary",
    "merge_shard_summaries",
]

#: Outcome label used for quarantined devices in status tallies (the
#: RunStatus values cover every other outcome).
QUARANTINED = "quarantined"

#: What a summary written without one of the histograms reads it as.
_EMPTY_HIST = Hist().to_dict()


# ----------------------------------------------------------------------
# Per-device reduction
# ----------------------------------------------------------------------
#: Normalized delays are fractions in [0, 1]; histogram them in parts
#: per million so the integer buckets keep ~6 significant digits.
DELAY_SCALE = 1_000_000


@dataclass(frozen=True)
class DeviceSummary:
    """Everything the fleet keeps about one completed device (~100 bytes,
    vs. megabytes for the outcome it reduces)."""

    device: int
    archetype: str
    rank: str  # hex sampling rank; smallest-k form the reservoir
    status: str
    wakeups: int
    energy_mj: float
    imperceptible_delay: float
    perceptible_delay: float
    violations: int

    @classmethod
    def from_outcome(
        cls, outcome: Outcome, device: int, archetype: str, rank: str
    ) -> "DeviceSummary":
        """Reduce a supervision outcome, carrying status and the violation
        count along (dropping either here would silently zero the fleet's
        per-archetype failure and violation rates)."""
        result = outcome.result
        return cls(
            device=device,
            archetype=archetype,
            rank=rank,
            status=outcome.status.value,
            wakeups=result.wakeups.cpu.delivered if result else 0,
            energy_mj=result.energy.total_mj if result else 0.0,
            imperceptible_delay=(
                result.delays.imperceptible.mean if result else 0.0
            ),
            perceptible_delay=(
                result.delays.perceptible.mean if result else 0.0
            ),
            violations=len(result.trace.violations) if result else 0,
        )

    def to_dict(self) -> Dict:
        return {
            "device": self.device,
            "archetype": self.archetype,
            "rank": self.rank,
            "status": self.status,
            "wakeups": self.wakeups,
            "energy_mj": self.energy_mj,
            "imperceptible_delay": self.imperceptible_delay,
            "perceptible_delay": self.perceptible_delay,
            "violations": self.violations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DeviceSummary":
        return cls(**{k: payload[k] for k in (
            "device", "archetype", "rank", "status", "wakeups", "energy_mj",
            "imperceptible_delay", "perceptible_delay", "violations",
        )})


@dataclass(frozen=True)
class QuarantineRecord:
    """A poison device: who, what failed, and how to reproduce it.

    ``digest`` is the device's :meth:`RunSpec.digest` — together with the
    population digest and device index it is a complete reproducer
    (``population.device(index).run`` rebuilds the exact spec).
    """

    device: int
    archetype: str
    digest: str
    error_type: str
    error_message: str
    attempts: int

    def to_dict(self) -> Dict:
        return {
            "device": self.device,
            "archetype": self.archetype,
            "digest": self.digest,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuarantineRecord":
        return cls(**{k: payload[k] for k in (
            "device", "archetype", "digest", "error_type", "error_message",
            "attempts",
        )})


# ----------------------------------------------------------------------
# Shard summary (the unit that journals, crosses processes, and merges)
# ----------------------------------------------------------------------
@dataclass
class ShardSummary:
    """The constant-memory reduction of one shard (or a merge of many).

    Memory is bounded by ``reservoir_size`` + the tally dict sizes
    (archetype count x status count), independent of device count.
    ``timing`` holds wall-clock measurements; it is carried through
    dict round trips for operators but **excluded from merges and from
    the deterministic report payload** — timings differ between an
    uninterrupted run and a chaos-resumed one even when the population
    results are identical.
    """

    population: str
    shard: int = 0
    lo: int = 0
    hi: int = 0
    completed: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    archetype_status: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: int = 0
    archetype_violations: Dict[str, int] = field(default_factory=dict)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    energy_mj: Hist = field(default_factory=Hist)
    delay_ppm: Hist = field(default_factory=Hist)
    wakeups: Hist = field(default_factory=Hist)
    reservoir: List[DeviceSummary] = field(default_factory=list)
    reservoir_size: int = 32
    telemetry: Optional[TelemetrySummary] = None
    timing: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Streaming observation
    # ------------------------------------------------------------------
    def observe(self, summary: DeviceSummary) -> None:
        """Fold one completed device in (constant time and memory)."""
        self.completed += 1
        self._tally(summary.archetype, summary.status)
        if summary.violations:
            self.violations += summary.violations
            self.archetype_violations[summary.archetype] = (
                self.archetype_violations.get(summary.archetype, 0)
                + summary.violations
            )
        self.energy_mj.observe(summary.energy_mj)
        self.delay_ppm.observe(summary.imperceptible_delay * DELAY_SCALE)
        self.wakeups.observe(summary.wakeups)
        self._admit_reservoir(summary)

    def observe_quarantine(self, record: QuarantineRecord) -> None:
        """Fold one poison device in (counted, listed, never aggregated)."""
        self.quarantined.append(record)
        self._tally(record.archetype, QUARANTINED)

    def _tally(self, archetype: str, status: str) -> None:
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        per = self.archetype_status.setdefault(archetype, {})
        per[status] = per.get(status, 0) + 1

    def _admit_reservoir(self, summary: DeviceSummary) -> None:
        """Keep the smallest ``reservoir_size`` by ``(rank, device)``.

        The reservoir stays sorted, so a device at or above the kept
        maximum is dropped with one comparison and any other is inserted
        in place (a binary search), with no sort per device.
        """
        reservoir = self.reservoir
        key = (summary.rank, summary.device)
        if len(reservoir) >= self.reservoir_size:
            if not reservoir or key >= (reservoir[-1].rank, reservoir[-1].device):
                return
            reservoir.pop()
        lo, hi = 0, len(reservoir)
        while lo < hi:
            mid = (lo + hi) // 2
            entry = reservoir[mid]
            if (entry.rank, entry.device) < key:
                lo = mid + 1
            else:
                hi = mid
        reservoir.insert(lo, summary)

    # ------------------------------------------------------------------
    # Merging (commutative, associative; used shard -> fleet)
    # ------------------------------------------------------------------
    def merge(self, other: "ShardSummary") -> None:
        """Fold ``other`` in.  Population digests must match — merging
        summaries of different populations is always a bug."""
        if other.population != self.population:
            raise ValueError(
                f"cannot merge summaries of different populations "
                f"({self.population[:12]} vs {other.population[:12]})"
            )
        self.completed += other.completed
        for status, n in other.status_counts.items():
            self.status_counts[status] = self.status_counts.get(status, 0) + n
        for archetype, per in other.archetype_status.items():
            mine = self.archetype_status.setdefault(archetype, {})
            for status, n in per.items():
                mine[status] = mine.get(status, 0) + n
        self.violations += other.violations
        for archetype, n in other.archetype_violations.items():
            self.archetype_violations[archetype] = (
                self.archetype_violations.get(archetype, 0) + n
            )
        self.quarantined.extend(other.quarantined)
        self.quarantined.sort(key=lambda record: record.device)
        self.energy_mj.merge(other.energy_mj)
        self.delay_ppm.merge(other.delay_ppm)
        self.wakeups.merge(other.wakeups)
        self.reservoir.extend(other.reservoir)
        self.reservoir.sort(key=lambda entry: (entry.rank, entry.device))
        del self.reservoir[self.reservoir_size:]
        self.lo = min(self.lo, other.lo)
        self.hi = max(self.hi, other.hi)
        if other.telemetry is not None:
            self.telemetry = (
                other.telemetry
                if self.telemetry is None
                else merge_summaries([self.telemetry, other.telemetry])
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def quarantined_count(self) -> int:
        return self.status_counts.get(QUARANTINED, 0)

    def archetype_rates(self) -> Dict[str, Dict[str, float]]:
        """Per archetype: devices seen, failure rate, violation rate."""
        rates: Dict[str, Dict[str, float]] = {}
        for archetype, per in sorted(self.archetype_status.items()):
            seen = sum(per.values())
            bad = sum(
                n for status, n in per.items()
                if status not in ("ok", "retried_ok")
            )
            rates[archetype] = {
                "devices": seen,
                "failure_rate": bad / seen if seen else 0.0,
                "violations": self.archetype_violations.get(archetype, 0),
                "violation_rate": (
                    self.archetype_violations.get(archetype, 0) / seen
                    if seen
                    else 0.0
                ),
            }
        return rates

    # ------------------------------------------------------------------
    # Dict round trip (journal seal lines, process boundaries)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "population": self.population,
            "shard": self.shard,
            "lo": self.lo,
            "hi": self.hi,
            "completed": self.completed,
            "status_counts": dict(sorted(self.status_counts.items())),
            "archetype_status": {
                archetype: dict(sorted(per.items()))
                for archetype, per in sorted(self.archetype_status.items())
            },
            "violations": self.violations,
            "archetype_violations": dict(
                sorted(self.archetype_violations.items())
            ),
            "quarantined": [
                record.to_dict()
                for record in sorted(
                    self.quarantined, key=lambda r: r.device
                )
            ],
            "energy_mj": self.energy_mj.to_dict(),
            "delay_ppm": self.delay_ppm.to_dict(),
            "wakeups": self.wakeups.to_dict(),
            "reservoir": [
                entry.to_dict()
                for entry in sorted(
                    self.reservoir, key=lambda e: (e.rank, e.device)
                )
            ],
            "reservoir_size": self.reservoir_size,
            "telemetry": (
                self.telemetry.to_dict() if self.telemetry is not None else None
            ),
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ShardSummary":
        """Rebuild a summary; keys this version does not know (fields an
        older seal carried) are ignored."""
        telemetry = payload.get("telemetry")
        return cls(
            population=payload["population"],
            shard=int(payload.get("shard", 0)),
            lo=int(payload.get("lo", 0)),
            hi=int(payload.get("hi", 0)),
            completed=int(payload.get("completed", 0)),
            status_counts={
                str(k): int(v)
                for k, v in payload.get("status_counts", {}).items()
            },
            archetype_status={
                str(archetype): {str(k): int(v) for k, v in per.items()}
                for archetype, per in payload.get("archetype_status", {}).items()
            },
            violations=int(payload.get("violations", 0)),
            archetype_violations={
                str(k): int(v)
                for k, v in payload.get("archetype_violations", {}).items()
            },
            quarantined=[
                QuarantineRecord.from_dict(entry)
                for entry in payload.get("quarantined", [])
            ],
            energy_mj=Hist.from_dict(payload.get("energy_mj", _EMPTY_HIST)),
            delay_ppm=Hist.from_dict(payload.get("delay_ppm", _EMPTY_HIST)),
            wakeups=Hist.from_dict(payload.get("wakeups", _EMPTY_HIST)),
            reservoir=sorted(
                (
                    DeviceSummary.from_dict(entry)
                    for entry in payload.get("reservoir", [])
                ),
                key=lambda entry: (entry.rank, entry.device),
            ),
            reservoir_size=int(payload.get("reservoir_size", 32)),
            telemetry=(
                TelemetrySummary.from_dict(telemetry)
                if telemetry is not None
                else None
            ),
            timing={
                str(k): float(v)
                for k, v in payload.get("timing", {}).items()
            },
        )


def merge_shard_summaries(
    summaries: Sequence[ShardSummary], reservoir_size: Optional[int] = None
) -> ShardSummary:
    """Merge shard summaries into one fleet-level summary.

    The merge is order-independent: tallies and histograms are
    commutative sums, the reservoir is the global smallest-``k`` by rank,
    and quarantine lists sort by device index.
    """
    if not summaries:
        raise ValueError("nothing to merge")
    size = (
        reservoir_size
        if reservoir_size is not None
        else max(summary.reservoir_size for summary in summaries)
    )
    merged = ShardSummary(
        population=summaries[0].population,
        shard=-1,
        lo=summaries[0].lo,
        hi=summaries[0].hi,
        reservoir_size=size,
    )
    for summary in summaries:
        merged.merge(
            summary
            if summary.reservoir_size == size
            else replace_reservoir_size(summary, size)
        )
    return merged


def replace_reservoir_size(summary: ShardSummary, size: int) -> ShardSummary:
    clone = ShardSummary.from_dict(summary.to_dict())
    clone.reservoir_size = size
    clone.reservoir.sort(key=lambda entry: (entry.rank, entry.device))
    del clone.reservoir[size:]
    return clone
