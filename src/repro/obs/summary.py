"""Plain-data telemetry summaries.

A :class:`TelemetrySummary` is the frozen, picklable, JSON-able reduction
of a live :class:`~repro.obs.telemetry.Telemetry` hub: counter cells,
gauge envelopes, histogram stats and per-name span aggregates — everything
needed to *report* on a run, none of the raw event stream.  It rides on
:class:`~repro.simulator.trace.SimulationTrace` (and therefore crosses
process boundaries with pool workers and survives
:mod:`repro.simulator.serialize` round trips), and is what the CLI's
``--stats`` table and ``simty inspect --telemetry`` render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .telemetry import Hist, Telemetry, split_metric

__all__ = [
    "EMPTY_SUMMARY",
    "GaugeSummary",
    "SpanSummary",
    "TelemetrySummary",
    "diff_summaries",
    "merge_summaries",
    "summarize",
]


@dataclass(frozen=True)
class GaugeSummary:
    """Envelope of one gauge cell over a run."""

    last: float
    min: float
    max: float
    updates: int

    def to_dict(self) -> Dict:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "updates": self.updates,
        }


@dataclass(frozen=True)
class SpanSummary:
    """Timing aggregate of every completed span sharing one name."""

    count: int
    total_ns: int
    min_ns: int
    max_ns: int

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_us(self) -> float:
        return (self.total_ns / self.count) / 1e3 if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }


@dataclass(frozen=True)
class TelemetrySummary:
    """Everything a finished hub can report, as plain data.

    Its :class:`~repro.obs.telemetry.Hist` cells are mutable; a summary
    owns its own (:func:`summarize` and the merges copy), and nothing
    mutates them once the summary is built.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, GaugeSummary] = field(default_factory=dict)
    histograms: Dict[str, Hist] = field(default_factory=dict)
    spans: Dict[str, SpanSummary] = field(default_factory=dict)
    span_events: int = 0
    dropped_events: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.counters or self.gauges or self.histograms or self.spans
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Sum of every counter cell with this base name (all label sets)."""
        total = 0
        for key, value in self.counters.items():
            base, _ = split_metric(key)
            if base == name:
                total += value
        return total

    def counter_cells(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], int]:
        """Label-set → value for every cell of one counter name."""
        cells: Dict[Tuple[Tuple[str, str], ...], int] = {}
        for key, value in self.counters.items():
            base, labels = split_metric(key)
            if base == name:
                cells[tuple(sorted(labels.items()))] = value
        return cells

    def counter_by_label(self, name: str, label: str) -> Dict[str, int]:
        """One counter's cells grouped by a single label's value.

        ``counter_by_label("fleet.shards", "status")`` →
        ``{"completed": 7, "retried": 2}``; cells lacking the label are
        ignored, cells differing only in *other* labels sum together.
        """
        out: Dict[str, int] = {}
        for key, value in self.counters.items():
            base, labels = split_metric(key)
            if base == name and label in labels:
                out[labels[label]] = out.get(labels[label], 0) + value
        return out

    def span_total_ms(self, name: str) -> float:
        span = self.spans.get(name)
        return span.total_ms if span is not None else 0.0

    # ------------------------------------------------------------------
    # Serialization (JSON round trip for saved traces)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "counters": dict(self.counters),
            "gauges": {key: cell.to_dict() for key, cell in self.gauges.items()},
            "histograms": {
                key: cell.to_dict() for key, cell in self.histograms.items()
            },
            "spans": {key: cell.to_dict() for key, cell in self.spans.items()},
            "span_events": self.span_events,
            "dropped_events": self.dropped_events,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TelemetrySummary":
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges={
                key: GaugeSummary(**cell)
                for key, cell in payload.get("gauges", {}).items()
            },
            histograms={
                key: Hist.from_dict(cell)
                for key, cell in payload.get("histograms", {}).items()
            },
            spans={
                key: SpanSummary(**cell)
                for key, cell in payload.get("spans", {}).items()
            },
            span_events=payload.get("span_events", 0),
            dropped_events=payload.get("dropped_events", 0),
        )


EMPTY_SUMMARY = TelemetrySummary()


def _merge_into(
    counters: Dict[str, int],
    gauges: Dict[str, GaugeSummary],
    histograms: Dict[str, Hist],
    spans: Dict[str, SpanSummary],
    other: TelemetrySummary,
) -> None:
    for key, value in other.counters.items():
        counters[key] = counters.get(key, 0) + value
    for key, cell in other.gauges.items():
        seen = gauges.get(key)
        if seen is None:
            gauges[key] = cell
        else:
            gauges[key] = GaugeSummary(
                last=cell.last,
                min=min(seen.min, cell.min),
                max=max(seen.max, cell.max),
                updates=seen.updates + cell.updates,
            )
    for key, cell in other.histograms.items():
        seen = histograms.get(key)
        if seen is None:
            # A copy: the merged cell is merged into later, in place.
            histograms[key] = cell.copy()
        else:
            seen.merge(cell)
    for key, cell in other.spans.items():
        seen = spans.get(key)
        if seen is None:
            spans[key] = cell
        else:
            spans[key] = SpanSummary(
                count=seen.count + cell.count,
                total_ns=seen.total_ns + cell.total_ns,
                min_ns=min(seen.min_ns, cell.min_ns),
                max_ns=max(seen.max_ns, cell.max_ns),
            )


def merge_summaries(summaries: Iterable[TelemetrySummary]) -> TelemetrySummary:
    """Merge summaries cell-wise (counters/histograms/spans add; gauge
    envelopes widen, with the last writer's ``last``)."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, GaugeSummary] = {}
    histograms: Dict[str, Hist] = {}
    spans: Dict[str, SpanSummary] = {}
    span_events = 0
    dropped = 0
    for summary in summaries:
        _merge_into(counters, gauges, histograms, spans, summary)
        span_events += summary.span_events
        dropped += summary.dropped_events
    return TelemetrySummary(
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        spans=spans,
        span_events=span_events,
        dropped_events=dropped,
    )


def diff_summaries(
    current: TelemetrySummary, baseline: TelemetrySummary
) -> TelemetrySummary:
    """The delta that, merged onto ``baseline``, reproduces ``current``.

    This is the inverse of :func:`merge_summaries` for everything that
    merges by *addition*: counters, histogram counts/totals/buckets,
    span counts/totals, span/dropped event tallies.  Envelope fields
    (gauge min/max/last, histogram and span min/max) are *not*
    invertible — the delta carries the current envelope, and because
    merging widens envelopes monotonically, replaying deltas in order
    still converges to the current envelope exactly.

    Cells that did not change since the baseline are omitted, so a
    quiet interval produces an (almost) empty delta.  Used by
    :class:`~repro.obs.stream.TelemetryStream` to emit incremental
    snapshots cheap enough to ship every few hundred milliseconds.
    """
    counters: Dict[str, int] = {}
    for key, value in current.counters.items():
        delta = value - baseline.counters.get(key, 0)
        if delta:
            counters[key] = delta
    gauges: Dict[str, GaugeSummary] = {}
    for key, cell in current.gauges.items():
        seen = baseline.gauges.get(key)
        if seen == cell:
            continue
        gauges[key] = GaugeSummary(
            last=cell.last,
            min=cell.min,
            max=cell.max,
            updates=cell.updates - (seen.updates if seen else 0),
        )
    histograms: Dict[str, Hist] = {}
    for key, cell in current.histograms.items():
        seen = baseline.histograms.get(key)
        if seen != cell:
            histograms[key] = cell.diff(seen if seen is not None else Hist())
    spans: Dict[str, SpanSummary] = {}
    for key, cell in current.spans.items():
        seen = baseline.spans.get(key)
        if seen == cell:
            continue
        spans[key] = SpanSummary(
            count=cell.count - (seen.count if seen else 0),
            total_ns=cell.total_ns - (seen.total_ns if seen else 0),
            min_ns=cell.min_ns,
            max_ns=cell.max_ns,
        )
    return TelemetrySummary(
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        spans=spans,
        span_events=current.span_events - baseline.span_events,
        dropped_events=current.dropped_events - baseline.dropped_events,
    )


def summarize(
    hub: Telemetry, include_children: bool = True
) -> TelemetrySummary:
    """Reduce a live hub (and, by default, its forked children) to a
    :class:`TelemetrySummary`."""
    own = TelemetrySummary(
        counters=dict(hub.counters),
        gauges={
            key: GaugeSummary(
                last=cell.last, min=cell.min, max=cell.max, updates=cell.updates
            )
            for key, cell in hub.gauges.items()
        },
        histograms={key: cell.copy() for key, cell in hub.histograms.items()},
        spans={
            key: SpanSummary(
                count=cell.count,
                total_ns=cell.total_ns,
                min_ns=cell.min_ns if cell.min_ns is not None else 0,
                max_ns=cell.max_ns if cell.max_ns is not None else 0,
            )
            for key, cell in hub.span_stats.items()
        },
        span_events=hub.span_count,
        dropped_events=hub.dropped_events,
    )
    if not include_children or not hub.children:
        return own
    parts = [own]
    for _, child in hub.children:
        parts.append(summarize(child, include_children=True))
    return merge_summaries(parts)
