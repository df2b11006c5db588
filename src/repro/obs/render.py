"""Plain-text rendering of telemetry summaries for the CLI.

The ``simty profile`` command (and ``run --telemetry``, ``inspect
--telemetry``) print three views over a
:class:`~repro.obs.summary.TelemetrySummary`:

* the **per-phase timing table** — span aggregates sorted by total time,
  answering "where did the wall time go" (engine dispatch vs SIMTY search
  vs selection vs registration);
* the **similarity-class breakdown** — the Table 1 decision matrix as the
  policy actually exercised it: for each hardware×time similarity cell,
  how many candidate entries were applicable and how many won selection;
* the **counter/gauge listing** — everything else, alphabetically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .summary import TelemetrySummary

__all__ = [
    "render_counters",
    "render_decisions",
    "render_phase_table",
    "render_similarity_breakdown",
    "render_telemetry",
    "render_wake_table",
]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        if rows
        else len(headers[col])
        for col in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [fmt(headers), fmt(tuple("-" * width for width in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_phase_table(summary: TelemetrySummary) -> str:
    """Span aggregates as a table, heaviest phase first."""
    if not summary.spans:
        return "(no spans recorded)"
    rows = []
    ordered = sorted(
        summary.spans.items(), key=lambda item: -item[1].total_ns
    )
    for name, span in ordered:
        rows.append(
            (
                name,
                str(span.count),
                f"{span.total_ms:.3f}",
                f"{span.mean_us:.1f}",
                f"{span.min_ns / 1e3:.1f}",
                f"{span.max_ns / 1e3:.1f}",
            )
        )
    return _table(
        ("phase", "count", "total [ms]", "mean [us]", "min [us]", "max [us]"),
        rows,
    )


def _similarity_cells(
    summary: TelemetrySummary, counter: str
) -> Dict[Tuple[str, str], int]:
    cells: Dict[Tuple[str, str], int] = {}
    for labels, value in summary.counter_cells(counter).items():
        label_map = dict(labels)
        hw = label_map.get("hw")
        time = label_map.get("time")
        if hw is None or time is None:
            continue
        cells[(hw, time)] = cells.get((hw, time), 0) + value
    return cells


#: Preferred label orders so the matrix reads like the paper's Table 1.
_HW_ORDER = ("high", "medium-hungry", "medium-light", "medium", "shared", "low", "disjoint")
_TIME_ORDER = ("high", "medium", "low")


def _ordered(values: List[str], preference: Sequence[str]) -> List[str]:
    known = [value for value in preference if value in values]
    extra = sorted(value for value in values if value not in preference)
    return known + extra


def render_similarity_breakdown(summary: TelemetrySummary) -> str:
    """The SIMTY decision matrix: applicable/selected per similarity cell."""
    applicable = _similarity_cells(summary, "simty.applicable")
    selected = _similarity_cells(summary, "simty.selected")
    if not applicable and not selected:
        return "(no SIMTY decisions recorded)"
    hw_values = _ordered(
        list({hw for hw, _ in (*applicable, *selected)}), _HW_ORDER
    )
    time_values = _ordered(
        list({time for _, time in (*applicable, *selected)}), _TIME_ORDER
    )
    rows = []
    for time in time_values:
        cells = []
        for hw in hw_values:
            cells.append(
                f"{applicable.get((hw, time), 0)}/{selected.get((hw, time), 0)}"
            )
        rows.append((f"time={time}", *cells))
    table = _table(
        ("applicable/selected", *(f"hw={hw}" for hw in hw_values)), rows
    )
    footer = (
        f"searches: {summary.counter('simty.searches')}  "
        f"new entries: {summary.counter('simty.new_entry')}  "
        f"candidates scanned: "
        f"{int(summary.histograms['simty.candidates_scanned'].total) if 'simty.candidates_scanned' in summary.histograms else 0}"
    )
    return table + "\n" + footer


def render_counters(summary: TelemetrySummary) -> str:
    """Counters, gauge envelopes and histogram statistics, alphabetically.

    A histogram's p50 and p99 are :meth:`~repro.obs.telemetry.Hist.percentile`
    estimates: the covering power-of-two bucket's bound, clamped to the max.
    """
    lines: List[str] = []
    for key in sorted(summary.counters):
        lines.append(f"  {key:<56s} {summary.counters[key]}")
    for key in sorted(summary.gauges):
        cell = summary.gauges[key]
        lines.append(
            f"  {key:<56s} last={cell.last:g} min={cell.min:g} "
            f"max={cell.max:g} ({cell.updates} updates)"
        )
    for key in sorted(summary.histograms):
        cell = summary.histograms[key]
        lines.append(
            f"  {key:<56s} n={cell.count} mean={cell.mean:.2f} "
            f"p50={cell.percentile(0.5):g} p99={cell.percentile(0.99):g} "
            f"min={cell.min:g} max={cell.max:g}"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_wake_table(trace) -> str:
    """The per-run "why did we wake" table.

    ``trace`` duck-types :class:`~repro.simulator.trace.SimulationTrace`
    (this package imports nothing from the simulator): each batch that
    woke the device becomes a row naming the wakeup alarms that caused
    it, plus a per-app attribution footer.
    """
    wake_batches = [batch for batch in trace.batches if batch.woke_device]
    if not wake_batches:
        return "(no device wakes recorded)"
    rows = []
    app_wakes: Dict[str, int] = {}
    for batch in wake_batches:
        causes = [record for record in batch.alarms if record.wakeup]
        labels = [
            record.label
            if record.label == record.app
            or record.label.startswith(record.app + ":")
            else f"{record.app}:{record.label}"
            for record in causes
        ]
        shown = ", ".join(labels[:3]) + (
            f" (+{len(labels) - 3})" if len(labels) > 3 else ""
        )
        max_defer = max(
            (record.delivered_at - record.nominal_time for record in causes),
            default=0,
        )
        for app in {record.app for record in causes}:
            app_wakes[app] = app_wakes.get(app, 0) + 1
        rows.append(
            (
                str(batch.delivered_at),
                str(len(batch.alarms)),
                str(len(causes)),
                str(max_defer),
                str(batch.busy_ms),
                shown or "(non-wakeup batch woke device)",
            )
        )
    table = _table(
        ("t [ms]", "alarms", "wakeups", "max defer", "busy [ms]", "caused by"),
        rows,
    )
    attribution = "  ".join(
        f"{app}={count}"
        for app, count in sorted(app_wakes.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    footer = (
        f"wakes: {len(wake_batches)}/{trace.batch_count()} batches  "
        f"deliveries: {trace.delivery_count()}"
    )
    if attribution:
        footer += f"\nwakes by app: {attribution}"
    return table + "\n" + footer


def render_decisions(records, limit: int = 0) -> str:
    """Sampled decision-audit records as a table (newest last).

    ``records`` duck-types :class:`~repro.obs.audit.DecisionRecord`.
    ``limit`` keeps only the last N rows (0 = all).
    """
    records = list(records)
    if limit and len(records) > limit:
        records = records[-limit:]
    if not records:
        return "(no decisions sampled)"
    rows = []
    for record in records:
        if record.new_entry:
            decision = "new entry"
        elif record.chosen_entry is not None:
            decision = f"join #{record.chosen_entry}"
        else:
            decision = "-"
        if record.hw is not None:
            rank = f"{record.hw}/{record.time_sim}"
            if record.table1_rank is not None:
                rank += f" (rank {record.table1_rank})"
        else:
            rank = "-"
        rejections = " ".join(
            f"{reason}x{count}" for reason, count in record.rejections
        )
        if record.label == record.app or record.label.startswith(
            record.app + ":"
        ):
            alarm = record.label
        else:
            alarm = f"{record.app}:{record.label}"
        rows.append(
            (
                str(record.seq),
                str(record.time),
                record.kind,
                alarm,
                str(record.scanned),
                str(record.applicable),
                decision,
                rank,
                str(record.deferral_ms),
                rejections or "-",
            )
        )
    return _table(
        (
            "seq",
            "t [ms]",
            "kind",
            "alarm",
            "scanned",
            "applic",
            "decision",
            "hw/time",
            "defer [ms]",
            "rejected",
        ),
        rows,
    )


def render_telemetry(summary: TelemetrySummary) -> str:
    """Full report: phases, similarity breakdown, metrics."""
    sections = [
        "per-phase timings:",
        render_phase_table(summary),
        "",
        "similarity-class decisions (applicable/selected per Table 1 cell):",
        render_similarity_breakdown(summary),
        "",
        "metrics:",
        render_counters(summary),
    ]
    if summary.dropped_events:
        sections.append(
            f"\n({summary.dropped_events} span events dropped at the "
            "retention cap)"
        )
    return "\n".join(sections)
