"""Telemetry exporters: JSONL event log, Chrome trace, Prometheus text.

Three consumers, three formats:

* :func:`write_jsonl` — an append-friendly machine-readable event log
  (one JSON object per line: spans first, then final metric snapshots);
* :func:`write_chrome_trace` — the Chrome ``trace_event`` JSON format, so
  a run opens directly in ``about://tracing`` / https://ui.perfetto.dev as
  a flamegraph (each forked child hub gets its own thread lane);
* :func:`prometheus_text` — a Prometheus-style text snapshot of every
  counter, gauge and histogram, for scraping or diffing between runs.

All exporters read a finished hub; none of them mutate it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from .summary import TelemetrySummary, summarize
from .telemetry import Telemetry, split_metric

__all__ = [
    "chrome_trace_payload",
    "jsonl_lines",
    "prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
]

PathLike = Union[str, Path]


def _walk(hub: Telemetry, label: str = "main") -> Iterator[Tuple[str, Telemetry]]:
    """Yield ``(label, hub)`` for the hub and every descendant child."""
    yield label, hub
    for name, child in hub.children:
        yield from _walk(child, name)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_lines(hub: Telemetry) -> Iterator[str]:
    """Serialize a hub tree as JSON lines: span events, then metrics."""
    for label, node in _walk(hub):
        for event in node.events:
            yield json.dumps(
                {
                    "type": "span",
                    "run": label,
                    "name": event.name,
                    "start_us": event.start_ns / 1e3,
                    "dur_us": event.duration_ns / 1e3,
                    "depth": event.depth,
                    "args": {key: value for key, value in event.args},
                },
                sort_keys=True,
            )
    for label, node in _walk(hub):
        own = summarize(node, include_children=False)
        for kind, cells in (
            ("counter", own.counters),
            ("gauge", {k: v.to_dict() for k, v in own.gauges.items()}),
            ("histogram", {k: v.to_dict() for k, v in own.histograms.items()}),
        ):
            for key, value in sorted(cells.items()):
                name, labels = split_metric(key)
                yield json.dumps(
                    {
                        "type": kind,
                        "run": label,
                        "name": name,
                        "labels": labels,
                        "value": value,
                    },
                    sort_keys=True,
                )


def write_jsonl(hub: Telemetry, path: PathLike) -> int:
    """Write the JSONL event log; returns the number of lines written."""
    lines = list(jsonl_lines(hub))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace_payload(hub: Telemetry, pid: int = 1) -> Dict:
    """Build a Chrome ``trace_event`` document from a hub tree.

    Spans become complete (``ph: "X"``) events; each hub in the tree gets
    its own ``tid`` with a ``thread_name`` metadata record, so a sweep's
    runs appear as parallel lanes on one timeline.  Counters are emitted
    as one final ``ph: "C"`` sample per cell (they are aggregates, not
    time series).
    """
    events: List[Dict] = []
    for tid, (label, node) in enumerate(_walk(hub)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
        last_ts = 0.0
        for event in node.events:
            ts = event.start_ns / 1e3
            last_ts = max(last_ts, event.end_ns / 1e3)
            events.append(
                {
                    "name": event.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": ts,
                    "dur": event.duration_ns / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": {key: value for key, value in event.args},
                }
            )
        for key, value in sorted(node.counters.items()):
            name, _ = split_metric(key)
            events.append(
                {
                    "name": key,
                    "cat": "counter",
                    "ph": "C",
                    "ts": last_ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {name: value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(hub: Telemetry, path: PathLike) -> int:
    """Write a Chrome-loadable trace; returns the number of trace events."""
    payload = chrome_trace_payload(hub)
    Path(path).write_text(json.dumps(payload))
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format: backslash,
    double quote and newline are the only escapes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(key)}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def prometheus_text(
    hub_or_summary: Union[Telemetry, TelemetrySummary]
) -> str:
    """Render an aggregated Prometheus-style text snapshot.

    Counters export as ``<name>_total``; gauges as their last value;
    histograms in the cumulative ``_bucket``/``_sum``/``_count`` form with
    power-of-two ``le`` bounds.
    """
    summary = (
        hub_or_summary
        if isinstance(hub_or_summary, TelemetrySummary)
        else summarize(hub_or_summary, include_children=True)
    )
    lines: List[str] = []
    typed = set()

    _KIND_HELP = {
        "counter": "Cumulative count of {source} events.",
        "gauge": "Last observed value of {source}.",
        "histogram": "Distribution of {source} observations.",
    }

    def declare(metric: str, kind: str, source: str) -> None:
        # One HELP + TYPE pair per metric family, emitted before its
        # first sample — the exposition-format contract scrapers expect.
        if metric not in typed:
            typed.add(metric)
            lines.append(
                f"# HELP {metric} " + _KIND_HELP[kind].format(source=source)
            )
            lines.append(f"# TYPE {metric} {kind}")

    for key in sorted(summary.counters):
        name, labels = split_metric(key)
        metric = _prom_name(name) + "_total"
        declare(metric, "counter", name)
        lines.append(f"{metric}{_prom_labels(labels)} {summary.counters[key]}")
    for key in sorted(summary.gauges):
        name, labels = split_metric(key)
        metric = _prom_name(name)
        declare(metric, "gauge", name)
        lines.append(f"{metric}{_prom_labels(labels)} {summary.gauges[key].last}")
    for key in sorted(summary.histograms):
        name, labels = split_metric(key)
        cell = summary.histograms[key]
        metric = _prom_name(name)
        declare(metric, "histogram", name)
        cumulative = 0
        for bound, count in sorted(cell.buckets.items()):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = str(bound)
            lines.append(
                f"{metric}_bucket{_prom_labels(bucket_labels)} {cumulative}"
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(f"{metric}_bucket{_prom_labels(inf_labels)} {cell.count}")
        lines.append(f"{metric}_sum{_prom_labels(labels)} {cell.total}")
        lines.append(f"{metric}_count{_prom_labels(labels)} {cell.count}")
    for metric, value, source in (
        ("telemetry_span_events", summary.span_events, "telemetry.span_events"),
        (
            "telemetry_dropped_events",
            summary.dropped_events,
            "telemetry.dropped_events",
        ),
    ):
        declare(metric, "gauge", source)
        lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"
