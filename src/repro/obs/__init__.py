"""Runtime observability: the telemetry hub, summaries and exporters.

This package is deliberately dependency-free within :mod:`repro` (nothing
here imports the simulator, runner or analysis layers), so every layer can
instrument itself against :class:`Telemetry` without import cycles.

Quick tour::

    from repro.obs import Telemetry

    tel = Telemetry()
    with tel.span("engine.run", policy="SIMTY"):
        tel.count("engine.events", type="registration")
        tel.gauge("engine.queue_depth", 12)
    summary = tel.summary()            # plain data, picklable, JSON-able
    print(summary.span_total_ms("engine.run"))

Disabled instrumentation uses :data:`NULL_TELEMETRY` — a shared no-op hub
— so hot paths pay nothing when observability is off.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".audit": (
            "NULL_AUDIT",
            "DecisionAudit",
            "DecisionRecord",
            "NullDecisionAudit",
        ),
        ".exporters": (
            "chrome_trace_payload",
            "jsonl_lines",
            "prometheus_text",
            "write_chrome_trace",
            "write_jsonl",
        ),
        ".render": (
            "render_counters",
            "render_decisions",
            "render_phase_table",
            "render_similarity_breakdown",
            "render_telemetry",
            "render_wake_table",
        ),
        ".stream": (
            "STREAM_SCHEMA",
            "Collector",
            "MetricsEndpoint",
            "SourceState",
            "SpoolSink",
            "TelemetryStream",
        ),
        ".summary": (
            "EMPTY_SUMMARY",
            "GaugeSummary",
            "SpanSummary",
            "TelemetrySummary",
            "diff_summaries",
            "merge_summaries",
            "summarize",
        ),
        ".telemetry": (
            "COUNTER_MAX",
            "NULL_TELEMETRY",
            "FakeClock",
            "Hist",
            "NullTelemetry",
            "SpanEvent",
            "SpanMismatchError",
            "Telemetry",
            "metric_key",
            "split_metric",
        ),
    },
)
