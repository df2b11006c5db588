"""Structured results: per-run measurements and harness run records.

:class:`ExperimentResult` (historically defined in
:mod:`repro.analysis.experiments`, still re-exported there) carries
everything measured from one simulation.  :class:`RunRecord` wraps a result
with harness metadata — the spec that produced it, its content digest,
wall time, whether it was served from the cache, and (since the supervised
executor) an explicit :class:`RunStatus` outcome with captured error
details — and :func:`summary_table` / :func:`failure_table` render lists of
records as the plain-text tables the CLI prints under ``--stats``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..metrics.delay import DelayReport
from ..metrics.wakeups import WakeupBreakdown
from ..obs.render import _table
from ..obs.summary import TelemetrySummary
from ..power.accounting import EnergyBreakdown
from ..simulator.trace import SimulationTrace
from .spec import RunSpec


class RunStatus(enum.Enum):
    """How a supervised run ended.

    ``OK`` — simulated (or served from cache) on the first attempt;
    ``RETRIED_OK`` — succeeded after at least one failed attempt;
    ``FAILED`` — every attempt raised (the last error is captured);
    ``TIMEOUT`` — every attempt exceeded the supervisor's ``timeout_s``.
    """

    OK = "ok"
    RETRIED_OK = "retried_ok"
    FAILED = "failed"
    TIMEOUT = "timeout"

    @property
    def is_ok(self) -> bool:
        """True when the record carries a usable result."""
        return self in (RunStatus.OK, RunStatus.RETRIED_OK)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything measured from one (policy, workload) run."""

    workload_name: str
    policy_name: str
    trace: SimulationTrace
    energy: EnergyBreakdown
    delays: DelayReport
    wakeups: WakeupBreakdown
    major_labels: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class RunRecord:
    """One harness run: the spec, its digest, and how the run ended.

    ``wall_time_s`` is the simulation's execution time (0.0 for cache
    hits); ``cache_hit`` is True when the result came from the cache or
    from an identical spec earlier in the same ``run_many`` batch.
    ``result`` is ``None`` exactly when ``status`` is not ok; the error
    fields then describe the last failed attempt.  ``attempts`` counts
    every execution attempt the supervisor made for this digest.
    """

    spec: RunSpec
    digest: str
    result: Optional[ExperimentResult]
    wall_time_s: float
    cache_hit: bool
    status: RunStatus = RunStatus.OK
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status.is_ok

    @property
    def violation_count(self) -> int:
        """Invariant violations recorded by an armed monitor (0 otherwise)."""
        if self.result is None:
            return 0
        return len(self.result.trace.violations)

    @property
    def telemetry(self) -> Optional[TelemetrySummary]:
        """The run's telemetry summary (``None`` when uninstrumented)."""
        if self.result is None:
            return None
        return self.result.trace.telemetry

    def workload_name(self) -> str:
        if self.result is not None:
            return self.result.workload_name
        return self.spec.workload

    def policy_name(self) -> str:
        if self.result is not None:
            return self.result.policy_name
        return self.spec.display_name()


def summary_table(records: Sequence[RunRecord]) -> str:
    """Render run records as an aligned plain-text table."""
    headers = (
        "workload", "policy", "digest", "status", "wall [s]", "cache", "wakeups", "total [J]",
    )
    # Only show the invariant column when at least one run was monitored —
    # unmonitored batches keep the familiar table shape.
    show_violations = any(
        record.result is not None and record.result.trace.violations
        for record in records
    )
    if show_violations:
        headers = headers + ("violations",)
    # Likewise the telemetry column: only instrumented batches widen.
    show_telemetry = any(record.telemetry for record in records)
    if show_telemetry:
        headers = headers + ("engine [ms]",)
    rows = []
    for record in records:
        row = (
            record.workload_name(),
            record.policy_name(),
            record.digest[:12],
            record.status.value,
            f"{record.wall_time_s:.3f}",
            "hit" if record.cache_hit else "miss",
            str(record.result.wakeups.cpu.delivered) if record.result else "-",
            f"{record.result.energy.total_mj / 1000.0:.1f}" if record.result else "-",
        )
        if show_violations:
            row = row + (str(record.violation_count) if record.result else "-",)
        if show_telemetry:
            summary = record.telemetry
            row = row + (
                f"{summary.span_total_ms('engine.run'):.2f}" if summary else "-",
            )
        rows.append(row)
    return _table(headers, rows)


def failure_table(records: Sequence[RunRecord]) -> str:
    """Render the failed/timed-out records (empty string when all ok)."""
    failed = [record for record in records if not record.ok]
    if not failed:
        return ""
    headers = ("workload", "policy", "digest", "status", "attempts", "error")
    rows = []
    for record in failed:
        error = record.error_type or "-"
        if record.error_message:
            first_line = record.error_message.splitlines()[0]
            if len(first_line) > 60:
                first_line = first_line[:57] + "..."
            error = f"{error}: {first_line}"
        rows.append(
            (
                record.workload_name(),
                record.policy_name(),
                record.digest[:12],
                record.status.value,
                str(record.attempts),
                error,
            )
        )
    return _table(headers, rows)
