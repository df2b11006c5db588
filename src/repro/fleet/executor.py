"""The sharded, supervised fleet executor.

``run_fleet`` partitions a :class:`~repro.fleet.population.PopulationSpec`
into deterministic contiguous shards and runs each shard in its own worker
process, built robustness-first:

* **Resumable shards.**  Every shard writes an fsync'd JSONL journal
  (header → device lines → seal carrying the shard's reduced
  :class:`~repro.fleet.reduce.ShardSummary`).  ``resume=True`` trusts
  only journals whose header *and* seal match the population digest and
  shard range; everything else — torn, garbled, missing, or written for
  a different population — is re-run.  Since shard summaries merge
  commutatively and devices derive from ``(population digest, index)``
  alone, a resumed fleet's report is byte-identical to an uninterrupted
  one.
* **Poison-device quarantine.**  Each device runs under the supervision
  substrate (:func:`~repro.runner.supervision.run_supervised_serial`:
  bounded retries with backoff + jitter, optional per-attempt timeout).
  A device that fails every attempt is *quarantined* — recorded with its
  error class and reproducer digest, journaled, and written to the
  quarantine directory — never retried forever, and never allowed to
  take its shard down.
* **Straggler reassignment.**  The parent tracks shard wall-clock
  against the median of completed shards; a shard exceeding
  ``straggler_factor`` x median (with a floor) is terminated and
  reassigned, consuming one of its ``shard_retries``.
* **Constant memory.**  A shard reduces each device as it completes:
  the supervision outcome folds into the shard summary
  (:meth:`~repro.fleet.reduce.ShardSummary.observe`) before the next
  device runs, so at most one device's trace is live in a shard.
* **Honest partial results.**  A fleet report always states devices
  attempted / completed / quarantined, counts failed shards, and refuses
  to print percentiles when coverage falls below the configured
  threshold.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..durable import AppendLog, read_jsonl
from ..obs.stream import SpoolSink, TelemetryStream
from ..obs.summary import TelemetrySummary
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..runner.spec import encode_value
from ..runner.supervision import Outcome, run_supervised_serial
from .chaos import FLEET_CHAOS_WORKLOAD, FleetChaos, install_chaos_workload
from .population import DeviceSpec, PopulationSpec
from .reduce import (
    DeviceSummary,
    QuarantineRecord,
    ShardSummary,
    merge_shard_summaries,
)

__all__ = [
    "FleetConfig",
    "FleetReport",
    "ShardPlan",
    "plan_shards",
    "run_fleet",
    "run_shard",
    "shard_journal_path",
]


# ----------------------------------------------------------------------
# Configuration and sharding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Fleet execution knobs (plain data; crosses the worker boundary).

    ``workers=0`` runs every shard in-process (deterministic unit-test
    mode; incompatible with kill chaos).  ``device_timeout_s`` bounds one
    device attempt's simulation, not its compile (with ``workers >= 1``
    the straggler kill bounds a hung compile); ``device_retries`` extra
    attempts precede quarantine.
    ``coverage_threshold`` is the completed-device fraction below which
    the report withholds percentiles.  Every shard keeps its own telemetry
    hub (progress/outcome counters, device wall-time histogram); the hubs
    merge onto ``FleetReport.telemetry`` and ride in the seal, outside
    the deterministic payload.
    """

    shards: int = 8
    workers: int = 2
    device_retries: int = 1
    device_timeout_s: Optional[float] = None
    device_backoff_s: float = 0.02
    shard_retries: int = 2
    straggler_factor: float = 4.0
    straggler_min_s: float = 30.0
    reservoir_size: int = 32
    coverage_threshold: float = 0.95
    quarantine_dir: Optional[str] = None
    chaos: Optional[FleetChaos] = None
    #: Spool directory for live shard telemetry streams (``--stream``);
    #: None disables streaming.  Plain data, crosses the worker boundary.
    stream_dir: Optional[str] = None
    stream_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.stream_interval_s <= 0:
            raise ValueError("stream_interval_s must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = in-process)")
        if self.device_retries < 0 or self.shard_retries < 0:
            raise ValueError("retries must be non-negative")
        if self.device_timeout_s is not None and self.device_timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if not 0.0 <= self.coverage_threshold <= 1.0:
            raise ValueError("coverage_threshold must be in [0, 1]")
        if self.chaos is not None and self.chaos.kill_shards and self.workers == 0:
            raise ValueError(
                "kill chaos needs worker processes (workers >= 1); "
                "an in-process kill would take the whole fleet down"
            )


@dataclass(frozen=True)
class ShardPlan:
    """One shard: a contiguous device range [lo, hi)."""

    shard: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


def plan_shards(size: int, shards: int) -> List[ShardPlan]:
    """Partition ``size`` devices into near-equal contiguous shards.

    Deterministic and purely positional — resharding never changes which
    devices exist, only which worker simulates them.
    """
    shards = min(shards, size)
    base, extra = divmod(size, shards)
    plans: List[ShardPlan] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        plans.append(ShardPlan(shard=index, lo=lo, hi=hi))
        lo = hi
    return plans


def shard_journal_path(fleet_dir: Union[str, Path], shard: int) -> Path:
    return Path(fleet_dir) / "shards" / f"shard-{shard:04d}.jsonl"


# ----------------------------------------------------------------------
# Shard journal
# ----------------------------------------------------------------------
#: Lines between fsyncs of a shard journal's device lines; the header,
#: quarantine and seal lines always fsync.
SHARD_FSYNC_EVERY = 64


class ShardJournal:
    """Append-only, fsync'd journal of one shard attempt.

    Re-running a shard restarts its journal from scratch (:meth:`begin`
    resets the log): shard-level resume granularity means a partial
    attempt is worthless and must never be half-trusted.  Torn tails are
    tolerated on load — a journal without a valid seal is simply an
    incomplete shard.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._log = AppendLog(path, SHARD_FSYNC_EVERY)

    def begin(
        self, population: str, plan: ShardPlan, attempt: int
    ) -> None:
        self._log.reset()
        self._write(
            {
                "kind": "header",
                "population": population,
                "shard": plan.shard,
                "lo": plan.lo,
                "hi": plan.hi,
                "attempt": attempt,
            },
            sync=True,
        )

    def device(self, index: int, status: str) -> None:
        self._write({"kind": "device", "device": index, "status": status})

    def quarantine(self, record: QuarantineRecord) -> None:
        self._write({"kind": "quarantine", **record.to_dict()}, sync=True)

    def seal(self, summary: Dict) -> None:
        self._write({"kind": "seal", "summary": summary}, sync=True)
        self._log.close()

    def close(self) -> None:
        self._log.close()

    def _write(self, entry: Dict, sync: bool = False) -> None:
        self._log.append(json.dumps(entry, sort_keys=True), sync)


def load_sealed_summary(
    path: Path, population: str, plan: ShardPlan
) -> Optional[ShardSummary]:
    """The journaled shard summary — only if header and seal both check out.

    Returns ``None`` for anything un-trustworthy: no file, no/garbled
    header or seal, or a header written for a different shard range.  A
    *mismatched population digest* is reported by :func:`run_fleet` as an
    error rather than silently re-run — resuming someone else's fleet
    directory is a user mistake worth surfacing.
    """
    entries, _ = read_jsonl(path)
    header = next((e for e in entries if e.get("kind") == "header"), None)
    seal = next((e for e in reversed(entries) if e.get("kind") == "seal"), None)
    if header is None or seal is None:
        return None
    if (
        header.get("population") != population
        or header.get("shard") != plan.shard
        or header.get("lo") != plan.lo
        or header.get("hi") != plan.hi
    ):
        return None
    try:
        summary = ShardSummary.from_dict(seal["summary"])
    except (KeyError, TypeError, ValueError):
        return None
    if summary.population != population or summary.shard != plan.shard:
        return None
    return summary


def journal_population(path: Path) -> Optional[str]:
    """The population digest a journal claims, or None."""
    for entry in read_jsonl(path)[0]:
        if entry.get("kind") == "header":
            return entry.get("population")
    return None


def scan_attempted(path: Path) -> int:
    """Devices attempted by the journal's (latest) shard attempt."""
    return sum(
        1
        for entry in read_jsonl(path)[0]
        if entry.get("kind") in ("device", "quarantine")
    )


# ----------------------------------------------------------------------
# Shard execution (runs inside the worker process)
# ----------------------------------------------------------------------
def run_shard(
    population: PopulationSpec,
    plan: ShardPlan,
    config: FleetConfig,
    fleet_dir: Union[str, Path],
    attempt: int = 1,
) -> ShardSummary:
    """Execute one shard: simulate, quarantine, reduce, journal, seal."""
    digest = population.digest()
    if any(a.workload == FLEET_CHAOS_WORKLOAD for a in population.archetypes):
        install_chaos_workload()
    chaos = config.chaos
    if chaos is not None and chaos.should_hang(plan.shard, attempt):
        time.sleep(chaos.hang_s)
    started = time.perf_counter()
    hub = Telemetry()
    stream = None
    if config.stream_dir is not None:
        stream = TelemetryStream(
            hub,
            source=f"shard-{plan.shard:04d}",
            sink=SpoolSink(config.stream_dir),
            interval_s=config.stream_interval_s,
        )
        # The begin marker resets this source at any collector, so a
        # retried attempt never double-counts a dead attempt's deltas.
        stream.begin(
            meta={
                "population": digest,
                "shard": plan.shard,
                "attempt": attempt,
                "lo": plan.lo,
                "hi": plan.hi,
            }
        )
    journal = ShardJournal(shard_journal_path(fleet_dir, plan.shard))
    journal.begin(digest, plan, attempt)
    summary = ShardSummary(
        population=digest,
        shard=plan.shard,
        lo=plan.lo,
        hi=plan.hi,
        reservoir_size=config.reservoir_size,
    )
    quarantine_dir = (
        Path(config.quarantine_dir)
        if config.quarantine_dir is not None
        else Path(fleet_dir) / "quarantine"
    )
    reduce_ms = 0.0
    processed = 0
    try:
        for device in population.devices(plan.lo, plan.hi):
            if chaos is not None and chaos.should_kill(
                plan.shard, attempt, processed
            ):
                chaos.kill_now()
            outcome = run_supervised_serial(
                device.run,
                timeout_s=config.device_timeout_s,
                retries=config.device_retries,
                backoff_base_s=config.device_backoff_s,
            )
            processed += 1
            if outcome.ok:
                journal.device(device.index, outcome.status.value)
                _count_device(hub, outcome)
                reduce_started = time.perf_counter()
                summary.observe(
                    DeviceSummary.from_outcome(
                        outcome, device.index, device.archetype, device.rank
                    )
                )
                reduce_ms += (time.perf_counter() - reduce_started) * 1_000.0
            else:
                record = QuarantineRecord(
                    device=device.index,
                    archetype=device.archetype,
                    digest=device.digest,
                    error_type=outcome.error_type or "Exception",
                    error_message=(outcome.error_message or "")[:500],
                    attempts=outcome.attempts,
                )
                _write_quarantine_file(
                    quarantine_dir, population, device, record, outcome
                )
                summary.observe_quarantine(record)
                journal.quarantine(record)
                hub.count("shard.devices", status="quarantined")
            hub.gauge("shard.progress", processed / max(1, plan.size))
            if stream is not None:
                stream.poll()
        summary.timing = {
            "wall_s": time.perf_counter() - started,
            "reduce_ms": reduce_ms,
        }
        summary.telemetry = hub.summary()
        journal.seal(summary.to_dict())
        if stream is not None:
            # Flush the tail delta and mark the source complete *after*
            # the seal: a collector that has seen every final marker knows
            # the sealed report exists and its view has converged.
            stream.flush(final=True, meta={"sealed": True})
    finally:
        journal.close()
        if stream is not None:
            stream.close()
    return summary


def _count_device(hub: Telemetry, outcome: Outcome) -> None:
    """Count one completed device's outcome and engine events on ``hub``.

    A function rather than loop code, so that no local of the shard loop
    keeps this device's trace alive after the device is reduced.
    """
    hub.count("shard.devices", status=outcome.status.value)
    trace = outcome.result.trace
    hub.count("engine.deliveries", trace.delivery_count())
    hub.count("engine.wakeups", trace.wake_count())
    hub.count("engine.batches", trace.batch_count())
    if trace.violations:
        hub.count("monitor.violations", len(trace.violations))
    hub.observe("shard.device_wall_ms", int(outcome.wall_time_s * 1000))


def _write_quarantine_file(
    quarantine_dir: Path,
    population: PopulationSpec,
    device: DeviceSpec,
    record: QuarantineRecord,
    outcome: Outcome,
) -> None:
    """Persist a reproducer for a quarantined device (never raises).

    The workload kwargs go through :func:`~repro.runner.spec.encode_value`,
    the encoding the spec digest is built from, so a scenario device's
    ``ScenarioSpec`` is written as plain data.  A reproducer that cannot be
    encoded or written is skipped: the quarantine record is journaled
    either way, and the shard must seal.
    """
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        path = quarantine_dir / f"device-{device.index:08d}.json"
        payload = {
            "population": population.digest(),
            "device": device.index,
            "archetype": device.archetype,
            "spec_digest": record.digest,
            "workload": device.run.workload,
            "policy": device.run.policy,
            "seed": device.run.seed,
            "workload_kwargs": encode_value(device.run.workload_kwargs),
            "error_type": outcome.error_type,
            "error_message": outcome.error_message,
            "attempts": outcome.attempts,
            "traceback": outcome.traceback,
        }
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(path)
    except (OSError, TypeError, ValueError):  # pragma: no cover - keep the shard
        pass


def _shard_worker_main(
    population: PopulationSpec,
    plan: ShardPlan,
    config: FleetConfig,
    fleet_dir: str,
    attempt: int,
) -> None:
    """Worker-process entry: run the shard; result travels via the seal."""
    try:
        run_shard(population, plan, config, fleet_dir, attempt)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        os._exit(1)


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
#: Percentiles the report quotes from the merged histograms.
REPORT_QUANTILES = (0.5, 0.9, 0.99)


@dataclass
class FleetReport:
    """The merged population report plus honest execution accounting.

    ``summary`` holds everything derived from device *results* — fully
    deterministic in the population.  Execution accounting (shard
    retries, reassignments, attempted counts, wall time) varies between
    an uninterrupted run and a chaos-resumed one and therefore lives
    outside :meth:`deterministic_payload`.
    """

    population_digest: str
    population_name: str
    size: int
    summary: ShardSummary
    coverage_threshold: float
    shard_stats: Dict[str, int] = field(default_factory=dict)
    attempted_devices: int = 0
    shards: int = 0
    workers: int = 0
    wall_s: float = 0.0

    @property
    def completed(self) -> int:
        return self.summary.completed

    @property
    def telemetry(self) -> Optional[TelemetrySummary]:
        """Merged per-shard telemetry (None when no shard sealed).

        Counters and span totals are deterministic in the population; the
        wall-clock histograms are not — which is why this rides outside
        :meth:`deterministic_payload`.
        """
        return self.summary.telemetry

    @property
    def quarantined(self) -> int:
        return self.summary.quarantined_count

    @property
    def coverage(self) -> float:
        return self.completed / self.size if self.size else 0.0

    @property
    def devices_per_s(self) -> float:
        done = self.completed + self.quarantined
        return done / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def percentiles_withheld(self) -> bool:
        return self.coverage < self.coverage_threshold

    def percentiles(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Tail percentiles — or ``None`` when coverage is too low to be
        honest about the tails (missing devices are not random)."""
        if self.percentiles_withheld:
            return None
        out: Dict[str, Dict[str, float]] = {}
        for name, hist in (
            ("energy_mj", self.summary.energy_mj),
            ("delay_ppm", self.summary.delay_ppm),
            ("wakeups", self.summary.wakeups),
        ):
            cell = {"mean": hist.mean}
            for quantile in REPORT_QUANTILES:
                value = hist.percentile(quantile)
                cell[f"p{int(quantile * 100)}"] = (
                    value if value is not None else 0.0
                )
            out[name] = cell
        return out

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    def deterministic_payload(self) -> Dict:
        """Everything derived from device results alone.

        Byte-identical between an uninterrupted fleet and any
        killed/corrupted/resumed execution of the same population — the
        chaos suite serializes this payload and compares.
        """
        payload = self.summary.to_dict()
        # Execution-flavoured fields have no place in a results payload.
        payload.pop("timing", None)
        payload.pop("telemetry", None)
        payload.pop("shard", None)
        return {
            "population": self.population_digest,
            "name": self.population_name,
            "size": self.size,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "coverage": round(self.coverage, 9),
            "coverage_threshold": self.coverage_threshold,
            "percentiles": self.percentiles(),
            "archetype_rates": self.summary.archetype_rates(),
            "aggregate": payload,
        }

    def execution_payload(self) -> Dict:
        return {
            "shards": self.shards,
            "workers": self.workers,
            "shard_stats": dict(sorted(self.shard_stats.items())),
            "attempted_devices": self.attempted_devices,
            "wall_s": self.wall_s,
            "devices_per_s": self.devices_per_s,
        }

    def to_json(self) -> Dict:
        return {
            "population": self.deterministic_payload(),
            "execution": self.execution_payload(),
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        from ..analysis.report import format_table

        lines: List[str] = []
        lines.append(
            f"fleet {self.population_name} ({self.population_digest[:12]}): "
            f"{self.size} devices over {self.shards} shard(s), "
            f"{self.workers} worker(s)"
        )
        failed_shards = self.shard_stats.get("failed", 0)
        lines.append(
            f"devices: {self.attempted_devices} attempted / "
            f"{self.completed} completed / {self.quarantined} quarantined"
            + (f" / {failed_shards} shard(s) FAILED" if failed_shards else "")
        )
        lines.append(
            f"coverage: {self.coverage:.4f} "
            f"(threshold {self.coverage_threshold:.2f})"
            + ("  [PARTIAL RESULT]" if self.percentiles_withheld else "")
        )
        lines.append("")
        rates = self.summary.archetype_rates()
        if rates:
            rows = []
            for archetype, cell in rates.items():
                rows.append(
                    [
                        archetype,
                        str(int(cell["devices"])),
                        f"{cell['failure_rate']:.4f}",
                        str(int(cell["violations"])),
                        f"{cell['violation_rate']:.4f}",
                    ]
                )
            lines.append(
                format_table(
                    ["archetype", "devices", "fail rate", "violations", "viol rate"],
                    rows,
                )
            )
            lines.append("")
        percentiles = self.percentiles()
        if percentiles is None:
            lines.append(
                f"percentiles withheld: coverage {self.coverage:.4f} below "
                f"threshold {self.coverage_threshold:.2f} — the missing "
                "devices are not a random sample; rerun with --resume to "
                "close the gap"
            )
        else:
            rows = [
                [name]
                + [f"{cell['mean']:.1f}"]
                + [f"{cell[f'p{int(q * 100)}']:.1f}" for q in REPORT_QUANTILES]
                for name, cell in percentiles.items()
            ]
            lines.append(
                format_table(
                    ["metric", "mean", "p50", "p90", "p99"], rows
                )
            )
        if self.summary.quarantined:
            lines.append("")
            lines.append("quarantined devices (reproduce via population digest + index):")
            shown = self.summary.quarantined[:10]
            rows = [
                [
                    str(record.device),
                    record.archetype,
                    record.digest[:12],
                    record.error_type,
                    str(record.attempts),
                ]
                for record in shown
            ]
            lines.append(
                format_table(
                    ["device", "archetype", "digest", "error", "attempts"], rows
                )
            )
            hidden = len(self.summary.quarantined) - len(shown)
            if hidden > 0:
                lines.append(f"... and {hidden} more (see the quarantine dir)")
        lines.append("")
        stats = ", ".join(
            f"{status}={count}"
            for status, count in sorted(self.shard_stats.items())
            if count
        )
        lines.append(
            f"execution: shards [{stats or 'none'}], "
            f"{self.wall_s:.1f} s wall, "
            f"{self.devices_per_s:.0f} devices/s"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The fleet front end
# ----------------------------------------------------------------------
class FleetResumeError(RuntimeError):
    """The fleet directory belongs to a different population."""


def run_fleet(
    population: PopulationSpec,
    config: Optional[FleetConfig] = None,
    fleet_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> FleetReport:
    """Run (or resume) a population across supervised shard workers.

    ``fleet_dir`` hosts the shard journals and the default quarantine
    directory; omitting it uses a throwaway temp directory (journals are
    still written — the machinery is identical — but there is nothing
    durable to resume).  ``resume=True`` requires ``fleet_dir`` and
    re-runs only shards without a trustworthy seal.
    """
    config = config or FleetConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if resume and fleet_dir is None:
        raise ValueError("resume=True requires a fleet_dir (journals live there)")
    if fleet_dir is None:
        import tempfile

        fleet_dir = tempfile.mkdtemp(prefix="simty-fleet-")
    fleet_dir = Path(fleet_dir)
    digest = population.digest()
    plans = plan_shards(population.size, config.shards)

    started = time.perf_counter()
    summaries: Dict[int, ShardSummary] = {}
    stats: Dict[str, int] = {
        "completed": 0,
        "resumed": 0,
        "retried": 0,
        "reassigned": 0,
        "failed": 0,
    }
    pending: deque = deque()
    failed_shards: List[ShardPlan] = []

    def book(status: str) -> None:
        stats[status] += 1
        tel.count("fleet.shards", status=status)

    def settle(
        plan: ShardPlan,
        attempt: int,
        summary: Optional[ShardSummary],
        retry_status: str = "retried",
    ) -> None:
        """Book one finished shard attempt: completed (``summary`` is its
        seal), re-queued under ``retry_status`` while retries remain, or
        FAILED."""
        if summary is not None:
            summaries[plan.shard] = summary
            book("completed")
        elif attempt <= config.shard_retries:
            pending.append((plan, attempt + 1))
            book(retry_status)
        else:
            failed_shards.append(plan)
            book("failed")

    for plan in plans:
        path = shard_journal_path(fleet_dir, plan.shard)
        if resume:
            sealed = load_sealed_summary(path, digest, plan)
            if sealed is not None:
                summaries[plan.shard] = sealed
                book("resumed")
                continue
            claimed = journal_population(path)
            if claimed is not None and claimed != digest:
                raise FleetResumeError(
                    f"fleet dir {fleet_dir} was written for population "
                    f"{claimed[:12]}, not {digest[:12]}; refusing to resume"
                )
        pending.append((plan, 1))

    run = _run_serial if config.workers == 0 else _run_supervised
    run(population, config, fleet_dir, pending, settle)

    wall = time.perf_counter() - started

    if summaries:
        merged = merge_shard_summaries(
            [summaries[shard] for shard in sorted(summaries)],
            reservoir_size=config.reservoir_size,
        )
    else:
        merged = ShardSummary(
            population=digest, reservoir_size=config.reservoir_size
        )
    merged.shard = -1

    attempted = sum(
        summary.completed + summary.quarantined_count
        for summary in summaries.values()
    )
    for plan in failed_shards:
        attempted += scan_attempted(shard_journal_path(fleet_dir, plan.shard))

    if tel.enabled:
        for status, count in merged.status_counts.items():
            if count:
                tel.count("fleet.devices", count, outcome=status)
        for summary in summaries.values():
            reduce_ms = summary.timing.get("reduce_ms")
            if reduce_ms is not None:
                tel.observe("fleet.reduce_latency_ms", reduce_ms)
        tel.gauge("fleet.coverage", merged.completed / max(1, population.size))

    report = FleetReport(
        population_digest=digest,
        population_name=population.name,
        size=population.size,
        summary=merged,
        coverage_threshold=config.coverage_threshold,
        shard_stats=stats,
        attempted_devices=attempted,
        shards=len(plans),
        workers=config.workers,
        wall_s=wall,
    )
    if config.stream_dir is not None:
        _write_stream_final(Path(config.stream_dir), report)
    return report


def _write_stream_final(stream_dir: Path, report: FleetReport) -> None:
    """Seal the stream directory with the merged report (never raises).

    ``final.json`` is what a live viewer checks its converged rolling
    view against: the deterministic payload plus the merged telemetry.
    """
    try:
        stream_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "population": report.population_digest,
            "completed": report.completed,
            "quarantined": report.quarantined,
            "report": report.to_json(),
            "telemetry": (
                report.telemetry.to_dict()
                if report.telemetry is not None
                else None
            ),
        }
        tmp = stream_dir / f"final.json.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(stream_dir / "final.json")
    except OSError:  # pragma: no cover - stream IO must not kill the fleet
        pass


#: Seconds between the supervised scheduler's checks on its workers.
POLL_INTERVAL_S = 0.01


def _run_serial(
    population: PopulationSpec,
    config: FleetConfig,
    fleet_dir: Path,
    pending: deque,
    settle: Callable[..., None],
) -> None:
    """In-process shard execution (workers=0): no kills, no stragglers."""
    while pending:
        plan, attempt = pending.popleft()
        try:
            summary = run_shard(population, plan, config, fleet_dir, attempt)
        except Exception:
            summary = None
        settle(plan, attempt, summary)


def _run_supervised(
    population: PopulationSpec,
    config: FleetConfig,
    fleet_dir: Path,
    pending: deque,
    settle: Callable[..., None],
) -> None:
    """Subprocess shard scheduling: kills survived, stragglers reassigned."""
    import multiprocessing

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    digest = population.digest()
    running: Dict[int, Tuple] = {}  # shard -> (proc, plan, attempt, started)
    durations: List[float] = []
    try:
        while pending or running:
            while pending and len(running) < config.workers:
                plan, attempt = pending.popleft()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(population, plan, config, str(fleet_dir), attempt),
                    daemon=True,
                )
                proc.start()
                running[plan.shard] = (proc, plan, attempt, time.monotonic())
            time.sleep(POLL_INTERVAL_S)
            deadline = None
            if len(durations) >= 2:
                ordered = sorted(durations)
                median = ordered[len(ordered) // 2]
                deadline = max(
                    config.straggler_min_s, config.straggler_factor * median
                )
            for shard in list(running):
                proc, plan, attempt, shard_started = running[shard]
                elapsed = time.monotonic() - shard_started
                if proc.is_alive():
                    if deadline is not None and elapsed > deadline:
                        # Straggler: shard wall-clock way past the fleet
                        # median.  Kill and reassign rather than letting
                        # one wedged worker stall the whole fleet.
                        proc.terminate()
                        proc.join(5.0)
                        del running[shard]
                        settle(plan, attempt, None, "reassigned")
                    continue
                proc.join()
                del running[shard]
                summary = None
                if proc.exitcode == 0:
                    summary = load_sealed_summary(
                        shard_journal_path(fleet_dir, plan.shard), digest, plan
                    )
                if summary is not None:
                    durations.append(elapsed)
                settle(plan, attempt, summary)
    finally:
        for proc, _, _, _ in running.values():
            proc.terminate()
