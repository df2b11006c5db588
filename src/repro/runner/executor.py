"""The run harness: build, execute, cache, parallelize, supervise.

``run_built`` is the single composition point of the whole experiment stack
— workload + policy + simulator + power model → :class:`ExperimentResult`.
Everything above it (``run_experiment``, the sweeps, the replication suite,
the CLI) is sugar over three entry points:

* :func:`execute_spec` — resolve a :class:`RunSpec` through a registry and
  simulate it (no caching);
* :func:`run_spec` — the cache-aware single-run front end, returning a
  :class:`RunRecord`;
* :func:`run_many` — the batch front end: deduplicates identical specs,
  consults the cache, fans the remaining work out to one forked child
  per attempt, ``max_workers`` at a time (serial for ``max_workers=1``),
  and returns records **in input order** regardless of completion order.

``run_many`` is *supervised* (see :mod:`repro.runner.supervision`): with
``on_error="keep_going"`` a failing or hanging spec is quarantined as a
:class:`~repro.runner.record.RunStatus` ``FAILED`` / ``TIMEOUT`` record
while the rest of the batch completes; ``timeout_s`` bounds each attempt,
``retries`` resubmits failed attempts (with exponential backoff + jitter on
the serial path), and a :class:`~repro.runner.journal.RunJournal` checkpoint
lets an interrupted sweep resume from where it died.

Parallel workers rebuild specs from scratch through the *default* registry
(registries hold live callables and do not cross process boundaries), so
``run_many`` silently falls back to serial execution when given a custom
registry.  Determinism makes this safe: a spec simulates identically in any
process, which the parallel-equivalence tests assert byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, List, Optional, Sequence

from ..core.policy import AlignmentPolicy
from ..metrics.delay import delay_report
from ..metrics.wakeups import wakeup_breakdown
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..power.accounting import account
from ..power.model import PowerModel
from ..power.profiles import NEXUS5
from ..simulator.engine import Simulator, SimulatorConfig
from ..workloads.scenarios import Workload
from .cache import ResultCache
from .journal import RunJournal
from .record import ExperimentResult, RunRecord, RunStatus
from .registry import DEFAULT_REGISTRY, Registry
from .spec import RunSpec
from .supervision import (
    Outcome,
    SpecExecutionError,
    SpecTimeoutError,
    run_supervised_pool,
    run_supervised_serial,
)

#: Accepted values for ``run_many``'s ``on_error``.
ON_ERROR_MODES = ("raise", "keep_going")


@functools.lru_cache(maxsize=64)
def _with_horizon(
    config: Optional[SimulatorConfig], horizon: int
) -> SimulatorConfig:
    """``config`` (or the default) set to ``horizon``, built once per pair.

    Configs are frozen, so runs of one population or sweep share a single
    instance instead of validating a fresh copy each.
    """
    if config is None:
        return SimulatorConfig(horizon=horizon)
    return dataclasses.replace(config, horizon=horizon)


def run_built(
    workload: Workload,
    policy: AlignmentPolicy,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    policy_name: Optional[str] = None,
    external_events: tuple = (),
    telemetry: Optional[Telemetry] = None,
    audit=None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Run an already-built workload under a policy instance.

    ``external_events`` injects user/push wakes (see
    :mod:`repro.simulator.external` and :mod:`repro.workloads.diurnal`);
    wakes the workload itself carries (``workload.externals``, e.g. from
    scenario sources) are merged in automatically, in time order.
    ``telemetry`` instruments the run; the hub's summary rides on
    ``result.trace.telemetry``.  ``audit`` records sampled alignment
    decisions onto ``result.trace.decisions`` (see
    :class:`repro.obs.audit.DecisionAudit`).  ``deadline`` is a
    ``time.monotonic()`` instant past which the engine watchdog stops the run.
    """
    config = simulator_config
    if config is None or config.horizon != workload.horizon:
        config = _with_horizon(config, workload.horizon)
    if workload.externals:
        merged = list(external_events) + list(workload.externals)
        merged.sort(key=lambda event: event.time)
        external_events = tuple(merged)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    simulator = Simulator(
        policy,
        config=config,
        external_events=external_events,
        telemetry=telemetry,
        audit=audit,
        deadline=deadline,
    )
    workload.apply(simulator)
    trace = simulator.run()
    majors = workload.major_labels()
    with tel.span("harness.metrics"):
        energy = account(trace, model)
        delays = delay_report(trace, labels=majors)
        wakeups = wakeup_breakdown(trace, major_labels=majors)
    if tel.enabled:
        # Refresh so the harness spans (metrics, workload build) join the
        # engine's own on the summary the trace carries.
        trace.telemetry = tel.summary()
    return ExperimentResult(
        workload_name=workload.name,
        policy_name=policy_name or policy.name,
        trace=trace,
        energy=energy,
        delays=delays,
        wakeups=wakeups,
        major_labels=majors,
    )


def execute_spec(
    spec: RunSpec,
    registry: Optional[Registry] = None,
    telemetry: Optional[Telemetry] = None,
    audit=None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Resolve and simulate ``spec`` unconditionally (no cache)."""
    registry = registry or DEFAULT_REGISTRY
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("harness.build_workload", workload=spec.workload):
        workload = registry.build_workload(
            spec.workload,
            spec.scenario,
            seed=spec.seed,
            **dict(spec.workload_kwargs),
        )
        policy = registry.create_policy(spec.policy, **dict(spec.policy_kwargs))
    return run_built(
        workload,
        policy,
        model=spec.model,
        simulator_config=spec.simulator,
        policy_name=spec.display_name(),
        telemetry=telemetry,
        audit=audit,
        deadline=deadline,
    )


def run_spec(
    spec: RunSpec,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
    telemetry: Optional[Telemetry] = None,
    audit=None,
) -> RunRecord:
    """Run one spec through the cache, returning its :class:`RunRecord`."""
    digest = spec.digest()
    if cache is not None:
        cached = cache.get(digest)
        if cached is not None:
            cache.note_hit()
            record = RunRecord(
                spec=spec,
                digest=digest,
                result=cached,
                wall_time_s=0.0,
                cache_hit=True,
            )
            cache.records.append(record)
            return record
    started = time.perf_counter()
    result = execute_spec(spec, registry, telemetry=telemetry, audit=audit)
    wall = time.perf_counter() - started
    if cache is not None:
        cache.note_miss()
        cache.put(digest, result)
    record = RunRecord(
        spec=spec, digest=digest, result=result, wall_time_s=wall, cache_hit=False
    )
    if cache is not None:
        cache.records.append(record)
    return record


def _record_from_outcome(
    spec: RunSpec, digest: str, outcome: Outcome
) -> RunRecord:
    return RunRecord(
        spec=spec,
        digest=digest,
        result=outcome.result,
        wall_time_s=outcome.wall_time_s,
        cache_hit=False,
        status=outcome.status,
        error_type=outcome.error_type,
        error_message=outcome.error_message,
        traceback=outcome.traceback,
        attempts=outcome.attempts,
    )


def _raise_outcome(
    spec: RunSpec,
    digest: str,
    outcome: Outcome,
    timeout_s: Optional[float],
) -> None:
    """Re-raise a failed outcome for ``on_error="raise"``.

    The original exception object is preferred (serial path and picklable
    pool errors); otherwise a :class:`SpecExecutionError` /
    :class:`SpecTimeoutError` carries the captured details.
    """
    if outcome.status is RunStatus.TIMEOUT:
        raise SpecTimeoutError(spec, digest, timeout_s or 0.0, outcome.attempts)
    if outcome.error is not None:
        raise outcome.error
    raise SpecExecutionError(
        spec,
        digest,
        outcome.error_type or "Exception",
        outcome.error_message or "",
        outcome.attempts,
    )


def run_many(
    specs: Sequence[RunSpec],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    on_error: str = "raise",
    checkpoint: Optional[RunJournal] = None,
    resume: bool = False,
    telemetry: Optional[Telemetry] = None,
    stream=None,
) -> List[RunRecord]:
    """Run a batch of specs, deduplicated, supervised, and (optionally)
    in parallel.

    The returned list is index-aligned with ``specs``.  Specs sharing a
    digest are simulated once; later occurrences are recorded as cache
    hits.  ``max_workers=1`` runs serially in-process; larger values run
    each attempt in its own forked child (custom registries force the
    serial path, since children only see the default registry).

    Supervision:

    * ``timeout_s`` bounds each execution attempt: serially by a deadline
      the engine watchdog enforces, which does not bound the compile; in
      parallel by killing the attempt's child ``timeout_s`` after it
      started, which does;
    * ``retries`` re-executes a failed or timed-out attempt up to that
      many extra times (exponential backoff + jitter serially, a fresh
      child with no backoff in parallel); a success after a retry
      is recorded as ``RunStatus.RETRIED_OK``;
    * ``on_error="raise"`` (default) propagates the first failure —
      immediately on the serial path, after the batch drains on the pool
      path; ``"keep_going"`` quarantines failures as ``FAILED`` /
      ``TIMEOUT`` records (``result is None``) and returns the partial
      batch, still index-aligned;
    * ``checkpoint`` journals every terminally-resolved digest; with
      ``resume=True`` only journaled digests are trusted to the cache and
      everything else — including entries a dying run half-committed — is
      re-executed.  Without ``resume`` the journal restarts from scratch.

    ``telemetry`` instruments the batch: each serially-executed spec runs
    on a forked child hub (named after the spec), forked attempts build
    their own per-process hubs whose summaries ride back on the result traces,
    and the parent hub gets the harness view — worker count, utilization,
    per-spec wall-time histogram, retry/timeout/failure counters.

    ``stream`` (a :class:`repro.obs.stream.TelemetryStream` over the same
    hub) turns the batch into a live producer: the harness polls it after
    every resolved spec on the serial path and after the execution pass on
    the pool path, so a :class:`~repro.obs.stream.Collector` watches the
    sweep progress instead of waiting for the final summary.  The caller
    owns ``begin()``/``flush(final=True)``.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive (or None)")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint journal")

    if checkpoint is not None and not resume:
        checkpoint.reset()
    trusted = checkpoint.completed() if (checkpoint and resume) else None
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    batch_started = time.perf_counter()

    digests = [spec.digest() for spec in specs]
    records: List[Optional[RunRecord]] = [None] * len(specs)

    def journal(digest: str, status: RunStatus) -> None:
        if checkpoint is not None:
            checkpoint.record(digest, status)

    # Resolution pass, in input order: cache hit, in-batch duplicate, or
    # a fresh simulation to schedule.  On resume, a digest missing from
    # the journal is never trusted to the cache (its entry may be a
    # half-committed write from the run that died) and is re-executed.
    to_run: Dict[str, int] = {}  # digest -> first index needing execution
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        if digest in to_run:
            continue  # duplicate of a scheduled run; filled in below
        trustworthy = trusted is None or digest in trusted
        cached = cache.get(digest) if (cache is not None and trustworthy) else None
        if cached is not None:
            cache.note_hit()
            records[index] = RunRecord(
                spec=spec,
                digest=digest,
                result=cached,
                wall_time_s=0.0,
                cache_hit=True,
            )
            journal(digest, RunStatus.OK)
        else:
            to_run[digest] = index

    # Execution pass over the unique misses, under supervision.
    pending = [(index, specs[index]) for index in to_run.values()]
    use_pool = max_workers > 1 and registry is None and len(pending) > 1
    outcomes: Dict[int, Outcome] = {}
    if use_pool:
        outcomes = run_supervised_pool(
            pending,
            max_workers=max_workers,
            timeout_s=timeout_s,
            retries=retries,
            enable_telemetry=tel.enabled,
        )
    else:
        for index, spec in pending:
            # Each serial execution gets its own child hub so runs stay
            # separable in exporters (one Chrome trace lane per spec).
            child = tel.fork(spec.display_name()) if tel.enabled else None
            outcome = run_supervised_serial(
                spec,
                registry,
                timeout_s=timeout_s,
                retries=retries,
                telemetry=child,
            )
            if not outcome.ok and on_error == "raise":
                _raise_outcome(spec, digests[index], outcome, timeout_s)
            outcomes[index] = outcome
            if tel.enabled:
                tel.count("runner.specs_resolved")
            if stream is not None:
                stream.poll()

    for index, spec in pending:
        outcome = outcomes[index]
        digest = digests[index]
        if not outcome.ok and on_error == "raise":
            _raise_outcome(spec, digest, outcome, timeout_s)
        if cache is not None:
            cache.note_miss()
            if outcome.result is not None:
                cache.put(digest, outcome.result)
        journal(digest, outcome.status)
        records[index] = _record_from_outcome(spec, digest, outcome)

    # Fill the in-batch duplicates of executed specs, preserving input
    # order.  (Duplicates of cache hits were already resolved above: their
    # second lookup hit the cache again.)  Duplicates of a failed spec
    # share its failure without charging another attempt.
    executed = {digests[index]: records[index] for index in to_run.values()}
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        if records[index] is not None:
            continue
        source = executed[digest]
        assert source is not None
        if source.ok:
            if cache is not None:
                cache.note_hit()
            records[index] = RunRecord(
                spec=spec,
                digest=digest,
                result=source.result,
                wall_time_s=0.0,
                cache_hit=True,
            )
        else:
            records[index] = dataclasses.replace(
                source, spec=spec, wall_time_s=0.0
            )
    if tel.enabled:
        elapsed = time.perf_counter() - batch_started
        workers = max_workers if use_pool else 1
        tel.gauge("runner.workers", workers)
        busy = sum(outcome.wall_time_s for outcome in outcomes.values())
        if elapsed > 0:
            tel.gauge(
                "runner.utilization", min(1.0, busy / (workers * elapsed))
            )
        for outcome in outcomes.values():
            tel.observe(
                "runner.wall_time_ms", int(outcome.wall_time_s * 1000)
            )
            if outcome.attempts > 1:
                tel.count("runner.retries", outcome.attempts - 1)
            if outcome.status is RunStatus.TIMEOUT:
                tel.count("runner.timeouts")
            elif outcome.status is RunStatus.FAILED:
                tel.count("runner.failures")
    resolved = [record for record in records if record is not None]
    if cache is not None:
        cache.records.extend(resolved)
    if stream is not None:
        stream.poll(force=True)
    return resolved
