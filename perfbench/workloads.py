"""Seeded inputs and one timed *unit* of work per workload.

The benchmark builds every input from ``--seed``: the program receives a
``ScenarioSpec``, request lines or a ``PopulationSpec`` and nothing else.
Every source seed is pinned here (derived from the workload seed), so the
same seed always compiles to the same workload.

A unit is the smallest repeatable piece of work of a workload:

* ``batch-pair`` — SIMTY and NATIVE over one scenario through
  ``run_many(max_workers=1)`` with a cold on-disk ``ResultCache``;
* ``serve-phone`` — one full replay against a fresh ``simty serve``
  daemon (see ``worker.py``, which owns the subprocess);
* ``fleet-micro`` — one ``run_fleet`` over a micro population, in-process.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List

from repro.core.units import THREE_HOURS_MS
from repro.fleet.executor import FleetConfig, run_fleet
from repro.fleet.population import PopulationSpec, make_population
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.simulator.serialize import trace_to_dict
from repro.workloads.requests import workload_requests
from repro.workloads.sources.spec import ScenarioSpec, SourceUse, compile_scenario

from stats import canonical_trace, fingerprint

WORKLOADS = ("batch-pair", "serve-phone", "fleet-micro")

#: Batch population: synthetic apps and their grace fraction (the paper's
#: beta).  The app catalog is drawn from a pinned seed; the workload seed
#: varies the traffic around it (background one-shots and non-wakeups,
#: and when each cancel of the storm lands).  A fresh 200-app draw
#: per seed moves SIMTY's wakeups by about a quarter between seeds, more
#: than any regression bound could absorb.
BATCH_APPS = 200
BATCH_BETA = 0.96
BATCH_CATALOG_SEED = 2016
#: Served phone: push messages per hour and the client's advance stride.
SERVE_PUSH_PER_HOUR = 600.0
SERVE_ADVANCE_EVERY_MS = 60_000
#: Devices in one fleet unit.
FLEET_DEVICES = 2_000
#: The policy whose engine calls give the in-process latency samples (None:
#: every policy).  Batch latencies are those of the SIMTY run, like its
#: simulated wakeups and energy.
PROBED_POLICY = {"batch-pair": "SIMTY", "fleet-micro": None}


def derive(seed: int, *tokens: object) -> int:
    """A 31-bit seed for one source, from the workload seed."""
    text = ":".join([str(seed)] + [str(token) for token in tokens])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big") >> 1


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def batch_scenario(seed: int) -> ScenarioSpec:
    """~200 synthetic apps (beta 0.96) plus framework background, an
    app-update wave at 1 h and a cancellation storm at 2 h, over 3 h."""
    return ScenarioSpec(
        name="batch-pair",
        horizon=THREE_HOURS_MS,
        seed=derive(seed, "batch"),
        sources=(
            SourceUse(
                "synthetic",
                kwargs={
                    "app_count": BATCH_APPS,
                    "beta": BATCH_BETA,
                    "seed": BATCH_CATALOG_SEED,
                },
            ),
            SourceUse("background", kwargs={"seed": derive(seed, "batch", "background")}),
            SourceUse(
                "churn",
                id="update-wave",
                kwargs={
                    "at_ms": 3_600_000,
                    "pattern": "app-update-wave",
                    "spacing_ms": 20_000,
                    "count": 40,
                },
            ),
            SourceUse(
                "churn",
                id="cancel-storm",
                kwargs={
                    "at_ms": 7_200_000,
                    "pattern": "cancellation-storm",
                    "spread_ms": 600_000,
                    "count": 40,
                    "seed": derive(seed, "batch", "storm"),
                },
            ),
        ),
    )


def batch_specs(seed: int) -> List[RunSpec]:
    """The SIMTY/NATIVE pair on the default queue backend, monitor off."""
    scenario = batch_scenario(seed)
    return [
        RunSpec(
            workload="scenario",
            policy=policy,
            workload_kwargs={"spec": scenario},
            seed=scenario.seed,
        )
        for policy in ("simty", "native")
    ]


def serve_scenario(seed: int) -> ScenarioSpec:
    """A busy, push-heavy handset: the Table 3 heavy apps, background,
    ~600 pushes/h and an app-update wave at 1.5 h, over 3 h."""
    return ScenarioSpec(
        name="serve-phone",
        horizon=THREE_HOURS_MS,
        seed=derive(seed, "serve"),
        sources=(
            SourceUse(
                "table3-apps",
                kwargs={"set": "heavy", "phase_seed": derive(seed, "serve", "apps")},
            ),
            SourceUse("background", kwargs={"seed": derive(seed, "serve", "background")}),
            SourceUse(
                "push-storm",
                kwargs={
                    "rate_per_hour": SERVE_PUSH_PER_HOUR,
                    "seed": derive(seed, "serve", "push"),
                },
            ),
            SourceUse(
                "churn",
                kwargs={
                    "at_ms": 5_400_000,
                    "pattern": "app-update-wave",
                    "spacing_ms": 30_000,
                },
            ),
        ),
    )


def serve_requests(seed: int) -> List[Dict]:
    """The request payloads of one replay, ending in a draining shutdown."""
    scenario = serve_scenario(seed)
    workload = compile_scenario(scenario, scenario.seed)
    return list(workload_requests(workload, advance_every_ms=SERVE_ADVANCE_EVERY_MS))


def fleet_population(seed: int) -> PopulationSpec:
    return make_population(FLEET_DEVICES, "micro", seed=derive(seed, "fleet"))


def build_inputs(workload: str, seed: int):
    if workload == "batch-pair":
        return batch_specs(seed)
    if workload == "serve-phone":
        return serve_requests(seed)
    if workload == "fleet-micro":
        return fleet_population(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# In-process units
# ----------------------------------------------------------------------
def run_batch_unit(
    specs: List[RunSpec], scratch: Path, around: Callable = nullcontext
) -> Dict:
    """One cold-cache pair run; only ``run_many`` is timed, inside
    ``around()`` (where the caller installs probes or spans)."""
    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        cache = ResultCache(cache_dir)
        try:
            with around():
                started = time.perf_counter()
                records = run_many(specs, max_workers=1, cache=cache)
                wall = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - a failed unit is counted, not fatal
            return failed_unit(len(specs), error)
    failed = sum(1 for record in records if not record.ok)
    simty = records[0].result
    return {
        "wall_s": wall,
        "attempted": len(specs),
        "failed": failed,
        "requests": len(records),
        "devices": len(records),
        "deliveries": sum(
            record.result.trace.delivery_count() for record in records if record.ok
        ),
        "sim_wakeups": simty.wakeups.cpu.delivered if simty else 0,
        "sim_energy_j": simty.energy.total_mj / 1000.0 if simty else 0.0,
        "fingerprint": fingerprint(
            [
                canonical_trace(trace_to_dict(record.result.trace))
                for record in records
                if record.ok
            ]
        ),
    }


def run_fleet_unit(
    population: PopulationSpec, scratch: Path, around: Callable = nullcontext
) -> Dict:
    """One in-process fleet (``workers=0``) with shard journals on disk."""
    with tempfile.TemporaryDirectory(dir=scratch) as fleet_dir:
        try:
            with around():
                started = time.perf_counter()
                report = run_fleet(
                    population, FleetConfig(workers=0), fleet_dir=fleet_dir
                )
                wall = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - a failed unit is counted, not fatal
            return failed_unit(population.size, error)
    telemetry = report.telemetry
    summary = report.summary
    failed_shards = report.shard_stats.get("failed", 0)
    return {
        "wall_s": wall,
        "attempted": population.size,
        "failed": min(population.size, report.quarantined + failed_shards),
        "requests": report.completed + report.quarantined,
        "devices": report.completed,
        "deliveries": telemetry.counter("engine.deliveries") if telemetry else 0,
        "sim_wakeups": summary.wakeups.total,
        "sim_energy_j": summary.energy_mj.total / 1000.0,
        "fingerprint": fingerprint(report.deterministic_payload()),
    }


def failed_unit(attempted: int, error: Exception) -> Dict:
    """A unit that raised: every operation it attempted failed."""
    return {
        "wall_s": 0.0,
        "attempted": attempted,
        "failed": attempted,
        "requests": 0,
        "devices": 0,
        "deliveries": 0,
        "sim_wakeups": 0,
        "sim_energy_j": 0.0,
        "fingerprint": None,
        "problem": f"{type(error).__name__}: {error}",
    }
