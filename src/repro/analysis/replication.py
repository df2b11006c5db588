"""Multi-run replication with dispersion statistics.

Sec. 4.1: "We conducted each experiment three times to reduce the potential
influence of uncontrollable factors ... and reported the average value."
The simulator's uncontrollable factor is the relative phase of the app
grids (install timing on the real phone); replication therefore varies the
scenario's ``phase_seed`` and reports mean and sample standard deviation of
every headline metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence

from ..power.model import PowerModel
from ..power.profiles import NEXUS5
from ..runner.executor import run_many
from ..runner.spec import RunSpec
from ..workloads.scenarios import ScenarioConfig
from .experiments import PairResult, pair_specs


@dataclass(frozen=True)
class MetricStats:
    """Mean and sample standard deviation of one metric across runs."""

    mean: float
    stdev: float
    samples: List[float]

    @staticmethod
    def of(samples: Sequence[float]) -> "MetricStats":
        values = list(samples)
        if not values:
            raise ValueError("no samples")
        mean = sum(values) / len(values)
        if len(values) > 1:
            variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            stdev = math.sqrt(variance)
        else:
            stdev = 0.0
        return MetricStats(mean=mean, stdev=stdev, samples=values)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} +/- {self.stdev:.3f}"


@dataclass(frozen=True)
class ReplicatedPair:
    """Headline metrics of a policy pair across replicated runs.

    ``failed_seeds`` lists replicas that were quarantined by the
    supervised executor (``on_error="keep_going"``); the statistics
    aggregate only the seeds whose pair completed.
    """

    workload: str
    seeds: List[int]
    total_savings: MetricStats
    awake_savings: MetricStats
    standby_extension: MetricStats
    baseline_wakeups: MetricStats
    improved_wakeups: MetricStats
    improved_imperceptible_delay: MetricStats
    failed_seeds: List[int] = field(default_factory=list)


def replicate_pair(
    workload: str,
    seeds: Sequence[int] = (1, 2, 3),
    base_config: ScenarioConfig = ScenarioConfig(),
    model: PowerModel = NEXUS5,
    **harness: Any,
) -> ReplicatedPair:
    """Run NATIVE-vs-SIMTY once per phase seed and aggregate.

    The whole seed grid goes through :func:`repro.runner.run_many` as one
    batch, with ``**harness`` as its options, so repeated seeds hit the
    cache and ``max_workers > 1`` runs the replicas concurrently.  Under
    ``on_error="keep_going"`` a seed whose baseline or improved run failed
    is dropped from the statistics and surfaced in ``failed_seeds``; if
    *every* seed failed, raises ``RuntimeError`` (there is nothing to
    aggregate).
    """
    return _replicate((workload,), seeds, base_config, model, harness)[workload]


def replicate_matrix(
    seeds: Sequence[int] = (1, 2, 3),
    base_config: ScenarioConfig = ScenarioConfig(),
    model: PowerModel = NEXUS5,
    **harness: Any,
) -> Dict[str, ReplicatedPair]:
    """Both workloads, replicated — the paper's full reported protocol.

    Both workloads' replicas run as one ``run_many`` batch, so a
    ``checkpoint`` journal covers the whole matrix (a second batch would
    reset it) and ``resume`` picks up anywhere in it.
    """
    return _replicate(("light", "heavy"), seeds, base_config, model, harness)


def _replicate(
    workloads: Sequence[str],
    seeds: Sequence[int],
    base_config: ScenarioConfig,
    model: PowerModel,
    harness: Dict[str, Any],
) -> Dict[str, ReplicatedPair]:
    """One ``run_many`` batch over every (workload, seed) pair, then each
    workload's dispersion statistics."""
    seeds = list(seeds)
    specs: List[RunSpec] = []
    for workload in workloads:
        for seed in seeds:
            config = replace(base_config, phase_seed=seed)
            specs.extend(pair_specs(workload, scenario_config=config, model=model))
    records = iter(run_many(specs, **harness))
    replicated: Dict[str, ReplicatedPair] = {}
    for workload in workloads:
        pairs: List[PairResult] = []
        failed_seeds: List[int] = []
        for seed in seeds:
            baseline, improved = next(records), next(records)
            if baseline.result is None or improved.result is None:
                failed_seeds.append(seed)
                continue
            pairs.append(
                PairResult(
                    workload_name=workload,
                    baseline=baseline.result,
                    improved=improved.result,
                )
            )
        if not pairs:
            raise RuntimeError(
                f"every replica of {workload!r} failed (seeds {failed_seeds}); "
                "see the failure table under --stats for the captured errors"
            )
        replicated[workload] = ReplicatedPair(
            workload=workload,
            seeds=list(seeds),
            failed_seeds=failed_seeds,
            total_savings=MetricStats.of(
                [pair.comparison.total_savings for pair in pairs]
            ),
            awake_savings=MetricStats.of(
                [pair.comparison.awake_savings for pair in pairs]
            ),
            standby_extension=MetricStats.of(
                [pair.comparison.standby_extension for pair in pairs]
            ),
            baseline_wakeups=MetricStats.of(
                [float(pair.baseline.wakeups.cpu.delivered) for pair in pairs]
            ),
            improved_wakeups=MetricStats.of(
                [float(pair.improved.wakeups.cpu.delivered) for pair in pairs]
            ),
            improved_imperceptible_delay=MetricStats.of(
                [pair.improved.delays.imperceptible.mean for pair in pairs]
            ),
        )
    return replicated
