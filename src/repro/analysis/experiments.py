"""End-to-end experiment runner (thin front end over the run harness).

Historically this module composed policies, workloads, the simulator and
the power model by hand; that composition now lives in
:mod:`repro.runner`.  ``run_experiment`` / ``run_workload`` remain as
stable entry points — every existing call site and example keeps working —
and simply delegate to the harness.  Policies and workloads resolve
through the harness's default registry; register new entries via
:func:`repro.runner.register_policy` / :func:`repro.runner.register_workload`.

Each run builds a *fresh* workload, because alarms are mutable and
single-use (the simulator now enforces this with a ``ValueError`` on
reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..core.policy import AlignmentPolicy
from ..metrics.energy import EnergyComparison
from ..obs.telemetry import Telemetry
from ..power.model import PowerModel
from ..power.profiles import NEXUS5
from ..runner.executor import run_built, run_many
from ..runner.record import ExperimentResult
from ..runner.registry import DEFAULT_REGISTRY
from ..runner.spec import RunSpec
from ..simulator.engine import SimulatorConfig
from ..workloads.scenarios import ScenarioConfig, Workload

__all__ = [
    "ExperimentResult",
    "PairResult",
    "run_experiment",
    "run_pair",
    "run_paper_matrix",
    "run_workload",
]


def run_experiment(
    workload: str,
    policy: str,
    scenario_config: Optional[ScenarioConfig] = None,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    policy_factory: Optional[Callable[[], AlignmentPolicy]] = None,
    telemetry: Optional[Telemetry] = None,
    workload_kwargs: Optional[dict] = None,
) -> ExperimentResult:
    """Run one cell of the experiment matrix.

    ``policy_factory`` overrides the registry lookup, e.g. to inject a SIMTY
    variant with a non-default hardware-similarity classifier; such runs
    bypass the spec/cache machinery (a live factory has no stable digest).
    ``workload_kwargs`` is passed to the workload builder — this is how a
    declarative scenario reaches the harness (``workload="scenario"``,
    ``workload_kwargs={"spec": ...}``).
    """
    workload_kwargs = workload_kwargs or {}
    if policy_factory is not None:
        built = DEFAULT_REGISTRY.build_workload(
            workload, scenario_config, **workload_kwargs
        )
        return run_built(
            built,
            policy_factory(),
            model=model,
            simulator_config=simulator_config,
            policy_name=policy,
            telemetry=telemetry,
        )
    spec = RunSpec(
        workload=workload,
        policy=policy,
        workload_kwargs=workload_kwargs,
        scenario=scenario_config,
        simulator=simulator_config,
        model=model,
    )
    from ..runner.executor import run_spec

    return run_spec(spec, telemetry=telemetry).result


def run_workload(
    workload: Workload,
    policy: AlignmentPolicy,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    policy_name: Optional[str] = None,
    external_events: tuple = (),
    telemetry: Optional[Telemetry] = None,
) -> ExperimentResult:
    """Run an already-built workload under a policy instance.

    Delegates to :func:`repro.runner.run_built`; kept for API stability
    (examples and external callers import it from here).
    """
    return run_built(
        workload,
        policy,
        model=model,
        simulator_config=simulator_config,
        policy_name=policy_name,
        external_events=external_events,
        telemetry=telemetry,
    )


@dataclass(frozen=True)
class PairResult:
    """A NATIVE-vs-SIMTY pair on one workload (the paper's basic unit)."""

    workload_name: str
    baseline: ExperimentResult
    improved: ExperimentResult

    @property
    def comparison(self) -> EnergyComparison:
        return EnergyComparison(
            baseline=self.baseline.energy, improved=self.improved.energy
        )


def pair_specs(
    workload: str,
    baseline_policy: str = "native",
    improved_policy: str = "simty",
    scenario_config: Optional[ScenarioConfig] = None,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[dict] = None,
) -> tuple:
    """The (baseline, improved) :class:`RunSpec` pair for one workload."""
    common = dict(
        workload=workload,
        workload_kwargs=workload_kwargs or {},
        scenario=scenario_config,
        simulator=simulator_config,
        model=model,
    )
    return (
        RunSpec(policy=baseline_policy, **common),
        RunSpec(policy=improved_policy, **common),
    )


def run_pair(
    workload: str,
    baseline_policy: str = "native",
    improved_policy: str = "simty",
    scenario_config: Optional[ScenarioConfig] = None,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[dict] = None,
    **harness: Any,
) -> PairResult:
    """Run the paper's basic comparison on one workload.

    ``**harness`` goes to :func:`~repro.runner.executor.run_many`.  A pair
    is meaningless with a missing half, so this front end always runs with
    ``on_error="raise"`` (passing ``on_error`` is a ``TypeError``); use
    :func:`run_paper_matrix` (or ``run_many`` directly) when partial
    results should survive.
    """
    specs = pair_specs(
        workload,
        baseline_policy,
        improved_policy,
        scenario_config,
        model,
        simulator_config,
        workload_kwargs,
    )
    baseline, improved = run_many(specs, on_error="raise", **harness)
    return PairResult(
        workload_name=workload,
        baseline=baseline.result,
        improved=improved.result,
    )


def run_paper_matrix(
    scenario_config: Optional[ScenarioConfig] = None,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    **harness: Any,
) -> Dict[str, PairResult]:
    """Both workloads, NATIVE vs SIMTY: the inputs to Figs. 3-4 and Table 4.

    ``**harness`` goes to :func:`~repro.runner.executor.run_many`, one
    batch for the whole matrix.  Under ``on_error="keep_going"`` a workload
    whose baseline or improved run failed is *omitted* from the returned
    matrix (a half pair renders nothing meaningful); the failure itself
    stays visible through the cache's record log and the CLI's ``--stats``
    failure table.
    """
    workloads = ("light", "heavy")
    specs = []
    for workload in workloads:
        specs.extend(
            pair_specs(
                workload,
                scenario_config=scenario_config,
                model=model,
                simulator_config=simulator_config,
            )
        )
    records = run_many(specs, **harness)
    matrix: Dict[str, PairResult] = {}
    for index, workload in enumerate(workloads):
        baseline = records[2 * index].result
        improved = records[2 * index + 1].result
        if baseline is None or improved is None:
            continue
        matrix[workload] = PairResult(
            workload_name=workload, baseline=baseline, improved=improved
        )
    return matrix
