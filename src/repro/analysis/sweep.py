"""Parameter sweeps and ablations, expressed as RunSpec grids.

The paper fixes ``beta = 0.96`` and the three-level hardware classifier; the
sweeps here quantify those design choices:

* :func:`beta_sweep` — energy/delay/wakeups as the grace fraction grows from
  the window fraction toward 1 (A1 in DESIGN.md);
* :func:`classifier_sweep` — the 2/3/4-level hardware-similarity variants
  sketched in Sec. 3.1.1 (A2);
* :func:`scale_sweep` — synthetic workloads of growing app count (S1);
* :func:`duration_sweep` — SIMTY vs duration-aware SIMTY (A3, Sec. 5).

Every sweep builds its full grid of :class:`~repro.runner.spec.RunSpec`s —
including the beta-independent NATIVE baseline once *per grid point*, as
the row arithmetic wants — and hands it to one
:func:`~repro.runner.executor.run_many` call.  Content-addressed
deduplication then collapses the repeated baseline to a single simulation:
a six-beta ``beta_sweep`` issues exactly 7 simulations (1 NATIVE + 6
SIMTY).

A sweep declares only its own grid parameters; every other keyword
(``**harness``) goes to ``run_many`` unchanged, so each of its options —
a shared :class:`~repro.runner.cache.ResultCache` to reuse baselines
*across* sweeps, ``max_workers``, the supervision knobs of
docs/robustness.md, ``telemetry`` — works on every sweep.  With
``on_error="keep_going"`` a failed grid cell does not abort the sweep: its
row is still emitted, with ``None`` in every metric that needed the
missing result (the CLI renders these as ``-`` and prints a failure
summary under ``--stats``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

import dataclasses

from ..core.similarity import HARDWARE_CLASSIFIERS
from ..metrics.delay import max_window_violation_ms
from ..power.accounting import account, savings_fraction
from ..power.model import PowerModel
from ..power.profiles import NEXUS5
from ..runner.executor import run_many
from ..runner.spec import RunSpec
from ..simulator.engine import SimulatorConfig
from ..workloads.scenarios import ScenarioConfig


def _savings(baseline, result) -> Optional[float]:
    """Savings vs baseline, or None when either cell is missing."""
    if baseline is None or result is None:
        return None
    return savings_fraction(baseline.energy, result.energy)


def beta_sweep(
    workload: str = "light",
    betas: Sequence[float] = (0.75, 0.80, 0.85, 0.90, 0.96, 0.99),
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    **harness: Any,
) -> List[Dict]:
    """Sweep the grace fraction; NATIVE is the beta-independent baseline."""
    kwargs = workload_kwargs or {}
    specs = []
    for beta in betas:
        specs.append(
            RunSpec(
                workload=workload,
                policy="native",
                workload_kwargs=kwargs,
                model=model,
                simulator=simulator_config,
            )
        )
        specs.append(
            RunSpec(
                workload=workload,
                policy="simty",
                workload_kwargs=kwargs,
                scenario=ScenarioConfig(beta=beta),
                model=model, simulator=simulator_config,
            )
        )
    records = run_many(specs, **harness)
    rows = []
    for index, beta in enumerate(betas):
        baseline = records[2 * index].result
        result = records[2 * index + 1].result
        rows.append(
            {
                "beta": beta,
                "wakeups": result.wakeups.cpu.delivered if result else None,
                "total_savings": _savings(baseline, result),
                "imperceptible_delay": (
                    result.delays.imperceptible.mean if result else None
                ),
            }
        )
    return rows


def classifier_sweep(
    workload: str = "heavy",
    model: PowerModel = NEXUS5,
    names: Optional[Iterable[str]] = None,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    **harness: Any,
) -> List[Dict]:
    """Compare the hardware-similarity granularities of Sec. 3.1.1."""
    kwargs = workload_kwargs or {}
    chosen = list(names or sorted(HARDWARE_CLASSIFIERS))
    specs = [
        RunSpec(
            workload=workload,
            policy="native",
            workload_kwargs=kwargs,
            model=model,
            simulator=simulator_config,
        )
    ]
    specs.extend(
        RunSpec(
            workload=workload,
            policy="simty",
            workload_kwargs=kwargs,
            policy_kwargs={"classifier": name},
            policy_label=f"simty[{name}]",
            model=model, simulator=simulator_config,
        )
        for name in chosen
    )
    records = run_many(specs, **harness)
    baseline = records[0].result
    rows = []
    for name, record in zip(chosen, records[1:]):
        result = record.result
        rows.append(
            {
                "classifier": name,
                "wakeups": result.wakeups.cpu.delivered if result else None,
                "total_savings": _savings(baseline, result),
                "imperceptible_delay": (
                    result.delays.imperceptible.mean if result else None
                ),
            }
        )
    return rows


def scale_sweep(
    app_counts: Sequence[int] = (10, 25, 50, 100),
    seed: int = 1,
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    **harness: Any,
) -> List[Dict]:
    """NATIVE-vs-SIMTY savings on synthetic workloads of growing size."""
    specs = []
    for count in app_counts:
        for policy in ("native", "simty"):
            specs.append(
                RunSpec(
                    workload="synthetic",
                    policy=policy,
                    workload_kwargs={"app_count": count},
                    seed=seed,
                    model=model, simulator=simulator_config,
                )
            )
    records = run_many(specs, **harness)
    rows = []
    for index, count in enumerate(app_counts):
        native = records[2 * index].result
        simty = records[2 * index + 1].result
        rows.append(
            {
                "apps": count,
                "native_wakeups": native.wakeups.cpu.delivered if native else None,
                "simty_wakeups": simty.wakeups.cpu.delivered if simty else None,
                "total_savings": _savings(native, simty),
            }
        )
    return rows


def bucket_sweep(
    workload: str = "heavy",
    bucket_intervals_s: Sequence[int] = (60, 120, 300, 600),
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    **harness: Any,
) -> List[Dict]:
    """Compare SIMTY with the fixed-interval remedy of [Lin et al.] (A4).

    For each bucket interval, reports wakeups, savings vs NATIVE, and the
    worst window violation of a *perceptible* major alarm — the
    user-experience damage SIMTY's search phase rules out by construction.
    """
    kwargs = workload_kwargs or {}
    specs = [
        RunSpec(workload=workload, policy="native", workload_kwargs=kwargs, model=model, simulator=simulator_config),
        RunSpec(workload=workload, policy="simty", workload_kwargs=kwargs, model=model, simulator=simulator_config),
    ]
    specs.extend(
        RunSpec(
            workload=workload,
            policy="bucket",
            workload_kwargs=kwargs,
            policy_kwargs={"bucket_interval": interval_s * 1000},
            policy_label=f"bucket-{interval_s}s",
            model=model, simulator=simulator_config,
        )
        for interval_s in bucket_intervals_s
    )
    records = run_many(specs, **harness)
    baseline = records[0].result
    rows: List[Dict] = []
    for record in records[1:]:
        result = record.result
        rows.append(
            {
                "policy": record.policy_name(),
                "wakeups": result.wakeups.cpu.delivered if result else None,
                "total_savings": _savings(baseline, result),
                "worst_window_miss_s": (
                    max_window_violation_ms(
                        result.trace, labels=result.major_labels
                    )
                    / 1000.0
                    if result
                    else None
                ),
            }
        )
    return rows


def sensitivity_sweep(
    workload: str = "light",
    scales: Sequence[float] = (0.75, 1.0, 1.25),
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    **harness: Any,
) -> List[Dict]:
    """Perturb the calibrated power constants and re-derive the headline.

    The paper's conclusions should not hinge on any single calibration
    constant (DESIGN.md §5).  Each row scales one group of constants —
    the sleep floor, the awake base power, or every component activation
    energy — by ``scale`` and reports SIMTY's total savings.  Only two
    simulations run (NATIVE and SIMTY); the perturbations re-price the
    same traces.
    """
    kwargs = workload_kwargs or {}
    records = run_many(
        [
            RunSpec(workload=workload, policy="native", workload_kwargs=kwargs, model=model, simulator=simulator_config),
            RunSpec(workload=workload, policy="simty", workload_kwargs=kwargs, model=model, simulator=simulator_config),
        ],
        **harness,
    )
    native, simty = records[0].result, records[1].result

    def scaled_model(group: str, scale: float) -> PowerModel:
        if group == "sleep":
            return dataclasses.replace(
                model, sleep_power_mw=model.sleep_power_mw * scale
            )
        if group == "awake_base":
            return dataclasses.replace(
                model, awake_base_power_mw=model.awake_base_power_mw * scale
            )
        components = {
            component: dataclasses.replace(
                spec, activation_energy_mj=spec.activation_energy_mj * scale
            )
            for component, spec in model.components.items()
        }
        return dataclasses.replace(model, components=components)

    rows: List[Dict] = []
    for group in ("sleep", "awake_base", "activation"):
        for scale in scales:
            if native is None or simty is None:
                rows.append(
                    {"group": group, "scale": scale, "total_savings": None}
                )
                continue
            perturbed = scaled_model(group, scale)
            baseline = account(native.trace, perturbed)
            improved = account(simty.trace, perturbed)
            rows.append(
                {
                    "group": group,
                    "scale": scale,
                    "total_savings": savings_fraction(baseline, improved),
                }
            )
    return rows


def duration_sweep(
    workload: str = "heavy",
    model: PowerModel = NEXUS5,
    simulator_config: Optional[SimulatorConfig] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    **harness: Any,
) -> List[Dict]:
    """SIMTY vs the Sec. 5 duration-aware extension."""
    kwargs = workload_kwargs or {}
    records = run_many(
        [
            RunSpec(workload=workload, policy="native", workload_kwargs=kwargs, model=model, simulator=simulator_config),
            RunSpec(workload=workload, policy="simty", workload_kwargs=kwargs, model=model, simulator=simulator_config),
            RunSpec(workload=workload, policy="simty+dur", workload_kwargs=kwargs, model=model, simulator=simulator_config),
        ],
        **harness,
    )
    baseline = records[0].result
    rows = []
    for record in records[1:]:
        result = record.result
        hold_ms = (
            sum(usage.hold_ms for usage in result.trace.wakelocks.usage.values())
            if result
            else None
        )
        rows.append(
            {
                "policy": record.policy_name(),
                "wakeups": result.wakeups.cpu.delivered if result else None,
                "hardware_hold_ms": hold_ms,
                "total_savings": _savings(baseline, result),
            }
        )
    return rows
