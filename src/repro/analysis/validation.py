"""Installation self-check (`simty validate`).

Runs a battery of fast invariant checks — the "doctor" for a fresh clone
or a modified calibration — and reports PASS/FAIL per check:

1. the Fig. 2 energy identity (7,520 / 4,050 mJ, exact);
2. delivery guarantees on a short light-workload SIMTY run with the
   online invariant monitor armed (``on_violation="record"``): any
   Sec. 3.2.2 breach is reported by invariant kind and simulated time;
3. determinism (two identical runs produce identical batch fingerprints);
4. energy-accounting conservation (parts sum to total; awake+sleep =
   horizon);
5. baseline sanity (SIMTY wakes the device less than NATIVE).

Each check is independent; all failures are reported, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..core.invariants import ViolationSummary
from ..metrics.delay import max_grace_violation_ms, max_window_violation_ms
from ..simulator.engine import SimulatorConfig
from ..workloads.scenarios import ScenarioConfig
from .experiments import run_experiment
from .figures import fig2_motivating

#: Horizon for the quick checks (30 simulated minutes).
QUICK_HORIZON_MS = 1_800_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_fig2() -> CheckResult:
    results = fig2_motivating()
    expected = {"NATIVE": 7_520.0, "SIMTY": 4_050.0}
    passed = all(
        abs(results[policy] - energy) < 1e-6
        for policy, energy in expected.items()
    )
    return CheckResult(
        "fig2-identity",
        passed,
        f"NATIVE {results['NATIVE']:.0f} mJ, SIMTY {results['SIMTY']:.0f} mJ "
        "(expected 7520 / 4050)",
    )


def _check_guarantees() -> CheckResult:
    """Run SIMTY with the online invariant monitor armed (``record``).

    Instead of coarse post-hoc maxima, the monitor enforces the Sec. 3.2.2
    guarantees (static grids included) on every delivery and queue
    mutation; a failure names the exact invariant and the simulated time
    it broke at.
    """
    config = ScenarioConfig(horizon=QUICK_HORIZON_MS)
    result = run_experiment(
        "light",
        "simty",
        config,
        simulator_config=SimulatorConfig(
            horizon=QUICK_HORIZON_MS, monitor="record"
        ),
    )
    violations = result.trace.violations
    passed = not violations
    if violations:
        first = violations[0]
        detail = (
            f"{ViolationSummary.of(violations).format()}; first: "
            f"{first.format()}"
        )
    else:
        grace = max_grace_violation_ms(result.trace)
        window = max_window_violation_ms(
            result.trace, labels=result.major_labels
        )
        detail = (
            f"monitor clean over {len(result.trace.batches)} batches "
            f"(max grace delay {grace} ms, max perceptible window delay "
            f"{window} ms)"
        )
    return CheckResult("delivery-guarantees", passed, detail)


def _check_determinism() -> CheckResult:
    config = ScenarioConfig(horizon=QUICK_HORIZON_MS)

    def fingerprint():
        trace = run_experiment("light", "simty", config).trace
        return [
            (batch.delivered_at, len(batch.alarms)) for batch in trace.batches
        ]

    passed = fingerprint() == fingerprint()
    return CheckResult(
        "determinism", passed, "two identical runs compared batch-for-batch"
    )


def _check_conservation() -> CheckResult:
    config = ScenarioConfig(horizon=QUICK_HORIZON_MS)
    energy = run_experiment("light", "simty", config).energy
    parts = (
        energy.sleep_mj
        + energy.awake_base_mj
        + energy.wake_transitions_mj
        + energy.hardware_mj
    )
    time_ok = energy.sleep_ms + energy.awake_ms == QUICK_HORIZON_MS
    energy_ok = abs(energy.total_mj - parts) < 1e-6
    return CheckResult(
        "accounting-conservation",
        time_ok and energy_ok,
        f"time partition {'ok' if time_ok else 'BROKEN'}, "
        f"energy partition {'ok' if energy_ok else 'BROKEN'}",
    )


def _check_baseline_order() -> CheckResult:
    config = ScenarioConfig(horizon=QUICK_HORIZON_MS)
    native = run_experiment("light", "native", config)
    simty = run_experiment("light", "simty", config)
    passed = (
        simty.wakeups.cpu.delivered < native.wakeups.cpu.delivered
        and simty.energy.total_mj < native.energy.total_mj
    )
    return CheckResult(
        "policy-ordering",
        passed,
        f"NATIVE {native.wakeups.cpu.delivered} wakeups vs "
        f"SIMTY {simty.wakeups.cpu.delivered}",
    )


CHECKS: List[Callable[[], CheckResult]] = [
    _check_fig2,
    _check_guarantees,
    _check_determinism,
    _check_conservation,
    _check_baseline_order,
]


def run_validation() -> List[CheckResult]:
    """Run every check; never raises — failures are reported as results."""
    results = []
    for check in CHECKS:
        try:
            results.append(check())
        except Exception as error:  # noqa: BLE001 - doctor must not die
            results.append(
                CheckResult(check.__name__.strip("_"), False, repr(error))
            )
    return results


def render_validation(results: List[CheckResult]) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{status}] {result.name}: {result.detail}")
    failed = sum(1 for result in results if not result.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + ("" if not failed else f" ({failed} FAILED)")
    )
    return "\n".join(lines)
