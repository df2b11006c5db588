"""O1 — how close is SIMTY to the offline minimum?

Sec. 4.2 argues SIMTY "already approaches the least required number of
wakeups" using a coarse static-interval bound.  This bench computes the
tight clairvoyant lower bound (greedy interval stabbing over the true
tolerance intervals, `repro.core.oracle`) and reports each policy's
optimality gap on both workloads.
"""

from repro.analysis.experiments import run_experiment
from repro.analysis.report import format_table
from repro.core.oracle import minimum_wakeups, optimality_gap
from repro.runner import DEFAULT_REGISTRY
from repro.workloads.scenarios import ScenarioConfig


def compute():
    config = ScenarioConfig()
    rows = []
    gaps = {}
    for workload in ("light", "heavy"):
        oracle = minimum_wakeups(
            DEFAULT_REGISTRY.build_workload(workload, config).alarms(), horizon=config.horizon
        )
        for policy in ("native", "simty"):
            result = run_experiment(workload, policy, config)
            achieved = result.wakeups.cpu.delivered
            gap = optimality_gap(achieved, oracle)
            gaps[(workload, policy)] = gap
            rows.append(
                (
                    workload,
                    policy.upper(),
                    achieved,
                    oracle.wakeups,
                    f"+{gap:.0%}",
                )
            )
    return rows, gaps


def test_bench_optimality_gap(benchmark, emit):
    rows, gaps = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(
        "O1 — wakeups vs the clairvoyant offline minimum\n"
        + format_table(
            ("workload", "policy", "wakeups", "oracle", "gap"), rows
        )
    )
    for workload in ("light", "heavy"):
        # SIMTY sits far closer to the oracle than NATIVE does.
        assert gaps[(workload, "simty")] < 0.5 * gaps[(workload, "native")]
