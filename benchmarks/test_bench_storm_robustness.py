"""F1 — robustness to an alarm storm.

A misconfigured retry loop (WeChat's 900 s sync shrunk 100x to 9 s) floods
the alarm manager with ~1,200 extra occurrences.  No policy can help much:
a 9 s repeating alarm *requires* a wakeup roughly every period (the oracle
floor jumps from ~180 to ~650).  The bench shows (a) SIMTY still beats
NATIVE in absolute wakeups and energy under the storm, and (b) both sit
close to the storm-inflated oracle floor — i.e. the damage is inherent to
the workload, which is why the real fix for storms is detection
(`repro.metrics.anomaly`) rather than alignment.
"""

from repro.analysis.experiments import run_workload
from repro.analysis.report import format_table
from repro.core.native import NativePolicy
from repro.core.oracle import minimum_wakeups
from repro.core.simty import SimtyPolicy
from repro.workloads.faults import with_storm
from repro.workloads.scenarios import build_light


def run_all():
    builders = {
        "clean": build_light,
        "storm": lambda: with_storm(build_light(), "WeChat", 100),
    }
    results = {}
    floors = {}
    for scenario, build in builders.items():
        floors[scenario] = minimum_wakeups(
            build().alarms(), horizon=build().horizon
        ).wakeups
        for name, policy in (
            ("NATIVE", NativePolicy()),
            ("SIMTY", SimtyPolicy()),
        ):
            results[(scenario, name)] = run_workload(build(), policy)
    return results, floors


def test_bench_storm_robustness(benchmark, emit):
    results, floors = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for scenario in ("clean", "storm"):
        for name in ("NATIVE", "SIMTY"):
            result = results[(scenario, name)]
            wakeups = result.trace.wake_count()
            rows.append(
                (
                    scenario,
                    name,
                    wakeups,
                    floors[scenario],
                    f"{result.energy.total_mj / 1000:.0f} J",
                )
            )
    emit(
        "F1 — alarm storm (WeChat 900 s -> 9 s retry loop), light workload\n"
        + format_table(
            ("scenario", "policy", "wakeups", "oracle floor", "energy"), rows
        )
    )
    # The storm inflates the inherent floor itself...
    assert floors["storm"] > 3 * floors["clean"]
    # ...and SIMTY still beats NATIVE in absolute terms under it.
    assert (
        results[("storm", "SIMTY")].trace.wake_count()
        < results[("storm", "NATIVE")].trace.wake_count()
    )
    assert (
        results[("storm", "SIMTY")].energy.total_mj
        < results[("storm", "NATIVE")].energy.total_mj
    )
