"""OBS — disabled telemetry must stay (near) free on the hot path.

The engine has one dispatch sequence: every phase runs inside its
``telemetry.span`` and is followed by its ``telemetry.count``, which go to
the null hub when no telemetry is attached; only the gauges are gated.
This bench keeps a frozen copy of the ungated step — the phase order with
no span, count or gate at all — as the baseline (under SIMTY, with an
insert that has no search span and no explain-pass gate either), runs the
heavy workload through both under SIMTY and NATIVE, and asserts the
shipping no-op path stays within 5% of it.  A failure here means the
null-hub calls (or some other instrumentation) cost real time on the hot
path.

An enabled run is also timed.  Instrumentation that is *on* is allowed
to cost real time (spans allocate), but not more than it did when the
ceiling was set: the ratio of the enabled run to the baseline (minima over
the reps) must stay under a per-policy ceiling, the recorded ratio plus a
margin, so a regression of the observed path fails here rather than in a
served advance.  Per policy, the median paired no-op overhead and the
enabled ratio are written to ``BENCH_telemetry_overhead.json`` at the repo
root; the report keeps the readings it replaces in its ``history``, so a
drift towards either bound shows before a flake does.

Each run builds a fresh workload (alarms are single-use) and starts from a
collected heap.  Each rep times the baseline and the no-op path back to
back (alternating which goes first), and the gate is the median of the
per-rep ratios: a host that changes speed between reps moves both runs
of a rep, so a noisy CI neighbour shifts the estimate far less than it
shifts a ratio of per-configuration minima.
"""

import gc
import statistics
import time
from pathlib import Path
from typing import Optional

import pytest

from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.obs.telemetry import Telemetry
from repro.simulator.engine import Simulator
from repro.workloads.scenarios import build_heavy

REPORT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_telemetry_overhead.json"
)

#: CI-enforced maximum median paired no-op overhead.
NOOP_BOUND = 0.05

#: CI-enforced maximum enabled / baseline ratio per policy: the ratio
#: recorded on a 2-vCPU VM (SIMTY 2.05, NATIVE 1.54) plus a margin for
#: noisier runners.
ENABLED_CEILING = {"simty": 2.5, "native": 1.85}

REPS = 25


class UninstrumentedSimty(SimtyPolicy):
    """SIMTY's insert with no search span and no explain-pass gate."""

    def insert(self, queue, alarm, now):
        queue.remove_alarm(alarm)
        best = self._search_and_select(queue, alarm, now)
        if best is not None:
            return self._place_in_entry(queue, best, alarm)
        return self._place_in_new_entry(queue, alarm)


#: policy -> (shipping class, class the ungated baseline runs).
POLICIES = {
    "simty": (SimtyPolicy, UninstrumentedSimty),
    "native": (NativePolicy, NativePolicy),
}


class UninstrumentedSimulator(Simulator):
    """The engine step with no telemetry at all: the bench's reference.

    A frozen copy of the step before the engine had a single dispatch
    sequence — the same phases in the same order, each called directly.
    Do not route it through ``_dispatch``: it exists to measure that.
    """

    def step(self, until: Optional[int] = None) -> Optional[int]:
        if not self._started:
            raise RuntimeError("call start() before step()")
        if self._finished:
            raise RuntimeError("the run already finished; build a new Simulator")
        instant = self._next_event_time()
        if (
            instant is None
            or instant >= self.config.horizon
            or (until is not None and instant > until)
        ):
            return None
        self._watchdog_tick(instant)
        self.clock.advance_to(instant)
        self._process_registrations()
        self._process_cancellations()
        self._process_reregistrations()
        self._process_externals()
        self._deliver_due_wakeups()
        if self.device.awake:
            self._deliver_due_nonwakeups()
            self.device.try_sleep(self.clock.now)
        if self.monitor is not None:
            self.monitor.on_step_end(self.clock.now)
        return instant


def _run_once(simulator_cls, policy_cls, telemetry=None):
    workload = build_heavy()
    simulator = simulator_cls(policy_cls(), telemetry=telemetry)
    workload.apply(simulator)
    # Collect the previous run's garbage first, so no configuration pays
    # for the one timed before it.
    gc.collect()
    started = time.perf_counter()
    trace = simulator.run()
    return time.perf_counter() - started, trace


@pytest.fixture(scope="module")
def report(write_report):
    results = {}
    yield results
    payload = {
        "unit": (
            f"heavy workload, {REPS} reps: median paired no-op/baseline "
            "ratio - 1, and min enabled / min baseline wall time"
        ),
        "workload": "heavy",
        "noop_bound": NOOP_BOUND,
        "enabled_ceiling": ENABLED_CEILING,
        "policies": results,
    }
    write_report(REPORT_PATH, payload)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_bench_telemetry_noop_overhead(emit, report, policy):
    policy_cls, baseline_policy_cls = POLICIES[policy]
    baseline_s = []
    noop_s = []
    enabled_s = []
    deliveries = set()
    for rep in range(REPS):
        pair = [
            (UninstrumentedSimulator, baseline_policy_cls, baseline_s),
            (Simulator, policy_cls, noop_s),
        ]
        if rep % 2:
            pair.reverse()  # alternate which gated configuration goes first
        for simulator_cls, run_policy_cls, times in pair:
            elapsed, trace = _run_once(simulator_cls, run_policy_cls)
            times.append(elapsed)
            deliveries.add(trace.delivery_count())
        elapsed, trace = _run_once(Simulator, policy_cls, Telemetry())
        enabled_s.append(elapsed)
        deliveries.add(trace.delivery_count())
        assert trace.telemetry is not None
        assert trace.telemetry.spans["engine.run"].count == 1

    # All three paths simulate the same system.
    assert len(deliveries) == 1

    noop_overhead = statistics.median(
        noop / baseline for baseline, noop in zip(baseline_s, noop_s)
    ) - 1.0
    baseline = min(baseline_s)
    noop = min(noop_s)
    enabled = min(enabled_s)
    report[policy] = {
        "baseline_s": round(baseline, 4),
        "noop_s": round(noop, 4),
        "enabled_s": round(enabled, 4),
        "noop_overhead": round(noop_overhead, 4),
        "enabled_ratio": round(enabled / baseline, 3),
    }
    emit(
        f"telemetry overhead ({policy}, heavy workload, {REPS} reps)\n"
        f"  ungated baseline step:  {baseline * 1000.0:8.1f} ms (min)\n"
        f"  shipping no-op path:    {noop * 1000.0:8.1f} ms (min); "
        f"median paired overhead {noop_overhead:+.1%}\n"
        f"  enabled instrumentation:{enabled * 1000.0:8.1f} ms (min, "
        f"{enabled / baseline:.2f}x baseline)"
    )
    assert noop_overhead < NOOP_BOUND, (
        f"disabled telemetry costs {noop_overhead:.1%} over the ungated "
        f"step under {policy}; the no-op path must stay under 5%"
    )
    ceiling = ENABLED_CEILING[policy]
    assert enabled / baseline < ceiling, (
        f"enabled telemetry runs {enabled / baseline:.2f}x the ungated "
        f"step under {policy}; the ceiling is {ceiling}x"
    )
