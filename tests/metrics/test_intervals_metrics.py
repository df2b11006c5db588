"""Sec. 3.2.2 delivery intervals of whole EXACT runs, checked by the armed monitor."""

from repro.core.alarm import RepeatKind
from repro.core.exact import ExactPolicy
from repro.simulator.engine import SimulatorConfig, simulate

from ..conftest import make_alarm


def run(policy, alarms, horizon=400_000):
    config = SimulatorConfig(
        horizon=horizon, wake_latency_ms=0, tail_ms=0, monitor="raise"
    )
    trace = simulate(policy, alarms, config)
    assert trace.delivery_count() > 0
    return trace


class TestPeriodicityBounds:
    def test_exact_run_satisfies_bounds(self):
        alarms = [
            make_alarm(nominal=10_000, repeat=40_000, window=0, label="s"),
            make_alarm(
                nominal=20_000, repeat=60_000, window=0,
                kind=RepeatKind.DYNAMIC, label="d",
            ),
        ]
        trace = run(ExactPolicy(), alarms)
        assert trace.violations == []


class TestStaticGrid:
    def test_consistent_grid(self):
        alarm = make_alarm(nominal=10_000, repeat=40_000, window=0, label="x")
        trace = run(ExactPolicy(), [alarm])
        nominals = [r.nominal_time for r in trace.deliveries_for("x")]
        assert nominals == list(range(10_000, 400_000, 40_000))
        assert trace.violations == []
