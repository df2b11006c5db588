"""The engine watchdog: event budgets, stall detection, wall-clock
deadlines, alarm-time bounds."""

import time

import pytest

from repro.core.native import NativePolicy
from repro.simulator.engine import (
    SimulationStalled,
    Simulator,
    SimulatorConfig,
)

from ..conftest import make_alarm


def stalling_alarm():
    """A repeating alarm mutated so its reschedule never advances time.

    Built valid (the factory enforces invariants), then zeroed: a STATIC
    repeat of 0 re-queues the alarm due at the instant it just fired, the
    classic non-advancing-clock hang.
    """
    alarm = make_alarm(nominal=1_000, repeat=60_000)
    alarm.repeat_interval = 0
    alarm.window_length = 0
    alarm.grace_length = 0
    return alarm


class TestClockStallDetector:
    def test_zero_interval_reschedule_trips_the_detector(self):
        config = SimulatorConfig(horizon=100_000, max_stalled_events=50)
        simulator = Simulator(NativePolicy(), config=config)
        simulator.add_alarm(stalling_alarm())
        with pytest.raises(SimulationStalled) as excinfo:
            simulator.run()
        assert excinfo.value.reason == "clock is not advancing"
        assert excinfo.value.budget == 50
        assert excinfo.value.events > 50
        assert "stalled" in str(excinfo.value)

    def test_healthy_run_never_trips(self):
        config = SimulatorConfig(horizon=100_000, max_stalled_events=50)
        simulator = Simulator(NativePolicy(), config=config)
        simulator.add_alarm(make_alarm(nominal=1_000, repeat=10_000))
        trace = simulator.run()  # must not raise
        assert trace.delivery_count() > 0

    def test_simultaneous_batches_are_not_a_stall(self):
        # Many apps due at the same instant is normal batching, not a
        # stall; the counter must reset once the clock advances.
        config = SimulatorConfig(horizon=100_000, max_stalled_events=20)
        simulator = Simulator(NativePolicy(), config=config)
        for app_index in range(10):
            simulator.add_alarm(
                make_alarm(
                    nominal=5_000, repeat=10_000, app=f"app-{app_index}"
                )
            )
        trace = simulator.run()
        assert trace.delivery_count() > 0


class TestEventBudget:
    def test_budget_exhaustion_raises(self):
        config = SimulatorConfig(horizon=100_000, max_events=3)
        simulator = Simulator(NativePolicy(), config=config)
        simulator.add_alarm(make_alarm(nominal=1_000, repeat=10_000))
        with pytest.raises(SimulationStalled) as excinfo:
            simulator.run()
        assert excinfo.value.reason == "event budget exhausted"
        assert excinfo.value.budget == 3

    def test_sufficient_budget_passes(self):
        config = SimulatorConfig(horizon=100_000, max_events=100_000)
        simulator = Simulator(NativePolicy(), config=config)
        simulator.add_alarm(make_alarm(nominal=1_000, repeat=10_000))
        simulator.run()  # must not raise


class TestDeadline:
    def test_passed_deadline_stops_the_first_step(self):
        deadline = time.monotonic() - 1.0
        simulator = Simulator(NativePolicy(), deadline=deadline)
        simulator.add_alarm(make_alarm(nominal=1_000, repeat=10_000))
        with pytest.raises(SimulationStalled) as excinfo:
            simulator.run()
        assert excinfo.value.reason == "wall-clock deadline passed"
        assert excinfo.value.budget == deadline
        assert excinfo.value.events == 1

    def test_same_instant_storm_is_stopped_by_the_deadline(self):
        # With the stall detector out of reach, only the deadline check in
        # the delivery loop's tick can end a storm at one instant.
        config = SimulatorConfig(horizon=100_000, max_stalled_events=10**12)
        simulator = Simulator(
            NativePolicy(), config=config, deadline=time.monotonic() + 0.05
        )
        simulator.add_alarm(stalling_alarm())
        with pytest.raises(SimulationStalled) as excinfo:
            simulator.run()
        assert excinfo.value.reason == "wall-clock deadline passed"


class TestConfigValidation:
    def test_zero_max_events_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(max_events=0)

    def test_negative_max_events_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(max_events=-5)

    def test_zero_max_stalled_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(max_stalled_events=0)

    def test_none_max_events_is_unbounded(self):
        SimulatorConfig(max_events=None)  # must not raise


class TestAlarmTimeBounds:
    def test_negative_registration_time_rejected(self):
        simulator = Simulator(NativePolicy())
        with pytest.raises(ValueError, match="non-negative"):
            simulator.add_alarm(make_alarm(), at=-1)

    def test_registration_at_horizon_rejected(self):
        simulator = Simulator(
            NativePolicy(), config=SimulatorConfig(horizon=50_000)
        )
        with pytest.raises(ValueError, match="horizon"):
            simulator.add_alarm(make_alarm(), at=50_000)

    def test_registration_beyond_horizon_rejected(self):
        simulator = Simulator(
            NativePolicy(), config=SimulatorConfig(horizon=50_000)
        )
        with pytest.raises(ValueError, match="horizon"):
            simulator.add_alarm(make_alarm(), at=60_000)

    def test_registration_just_inside_horizon_accepted(self):
        simulator = Simulator(
            NativePolicy(), config=SimulatorConfig(horizon=50_000)
        )
        simulator.add_alarm(make_alarm(nominal=49_999), at=49_999)

    def test_negative_cancellation_time_rejected(self):
        simulator = Simulator(NativePolicy())
        with pytest.raises(ValueError, match="non-negative"):
            simulator.cancel_alarm(make_alarm(), at=-1)

    def test_cancellation_at_horizon_rejected(self):
        simulator = Simulator(
            NativePolicy(), config=SimulatorConfig(horizon=50_000)
        )
        with pytest.raises(ValueError, match="horizon"):
            simulator.cancel_alarm(make_alarm(), at=50_000)


class TestStalledRunThroughHarness:
    """Acceptance: a stalled simulation surfaces as a FAILED record."""

    def test_stall_is_quarantined_as_failed(self):
        from repro.runner import RunSpec, RunStatus, run_many
        from repro.workloads.scenarios import ScenarioConfig

        spec = RunSpec(
            workload="light",
            policy="native",
            scenario=ScenarioConfig(horizon=900_000),
            simulator=SimulatorConfig(max_events=3),
        )
        (record,) = run_many([spec], on_error="keep_going")
        assert record.status is RunStatus.FAILED
        assert record.error_type == "SimulationStalled"
        assert "budget" in record.error_message
        assert record.result is None

    def test_stall_raises_by_default(self):
        from repro.runner import RunSpec, run_many
        from repro.workloads.scenarios import ScenarioConfig

        spec = RunSpec(
            workload="light",
            policy="native",
            scenario=ScenarioConfig(horizon=900_000),
            simulator=SimulatorConfig(max_events=3),
        )
        with pytest.raises(SimulationStalled):
            run_many([spec])
