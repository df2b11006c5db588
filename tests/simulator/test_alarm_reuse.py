"""Alarms are mutable and single-use; the simulator now enforces it."""

import gc

import pytest

from repro.core.alarm import Alarm, RepeatKind
from repro.core.exact import ExactPolicy
from repro.core.simty import SimtyPolicy
from repro.simulator.engine import Simulator, SimulatorConfig, simulate
from repro.workloads.scenarios import ScenarioConfig, build_light


def make_alarm() -> Alarm:
    return Alarm(
        app="mail",
        nominal_time=60_000,
        repeat_interval=60_000,
        window_fraction=0.75,
        repeat_kind=RepeatKind.STATIC,
        task_duration=500,
    )


class TestReuseGuard:
    def test_consumed_alarm_rejected_by_second_simulator(self):
        alarm = make_alarm()
        simulate(ExactPolicy(), [alarm], SimulatorConfig(horizon=300_000))
        fresh = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        with pytest.raises(ValueError, match="single-use"):
            fresh.add_alarm(alarm)

    def test_claim_outlives_its_simulator(self):
        # The alarm holds its run's claim token, not the run: once the
        # simulator and its trace are gone and collected, the claim must
        # still stand (a weak reference to the run would let it lapse).
        alarm = make_alarm()
        first = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        first.add_alarm(alarm)
        trace = first.run()
        assert trace.delivery_count() > 0
        with pytest.raises(ValueError) as while_alive:
            Simulator(ExactPolicy()).add_alarm(alarm)
        del first, trace
        gc.collect()
        fresh = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        with pytest.raises(ValueError) as after_collect:
            fresh.add_alarm(alarm)
        assert str(after_collect.value) == str(while_alive.value)
        assert "single-use" in str(after_collect.value)
        with pytest.raises(ValueError, match="previous Simulator run"):
            fresh.reregister_alarm(alarm, at=1_000)

    def test_unran_alarm_still_claimed_by_its_simulator(self):
        # The claim happens at registration: even before run(), handing the
        # same alarm object to another simulator is a bug waiting to happen.
        alarm = make_alarm()
        first = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        first.add_alarm(alarm)
        second = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        with pytest.raises(ValueError, match="fresh workload"):
            second.add_alarm(alarm)

    def test_same_simulator_may_reregister(self):
        # Android allows re-registering an alarm (it replaces the queued
        # instance); within one simulator that stays legal.
        alarm = make_alarm()
        simulator = Simulator(ExactPolicy(), SimulatorConfig(horizon=300_000))
        simulator.add_alarm(alarm, at=0)
        simulator.add_alarm(alarm, at=10_000)
        trace = simulator.run()
        assert trace.delivery_count() > 0

    def test_reused_workload_rejected(self):
        workload = build_light(ScenarioConfig(horizon=900_000))
        first = Simulator(SimtyPolicy(), SimulatorConfig(horizon=900_000))
        workload.apply(first)
        first.run()
        second = Simulator(SimtyPolicy(), SimulatorConfig(horizon=900_000))
        with pytest.raises(ValueError, match="previous"):
            workload.apply(second)

    def test_fresh_builds_unaffected(self):
        config = ScenarioConfig(horizon=900_000)
        for _ in range(2):
            workload = build_light(config)
            simulator = Simulator(
                SimtyPolicy(), SimulatorConfig(horizon=900_000)
            )
            workload.apply(simulator)
            assert simulator.run().delivery_count() > 0
