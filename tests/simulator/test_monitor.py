"""The online invariant monitor: escalation modes and engine integration."""

from dataclasses import dataclass

import pytest

from repro.core.alarm import RepeatKind
from repro.core.exact import ExactPolicy
from repro.core.invariants import DOUBLE_DELIVERY, DUPLICATE_QUEUED, GAP_BOUNDS
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.simulator.engine import Simulator, SimulatorConfig, simulate
from repro.simulator.monitor import (
    ON_VIOLATION_MODES,
    InvariantMonitor,
    InvariantViolationError,
)

from ..conftest import make_alarm


@dataclass
class Record:
    """Minimal delivery-record shape the monitor consumes."""

    alarm_id: int = 1
    label: str = "a"
    wakeup: bool = True
    perceptible: bool = False
    repeat_kind: RepeatKind = RepeatKind.STATIC
    repeat_interval: int = 60_000
    nominal_time: int = 60_000
    window_end: int = 90_000
    grace_end: int = 110_000
    delivered_at: int = 60_000


class DoubleInsertPolicy(ExactPolicy):
    """Deliberately broken: queues every alarm in two entries at once."""

    name = "broken"

    def insert(self, queue, alarm, now):
        # ExactPolicy.insert self-heals by removing the alarm first, so
        # place it into two fresh entries directly.
        self._place_in_new_entry(queue, alarm)
        return self._place_in_new_entry(queue, alarm)


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantMonitor(on_violation="explode")

    def test_invalid_config_monitor_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(monitor="explode")

    def test_all_modes_accepted(self):
        for mode in ON_VIOLATION_MODES:
            assert InvariantMonitor(on_violation=mode).on_violation == mode


class TestDeliveryChecks:
    def test_forced_double_delivery_recorded(self):
        monitor = InvariantMonitor(on_violation="record", tolerance_ms=0)
        record = Record()
        monitor.on_delivery(record, record.delivered_at)
        monitor.on_delivery(record, record.delivered_at)
        kinds = [v.kind for v in monitor.violations]
        # The repeat trips both the exactly-once check and the zero gap.
        assert kinds[0] == DOUBLE_DELIVERY

    def test_forced_double_delivery_raises_in_raise_mode(self):
        monitor = InvariantMonitor(on_violation="raise", tolerance_ms=0)
        record = Record()
        monitor.on_delivery(record, record.delivered_at)
        with pytest.raises(InvariantViolationError) as info:
            monitor.on_delivery(record, record.delivered_at)
        assert info.value.violation.kind == DOUBLE_DELIVERY

    def test_warn_mode_emits_runtime_warning(self):
        monitor = InvariantMonitor(on_violation="warn", tolerance_ms=0)
        record = Record()
        monitor.on_delivery(record, record.delivered_at)
        with pytest.warns(RuntimeWarning):
            monitor.on_delivery(record, record.delivered_at)
        assert monitor.violations  # warn still records

    def test_reregistration_resets_delivery_state(self):
        # A cancelled-and-re-set one-shot may legally fire again with the
        # same nominal time; re-registration must forget its last delivery.
        monitor = InvariantMonitor(on_violation="raise", tolerance_ms=0)
        alarm = make_alarm(nominal=60_000, kind=RepeatKind.ONE_SHOT)
        record = Record(
            alarm_id=alarm.alarm_id,
            repeat_kind=RepeatKind.ONE_SHOT,
            repeat_interval=0,
        )
        monitor.on_delivery(record, record.delivered_at)
        monitor.on_register(alarm, 70_000)
        monitor.on_delivery(record, record.delivered_at)  # must not raise
        assert monitor.violations == []

    def test_reregistration_restarts_the_static_grid(self):
        monitor = InvariantMonitor(on_violation="record", tolerance_ms=0)
        alarm = make_alarm(nominal=60_000, repeat=60_000)
        first = Record(alarm_id=alarm.alarm_id)
        # 90 s on: inside the gap bound [10 s, 110 s] but off the grid.
        off_grid = Record(
            alarm_id=alarm.alarm_id,
            nominal_time=150_000,
            window_end=180_000,
            grace_end=200_000,
            delivered_at=150_000,
        )
        monitor.on_delivery(first, first.delivered_at)
        monitor.on_delivery(off_grid, off_grid.delivered_at)
        assert [v.kind for v in monitor.violations] == [GAP_BOUNDS]

        monitor = InvariantMonitor(on_violation="raise", tolerance_ms=0)
        monitor.on_delivery(first, first.delivered_at)
        monitor.on_register(alarm, 100_000)
        monitor.on_delivery(off_grid, off_grid.delivered_at)  # must not raise
        assert monitor.violations == []

    def test_cancel_keeps_the_last_delivery(self):
        # Only a re-registration forgets an alarm's deliveries: a delivery
        # after a bare cancel is still checked against the last one.
        monitor = InvariantMonitor(on_violation="record", tolerance_ms=0)
        alarm = make_alarm(nominal=60_000, repeat=60_000)
        record = Record(alarm_id=alarm.alarm_id)
        monitor.on_delivery(record, record.delivered_at)
        monitor.on_cancel(alarm, 70_000, True)
        monitor.on_delivery(record, record.delivered_at)
        assert [v.kind for v in monitor.violations][0] == DOUBLE_DELIVERY

    def test_summary_aggregates(self):
        monitor = InvariantMonitor(on_violation="record", tolerance_ms=0)
        record = Record()
        monitor.on_delivery(record, record.delivered_at)
        monitor.on_delivery(record, record.delivered_at)
        assert monitor.summary().by_kind[DOUBLE_DELIVERY] == 1
        assert monitor.summary().total == len(monitor.violations)


class TestEngineIntegration:
    def config(self, mode, horizon=200_000):
        return SimulatorConfig(
            horizon=horizon, wake_latency_ms=0, tail_ms=0, monitor=mode
        )

    def test_broken_policy_caught_in_record_mode(self):
        # The seeded known-bad injection: a policy that queues each alarm
        # twice.  The structural audit on registration must flag it and the
        # violations must land on the trace.
        simulator = Simulator(DoubleInsertPolicy(), config=self.config("record"))
        simulator.add_alarm(make_alarm(nominal=50_000, repeat=60_000))
        trace = simulator.run()
        assert trace.violations
        assert DUPLICATE_QUEUED in {v.kind for v in trace.violations}

    def test_broken_policy_raises_in_raise_mode(self):
        simulator = Simulator(DoubleInsertPolicy(), config=self.config("raise"))
        simulator.add_alarm(make_alarm(nominal=50_000, repeat=60_000))
        with pytest.raises(InvariantViolationError):
            simulator.run()

    @pytest.mark.parametrize("policy", [NativePolicy, SimtyPolicy, ExactPolicy])
    def test_correct_policies_run_clean_under_raise(self, policy):
        alarms = [
            make_alarm(nominal=10_000, repeat=60_000, grace=48_000, label="a"),
            make_alarm(nominal=40_000, repeat=60_000, grace=48_000, label="b"),
            make_alarm(nominal=25_000, repeat=120_000, grace=96_000, label="c"),
        ]
        trace = simulate(policy(), alarms, self.config("raise", 600_000))
        assert trace.violations == []
        assert trace.delivery_count() > 0

    def test_monitor_bound_and_counting(self):
        simulator = Simulator(SimtyPolicy(), config=self.config("record"))
        simulator.add_alarm(make_alarm(nominal=50_000, repeat=60_000, grace=48_000))
        simulator.run()
        assert simulator.monitor is not None
        assert simulator.monitor.check_count > 0
        # The engine hands the monitor its wake latency as tolerance.
        assert simulator.monitor.tolerance_ms == 0

    def test_unmonitored_run_has_no_monitor(self):
        simulator = Simulator(
            SimtyPolicy(),
            config=SimulatorConfig(horizon=100_000, wake_latency_ms=0, tail_ms=0),
        )
        simulator.add_alarm(make_alarm(nominal=50_000))
        trace = simulator.run()
        assert simulator.monitor is None
        assert trace.violations == []

    def test_explicit_monitor_instance_wins(self):
        monitor = InvariantMonitor(on_violation="record", tolerance_ms=123)
        simulator = Simulator(
            SimtyPolicy(), config=self.config(None), monitor=monitor
        )
        assert simulator.monitor is monitor
        assert monitor.tolerance_ms == 123  # explicit tolerance kept


class TestPeriodicity:
    """Sec. 3.2.2 on whole runs: the armed monitor is the one checker."""

    def run(self, policy, alarms, horizon=400_000, latency=0):
        config = SimulatorConfig(
            horizon=horizon, wake_latency_ms=latency, tail_ms=0, monitor="raise"
        )
        trace = simulate(policy, alarms, config)
        assert trace.delivery_count() > 0
        return trace

    def test_simty_run_within_beta_bounds(self):
        alarms = [
            make_alarm(
                nominal=10_000, repeat=50_000, window=0, grace=48_000,
                label="a",
            ),
            make_alarm(
                nominal=30_000, repeat=70_000, window=0, grace=67_000,
                label="b",
            ),
            make_alarm(
                nominal=45_000, repeat=60_000, window=0, grace=57_000,
                kind=RepeatKind.DYNAMIC, label="c",
            ),
        ]
        trace = self.run(SimtyPolicy(), alarms, horizon=1_000_000)
        assert trace.violations == []

    def test_simty_never_skips_static_occurrences(self):
        alarms = [
            make_alarm(
                nominal=10_000, repeat=50_000, window=0, grace=48_000,
                label="a",
            ),
            make_alarm(
                nominal=35_000, repeat=80_000, window=0, grace=76_000,
                label="b",
            ),
        ]
        trace = self.run(SimtyPolicy(), alarms, horizon=1_000_000)
        for label, interval in (("a", 50_000), ("b", 80_000)):
            nominals = [r.nominal_time for r in trace.deliveries_for(label)]
            assert all(
                later - earlier == interval
                for earlier, later in zip(nominals, nominals[1:])
            )
        assert trace.violations == []

    def test_wake_latency_is_the_tolerance(self):
        # Every delivery wakes the device and pays the 400 ms latency; the
        # engine hands the monitor that latency as its tolerance.
        alarm = make_alarm(nominal=10_000, repeat=50_000, window=0, label="x")
        trace = self.run(ExactPolicy(), [alarm], latency=400)
        assert all(r.delivered_at > r.nominal_time for r in trace.deliveries())
        assert trace.violations == []
