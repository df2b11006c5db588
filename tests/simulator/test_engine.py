"""The discrete-event engine: delivery semantics end to end."""

import pytest

from repro.core.alarm import RepeatKind
from repro.core.exact import ExactPolicy
from repro.core.hardware import Component, WIFI_ONLY
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.simulator.device import WakeReason
from repro.simulator.engine import Simulator, SimulatorConfig, simulate
from repro.simulator.external import ExternalWake
from repro.simulator.monitor import InvariantMonitor
from repro.workloads.scenarios import build_light

from ..conftest import make_alarm, oneshot


def config(horizon=100_000, latency=0, tail=0):
    return SimulatorConfig(
        horizon=horizon, wake_latency_ms=latency, tail_ms=tail
    )


class TestBasicDelivery:
    def test_one_shot_delivered_at_nominal(self):
        trace = simulate(ExactPolicy(), [oneshot(nominal=5_000)], config())
        assert trace.delivery_count() == 1
        assert trace.deliveries()[0].delivered_at == 5_000

    def test_wake_latency_delays_delivery_from_sleep(self):
        trace = simulate(
            ExactPolicy(), [oneshot(nominal=5_000)], config(latency=350)
        )
        record = trace.deliveries()[0]
        assert record.delivered_at == 5_350
        assert record.window_delay == max(0, 5_350 - record.window_end)

    def test_no_latency_when_already_awake(self):
        alarms = [
            oneshot(nominal=5_000),
            oneshot(nominal=5_100),
        ]
        trace = simulate(
            ExactPolicy(),
            alarms,
            config(latency=300, tail=1_000),
        )
        first, second = trace.deliveries()
        assert first.delivered_at == 5_300
        # The second delivery happens inside the first wake session.
        assert second.delivered_at == 5_300 or second.delivered_at == 5_400
        assert trace.wake_count() == 1

    def test_alarm_beyond_horizon_not_delivered(self):
        trace = simulate(ExactPolicy(), [oneshot(nominal=200_000)], config())
        assert trace.delivery_count() == 0

    def test_delivery_exactly_at_horizon_excluded(self):
        trace = simulate(
            ExactPolicy(), [oneshot(nominal=100_000)], config(horizon=100_000)
        )
        assert trace.delivery_count() == 0

    def test_batch_records_scheduled_and_actual(self):
        trace = simulate(
            ExactPolicy(), [oneshot(nominal=5_000)], config(latency=200)
        )
        batch = trace.batches[0]
        assert batch.scheduled_time == 5_000
        assert batch.delivered_at == 5_200
        assert batch.woke_device


class TestRepeatingDelivery:
    def test_static_repeats_on_grid(self):
        alarm = make_alarm(nominal=10_000, repeat=10_000, window=0)
        trace = simulate(ExactPolicy(), [alarm], config(horizon=55_000))
        nominals = [r.nominal_time for r in trace.deliveries()]
        assert nominals == [10_000, 20_000, 30_000, 40_000, 50_000]

    def test_dynamic_reappoints_from_delivery(self):
        alarm = make_alarm(
            nominal=10_000, repeat=10_000, window=0, kind=RepeatKind.DYNAMIC
        )
        trace = simulate(
            ExactPolicy(), [alarm], config(horizon=45_000, latency=500)
        )
        times = [r.delivered_at for r in trace.deliveries()]
        # Each delivery slips by the wake latency and the period restarts
        # from the delivery time: 10.5, 21.0, 31.5, 42.0 seconds.
        assert times == [10_500, 21_000, 31_500, 42_000]

    def test_one_delivery_per_interval(self):
        alarm = make_alarm(nominal=5_000, repeat=5_000, window=2_500)
        trace = simulate(NativePolicy(), [alarm], config(horizon=60_000))
        assert trace.delivery_count() == 11

    def test_repeating_alarm_hardware_learned_after_first_delivery(self):
        alarm = make_alarm(
            nominal=5_000, repeat=20_000, window=0, known=False,
            hardware=WIFI_ONLY,
        )
        trace = simulate(SimtyPolicy(), [alarm], config(horizon=50_000))
        first, second = trace.deliveries()[:2]
        assert first.perceptible is False  # true hardware is Wi-Fi
        assert alarm.hardware_known


class TestNonWakeupAlarms:
    def test_nonwakeup_deferred_until_wakeup_alarm(self):
        nonwakeup = oneshot(nominal=2_000, wakeup=False)
        wakeup = oneshot(nominal=30_000)
        trace = simulate(ExactPolicy(), [nonwakeup, wakeup], config())
        records = {r.label: r for r in trace.deliveries()}
        assert records[nonwakeup.label].delivered_at == 30_000
        assert trace.wake_count() == 1

    def test_nonwakeup_prompt_when_device_awake(self):
        wakeup = oneshot(nominal=5_000)
        nonwakeup = oneshot(nominal=5_500, wakeup=False)
        trace = simulate(
            ExactPolicy(), [wakeup, nonwakeup], config(tail=2_000)
        )
        records = {r.label: r for r in trace.deliveries()}
        assert records[nonwakeup.label].delivered_at == 5_500

    def test_nonwakeup_never_delivered_if_device_never_wakes(self):
        trace = simulate(
            ExactPolicy(), [oneshot(nominal=2_000, wakeup=False)], config()
        )
        assert trace.delivery_count() == 0


class TestExternalWakes:
    def test_external_wake_creates_session(self):
        trace = simulate(
            ExactPolicy(),
            [],
            config(),
            external_events=[ExternalWake(time=10_000, hold_ms=500)],
        )
        assert trace.wake_count() == 1
        assert trace.sessions[0].reason is WakeReason.EXTERNAL

    def test_external_wake_flushes_nonwakeup_alarms(self):
        trace = simulate(
            ExactPolicy(),
            [oneshot(nominal=2_000, wakeup=False)],
            config(),
            external_events=[ExternalWake(time=10_000, hold_ms=500)],
        )
        assert trace.delivery_count() == 1
        assert trace.deliveries()[0].delivered_at == 10_000

    def test_external_wake_while_awake_extends_session(self):
        trace = simulate(
            ExactPolicy(),
            [oneshot(nominal=10_000)],
            config(tail=500),
            external_events=[ExternalWake(time=10_100, hold_ms=5_000)],
        )
        assert trace.wake_count() == 1
        assert trace.sessions[0].end >= 15_100


class TestDeviceAccounting:
    def test_sessions_close_with_tail(self):
        trace = simulate(
            ExactPolicy(), [oneshot(nominal=5_000)], config(tail=700)
        )
        session = trace.sessions[0]
        assert session.start == 5_000
        assert session.end == 5_700

    def test_busy_time_extends_session(self):
        alarm = oneshot(nominal=5_000)
        alarm.task_duration = 1_500
        trace = simulate(ExactPolicy(), [alarm], config(tail=700))
        assert trace.sessions[0].end == 5_000 + 1_500 + 700

    def test_open_session_clipped_at_horizon(self):
        alarm = oneshot(nominal=99_000)
        alarm.task_duration = 50_000
        trace = simulate(ExactPolicy(), [alarm], config(horizon=100_000))
        assert trace.total_awake_ms() == 1_000
        assert trace.total_sleep_ms() == 99_000

    def test_hardware_holds_recorded(self):
        alarm = make_alarm(
            nominal=5_000, repeat=50_000, window=0, task_ms=800
        )
        trace = simulate(ExactPolicy(), [alarm], config())
        assert trace.wakelocks.activations(Component.WIFI) == 2
        assert trace.wakelocks.hold_ms(Component.WIFI) == 1_600


class TestRegistrationsAndLifecycle:
    def test_mid_run_registration(self):
        simulator = Simulator(ExactPolicy(), config=config())
        simulator.add_alarm(oneshot(nominal=50_000), at=40_000)
        trace = simulator.run()
        assert trace.registrations[0].time == 40_000
        assert trace.delivery_count() == 1

    def test_registration_after_nominal_delivers_late(self):
        simulator = Simulator(ExactPolicy(), config=config())
        simulator.add_alarm(oneshot(nominal=5_000, window=0), at=20_000)
        trace = simulator.run()
        assert trace.deliveries()[0].delivered_at == 20_000

    def test_negative_registration_time_rejected(self):
        simulator = Simulator(ExactPolicy())
        with pytest.raises(ValueError):
            simulator.add_alarm(oneshot(), at=-1)

    def test_simulator_single_use(self):
        simulator = Simulator(ExactPolicy(), config=config())
        simulator.run()
        with pytest.raises(RuntimeError):
            simulator.run()

    def test_empty_run_has_no_events(self):
        trace = simulate(ExactPolicy(), [], config())
        assert trace.wake_count() == 0
        assert trace.delivery_count() == 0
        assert trace.total_sleep_ms() == 100_000


class TestPolicyIntegration:
    def test_native_batches_delivered_together(self):
        alarms = [
            make_alarm(nominal=10_000, repeat=60_000, window=5_000, label="a"),
            make_alarm(nominal=12_000, repeat=60_000, window=5_000, label="b"),
        ]
        trace = simulate(NativePolicy(), alarms, config(horizon=20_000))
        assert trace.batch_count() == 1
        assert {r.label for r in trace.batches[0].alarms} == {"a", "b"}
        # Delivered at the window intersection start.
        assert trace.batches[0].delivered_at == 12_000

    def test_simty_grace_alignment_reduces_wakeups(self):
        alarms = [
            make_alarm(
                nominal=10_000, repeat=60_000, window=0, grace=50_000,
                label="a",
            ),
            make_alarm(
                nominal=40_000, repeat=60_000, window=0, grace=50_000,
                label="b",
            ),
        ]
        native_trace = simulate(
            NativePolicy(),
            [
                make_alarm(nominal=10_000, repeat=60_000, window=0, grace=50_000),
                make_alarm(nominal=40_000, repeat=60_000, window=0, grace=50_000),
            ],
            config(horizon=60_000),
        )
        simty_trace = simulate(SimtyPolicy(), alarms, config(horizon=60_000))
        assert native_trace.wake_count() == 2
        assert simty_trace.wake_count() == 1
        assert simty_trace.batches[0].delivered_at == 40_000


class TestEveryStepGoesThroughStep:
    """``run``, ``drain`` and ``advance_to`` send every step through
    ``Simulator.step``: perfbench's ``simulator.steps`` layer and its
    ``advance`` latency probe patch exactly that method, so a loop that
    dispatched on its own would take their samples away."""

    @staticmethod
    def count(monkeypatch, owner, name, calls):
        """Patch ``owner.name`` to count its calls that did work."""
        original = getattr(owner, name)

        def counting(self, *args):
            result = original(self, *args)
            # A step that returns None found nothing to do.
            if name != "step" or result is not None:
                calls[name] += 1
            return result

        monkeypatch.setattr(owner, name, counting)

    @pytest.mark.parametrize("driver", ["run", "drain", "advance_to"])
    def test_every_dispatch_is_a_step(self, monkeypatch, driver):
        calls = {"step": 0, "_dispatch": 0, "on_step_end": 0}
        self.count(monkeypatch, Simulator, "step", calls)
        self.count(monkeypatch, Simulator, "_dispatch", calls)
        self.count(monkeypatch, InvariantMonitor, "on_step_end", calls)
        simulator = Simulator(
            SimtyPolicy(), config=SimulatorConfig(monitor="record")
        )
        build_light().apply(simulator)
        if driver == "advance_to":
            simulator.start()
            processed = 0
            for to in range(60_000, simulator.config.horizon + 60_000, 60_000):
                processed += simulator.advance_to(to)
            simulator.finish()
            assert processed == calls["step"]
        else:
            getattr(simulator, driver)()
        assert calls["step"] > 100
        assert calls["_dispatch"] == calls["on_step_end"] == calls["step"]
