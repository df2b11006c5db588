"""Mid-run churn directives and batch re-anchoring."""

import pytest

from repro.core.bucket import FixedIntervalPolicy
from repro.core.exact import ExactPolicy
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.workloads.churn import (
    CancelAt,
    RegisterAt,
    ReRegisterAt,
    app_update_wave,
    apply_directives,
    cancellation_storm,
)
from repro.workloads.scenarios import ScenarioConfig, build_light

from ..conftest import make_alarm, oneshot


def config(horizon=300_000, monitor=None):
    return SimulatorConfig(
        horizon=horizon, wake_latency_ms=0, tail_ms=0, monitor=monitor
    )


class TestDirectives:
    def test_register_at_installs_mid_run(self):
        simulator = Simulator(ExactPolicy(), config=config())
        directives = [RegisterAt(time=30_000, alarm=oneshot(nominal=50_000))]
        apply_directives(simulator, directives, {})
        trace = simulator.run()
        assert trace.delivery_count() == 1

    def test_cancel_at_stops_deliveries(self):
        simulator = Simulator(ExactPolicy(), config=config())
        alarm = make_alarm(nominal=50_000, repeat=60_000, label="poll")
        simulator.add_alarm(alarm)
        apply_directives(
            simulator, [CancelAt(time=120_000, label="poll")], {"poll": alarm}
        )
        trace = simulator.run()
        times = [record.delivered_at for record in trace.deliveries()]
        assert times == [50_000, 110_000]

    def test_register_then_cancel_same_label(self):
        # A later directive may target an alarm a RegisterAt introduced.
        simulator = Simulator(ExactPolicy(), config=config())
        fresh = make_alarm(nominal=100_000, repeat=60_000, label="new")
        apply_directives(
            simulator,
            [RegisterAt(time=10_000, alarm=fresh),
             CancelAt(time=150_000, label="new")],
            {},
        )
        trace = simulator.run()
        assert [r.delivered_at for r in trace.deliveries()] == [100_000]

    def test_unknown_label_raises(self):
        simulator = Simulator(ExactPolicy(), config=config())
        with pytest.raises(KeyError):
            apply_directives(
                simulator, [CancelAt(time=10_000, label="ghost")], {}
            )

    def test_unknown_directive_type_raises(self):
        simulator = Simulator(ExactPolicy(), config=config())
        with pytest.raises(TypeError):
            apply_directives(simulator, ["not a directive"], {})


class TestReRegistration:
    def test_explicit_nominal_offset_moves_phase(self):
        simulator = Simulator(ExactPolicy(), config=config())
        alarm = make_alarm(nominal=50_000, repeat=60_000, label="app")
        simulator.add_alarm(alarm)
        apply_directives(
            simulator,
            [ReRegisterAt(time=130_000, label="app", nominal_offset=25_000)],
            {"app": alarm},
        )
        trace = simulator.run()
        times = [record.delivered_at for record in trace.deliveries()]
        # Pre-update grid 50k/110k, then re-phased to 155k + 60k*n.
        assert times == [50_000, 110_000, 155_000, 215_000, 275_000]

    def test_default_advance_avoids_catchup_burst(self):
        # Cancel early, re-register long after the stale nominal: the
        # engine must advance the nominal, not replay missed occurrences.
        simulator = Simulator(
            ExactPolicy(), config=config(horizon=500_000, monitor="record")
        )
        alarm = make_alarm(nominal=20_000, repeat=60_000, label="app")
        simulator.add_alarm(alarm)
        simulator.cancel_alarm(alarm, at=30_000)
        apply_directives(
            simulator,
            [ReRegisterAt(time=250_000, label="app")],
            {"app": alarm},
        )
        trace = simulator.run()
        times = [record.delivered_at for record in trace.deliveries()]
        assert times[0] == 20_000
        resumed = times[1:]
        assert resumed  # the update did resume deliveries
        assert min(resumed) >= 250_000  # no catch-up burst at the update
        assert min(resumed) <= 250_000 + 60_000  # but no skipped cycle either
        assert trace.violations == []

    def test_reregistration_keeps_exactly_once(self):
        simulator = Simulator(
            SimtyPolicy(), config=config(horizon=600_000, monitor="record")
        )
        alarm = make_alarm(nominal=50_000, repeat=60_000, grace=48_000, label="app")
        simulator.add_alarm(alarm)
        apply_directives(
            simulator,
            [ReRegisterAt(time=200_000, label="app"),
             ReRegisterAt(time=400_000, label="app")],
            {"app": alarm},
        )
        trace = simulator.run()
        assert trace.violations == []
        assert trace.delivery_count() >= 6


class TestReAnchoring:
    @pytest.mark.parametrize("policy", [NativePolicy, SimtyPolicy])
    def test_cancelling_batch_member_spares_survivors(self, policy):
        # Three alarms aligned into shared batches; cancelling one mid-run
        # must re-anchor the survivors, not orphan or double-deliver them.
        simulator = Simulator(
            policy(), config=config(horizon=600_000, monitor="record")
        )
        leader = make_alarm(
            nominal=60_000, repeat=120_000, window=90_000, grace=115_000,
            label="leader",
        )
        followers = [
            make_alarm(
                nominal=60_000 + 10_000 * index, repeat=120_000,
                window=90_000, grace=115_000, label=f"f{index}",
            )
            for index in (1, 2)
        ]
        simulator.add_alarm(leader)
        for follower in followers:
            simulator.add_alarm(follower)
        simulator.cancel_alarm(leader, at=150_000)
        trace = simulator.run()
        assert trace.violations == []
        by_label = {}
        for record in trace.deliveries():
            by_label.setdefault(record.label, []).append(record.delivered_at)
        assert all(t <= 150_000 for t in by_label.get("leader", []))
        for follower in followers:
            times = by_label[follower.label]
            assert max(times) > 150_000  # survivors keep delivering
            # Exactly once per 120 s interval over 600 s.
            assert 4 <= len(times) <= 6

    def test_cancel_in_bucket_of_disjoint_windows_reanchors_survivors(self):
        # BUCKET groups alarms by boundary, not by overlap: the two
        # survivors' zero-width windows are disjoint, so their own
        # intersection is empty.  Cancelling their batch-mate must
        # re-align them into the bucket again, not re-index the shrunken
        # entry (which has no delivery time left).
        simulator = Simulator(
            FixedIntervalPolicy(bucket_interval=300_000),
            config=config(horizon=900_000),
        )
        victim = make_alarm(nominal=10_000, repeat=600_000, label="victim")
        survivors = [
            make_alarm(nominal=nominal, repeat=600_000, label=label)
            for nominal, label in ((100_000, "s1"), (200_000, "s2"))
        ]
        for alarm in (victim, *survivors):
            simulator.add_alarm(alarm)
        simulator.cancel_alarm(victim, at=50_000)
        trace = simulator.run()
        by_label = {}
        for record in trace.deliveries():
            by_label.setdefault(record.label, []).append(record.delivered_at)
        assert "victim" not in by_label
        assert by_label["s1"] == by_label["s2"] == [300_000]


class TestStormBuilders:
    def test_cancellation_storm_deterministic_and_bounded(self):
        labels = ["a", "b", "c", "d"]
        first = cancellation_storm(labels, at=100_000, spread_ms=50_000, seed=3)
        second = cancellation_storm(labels, at=100_000, spread_ms=50_000, seed=3)
        assert first == second
        assert all(100_000 <= d.time < 150_000 for d in first)
        assert [d.time for d in first] == sorted(d.time for d in first)
        assert {d.label for d in first} == set(labels)

    def test_zero_spread_is_instantaneous(self):
        storm = cancellation_storm(["a", "b"], at=5_000)
        assert [d.time for d in storm] == [5_000, 5_000]

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            cancellation_storm(["a"], at=0, spread_ms=-1)

    def test_app_update_wave_spacing(self):
        wave = app_update_wave(
            ["a", "b", "c"], at=10_000, spacing_ms=2_000, nominal_offset=500
        )
        assert [d.time for d in wave] == [10_000, 12_000, 14_000]
        assert all(isinstance(d, ReRegisterAt) for d in wave)
        assert all(d.nominal_offset == 500 for d in wave)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            app_update_wave(["a"], at=0, spacing_ms=-1)


class TestWorkloadDirectives:
    def test_directives_flow_through_workload_apply(self):
        workload = build_light(ScenarioConfig(horizon=1_800_000))
        victim = workload.major_labels()[0]
        workload.directives = cancellation_storm([victim], at=600_000)
        simulator = Simulator(
            SimtyPolicy(), config=config(horizon=1_800_000, monitor="record")
        )
        workload.apply(simulator)
        trace = simulator.run()
        assert trace.violations == []
        victim_times = [
            record.delivered_at
            for record in trace.deliveries()
            if record.label == victim
        ]
        assert all(t <= 600_000 for t in victim_times)
        assert trace.delivery_count() > len(victim_times)
