"""BUCKET: fixed-interval forced alignment."""

import pytest

from repro.core.bucket import FixedIntervalPolicy
from repro.core.intervals import Interval

from ..conftest import make_alarm


class TestBucketing:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalPolicy(0)

    def test_bucket_time_rounds_up(self):
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        assert policy.bucket_time(1) == 300_000
        assert policy.bucket_time(300_000) == 300_000
        assert policy.bucket_time(300_001) == 600_000

    def test_alarms_in_same_bucket_share_entry(self):
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        queue = policy.make_queue()
        first = policy.insert(queue, make_alarm(nominal=10_000, window=0), 0)
        second = policy.insert(queue, make_alarm(nominal=250_000, window=0), 0)
        assert first is second
        assert first.delivery_time(grace_mode=False) == 300_000

    def test_alarms_in_different_buckets_split(self):
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        queue = policy.make_queue()
        policy.insert(queue, make_alarm(nominal=10_000, window=0), 0)
        policy.insert(queue, make_alarm(nominal=310_000, window=0), 0)
        assert len(queue) == 2

    def test_ignores_windows_entirely(self):
        # A perceptible alarm's window is violated without hesitation —
        # the policy's defining flaw.
        from repro.core.hardware import SPEAKER_VIBRATOR_ONLY

        policy = FixedIntervalPolicy(bucket_interval=600_000)
        queue = policy.make_queue()
        alarm = make_alarm(
            nominal=10_000, window=1_000, hardware=SPEAKER_VIBRATOR_ONLY
        )
        entry = policy.insert(queue, alarm, 0)
        assert entry.delivery_time(grace_mode=False) == 600_000
        assert not alarm.window_interval().contains(600_000)

    def test_stale_instance_removed(self):
        policy = FixedIntervalPolicy(bucket_interval=100_000)
        queue = policy.make_queue()
        alarm = make_alarm(nominal=10_000, window=0)
        policy.insert(queue, alarm, 0)
        alarm.nominal_time = 150_000
        policy.insert(queue, alarm, 0)
        assert queue.alarm_count() == 1
        assert queue.peek().delivery_time(False) == 200_000

    @pytest.mark.parametrize("backend", ["indexed", "list"])
    def test_reinsert_keeps_batch_mates_on_their_boundary(self, backend):
        # Re-inserting a batched alarm shrinks its old entry; the survivor
        # must stay pinned to the 300 s boundary, so a later alarm of the
        # same bucket joins it instead of opening a second entry.
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        queue = policy.make_queue(backend=backend)
        first = make_alarm(nominal=100_000, window=10_000, label="a")
        second = make_alarm(nominal=120_000, window=10_000, label="b")
        policy.insert(queue, first, 0)
        shared = policy.insert(queue, second, 0)
        first.nominal_time = 400_000
        policy.insert(queue, first, 0)
        assert queue.find_alarm(second.alarm_id) is shared
        assert shared.window == Interval(300_000, 300_000)
        assert shared.delivery_time(grace_mode=False) == 300_000
        third = make_alarm(nominal=150_000, window=10_000, label="c")
        assert policy.insert(queue, third, 0) is shared
        assert [entry.delivery_time(False) for entry in queue] == [
            300_000,
            600_000,
        ]

    def test_reinsert_leaves_disjoint_survivors_pinned(self):
        # Survivors whose own windows do not overlap have no member-algebra
        # window at all; the boundary still holds them together.
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        queue = policy.make_queue()
        alarms = [
            make_alarm(nominal=nominal, window=1_000)
            for nominal in (100_000, 150_000, 200_000)
        ]
        for alarm in alarms:
            shared = policy.insert(queue, alarm, 0)
        alarms[0].nominal_time = 400_000
        policy.insert(queue, alarms[0], 0)
        assert shared.alarms == alarms[1:]
        assert shared.delivery_time(grace_mode=False) == 300_000


class TestBucketInSimulation:
    def test_fewest_wakeups_of_all_policies(self):
        from repro.core.native import NativePolicy
        from repro.core.simty import SimtyPolicy
        from repro.simulator.engine import SimulatorConfig, simulate

        def alarms():
            return [
                make_alarm(
                    nominal=10_000 + 37_000 * i,
                    repeat=60_000 + 11_000 * i,
                    window=0,
                    grace=50_000,
                    label=f"x{i}",
                )
                for i in range(5)
            ]

        config = SimulatorConfig(
            horizon=1_800_000, wake_latency_ms=0, tail_ms=0
        )
        bucket = simulate(
            FixedIntervalPolicy(bucket_interval=300_000), alarms(), config
        )
        native = simulate(NativePolicy(), alarms(), config)
        simty = simulate(SimtyPolicy(), alarms(), config)
        assert bucket.wake_count() <= simty.wake_count() <= native.wake_count()

    def test_delivery_on_boundaries(self):
        from repro.simulator.engine import SimulatorConfig, simulate

        trace = simulate(
            FixedIntervalPolicy(bucket_interval=300_000),
            [make_alarm(nominal=10_000, repeat=400_000, window=0)],
            SimulatorConfig(horizon=1_500_000, wake_latency_ms=0, tail_ms=0),
        )
        for batch in trace.batches:
            assert batch.scheduled_time % 300_000 == 0
