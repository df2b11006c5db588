"""Trace records and accessors."""

import pickle

import pytest

from repro.core.exact import ExactPolicy
from repro.core.hardware import SPEAKER_VIBRATOR_ONLY, WIFI_ONLY
from repro.obs import Telemetry
from repro.runner import RunSpec, run_spec
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.serialize import trace_to_dict
from repro.simulator.tasks import TaskExecution
from repro.simulator.trace import (
    AlarmDeliveryRecord,
    BatchRecord,
    RegistrationRecord,
    snapshot_delivery,
)
from repro.workloads.scenarios import ScenarioConfig

from ..conftest import make_alarm, oneshot


def run(alarms, horizon=100_000, latency=0, tail=0):
    return simulate(
        ExactPolicy(),
        alarms,
        SimulatorConfig(horizon=horizon, wake_latency_ms=latency, tail_ms=tail),
    )


class TestSnapshot:
    def test_snapshot_captures_occurrence(self):
        alarm = make_alarm(nominal=10_000, repeat=60_000, window=5_000)
        record = snapshot_delivery(alarm, delivered_at=12_000, batch_index=0)
        assert record.nominal_time == 10_000
        assert record.window_end == 15_000
        assert record.delivered_at == 12_000

    def test_snapshot_uses_true_hardware_for_perceptibility(self):
        alarm = make_alarm(hardware=SPEAKER_VIBRATOR_ONLY, known=False)
        record = snapshot_delivery(alarm, delivered_at=1_000, batch_index=0)
        assert record.perceptible

    def test_one_shot_always_perceptible(self):
        record = snapshot_delivery(
            oneshot(hardware=WIFI_ONLY), delivered_at=1_000, batch_index=0
        )
        assert record.perceptible

    def test_window_delay_zero_inside_window(self):
        alarm = make_alarm(nominal=10_000, repeat=60_000, window=5_000)
        record = snapshot_delivery(alarm, delivered_at=15_000, batch_index=0)
        assert record.window_delay == 0

    def test_window_delay_behind_window(self):
        alarm = make_alarm(nominal=10_000, repeat=60_000, window=5_000)
        record = snapshot_delivery(alarm, delivered_at=16_000, batch_index=0)
        assert record.window_delay == 1_000

    def test_normalized_delay_repeating(self):
        alarm = make_alarm(nominal=10_000, repeat=60_000, window=5_000)
        record = snapshot_delivery(alarm, delivered_at=21_000, batch_index=0)
        assert record.normalized_delay == 6_000 / 60_000

    def test_normalized_delay_one_shot_uses_window(self):
        record = snapshot_delivery(
            oneshot(nominal=10_000, window=1_000),
            delivered_at=11_500,
            batch_index=0,
        )
        assert record.normalized_delay == 0.5

    def test_normalized_delay_point_one_shot(self):
        record = snapshot_delivery(
            oneshot(nominal=10_000, window=0), delivered_at=10_100, batch_index=0
        )
        assert record.normalized_delay == 1.0

    def test_grace_delay(self):
        alarm = make_alarm(
            nominal=10_000, repeat=60_000, window=5_000, grace=20_000
        )
        record = snapshot_delivery(alarm, delivered_at=31_000, batch_index=0)
        assert record.grace_delay == 1_000


class TestTraceAccessors:
    def test_deliveries_for_label(self):
        alarm = make_alarm(nominal=10_000, repeat=20_000, window=0, label="x")
        trace = run([alarm], horizon=70_000)
        assert len(trace.deliveries_for("x")) == 3
        assert trace.deliveries_for("nope") == []

    def test_awake_plus_sleep_equals_horizon(self):
        trace = run([oneshot(nominal=5_000)], horizon=50_000, tail=700)
        assert trace.total_awake_ms() + trace.total_sleep_ms() == 50_000

    def test_last_delivery_time(self):
        trace = run([oneshot(nominal=5_000), oneshot(nominal=9_000)])
        assert trace.last_delivery_time() == 9_000

    def test_last_delivery_time_empty(self):
        trace = run([])
        assert trace.last_delivery_time() is None

    def test_batch_count_and_delivery_count(self):
        trace = run([oneshot(nominal=5_000), oneshot(nominal=9_000)])
        assert trace.batch_count() == 2
        assert trace.delivery_count() == 2


def one_of_each():
    """A trace holding at least one record of every type."""
    trace = run([make_alarm(nominal=5_000, task_ms=10)], horizon=30_000)
    batch = trace.batches[0]
    return {
        RegistrationRecord: trace.registrations[0],
        BatchRecord: batch,
        AlarmDeliveryRecord: batch.alarms[0],
        TaskExecution: batch.tasks[0],
    }, trace_to_dict(trace)


class TestRecordTypes:
    @pytest.mark.parametrize(
        "kind",
        [RegistrationRecord, BatchRecord, AlarmDeliveryRecord, TaskExecution],
        ids=lambda kind: kind.__name__,
    )
    def test_every_field_is_read_only(self, kind):
        records, _ = one_of_each()
        record = records[kind]
        assert type(record) is kind
        for name in kind._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_fields_follow_the_serialized_key_order(self):
        _, payload = one_of_each()
        batch = payload["batches"][0]
        assert RegistrationRecord._fields == tuple(payload["registrations"][0])
        assert BatchRecord._fields == tuple(batch)
        assert AlarmDeliveryRecord._fields == tuple(batch["alarms"][0])
        assert TaskExecution._fields == tuple(batch["tasks"][0])


class TestPickleRoundTrip:
    @pytest.mark.parametrize("policy", ["simty", "native", "bucket"])
    def test_monitored_result_round_trips(self, policy):
        spec = RunSpec(
            workload="light",
            policy=policy,
            scenario=ScenarioConfig(horizon=900_000),
            simulator=SimulatorConfig(horizon=900_000, monitor="record"),
        )
        result = run_spec(spec, telemetry=Telemetry()).result
        trace = result.trace
        assert trace.telemetry is not None
        if policy == "bucket":
            # BUCKET ignores windows, so the record-mode monitor fills
            # the violations list the round trip must carry.
            assert trace.violations
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(data)
        # Compare through a flag: a failed equality of two large payloads
        # would make pytest render a multi-megabyte diff.
        same = trace_to_dict(loaded.trace) == trace_to_dict(trace)
        assert same
        assert all(
            type(record) is RegistrationRecord
            for record in loaded.trace.registrations
        )
        for batch in loaded.trace.batches:
            assert type(batch) is BatchRecord
            assert all(type(a) is AlarmDeliveryRecord for a in batch.alarms)
            assert all(type(t) is TaskExecution for t in batch.tasks)
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == data
