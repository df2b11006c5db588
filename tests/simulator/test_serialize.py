"""Trace JSON serialization round trip."""

import json
from pathlib import Path

from repro.core.simty import SimtyPolicy
from repro.metrics.delay import delay_report
from repro.metrics.wakeups import wakeup_breakdown
from repro.power.accounting import account
from repro.power.profiles import NEXUS5
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.serialize import (
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

from ..conftest import make_alarm, oneshot


def sample_trace():
    alarms = [
        make_alarm(
            nominal=10_000, repeat=60_000, window=0, grace=50_000,
            task_ms=800, label="a",
        ),
        make_alarm(
            nominal=40_000, repeat=60_000, window=0, grace=50_000,
            task_ms=500, label="b",
        ),
        oneshot(nominal=100_000),
    ]
    return simulate(
        SimtyPolicy(),
        alarms,
        SimulatorConfig(horizon=400_000, wake_latency_ms=350, tail_ms=700),
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_counts(self):
        trace = sample_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.policy_name == trace.policy_name
        assert restored.horizon == trace.horizon
        assert restored.wake_count() == trace.wake_count()
        assert restored.delivery_count() == trace.delivery_count()
        assert restored.total_awake_ms() == trace.total_awake_ms()

    def test_metrics_identical_after_round_trip(self):
        trace = sample_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert (
            delay_report(restored).imperceptible.mean
            == delay_report(trace).imperceptible.mean
        )
        original = wakeup_breakdown(trace)
        rebuilt = wakeup_breakdown(restored)
        assert rebuilt.cpu == original.cpu
        assert rebuilt.components == original.components

    def test_energy_identical_after_round_trip(self):
        trace = sample_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert (
            account(restored, NEXUS5).total_mj
            == account(trace, NEXUS5).total_mj
        )

    def test_file_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        restored = load_trace(path)
        assert restored.delivery_count() == trace.delivery_count()
        assert [b.delivered_at for b in restored.batches] == [
            b.delivered_at for b in trace.batches
        ]

    def test_payload_is_pure_json(self):
        import json

        payload = trace_to_dict(sample_trace())
        json.dumps(payload)  # must not raise

    def test_violations_round_trip(self):
        from repro.core.invariants import Violation

        trace = sample_trace()
        trace.violations = [
            Violation(
                kind="double-delivery", time=123, detail="twice",
                alarm_id=7, label="mail",
            ),
            Violation(kind="empty-entry", time=456, detail="hollow"),
        ]
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.violations == trace.violations

    def test_legacy_payload_without_violations_loads(self):
        payload = trace_to_dict(sample_trace())
        payload.pop("violations", None)  # pre-monitor trace files
        assert trace_from_dict(payload).violations == []

    def test_trace_with_float_histogram_totals_loads(self):
        """``trace_float_histogram_totals.json`` was saved before histogram
        totals were integer milli-units (a float ``total``, int min/max):
        its cells keep their counts, buckets, min, max and total."""
        path = Path(__file__).with_name("trace_float_histogram_totals.json")
        written = json.loads(path.read_text())["telemetry"]["histograms"]
        loaded = load_trace(path).telemetry.histograms
        assert set(loaded) == set(written)
        for key, cell in written.items():
            hist = loaded[key].to_dict()
            for field in ("count", "buckets", "min", "max"):
                assert hist[field] == cell[field]
            assert loaded[key].total == cell["total"]
