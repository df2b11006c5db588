"""Streaming reduction: tallies, histograms, reservoirs, and merges.

The satellite requirement from the issue rides here: violation counts and
run-status tallies must survive every merge and dict round trip, or fleet
reports would silently show zero failure/violation rates.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DeviceSummary,
    Hist,
    QuarantineRecord,
    ShardSummary,
    merge_shard_summaries,
)
from repro.obs.summary import TelemetrySummary

POP = "a" * 64


def device(
    index,
    archetype="micro-light",
    status="ok",
    violations=0,
    energy=100.0,
    rank=None,
):
    return DeviceSummary(
        device=index,
        archetype=archetype,
        rank=rank if rank is not None else f"{index:016x}",
        status=status,
        wakeups=4,
        energy_mj=energy,
        imperceptible_delay=0.01,
        perceptible_delay=0.0,
        violations=violations,
    )


def quarantine(index, archetype="micro-heavy"):
    return QuarantineRecord(
        device=index,
        archetype=archetype,
        digest="b" * 64,
        error_type="RuntimeError",
        error_message="poison",
        attempts=2,
    )


class TestHist:
    def test_observe_tracks_envelope(self):
        hist = Hist()
        for value in (1, 5, 100):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 1 and hist.max == 100
        assert hist.mean == pytest.approx(106 / 3)

    def test_merge_equals_combined_observation(self):
        a, b, combined = Hist(), Hist(), Hist()
        for value in (1, 9, 30):
            a.observe(value)
            combined.observe(value)
        for value in (2, 700):
            b.observe(value)
            combined.observe(value)
        a.merge(b)
        assert a.to_dict() == combined.to_dict()

    def test_round_trip(self):
        hist = Hist()
        for value in (3, 17, 250):
            hist.observe(value)
        assert Hist.from_dict(hist.to_dict()).to_dict() == hist.to_dict()

    def test_percentile_is_pessimistic_but_clamped(self):
        hist = Hist()
        for value in (10, 10, 10, 1000):
            hist.observe(value)
        p50 = hist.percentile(0.5)
        assert p50 >= 10  # bucket upper bound, never below the value
        assert hist.percentile(1.0) <= 1000  # clamped to max

    def test_percentile_empty_and_bad_quantile(self):
        assert Hist().percentile(0.5) is None
        hist = Hist()
        hist.observe(1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)


class TestShardSummaryTallies:
    def test_violations_and_statuses_survive_merge_round_trip(self):
        """The issue's satellite check: a merge → dict → merge round trip
        keeps violation counts and per-status tallies intact."""
        a = ShardSummary(population=POP, shard=0)
        a.observe(device(0, status="ok", violations=2))
        a.observe(device(1, status="retried_ok", violations=0))
        a.observe_quarantine(quarantine(2))
        b = ShardSummary(population=POP, shard=1)
        b.observe(device(3, archetype="micro-heavy", violations=5))

        merged = merge_shard_summaries([a, b])
        assert merged.completed == 3
        assert merged.violations == 7
        assert merged.status_counts == {
            "ok": 2,
            "retried_ok": 1,
            "quarantined": 1,
        }
        assert merged.archetype_violations == {
            "micro-light": 2,
            "micro-heavy": 5,
        }

        # ...and through a JSON round trip (the journal seal line).
        reloaded = ShardSummary.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert reloaded.violations == 7
        assert reloaded.status_counts == merged.status_counts
        assert reloaded.archetype_status == merged.archetype_status
        assert reloaded.to_dict() == merged.to_dict()

    def test_archetype_rates(self):
        summary = ShardSummary(population=POP)
        summary.observe(device(0, violations=3))
        summary.observe(device(1))
        summary.observe_quarantine(quarantine(2, archetype="micro-light"))
        rates = summary.archetype_rates()["micro-light"]
        assert rates["devices"] == 3
        assert rates["failure_rate"] == pytest.approx(1 / 3)
        assert rates["violations"] == 3
        assert rates["violation_rate"] == pytest.approx(1.0)

    def test_population_mismatch_refused(self):
        with pytest.raises(ValueError, match="different populations"):
            ShardSummary(population=POP).merge(ShardSummary(population="c" * 64))


class TestMergeOrderIndependence:
    def build(self, shard, indices):
        summary = ShardSummary(population=POP, shard=shard, reservoir_size=4)
        for index in indices:
            summary.observe(device(index, violations=index % 3))
        return summary

    def test_merge_order_does_not_change_the_result(self):
        parts = [
            self.build(0, range(0, 7)),
            self.build(1, range(7, 13)),
            self.build(2, range(13, 20)),
        ]
        forward = merge_shard_summaries(parts)
        backward = merge_shard_summaries(list(reversed(parts)))
        assert forward.to_dict() == backward.to_dict()

    def test_reservoir_is_global_smallest_k_by_rank(self):
        parts = [self.build(0, range(0, 10)), self.build(1, range(10, 20))]
        merged = merge_shard_summaries(parts, reservoir_size=4)
        kept = [entry.device for entry in merged.reservoir]
        # ranks here are just the zero-padded index, so smallest-k = 0..3
        assert sorted(kept) == [0, 1, 2, 3]
        assert len(merged.reservoir) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        ranks=st.lists(st.integers(0, 40), max_size=80),
        size=st.integers(0, 8),
    )
    def test_observed_reservoir_is_brute_force_smallest_k(self, ranks, size):
        # Small rank alphabet, so many devices tie on rank and the device
        # index has to break the tie.
        summary = ShardSummary(population=POP, reservoir_size=size)
        devices = [device(index, rank=f"{rank:04x}") for index, rank in enumerate(ranks)]
        for entry in devices:
            summary.observe(entry)
        expected = sorted(devices, key=lambda e: (e.rank, e.device))[:size]
        assert [e.device for e in summary.reservoir] == [e.device for e in expected]

    def test_quarantine_list_sorted_by_device(self):
        a = ShardSummary(population=POP)
        a.observe_quarantine(quarantine(9))
        b = ShardSummary(population=POP)
        b.observe_quarantine(quarantine(2))
        merged = merge_shard_summaries([a, b])
        assert [record.device for record in merged.quarantined] == [2, 9]

    def test_merge_of_nothing_refused(self):
        with pytest.raises(ValueError):
            merge_shard_summaries([])


class TestTelemetryCarriage:
    def test_telemetry_summaries_merge_through_shards(self):
        a = ShardSummary(population=POP)
        a.telemetry = TelemetrySummary(counters={"fleet.devices{outcome=ok}": 3})
        b = ShardSummary(population=POP)
        b.telemetry = TelemetrySummary(counters={"fleet.devices{outcome=ok}": 2})
        merged = merge_shard_summaries([a, b])
        assert merged.telemetry.counters["fleet.devices{outcome=ok}"] == 5
        assert merged.telemetry.counter_by_label("fleet.devices", "outcome") == {
            "ok": 5
        }

    def test_timing_is_excluded_from_merges(self):
        a = ShardSummary(population=POP, timing={"wall_s": 1.0})
        b = ShardSummary(population=POP, timing={"wall_s": 9.0})
        merged = merge_shard_summaries([a, b])
        assert merged.timing == {}
