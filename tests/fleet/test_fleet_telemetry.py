"""Per-shard telemetry on the fleet report, and its resume guarantee.

Shard telemetry is observability data: it rides in the sealed journals
and merges onto :attr:`FleetReport.telemetry`, but it must never leak
into ``deterministic_payload`` (wall-clock histograms are in there).
The resume property mirrors the chaos suite's byte-identity one, scoped
to what telemetry can promise: *counters* — pure counts of simulated
events — are identical between a kill-and-resume run and an
uninterrupted reference, while wall-clock histograms/spans legitimately
differ and are excluded.
"""

import dataclasses
import json

from repro.fleet import (
    FleetChaos,
    FleetConfig,
    MICRO_ARCHETYPES,
    PopulationSpec,
    run_fleet,
)

POPULATION = PopulationSpec(
    size=48,
    archetypes=MICRO_ARCHETYPES,
    seed=11,
    name="obs-fleet",
)

BASE = FleetConfig(
    shards=4,
    workers=2,
    device_retries=1,
    device_backoff_s=0.001,
    shard_retries=2,
    straggler_min_s=60.0,
)


def test_report_carries_merged_shard_hubs(tmp_path):
    report = run_fleet(POPULATION, BASE, fleet_dir=tmp_path)
    telemetry = report.telemetry
    assert telemetry is not None
    # Merged across shards: every completed device counted exactly once.
    assert telemetry.counter_by_label("shard.devices", "status") == {
        "ok": POPULATION.size
    }
    assert telemetry.counter("engine.deliveries") > 0
    assert telemetry.counter("engine.wakeups") > 0
    # Wall-clock per-device histogram merged too (counts are exact).
    assert telemetry.histograms["shard.device_wall_ms"].count == POPULATION.size


def test_shard_hubs_stay_out_of_the_deterministic_payload(tmp_path):
    report = run_fleet(POPULATION, BASE, fleet_dir=tmp_path)
    payload = json.dumps(report.deterministic_payload(), sort_keys=True)
    assert "telemetry" not in payload
    assert "device_wall_ms" not in payload


def test_resumed_fleet_telemetry_counters_match_uninterrupted(tmp_path):
    reference_dir = tmp_path / "reference"
    chaos_dir = tmp_path / "chaos"
    reference = run_fleet(POPULATION, BASE, fleet_dir=reference_dir)

    # Kill shards 1 and 3 on every allowed attempt: both end FAILED,
    # then a clean resume re-runs exactly those two.
    chaos = FleetChaos(kill_shards={1: 9, 3: 9}, kill_after_devices=1)
    config = dataclasses.replace(BASE, shard_retries=1, chaos=chaos)
    partial = run_fleet(POPULATION, config, fleet_dir=chaos_dir)
    assert partial.shard_stats["failed"] == 2

    resumed = run_fleet(POPULATION, BASE, fleet_dir=chaos_dir, resume=True)
    assert resumed.shard_stats["resumed"] == 2

    left, right = resumed.telemetry, reference.telemetry
    assert left is not None and right is not None
    # Counters are pure functions of the simulated work, so a resumed
    # run merges to exactly the reference's counters — the dead
    # attempts' partial progress never double-counts.
    assert left.counters == right.counters
    # Histogram and span *counts* are exact too (one observation per
    # device / per span); wall-clock totals are not compared.
    assert {k: v.count for k, v in left.histograms.items()} == {
        k: v.count for k, v in right.histograms.items()
    }
    assert {k: v.count for k, v in left.spans.items()} == {
        k: v.count for k, v in right.spans.items()
    }
