"""Self-tests of the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import layers
import run
import stats


class FakeClock:
    """A clock that moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    """A re-anchoring cancel inside a step calls insert twice: the step's
    self time excludes both inserts, and nothing is counted twice."""
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def insert():
        clock.tick(0.5)

    insert = tracer.span("core.insert_s", insert, count="core.inserts")

    def cancel_and_reanchor():  # not a span: its time stays with the step
        clock.tick(0.25)
        insert()
        insert()

    def step():
        clock.tick(1.0)
        cancel_and_reanchor()
        clock.tick(2.0)

    step = tracer.span("simulator.step_s", step, count="simulator.steps")
    clock.tick(10.0)  # time outside every span
    step()
    report = tracer.report()
    assert report["core.insert_s"] == pytest.approx(1.0)
    assert report["simulator.step_s"] == pytest.approx(3.25)
    assert report["core.inserts"] == 2
    assert report["simulator.steps"] == 1
    assert tracer.covered_s == pytest.approx(4.25)
    assert sum(report[name] for name in layers.SPAN_METRICS) == pytest.approx(
        tracer.covered_s
    )


def test_same_layer_nesting_counts_once():
    """``reinsert`` delegating to ``insert`` is one insert, not two."""
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def insert():
        clock.tick(1.0)

    insert = tracer.span("core.insert_s", insert, count="core.inserts")

    def reinsert():
        clock.tick(0.5)
        insert()

    reinsert = tracer.span("core.insert_s", reinsert, count="core.inserts")
    reinsert()
    report = tracer.report()
    assert report["core.insert_s"] == pytest.approx(1.5)
    assert report["core.inserts"] == 1
    assert tracer.covered_s == pytest.approx(1.5)


def test_real_run_self_times_add_up_to_covered_time():
    from repro.runner.executor import run_many
    from repro.runner.spec import RunSpec
    from repro.simulator.engine import Simulator
    from repro.workloads.sources.spec import ScenarioSpec, SourceUse

    scenario = ScenarioSpec(
        name="tiny",
        horizon=600_000,
        sources=(SourceUse("synthetic", kwargs={"app_count": 6, "seed": 3}),),
    )
    specs = [
        RunSpec(workload="scenario", policy=policy, workload_kwargs={"spec": scenario})
        for policy in ("simty", "native")
    ]
    tracer = layers.Tracer()
    with layers.install(tracer):
        records = run_many(specs)
    report = tracer.report()
    assert report["core.inserts"] > 0
    assert report["simulator.steps"] > 0
    assert report["simulator.deliveries"] == sum(
        record.result.trace.delivery_count() for record in records
    )
    assert report["simulator.monitor_calls"] == 0
    assert sum(report[name] for name in layers.SPAN_METRICS) == pytest.approx(
        tracer.covered_s
    )
    assert Simulator.step is vars(Simulator)["step"]


# ----------------------------------------------------------------------
# Install / restore
# ----------------------------------------------------------------------
def _snapshot():
    """Every attribute the wrappers may touch, by identity."""
    layers._preload()
    targets = [name for _, names, _ in layers.SPAN_LAYERS for name in names]
    targets += [name for _, names, _, _ in layers.COUNT_LAYERS for name in names]
    targets += [name for names in layers.PROBE_TARGETS.values() for name in names]
    owners = {}
    for target in targets:
        for owner, attribute in layers._resolve(target):
            owners.setdefault(id(owner), (owner, {}))[1][attribute] = vars(owner)[attribute]
    return owners


def test_install_and_restore_leave_every_owner_untouched():
    before = _snapshot()
    assert before
    installation = layers.install(layers.Tracer())
    try:
        assert installation.patches
        for patch in installation.patches:
            assert vars(patch.owner)[patch.name] is not patch.original
    finally:
        installation.restore()
    assert not installation.patches
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attributes in before.values():
        for attribute, original in attributes.items():
            assert vars(owner)[attribute] is original, (owner, attribute)


def test_probe_install_restores_and_records():
    from repro.simulator.alarm_manager import AlarmManager
    from repro.simulator.engine import Simulator

    step = vars(Simulator)["step"]
    register = vars(AlarmManager)["register"]
    probe = layers.Probe()
    with probe.install():
        assert vars(Simulator)["step"] is not step
    assert vars(Simulator)["step"] is step
    assert vars(AlarmManager)["register"] is register


def test_install_failure_restores_what_it_patched():
    before = _snapshot()
    spans = layers.SPAN_LAYERS + (("broken", ("repro.core.policy:NoSuchClass.insert",), None),)
    with pytest.raises(AttributeError):
        layers.install(layers.Tracer(), spans=spans)
    for owner, attributes in before.values():
        for attribute, original in attributes.items():
            assert vars(owner)[attribute] is original


def test_function_is_patched_under_every_alias():
    import repro.power.accounting as accounting
    import repro.runner.executor as executor

    original = accounting.account
    assert executor.account is original
    with layers.install(layers.Tracer()):
        assert accounting.account is not original
        assert executor.account is not original
    assert accounting.account is original and executor.account is original


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "quantile, enough",
    [(0.50, 20), (0.90, 100), (0.99, 1000)],
)
def test_percentile_needs_ten_samples_beyond(quantile, enough):
    assert stats.percentile(list(range(enough)), quantile) == pytest.approx(
        enough * quantile - 1
    )
    with pytest.raises(stats.PercentileRefused):
        stats.percentile(list(range(enough - 1)), quantile)


def test_repeat_medians_drop_a_slow_repeat_per_call():
    repeats = [
        [1.0, 2.0, 10.0],
        [1.1, 9.0, 10.2],  # the host was busy during this repeat's second call
        [0.9, 2.2, 9.8],
    ]
    assert stats.repeat_medians(repeats) == [1.0, 2.2, 10.0]
    assert stats.repeat_medians([]) == []
    with pytest.raises(ValueError):
        stats.repeat_medians([[1.0, 2.0], [1.0]])


def test_serve_rates_come_from_per_request_medians():
    units = [
        {"latency_s": [0.5, 0.5], "deliveries": 6, "requests": 2, "devices": 1},
        {"latency_s": [0.5, 4.5], "deliveries": 6, "requests": 2, "devices": 1},
        {"latency_s": [0.5, 0.5], "deliveries": 6, "requests": 2, "devices": 1},
    ]
    assert run.rates("serve-phone", units) == {"deliveries": 6.0, "requests": 2.0, "devices": 1.0}
    batch = [{"wall_s": wall, "deliveries": 10, "requests": 2, "devices": 2} for wall in (1, 2, 5)]
    assert run.rates("batch-pair", batch) == {"deliveries": 5.0, "requests": 1.0, "devices": 1.0}


def test_times_are_scaled_by_the_unit_speed_ratio():
    import hostspeed

    slow = [2 * hostspeed.REFERENCE_SLICE_S] * 3
    assert hostspeed.speed_ratio(slow) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.speed_ratio([])
    unit = {
        "wall_s": 4.0,
        "mutation_s": [0.2, 0.4],
        "advance_s": [1.0],
        "slices_s": slow,
        "ratios": {"mutation": [2.0, 4.0], "advance": [0.5]},
    }
    scaled = run.at_reference_speed(unit)
    assert scaled["wall_s"] == pytest.approx(2.0)
    assert scaled["mutation_s"] == pytest.approx([0.1, 0.1])
    assert scaled["advance_s"] == pytest.approx([2.0])
    assert "latency_s" not in scaled and unit["wall_s"] == 4.0


def test_speed_meter_slices_at_most_every_interval():
    import hostspeed

    meter = hostspeed.SpeedMeter()
    assert meter.ratio == 1.0
    meter.tick()
    meter.tick()  # too soon for a second slice
    assert len(meter.slices) == 1
    assert meter.spent_s >= meter.slices[0] > 0
    assert meter.ratio == pytest.approx(hostspeed.speed_ratio(meter.slices))


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0] * 4  # 20 samples, unsorted
    assert stats.percentile(samples, 0.5) == 3.0
    assert stats.samples_beyond(20, 0.5) == 10


# ----------------------------------------------------------------------
# Fingerprints and failure accounting
# ----------------------------------------------------------------------
def _unit(fingerprint, attempted=10, failed=0):
    return {"attempted": attempted, "failed": failed, "fingerprint": fingerprint}


def test_fingerprint_mismatch_is_a_failed_operation():
    problems = []
    attempted, failed, check = run.tally(
        [_unit("aaa"), _unit("bbb"), _unit("aaa")], "aaa", problems
    )
    assert (attempted, failed) == (30, 1)
    assert check["mismatches"] == 1 and check["stored"]
    assert any("fingerprint" in problem for problem in problems)


def test_units_disagreeing_without_a_stored_fingerprint_fail():
    attempted, failed, check = run.tally([_unit("aaa"), _unit("bbb")], None, [])
    assert failed == 1 and not check["stored"]


def test_matching_fingerprints_and_lost_sessions():
    problems = ["session 5 exited with 1"]
    attempted, failed, _ = run.tally([_unit("aaa", failed=2)], "aaa", problems)
    assert (attempted, failed) == (11, 3)


def test_canonical_trace_ignores_alarm_ids_and_telemetry():
    first = {
        "registrations": [{"alarm_id": 17, "label": "a"}, {"alarm_id": 18, "label": "b"}],
        "batches": [{"alarms": [{"alarm_id": 18}]}],
        "violations": [{"detail": "entry #41 overlaps", "alarm_id": None}],
        "telemetry": {"spans": {"engine.run": 0.123}},
    }
    second = json.loads(json.dumps(first))
    second["registrations"][0]["alarm_id"] = 917
    second["registrations"][1]["alarm_id"] = 918
    second["batches"][0]["alarms"][0]["alarm_id"] = 918
    second["violations"][0]["detail"] = "entry #7 overlaps"
    second["telemetry"] = {"spans": {"engine.run": 9.0}}
    assert stats.fingerprint(stats.canonical_trace(first)) == stats.fingerprint(
        stats.canonical_trace(second)
    )
    second["batches"][0]["alarms"][0]["alarm_id"] = 917
    assert stats.fingerprint(stats.canonical_trace(first)) != stats.fingerprint(
        stats.canonical_trace(second)
    )


# ----------------------------------------------------------------------
# The benchmark description
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metrics_reported():
    description = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in description["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in description["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in description["per_layer"]} == run.PER_LAYER


def test_seeded_inputs_are_reproducible():
    import workloads

    assert workloads.serve_requests(3) == workloads.serve_requests(3)
    assert workloads.batch_specs(3)[0].digest() == workloads.batch_specs(3)[0].digest()
    assert workloads.batch_specs(3)[0].digest() != workloads.batch_specs(4)[0].digest()
    assert workloads.fleet_population(3).digest() != workloads.fleet_population(4).digest()


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "batch-pair", "--seed", "1", "--seconds", "1"]) == 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(pytest.main([__file__, "-q"]))
