"""Fleet executor: sharding, journals, resume, quarantine, coverage.

Everything here runs shards *in-process* (``workers=0``) so the tests are
deterministic and fast; the subprocess scheduling, kill-chaos and
straggler paths live in ``test_chaos_fleet.py``.
"""

import dataclasses
import gc
import gzip
import json
import threading
import weakref
from pathlib import Path

import pytest

from repro.fleet import (
    FleetConfig,
    FleetResumeError,
    MICRO_ARCHETYPES,
    PopulationSpec,
    make_population,
    plan_shards,
    poison_archetype,
    run_fleet,
    shard_journal_path,
)
from repro.fleet import executor
from repro.fleet.executor import load_sealed_summary, run_shard, ShardPlan
from repro.obs import Telemetry
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.runner.spec import encode_value

CFG = FleetConfig(
    shards=4,
    workers=0,
    device_retries=1,
    device_backoff_s=0.001,
    reservoir_size=8,
)

#: A one-shard journal of ``micro(size=6)`` written before shards reduced
#: each device as it completed: its seal carries a summary field and a
#: ``timing["reductions"]`` entry that current seals no longer write.
LEGACY_JOURNAL = Path(__file__).with_name("legacy_shard_journal.jsonl.gz")


def micro(size=24, seed=0):
    return make_population(size, archetypes="micro", seed=seed)


def poisoned(size=40, seed=5, weight=0.1):
    return PopulationSpec(
        size=size,
        archetypes=MICRO_ARCHETYPES + (poison_archetype(weight=weight),),
        seed=seed,
        name="poisoned",
    )


class TestPlanShards:
    def test_partition_is_contiguous_and_complete(self):
        plans = plan_shards(103, 8)
        assert plans[0].lo == 0 and plans[-1].hi == 103
        for before, after in zip(plans, plans[1:]):
            assert before.hi == after.lo
        assert max(p.size for p in plans) - min(p.size for p in plans) <= 1

    def test_more_shards_than_devices_collapses(self):
        plans = plan_shards(3, 16)
        assert len(plans) == 3
        assert [p.size for p in plans] == [1, 1, 1]


class TestShardEquivalence:
    def test_shards_1_vs_8_byte_identical(self, tmp_path):
        """The issue's RNG-derivation satellite: shard count must not
        change any device, so the merged deterministic payloads match
        byte for byte."""
        population = micro(size=32)
        one = run_fleet(
            population,
            dataclasses.replace(CFG, shards=1),
            fleet_dir=tmp_path / "one",
        )
        eight = run_fleet(
            population,
            dataclasses.replace(CFG, shards=8),
            fleet_dir=tmp_path / "eight",
        )
        assert json.dumps(one.deterministic_payload(), sort_keys=True) == (
            json.dumps(eight.deterministic_payload(), sort_keys=True)
        )


class TestJournalAndResume:
    def test_sealed_journal_loads_back(self, tmp_path):
        population = micro(size=8)
        plan = ShardPlan(shard=0, lo=0, hi=8)
        summary = run_shard(population, plan, CFG, tmp_path)
        loaded = load_sealed_summary(
            shard_journal_path(tmp_path, 0), population.digest(), plan
        )
        assert loaded is not None
        assert loaded.completed == summary.completed
        assert loaded.to_dict()["status_counts"] == (
            summary.to_dict()["status_counts"]
        )

    def test_resume_skips_sealed_shards(self, tmp_path):
        population = micro()
        first = run_fleet(population, CFG, fleet_dir=tmp_path)
        second = run_fleet(population, CFG, fleet_dir=tmp_path, resume=True)
        assert second.shard_stats["resumed"] == 4
        assert second.shard_stats["completed"] == 0
        assert json.dumps(first.deterministic_payload(), sort_keys=True) == (
            json.dumps(second.deterministic_payload(), sort_keys=True)
        )

    def test_resume_reruns_missing_and_unsealed_shards(self, tmp_path):
        population = micro()
        run_fleet(population, CFG, fleet_dir=tmp_path)
        # Delete one journal, tear the seal off another.
        shard_journal_path(tmp_path, 1).unlink()
        path = shard_journal_path(tmp_path, 2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the seal
        report = run_fleet(population, CFG, fleet_dir=tmp_path, resume=True)
        assert report.shard_stats["resumed"] == 2
        assert report.shard_stats["completed"] == 2
        assert report.completed == population.size

    def test_resume_refuses_foreign_population(self, tmp_path):
        run_fleet(micro(seed=0), CFG, fleet_dir=tmp_path)
        with pytest.raises(FleetResumeError, match="refusing to resume"):
            run_fleet(micro(seed=1), CFG, fleet_dir=tmp_path, resume=True)

    def test_resume_requires_fleet_dir(self):
        with pytest.raises(ValueError, match="fleet_dir"):
            run_fleet(micro(), CFG, resume=True)

    def test_seal_from_an_older_version_loads_and_resumes(self, tmp_path):
        population = micro(size=6)
        config = dataclasses.replace(CFG, shards=1)
        path = shard_journal_path(tmp_path / "legacy", 0)
        path.parent.mkdir(parents=True)
        path.write_bytes(gzip.decompress(LEGACY_JOURNAL.read_bytes()))
        seal = json.loads(path.read_text().splitlines()[-1])["summary"]
        fresh = run_fleet(population, config, fleet_dir=tmp_path / "fresh")
        assert set(seal) - set(fresh.summary.to_dict())
        assert "reductions" in seal["timing"]

        resumed = run_fleet(
            population, config, fleet_dir=tmp_path / "legacy", resume=True
        )
        assert resumed.shard_stats["resumed"] == 1
        assert resumed.shard_stats["completed"] == 0
        assert json.dumps(resumed.deterministic_payload(), sort_keys=True) == (
            json.dumps(fresh.deterministic_payload(), sort_keys=True)
        )
        assert set(resumed.execution_payload()) == set(
            fresh.execution_payload()
        )
        assert "execution: shards [resumed=1]" in resumed.render()


class TestQuarantine:
    def test_poison_devices_quarantined_not_retried_forever(self, tmp_path):
        population = poisoned()
        report = run_fleet(population, CFG, fleet_dir=tmp_path)
        assert report.quarantined > 0
        assert report.completed + report.quarantined == population.size
        for record in report.summary.quarantined:
            assert record.archetype == "poison"
            assert record.error_type == "RuntimeError"
            assert record.attempts == CFG.device_retries + 1
            # the reproducer digest rebuilds the exact failing spec
            device = population.device(record.device)
            assert device.digest == record.digest

    def test_only_quarantined_devices_compute_their_digest(
        self, tmp_path, monkeypatch
    ):
        """Completed devices reduce straight from their outcome; the spec
        digest is derived once per quarantined device, for its reproducer."""
        digest = RunSpec.digest
        calls = []

        def counting_digest(spec):
            calls.append(spec)
            return digest(spec)

        monkeypatch.setattr(RunSpec, "digest", counting_digest)
        population = poisoned()
        report = run_fleet(population, CFG, fleet_dir=tmp_path)
        monkeypatch.undo()

        quarantined = report.summary.quarantined
        assert report.quarantined > 0 and report.completed > 0
        assert sorted(digest(spec) for spec in calls) == sorted(
            record.digest for record in quarantined
        )
        for record in quarantined:
            assert record.digest == population.device(record.device).run.digest()
        for path in (tmp_path / "quarantine").glob("device-*.json"):
            payload = json.loads(path.read_text())
            device = population.device(payload["device"])
            assert payload["spec_digest"] == device.run.digest()

    def test_reproducer_files_written(self, tmp_path):
        population = poisoned()
        report = run_fleet(population, CFG, fleet_dir=tmp_path)
        quarantine_dir = tmp_path / "quarantine"
        files = sorted(quarantine_dir.glob("device-*.json"))
        assert len(files) == report.quarantined
        payload = json.loads(files[0].read_text())
        assert payload["population"] == population.digest()
        assert payload["error_type"] == "RuntimeError"
        assert not list(quarantine_dir.glob("*.tmp"))

    def test_explicit_quarantine_dir_honored(self, tmp_path):
        config = dataclasses.replace(
            CFG, quarantine_dir=str(tmp_path / "poison-box")
        )
        run_fleet(poisoned(), config, fleet_dir=tmp_path / "fleet")
        assert list((tmp_path / "poison-box").glob("device-*.json"))

    def test_poison_scenario_device_quarantined_and_shard_seals(
        self, tmp_path, monkeypatch
    ):
        """A scenario device's workload kwargs hold a ``ScenarioSpec``:
        its reproducer must still be written, so the device is quarantined
        and its shard seals instead of being retried until it fails."""
        population = make_population(12, "scenario", seed=1)
        poison = population.device(3).run

        def failing(spec, *args, **kwargs):
            if spec == poison:
                raise RuntimeError("poison scenario device")
            return execute_spec(spec, *args, **kwargs)

        monkeypatch.setattr("repro.runner.executor.execute_spec", failing)
        config = dataclasses.replace(CFG, shards=2)
        report = run_fleet(population, config, fleet_dir=tmp_path)
        assert report.completed == population.size - 1
        assert [record.device for record in report.summary.quarantined] == [3]
        assert report.shard_stats.get("failed", 0) == 0
        assert report.shard_stats.get("retried", 0) == 0
        files = sorted((tmp_path / "quarantine").glob("device-*.json"))
        assert [path.name for path in files] == ["device-00000003.json"]
        payload = json.loads(files[0].read_text())
        assert payload["spec_digest"] == poison.digest()
        assert payload["workload_kwargs"] == encode_value(poison.workload_kwargs)

    def test_unencodable_reproducer_is_skipped_not_fatal(
        self, tmp_path, monkeypatch
    ):
        def unencodable(value):
            raise TypeError("no stable encoding")

        monkeypatch.setattr(executor, "encode_value", unencodable)
        population = poisoned()
        report = run_fleet(population, CFG, fleet_dir=tmp_path)
        assert report.quarantined > 0
        assert report.completed + report.quarantined == population.size
        assert report.shard_stats.get("failed", 0) == 0
        assert not list((tmp_path / "quarantine").glob("device-*"))


class TestDeviceTimeout:
    def test_devices_past_their_deadline_are_quarantined(self, tmp_path):
        """A deadline no run can meet quarantines every device as a
        timeout, in the shard's own thread, and each shard still seals."""
        population = micro(size=8)
        config = dataclasses.replace(
            CFG, device_timeout_s=1e-9, device_retries=0
        )
        threads = threading.active_count()
        report = run_fleet(population, config, fleet_dir=tmp_path)
        assert threading.active_count() == threads
        assert report.completed == 0
        assert report.quarantined == population.size
        assert {
            record.error_type for record in report.summary.quarantined
        } == {"TimeoutError"}
        for plan in plan_shards(population.size, config.shards):
            assert load_sealed_summary(
                shard_journal_path(tmp_path, plan.shard),
                population.digest(),
                plan,
            ) is not None


class TestViolationCarryThrough:
    def test_archetype_violations_sum_device_traces(self, tmp_path):
        """BUCKET micro devices trip the recording monitor; the report's
        per-archetype violation tallies must be the sum over the devices'
        own traces, not zeros lost in the reduction."""
        population = PopulationSpec(
            size=16,
            archetypes=tuple(
                dataclasses.replace(archetype, policy="bucket")
                for archetype in MICRO_ARCHETYPES
            ),
            seed=3,
            name="bucket",
        )
        report = run_fleet(population, CFG, fleet_dir=tmp_path)
        assert report.completed == population.size

        expected = {}
        for device in population.devices():
            violations = len(execute_spec(device.run).trace.violations)
            expected[device.archetype] = (
                expected.get(device.archetype, 0) + violations
            )
        assert sum(expected.values()) > 0
        assert report.summary.archetype_violations == expected


class TestPerDeviceReduction:
    def test_a_shard_frees_each_trace_before_the_next_device_but_one(
        self, tmp_path, monkeypatch
    ):
        """A shard reduces each device as it completes: when a device
        starts, no trace older than the previous device's is alive, so
        memory stays bounded however large the shard."""
        supervise = executor.run_supervised_serial
        traces = []  # per device: weakref to its trace, or None
        stale = []  # (device about to run, older device whose trace lives)

        def watched(*args, **kwargs):
            gc.collect()
            stale.extend(
                (len(traces), index)
                for index, ref in enumerate(traces[:-1])
                if ref is not None and ref() is not None
            )
            outcome = supervise(*args, **kwargs)
            traces.append(
                weakref.ref(outcome.result.trace) if outcome.result else None
            )
            return outcome

        monkeypatch.setattr(executor, "run_supervised_serial", watched)
        population = poisoned(size=24)
        config = dataclasses.replace(CFG, shards=1)
        report = run_fleet(population, config, fleet_dir=tmp_path)
        assert stale == []
        assert len(traces) == population.size
        assert report.completed + report.quarantined == population.size
        assert report.quarantined > 0

    def test_reduce_time_is_summed_per_device(self, tmp_path):
        summary = run_shard(
            micro(size=12), ShardPlan(shard=0, lo=0, hi=12), CFG, tmp_path
        )
        assert set(summary.timing) == {"wall_s", "reduce_ms"}
        assert 0 < summary.timing["reduce_ms"] < summary.timing["wall_s"] * 1000


class TestCoverage:
    def test_full_coverage_prints_percentiles(self, tmp_path):
        report = run_fleet(micro(), CFG, fleet_dir=tmp_path)
        assert report.coverage == 1.0
        assert not report.percentiles_withheld
        assert report.percentiles() is not None
        assert "p99" in report.render()

    def test_quarantine_lowers_coverage_and_withholds(self, tmp_path):
        config = dataclasses.replace(CFG, coverage_threshold=0.999)
        report = run_fleet(poisoned(), config, fleet_dir=tmp_path)
        assert report.coverage < 1.0
        assert report.percentiles_withheld
        assert report.percentiles() is None
        rendered = report.render()
        assert "percentiles withheld" in rendered
        assert "PARTIAL RESULT" in rendered

    def test_report_always_states_the_three_counts(self, tmp_path):
        report = run_fleet(poisoned(), CFG, fleet_dir=tmp_path)
        line = report.render().splitlines()[1]
        assert "attempted" in line
        assert "completed" in line
        assert "quarantined" in line
        assert report.attempted_devices == (
            report.completed + report.quarantined
        )


class TestReportPayloads:
    def test_json_report_splits_population_from_execution(self, tmp_path):
        report = run_fleet(micro(), CFG, fleet_dir=tmp_path)
        payload = report.to_json()
        assert set(payload) == {"population", "execution"}
        deterministic = payload["population"]
        assert "timing" not in deterministic["aggregate"]
        assert "telemetry" not in deterministic["aggregate"]
        assert payload["execution"]["wall_s"] > 0
        json.dumps(payload)  # fully JSON-serializable

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)
        with pytest.raises(ValueError):
            FleetConfig(workers=-1)
        with pytest.raises(ValueError):
            FleetConfig(coverage_threshold=1.5)

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0])
    def test_device_timeout_must_be_positive(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be positive"):
            FleetConfig(workers=0, device_timeout_s=timeout_s)


class TestFleetTelemetry:
    def test_shard_device_and_reduce_metrics_emitted(self, tmp_path):
        hub = Telemetry()
        report = run_fleet(
            poisoned(), CFG, fleet_dir=tmp_path, telemetry=hub
        )
        summary = hub.summary()
        by_status = summary.counter_by_label("fleet.shards", "status")
        assert by_status.get("completed") == 4
        by_outcome = summary.counter_by_label("fleet.devices", "outcome")
        assert by_outcome.get("ok", 0) > 0
        assert by_outcome.get("quarantined") == report.quarantined
        assert "fleet.reduce_latency_ms" in summary.histograms
        assert "fleet.coverage" in summary.gauges
