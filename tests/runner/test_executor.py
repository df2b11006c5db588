"""The executor: ordering, deduplication, and serial/parallel equivalence."""

import json

import pytest

from repro.core.exact import ExactPolicy
from repro.obs import Telemetry
from repro.runner import (
    Registry,
    ResultCache,
    RunSpec,
    execute_spec,
    run_many,
    summary_table,
)
from repro.simulator.serialize import trace_to_dict
from repro.workloads.scenarios import ScenarioConfig
from repro.workloads.synthetic import SyntheticConfig, generate

SHORT = ScenarioConfig(horizon=900_000)


def scrub_alarm_ids(payload):
    """Drop ``alarm_id`` fields: they come from a process-global counter,
    so they differ between the parent and pool workers while everything
    observable (times, labels, energies) is identical."""
    if isinstance(payload, dict):
        return {
            key: scrub_alarm_ids(value)
            for key, value in payload.items()
            if key != "alarm_id"
        }
    if isinstance(payload, list):
        return [scrub_alarm_ids(item) for item in payload]
    return payload


def trace_bytes(trace) -> str:
    return json.dumps(scrub_alarm_ids(trace_to_dict(trace)), sort_keys=True)


def spec_grid():
    return [
        RunSpec(workload=workload, policy=policy, scenario=SHORT)
        for workload in ("light", "heavy")
        for policy in ("native", "simty")
    ]


class TestOrderingAndDedup:
    def test_results_in_input_order(self):
        specs = spec_grid()
        records = run_many(specs)
        assert [record.spec for record in records] == specs
        assert [record.result.policy_name for record in records] == [
            "native",
            "simty",
            "native",
            "simty",
        ]
        assert [record.result.workload_name for record in records] == [
            "light",
            "light",
            "heavy",
            "heavy",
        ]

    def test_duplicates_simulated_once(self):
        cache = ResultCache()
        spec = RunSpec(workload="light", policy="native", scenario=SHORT)
        records = run_many([spec, spec, spec], cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert [record.cache_hit for record in records] == [False, True, True]
        assert records[1].result is records[0].result

    def test_prewarmed_cache_serves_every_duplicate(self):
        cache = ResultCache()
        spec = RunSpec(workload="light", policy="native", scenario=SHORT)
        run_many([spec], cache=cache)
        records = run_many([spec, spec], cache=cache)
        assert all(record.cache_hit for record in records)
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_beta_sweep_issues_exactly_seven_simulations(self):
        # Acceptance check: 6 betas -> 1 NATIVE baseline + 6 SIMTY runs.
        from repro.analysis.sweep import beta_sweep

        cache = ResultCache()
        hub = Telemetry()
        betas = (0.75, 0.80, 0.85, 0.90, 0.96, 0.99)
        rows = beta_sweep(
            workload="light", betas=betas, cache=cache, telemetry=hub
        )
        assert len(rows) == 6
        assert cache.stats.misses == 1 + len(betas)
        assert cache.stats.hits == len(betas) - 1
        # The telemetry keyword reaches run_many, which counts each
        # simulation it resolves on the hub.
        assert hub.counters["runner.specs_resolved"] == 1 + len(betas)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_many([], max_workers=0)


class TestParallelEquivalence:
    def test_parallel_results_byte_identical_to_serial(self):
        specs = spec_grid()
        serial = run_many(specs, max_workers=1)
        parallel = run_many(specs, max_workers=2)
        for left, right in zip(serial, parallel):
            assert left.result.energy == right.result.energy
            assert left.result.delays == right.result.delays
            assert left.result.wakeups == right.result.wakeups
            assert trace_bytes(left.result.trace) == trace_bytes(
                right.result.trace
            )

    def test_parallel_seeded_synthetic_reproducible(self):
        specs = [
            RunSpec(
                workload="synthetic",
                policy="simty",
                workload_kwargs={"app_count": 6, "horizon": 900_000},
                seed=seed,
            )
            for seed in (1, 2, 1, 2)
        ]
        cache = ResultCache()
        records = run_many(specs, max_workers=2, cache=cache)
        assert cache.stats.misses == 2 and cache.stats.hits == 2
        assert records[0].result.workload_name == "synthetic-6-seed1"
        assert records[2].result is records[0].result

    def test_custom_registry_forces_serial_path(self):
        registry = Registry()
        registry.register_policy("noalign", ExactPolicy)
        registry.register_workload(
            "tiny",
            lambda config=None, *, seed=None: generate(
                SyntheticConfig(
                    app_count=3,
                    horizon=900_000,
                    period_range_s=(60, 120),
                    seed=seed or 1,
                )
            ),
        )
        specs = [RunSpec(workload="tiny", policy="noalign")] * 2
        records = run_many(specs, max_workers=4, registry=registry)
        assert len(records) == 2
        assert records[0].result.trace.delivery_count() > 0


class TestSummaryTable:
    def test_table_mentions_each_run(self):
        cache = ResultCache()
        run_many(spec_grid(), cache=cache)
        table = summary_table(cache.records)
        assert "workload" in table and "digest" in table
        assert table.count("miss") == 4
        assert "light" in table and "heavy" in table

    def test_empty_table_renders(self):
        assert "workload" in summary_table([])

    def test_violations_column_appears_only_when_monitored(self):
        from repro.core.invariants import Violation
        from repro.runner import run_spec

        record = run_spec(
            RunSpec(workload="light", policy="simty", scenario=SHORT)
        )
        assert "violations" not in summary_table([record])
        assert record.violation_count == 0
        record.result.trace.violations.append(
            Violation(kind="double-delivery", time=1, detail="injected")
        )
        table = summary_table([record])
        assert "violations" in table
        assert record.violation_count == 1


class TestExecuteSpec:
    def test_policy_label_becomes_policy_name(self):
        record = execute_spec(
            RunSpec(
                workload="light",
                policy="simty",
                scenario=SHORT,
                policy_label="simty[custom]",
            )
        )
        assert record.policy_name == "simty[custom]"
