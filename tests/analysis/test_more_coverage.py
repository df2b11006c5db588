"""Additional coverage: replicate_matrix, compare flags, format edge cases,
serialization negative paths, bucket structural bound."""

import pytest

from repro.analysis.report import format_table


class TestFormatTableEdges:
    def test_empty_rows(self):
        text = format_table(("a", "b"), [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + rule only

    def test_numeric_cells_stringified(self):
        text = format_table(("n",), [(42,)])
        assert "42" in text


class TestReplicateMatrix:
    def test_both_workloads(self):
        from repro.analysis.replication import replicate_matrix
        from repro.workloads.scenarios import ScenarioConfig

        matrix = replicate_matrix(
            seeds=(1, 2), base_config=ScenarioConfig(horizon=900_000)
        )
        assert set(matrix) == {"light", "heavy"}
        for replicated in matrix.values():
            assert len(replicated.total_savings.samples) == 2

    def test_checkpoint_journals_both_workloads(self, tmp_path):
        # The matrix is one run_many batch, so a checkpoint journal ends up
        # holding every digest of both workloads (a second batch would
        # have reset it after the first workload).
        from dataclasses import replace

        from repro.analysis.experiments import pair_specs
        from repro.analysis.replication import replicate_matrix
        from repro.runner import RunJournal
        from repro.workloads.scenarios import ScenarioConfig

        base = ScenarioConfig(horizon=900_000)
        journal = RunJournal(tmp_path / "journal.jsonl")
        replicate_matrix(seeds=(1,), base_config=base, checkpoint=journal)
        journal.close()
        config = replace(base, phase_seed=1)
        expected = {
            spec.digest()
            for workload in ("light", "heavy")
            for spec in pair_specs(workload, scenario_config=config)
        }
        assert len(expected) == 4
        assert RunJournal(tmp_path / "journal.jsonl").completed() == expected


class TestCompareFlags:
    def test_custom_policies(self, capsys):
        from repro.analysis.cli import main

        assert main(
            ["compare", "--baseline", "exact", "--improved", "bucket"]
        ) == 0
        out = capsys.readouterr().out
        assert "EXACT" in out
        assert "BUCKET" in out

    def test_invalid_policy_rejected(self):
        from repro.analysis.cli import main

        with pytest.raises(SystemExit):
            main(["compare", "--baseline", "doze"])


class TestSerializationNegativePaths:
    def test_missing_key_raises(self):
        from repro.simulator.serialize import trace_from_dict

        with pytest.raises(KeyError):
            trace_from_dict({"policy_name": "X"})

    def test_unknown_component_raises(self):
        from repro.simulator.serialize import trace_from_dict

        payload = {
            "policy_name": "X",
            "horizon": 1,
            "registrations": [],
            "sessions": [],
            "batches": [],
            "wakelocks": {"warp-drive": {"activations": 1, "hold_ms": 1}},
        }
        with pytest.raises(ValueError):
            trace_from_dict(payload)


class TestBucketStructuralBound:
    def test_wakeups_bounded_by_boundary_count(self):
        from repro.core.bucket import FixedIntervalPolicy
        from repro.simulator.engine import SimulatorConfig, simulate
        from repro.workloads.synthetic import SyntheticConfig, generate

        interval = 120_000
        horizon = 3_600_000
        workload = generate(
            SyntheticConfig(app_count=25, seed=5, horizon=horizon)
        )
        trace = simulate(
            FixedIntervalPolicy(bucket_interval=interval),
            workload.alarms(),
            SimulatorConfig(horizon=horizon, wake_latency_ms=0, tail_ms=0),
        )
        # Deliveries only happen on boundaries, so there can never be more
        # wake transitions than boundaries inside the horizon.
        assert trace.wake_count() <= horizon // interval + 1
        for batch in trace.batches:
            assert batch.scheduled_time % interval == 0
