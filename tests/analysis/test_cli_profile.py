"""The ``simty profile`` command and the ``--telemetry`` CLI surface."""

import json
import re
from collections import Counter

import pytest

from repro.analysis.cli import main
from repro.obs.audit import DecisionAudit
from repro.runner import RunSpec
from repro.runner.executor import execute_spec


class TestProfile:
    def test_profile_prints_phase_and_decision_tables(self, capsys):
        assert main(["profile", "--workload", "light"]) == 0
        out = capsys.readouterr().out
        assert "SIMTY on light" in out
        assert "per-phase timings:" in out
        assert "engine.run" in out
        assert "simty.search" in out
        assert "similarity-class decisions" in out
        assert "searches:" in out
        assert "metrics:" in out

    def test_profile_native_policy_has_no_simty_decisions(self, capsys):
        assert main(["profile", "--workload", "light", "--policy", "native"]) == 0
        out = capsys.readouterr().out
        assert "NATIVE on light" in out
        assert "(no SIMTY decisions recorded)" in out

    def test_profile_duration_aware_policy_has_table1_breakdown(self, capsys):
        # SIMTY+DUR selects with its own key but shares SIMTY's explain
        # pass, so its profile carries the same Table 1 breakdown.
        assert (
            main(["profile", "--workload", "light", "--policy", "simty+dur"])
            == 0
        )
        out = capsys.readouterr().out
        assert "SIMTY+DUR on light" in out
        assert "(no SIMTY decisions recorded)" not in out
        assert "similarity-class decisions" in out
        assert re.search(r"^time=high\s+\d+/\d+", out, re.MULTILINE)
        counters = {}
        for name, labels, value in re.findall(
            r"^\s+(simty\.\w+)(\{[^}]*\})?\s+(\d+)$", out, re.MULTILINE
        ):
            counters[name + labels] = int(value)
        selected = {
            tuple(re.findall(r"=(\w+)", key)): value
            for key, value in counters.items()
            if key.startswith("simty.selected{")
        }
        assert (
            sum(selected.values()) + counters["simty.new_entry"]
            == counters["simty.searches"]
        )
        audit = DecisionAudit(seed=0, sample_rate=1.0, capacity=1 << 16)
        result = execute_spec(
            RunSpec(workload="light", policy="simty+dur"), audit=audit
        )
        tally = Counter(
            (record.hw, record.time_sim)
            for record in result.trace.decisions
            if not record.new_entry
        )
        assert selected == dict(tally)

    def test_profile_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["profile", "--trace-out", str(path)]) == 0
        assert f"written to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        assert {"M", "X", "C"} <= {event["ph"] for event in events}
        assert any(event["name"] == "engine.run" for event in events)

    def test_profile_writes_jsonl_and_prometheus(self, capsys, tmp_path):
        jsonl = tmp_path / "events.jsonl"
        prom = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "profile",
                    "--jsonl-out", str(jsonl),
                    "--prom-out", str(prom),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = jsonl.read_text().splitlines()
        assert lines
        assert all(json.loads(line) for line in lines)
        text = prom.read_text()
        assert "# TYPE engine_events_total counter" in text
        assert "simty_searches_total" in text

    def test_profile_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["profile", "--policy", "doze"])


class TestTelemetryFlags:
    def test_run_telemetry_prints_summary(self, capsys):
        assert main(["run", "--policy", "simty", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "SIMTY on light" in out
        assert "per-phase timings:" in out
        assert "engine.run" in out

    def test_run_without_telemetry_prints_no_summary(self, capsys):
        assert main(["run", "--policy", "simty"]) == 0
        assert "per-phase timings:" not in capsys.readouterr().out

    def test_trace_out_implies_telemetry(self, capsys, tmp_path):
        path = tmp_path / "run-trace.json"
        assert main(["run", "--policy", "exact", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase timings:" in out
        assert json.loads(path.read_text())["traceEvents"]

    def test_compare_telemetry_covers_both_runs(self, capsys):
        assert main(["compare", "--workload", "light", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "per-phase timings:" in out
        # Both halves of the pair land in one merged summary: the SIMTY
        # half contributes policy decisions, both contribute engine runs.
        assert "simty.searches" in out

    def test_sweep_telemetry_smoke(self, capsys):
        assert main(["sweep", "--kind", "bucket", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "bucket-300s" in out
        assert "per-phase timings:" in out


class TestInspectTelemetry:
    def test_round_trip_through_saved_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "run",
                    "--policy", "simty",
                    "--telemetry",
                    "--save-trace", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["inspect", str(path), "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "per-phase timings:" in out
        assert "engine.run" in out

    def test_inspect_without_recorded_telemetry_hints(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        assert main(["run", "--policy", "exact", "--save-trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path), "--telemetry"]) == 0
        assert "no telemetry in this trace" in capsys.readouterr().out
