"""The ``simty`` command-line interface."""

import gc
import warnings

import pytest

from repro.analysis.cli import main


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_run_command(self, capsys):
        assert main(["run", "--workload", "light", "--policy", "exact"]) == 0
        out = capsys.readouterr().out
        assert "EXACT on light" in out
        assert "wakeups" in out

    def test_run_with_dump_events(self, capsys):
        assert main(["run", "--policy", "exact", "--dump-events"]) == 0
        out = capsys.readouterr().out
        assert "register" in out
        assert "deliver" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "light"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Table 4" in out
        assert "standby extension" in out

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "doze"])

    def test_beta_flag(self, capsys):
        assert main(["run", "--policy", "simty", "--beta", "0.8"]) == 0
        assert "SIMTY on light" in capsys.readouterr().out

    def test_sweep_duration(self, capsys):
        assert main(["sweep", "--kind", "duration", "--workload", "heavy"]) == 0
        out = capsys.readouterr().out
        assert "simty+dur" in out

    def test_sweep_bucket(self, capsys):
        assert main(["sweep", "--kind", "bucket"]) == 0
        out = capsys.readouterr().out
        assert "bucket-300s" in out

    def test_sweep_sensitivity(self, capsys):
        assert main(["sweep", "--kind", "sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "awake_base" in out

    def test_run_bucket_policy(self, capsys):
        assert main(["run", "--policy", "bucket"]) == 0
        assert "BUCKET on light" in capsys.readouterr().out

    def test_run_blame(self, capsys):
        assert main(["run", "--policy", "exact", "--blame"]) == 0
        assert "J" in capsys.readouterr().out

    def test_save_and_inspect_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert (
            main(["run", "--policy", "exact", "--save-trace", str(path)]) == 0
        )
        assert path.exists()
        capsys.readouterr()
        assert main(["inspect", str(path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "EXACT trace over 3.00 h" in out
        assert "one cell" in out


def test_cache_dir_run_closes_its_checkpoint_journal(tmp_path, capsys):
    # The journal behind --cache-dir holds an append handle; a command that
    # drops it unclosed leaks a file (a ResourceWarning under -X dev).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(
            ["sweep", "--kind", "sensitivity", "--cache-dir", str(tmp_path)]
        ) == 0
        gc.collect()
    leaks = [str(w.message) for w in caught if w.category is ResourceWarning]
    assert leaks == []
    assert (tmp_path / "journal.jsonl").read_text().count("\n") == 2
