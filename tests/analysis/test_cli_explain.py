"""The ``simty explain`` command prints the same answer in every process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _explain(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "explain",
         "--workload", "heavy", "--policy", "simty"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return result.stdout


def test_explain_output_does_not_depend_on_the_string_hash():
    # Apps with equal wake counts used to print in set-iteration order,
    # so the "wakes by app" footer changed with PYTHONHASHSEED.
    first, second = _explain("1"), _explain("2")
    assert "wakes by app:" in first
    assert first == second
