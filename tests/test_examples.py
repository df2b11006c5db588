"""Every example script must run cleanly end to end.

Examples are part of the public contract (the README points users at
them), so they are executed as subprocesses exactly the way a user would
run them.  The examples in :data:`PINNED` also have their stdout compared
line by line with ``example_golden.json``.  Re-record only for an
intended change of what they print::

    PYTHONPATH=src python tests/test_examples.py --record
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
PIN_PATH = Path(__file__).with_name("example_golden.json")

#: Examples whose whole stdout is pinned.  Each runs in a fresh process,
#: so the process-wide alarm and entry ids it prints start at 1.
PINNED = ("explain_wakeups.py",)


def _run_example(name):
    """Stdout lines of one example, run as a user would."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout.splitlines()


def test_examples_exist():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[script.stem for script in EXAMPLES]
)
def test_example_runs(script):
    stdout = _run_example(script.name)
    assert any(line.strip() for line in stdout), "examples must print something"
    if script.name in PINNED:
        pins = json.loads(PIN_PATH.read_text(encoding="utf-8"))
        assert stdout == pins[script.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_examples.py --record")
    pins = {name: _run_example(name) for name in PINNED}
    PIN_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
