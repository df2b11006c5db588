"""Golden outputs of ``simty explain``, run in-process.

``main(["explain", ...])`` runs for {light, heavy} x {simty, simty+dur,
native, bucket}, plus one ``--alarm`` replay, with stdout captured and
compared line by line with ``explain_golden.json``.  This covers
``_command_explain``, the wake table, ``render_decisions`` and the
selection-path replay of one alarm.

Alarm and entry ids come from process-wide counters, so each case
restarts both counters at 1: the printed ``alarm N`` and ``#N`` then do
not depend on what ran earlier in the process.  Re-record only for an
intended change of what ``explain`` prints::

    PYTHONPATH=src python tests/analysis/test_explain_golden.py --record
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

import repro.core.alarm
import repro.core.entry
from repro.analysis.cli import main

PIN_PATH = Path(__file__).with_name("explain_golden.json")

CASES = {
    f"{workload}-{policy}": ["--workload", workload, "--policy", policy]
    for workload in ("light", "heavy")
    for policy in ("simty", "simty+dur", "native", "bucket")
}
CASES["heavy-simty-alarm-5"] = [
    "--workload", "heavy", "--policy", "simty", "--alarm", "5",
]


def explain(argv):
    """Exit code and stdout lines of one in-process ``simty explain``."""
    repro.core.alarm._ALARM_IDS = itertools.count(1)
    repro.core.entry._ENTRY_IDS = itertools.count(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["explain", *argv])
    return {"exit": code, "stdout": out.getvalue().splitlines()}


@pytest.fixture
def fresh_ids(monkeypatch):
    # Through monkeypatch, so the process-wide counters are put back after
    # the case and later tests see them where they left them.
    monkeypatch.setattr(repro.core.alarm, "_ALARM_IDS", itertools.count(1))
    monkeypatch.setattr(repro.core.entry, "_ENTRY_IDS", itertools.count(1))


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_output_matches_the_pin(case, fresh_ids):
    pinned = json.loads(PIN_PATH.read_text(encoding="utf-8"))[case]
    actual = explain(CASES[case])
    assert actual["exit"] == pinned["exit"]
    assert actual["stdout"] == pinned["stdout"]


def test_the_replayed_alarm_is_never_deferred_backwards(fresh_ids):
    # Decision seq 4 joins YeeCall to an entry whose window opened before
    # the alarm's nominal time.  Read before the alarm joined, the entry's
    # delivery time put the deferral at -127474 ms.
    lines = explain(CASES["heavy-simty-alarm-5"])["stdout"]
    start = lines.index("decision seq 4 at t=0 ms (SIMTY insert):")
    assert "'YeeCall'" in lines[start + 1]
    joined = next(line for line in lines[start:] if "-> joined" in line)
    assert joined.endswith("; deferral +0 ms")
    deferrals = [
        int(line.rsplit("deferral ", 1)[1].split()[0])
        for line in lines
        if "; deferral " in line
    ]
    assert deferrals and min(deferrals) >= 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_explain_golden.py --record")
    pins = {case: explain(argv) for case, argv in sorted(CASES.items())}
    PIN_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
