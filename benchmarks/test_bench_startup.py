"""Start-up cost: what a fresh interpreter pays before it does any work.

Three cases, each run :data:`REPS` times in a fresh interpreter:

* ``import repro`` — the lazy package surface alone;
* the fleet path — ``import repro.fleet.executor``, what a fleet or
  ``run_many`` caller loads;
* ``python -m repro serve`` from launch until the daemon listens on TCP.

Each case records the median wall seconds from launch (interpreter start
included), the number of ``repro`` modules and of all modules loaded, and
the process's peak RSS, and writes them to ``BENCH_startup.json`` at the
repo root.  Times depend on the host, so they are printed, not gated; the
bench fails only when a case loads more ``repro`` modules than its
ceiling in :data:`MODULE_CEILINGS`, which is deterministic.
See docs/architecture.md, "What each entry point imports".
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = ROOT / "BENCH_startup.json"

REPS = 7

#: Most ``repro`` modules each case may load (``repro`` itself included).
MODULE_CEILINGS = {"import-repro": 2, "fleet-path": 75, "serve": 53}

#: Printed by every case once it is ready: its modules and peak RSS.  The
#: peak is the process's own ``VmHWM``; Linux carries ``ru_maxrss`` across
#: ``exec``, so there it would report the (larger) pytest parent.
_REPORT = """
import json, resource, sys
def peak_rss_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
def report():
    modules = sorted(sys.modules)
    print(json.dumps({
        "modules": len(modules),
        "repro_modules": len([m for m in modules if m.split(".")[0] == "repro"]),
        "rss_mb": peak_rss_mb(),
    }), file=sys.stderr, flush=True)
"""

CASES = {
    "import-repro": _REPORT + "import repro\nreport()\n",
    "fleet-path": _REPORT + "import repro.fleet.executor\nreport()\n",
    # The daemon as ``python -m repro serve`` runs it, reporting from the
    # moment its TCP listener has started.
    "serve": _REPORT
    + """
from repro.service.transport import SocketServer
start = SocketServer.start
def started(self):
    server = start(self)
    report()
    return server
SocketServer.start = started
from repro.analysis.cli import main
sys.exit(main(["serve", "--tcp", "127.0.0.1:0"]))
""",
}


def _launch(code: str) -> dict:
    """Seconds from launch to the case's report, plus the report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        for line in process.stderr:
            if line.startswith("{"):
                seconds = time.perf_counter() - started
                return dict(json.loads(line), seconds=seconds)
        raise AssertionError("the case exited before it reported")
    finally:
        process.terminate()
        process.wait(timeout=60)
        process.stderr.close()


@pytest.fixture(scope="module")
def report(write_report):
    results = {}
    yield results
    write_report(
        REPORT_PATH,
        {
            "unit": f"median of {REPS} fresh interpreters, launch to ready",
            "module_ceilings": MODULE_CEILINGS,
            "cases": results,
        },
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_bench_startup(emit, report, case):
    runs = [_launch(CASES[case]) for _ in range(REPS)]
    result = {
        "seconds": round(median(run["seconds"] for run in runs), 4),
        "rss_mb": round(median(run["rss_mb"] for run in runs), 1),
        "modules": runs[0]["modules"],
        "repro_modules": runs[0]["repro_modules"],
    }
    report[case] = result
    emit(
        f"start-up ({case}, median of {REPS}): {result['seconds'] * 1000.0:.0f} ms, "
        f"{result['repro_modules']} repro / {result['modules']} modules, "
        f"{result['rss_mb']:.1f} MiB peak RSS"
    )
    assert {run["repro_modules"] for run in runs} == {result["repro_modules"]}
    assert result["repro_modules"] <= MODULE_CEILINGS[case], (
        f"{case} loads {result['repro_modules']} repro modules; the ceiling "
        f"is {MODULE_CEILINGS[case]} (see BENCH_startup.json)"
    )
