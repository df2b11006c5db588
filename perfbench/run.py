"""The repository benchmark: three end-to-end paths, one per workload.

Run from the repository root::

    python3 perfbench/run.py --workload batch-pair --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--workload`` is ``batch-pair``, ``serve-phone``, ``fleet-micro`` or
``all``.  An untraced run starts :data:`SETUP_SAMPLES` fresh worker
processes (``worker.py``) that only set up, for ``setup_s``, half of them
before and half after one measuring worker, which runs
:data:`WARMUP_UNITS` unmeasured units and then repeats the workload's unit
until ``--seconds`` have passed.  Figures are medians over the measured
units (see :func:`rates` and ``stats.repeat_medians``).  The run prints a
table of every metric with its unit and a provenance line, appends both
to ``.perfbench/history.jsonl``, and ends its standard output with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of :data:`END_TO_END`.
``--trace 1`` reports the per-layer metrics of :data:`PER_LAYER`, from
units run with every layer span installed (see ``layers.py``).

Every unit's simulated output is fingerprinted and checked against
``fingerprints.json`` (per workload and seed) when a fingerprint is stored
there, and against the run's other units always; a mismatch is a failed
operation.  ``record_fingerprints.py`` stores them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import speed_ratio  # noqa: E402
from proc import wait_exit  # noqa: E402
from stats import (  # noqa: E402
    PercentileRefused,
    check_fingerprints,
    percentile,
    repeat_medians,
)

WORKLOADS = ("batch-pair", "serve-phone", "fleet-micro")
#: Fresh set-up-only worker processes per untraced run, half before and
#: half after the measuring session so that one slow stretch of the host
#: does not hit them all; ``setup_s`` is the median of their set-up times.
SETUP_SAMPLES = 4
#: Unmeasured units at the start of the measuring session, so lazy
#: initialisation and cold caches stay out of the steady-state figures.
#: The served phone boots a fresh daemon per unit and needs none.
WARMUP_UNITS = {"batch-pair": 1, "serve-phone": 0, "fleet-micro": 1}
#: Longest a set-up-only session may take, and how long past its budget
#: the measuring session may run, before it is killed.
SETUP_TIMEOUT_S = 30.0
SESSION_GRACE_S = 60.0
FINGERPRINTS = HERE / "fingerprints.json"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "requests_per_s": "1/s",
    "devices_per_s": "1/s",
    "mutation_p50_ms": "ms",
    "mutation_p99_ms": "ms",
    "advance_p50_ms": "ms",
    "advance_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "sim_wakeups": "count",
    "sim_energy_j": "J",
}


def _per_layer() -> Dict[str, str]:
    from layers import COUNT_METRICS, SPAN_METRICS

    metrics = {name: "s" for name in SPAN_METRICS}
    metrics["service.wait_s"] = "s"
    metrics["other_s"] = "s"
    metrics.update({name: "count" for name in COUNT_METRICS})
    metrics["traced_wall_s"] = "s"
    metrics["trace_overhead"] = "ratio"
    return metrics


#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = _per_layer()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_revision(root: Path) -> Optional[str]:
    """HEAD's commit from the files under ``.git`` (no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int, trace: int) -> Dict:
    sys.path.insert(0, str(root / "src"))
    from repro.core.backend import DEFAULT_BACKEND

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "default_queue_backend": DEFAULT_BACKEND,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def run_session(
    root: Path, work: Path, index: int, workload: str, seed: int, budget: float,
    trace: int, timeout_s: float, warmup: int = 0,
) -> Tuple[Optional[Dict], str]:
    """Run one worker; returns its report (None if it failed) and a
    problem description ('' when fine)."""
    out = work / f"session-{index}.json"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--warmup", str(warmup),
        "--trace", str(trace),
        "--scratch", str(work),
        "--out", str(out),
        "--spawned-at",
    ]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + [repr(spawned_at)],
        cwd=str(root),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    code, _ = wait_exit(proc, timeout_s, group=True)
    if code != 0 or not out.exists():
        return None, f"session {index} exited with {code}"
    return json.loads(out.read_text(encoding="utf-8")), ""


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def measured_units(report: Dict) -> List[Dict]:
    """A run's measured, untraced units that completed."""
    return [
        unit
        for unit in report["units"]
        if not unit["warmup"] and not unit["traced"] and unit["wall_s"] > 0
    ]


def _quantile_ms(samples: List[float], quantile: float) -> float:
    return percentile(samples, quantile) * 1000.0


def rates(workload: str, units: List[Dict]) -> Dict[str, float]:
    """Deliveries, requests and devices per second.

    Every unit repeats the same work.  A batch or fleet unit is one call
    into the program, so its rate is the median over units.  A served
    replay is ~2k requests: its time is the sum of each request's median
    round trip over the replays (see ``stats.repeat_medians``), so one
    slow stretch of the host during one replay does not move it.
    """
    if workload == "serve-phone":
        replay_s = sum(repeat_medians([unit["latency_s"] for unit in units]))
        return {key: units[0][key] / replay_s for key in ("deliveries", "requests", "devices")}
    return {
        key: median([unit[key] / unit["wall_s"] for unit in units])
        for key in ("deliveries", "requests", "devices")
    }


def at_reference_speed(unit: Dict) -> Dict:
    """``unit`` with every host time divided by a host speed ratio: its
    time by the ratio over the whole unit, each latency sample by the
    ratio around that call (``hostspeed.WINDOW``)."""
    scaled = dict(unit, wall_s=unit["wall_s"] / speed_ratio(unit["slices_s"]))
    for kind, ratios in unit["ratios"].items():
        key = f"{kind}_s"
        scaled[key] = [value / ratio for value, ratio in zip(unit[key], ratios)]
    return scaled


def timings(workload: str, setup: List[float], units: List[Dict]) -> Dict[str, float]:
    """The end-to-end metrics that are times or rates."""
    mutation = repeat_medians([unit["mutation_s"] for unit in units])
    advance = repeat_medians([unit["advance_s"] for unit in units])
    per_second = rates(workload, units)
    return {
        "setup_s": median(setup),
        "deliveries_per_s": per_second["deliveries"],
        "requests_per_s": per_second["requests"],
        "devices_per_s": per_second["devices"],
        "mutation_p50_ms": _quantile_ms(mutation, 0.50),
        "mutation_p99_ms": _quantile_ms(mutation, 0.99),
        "advance_p50_ms": _quantile_ms(advance, 0.50),
        "advance_p90_ms": _quantile_ms(advance, 0.90),
    }


def end_to_end(
    workload: str, setups: List[Dict], report: Dict
) -> Tuple[Dict, Dict, Dict]:
    """End-to-end metric values, the same timings in host time, and
    sample counts for the table."""
    units = measured_units(report)
    setup = [entry["setup_s"] + entry.get("boot_s", 0.0) for entry in setups]
    host = timings(workload, setup, units)
    values = timings(
        workload,
        [seconds / speed_ratio(entry["slices_s"]) for seconds, entry in zip(setup, setups)],
        [at_reference_speed(unit) for unit in units],
    )
    if workload == "serve-phone":
        rss = [unit["rss_mb"] for unit in units if "rss_mb" in unit]
    else:
        rss = [report["rss_mb"]]
    first = next(unit for unit in units if unit.get("fingerprint"))
    values.update(
        peak_rss_mb=median(rss),
        sim_wakeups=first["sim_wakeups"],
        sim_energy_j=first["sim_energy_j"],
    )
    ratios = [speed_ratio(unit["slices_s"]) for unit in units]
    samples = {
        "units": len(units),
        "setup samples": len(setup),
        "mutation calls": len(units[0]["mutation_s"]),
        "advance calls": len(units[0]["advance_s"]),
        "rss samples": len(rss),
        "host speed ratio": f"{min(ratios):.3f}-{max(ratios):.3f}",
    }
    return values, host, samples


def per_layer(workload: str, report: Dict) -> Tuple[Dict, Dict]:
    """Per-layer values, each the mean over traced units."""
    units = [unit for unit in report["units"] if not unit["warmup"]]
    traced = [unit for unit in units if unit["traced"]]
    baseline = [unit for unit in units if not unit["traced"]]
    totals = {name: 0.0 for name in PER_LAYER}
    for unit in traced:
        if workload == "serve-phone":
            daemon = unit["daemon_layers"]
            layer_values = daemon["layers"]
            covered = daemon["covered_s"]
            totals["service.wait_s"] += unit["client_s"] - covered
            totals["other_s"] += unit["wall_s"] - unit["client_s"]
        else:
            layer_values = unit["layers"]
            totals["other_s"] += unit["wall_s"] - unit["covered_s"]
        for name, value in layer_values.items():
            totals[name] += value
        totals["traced_wall_s"] += unit["wall_s"]
    values = {name: total / len(traced) for name, total in totals.items()}
    untraced_wall = sum(unit["wall_s"] for unit in baseline) / len(baseline)
    values["trace_overhead"] = values["traced_wall_s"] / untraced_wall - 1.0
    return values, {"traced units": len(traced), "untraced units": len(baseline)}


def load_fingerprints() -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def tally(
    units: List[Dict], expected: Optional[str], problems: List[str]
) -> Tuple[int, int, Dict]:
    """Attempted and failed operations over a run's units.

    ``problems`` holds one entry per lost session on entry (each one
    attempted and failed operation) and gains every unit's problem.  A
    unit whose fingerprint differs from the stored one, or from the run's
    other units, is one more failed operation.
    """
    attempted = sum(unit["attempted"] for unit in units) + len(problems)
    failed = sum(unit["failed"] for unit in units) + len(problems)
    problems.extend(unit["problem"] for unit in units if "problem" in unit)
    check = check_fingerprints([unit["fingerprint"] for unit in units], expected)
    if check["mismatches"]:
        problems.append(f"{check['mismatches']} unit(s) with a mismatching fingerprint")
    return max(1, attempted), min(attempted, failed + check["mismatches"]), check


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """Run one workload; returns the result line and the table text."""
    work = root / ".perfbench" / f"run-{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds + 2 * SESSION_GRACE_S
    setups: List[Dict] = []
    problems: List[str] = []
    report: Optional[Dict] = None

    def set_up_only(indices: range) -> None:
        for index in indices:
            timeout = min(SETUP_TIMEOUT_S, deadline - time.monotonic())
            entry, problem = run_session(
                root, work, index, workload, seed, 0.0, 0, max(timeout, 1.0)
            )
            if entry is None:
                problems.append(problem)
            else:
                setups.append(entry)

    setup_count = 0 if trace else SETUP_SAMPLES
    try:
        set_up_only(range(setup_count // 2))
        report, problem = run_session(
            root, work, setup_count, workload, seed, seconds, trace,
            max(deadline - SETUP_TIMEOUT_S - time.monotonic(), 1.0),
            warmup=WARMUP_UNITS[workload],
        )
        if report is None:
            problems.append(problem)
        set_up_only(range(setup_count // 2, setup_count))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = report["units"] if report is not None else []
    stored = load_fingerprints().get(workload, {}).get(str(seed))
    attempted, failed, check = tally(units, stored, problems)

    units_known = PER_LAYER if trace else END_TO_END
    host: Dict[str, float] = {}
    try:
        if report is None:
            raise ValueError("the measuring session failed")
        if trace:
            values, samples = per_layer(workload, report)
        else:
            values, host, samples = end_to_end(workload, setups, report)
    except (PercentileRefused, StopIteration, ValueError, ZeroDivisionError, KeyError) as error:
        raise SystemExit(f"perfbench: {workload}: cannot report metrics: {error!r}; {problems}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units_known.items()
        },
    }
    lines = [f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})"]
    for name, unit in units_known.items():
        line = f"  {name:<28} {values[name]:>14.6g} {unit}"
        if name in host:
            line = f"{line:<52} (host time: {host[name]:.6g})"
        lines.append(line)
    lines.append(f"  {'error_rate':<28} {failed / max(1, attempted):>14.6g} ratio ({failed}/{attempted})")
    lines.append("  " + ", ".join(f"{key}: {value}" for key, value in samples.items()))
    status = "stored" if check["stored"] else "not stored for this seed"
    lines.append(f"  fingerprint {check['fingerprint']} ({status}, {check['mismatches']} mismatches)")
    for problem in problems:
        lines.append(f"  problem: {problem}")
    return {"result": result, "table": lines, "fingerprint": check["fingerprint"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    history = root / ".perfbench" / "history.jsonl"
    results = []
    for workload in selected:
        outcome = run_workload(root, workload, args.seed, args.seconds, args.trace)
        stamp = provenance(root, workload, args.seed, args.trace)
        for line in outcome["table"]:
            print(line)
        print("  provenance " + json.dumps(stamp, sort_keys=True))
        history.parent.mkdir(parents=True, exist_ok=True)
        with history.open("a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"provenance": stamp, "fingerprint": outcome["fingerprint"], **outcome["result"]},
                           sort_keys=True) + "\n"
            )
        results.append(outcome["result"])
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) or len(results) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
