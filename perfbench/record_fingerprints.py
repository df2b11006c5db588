"""Store the simulated-output fingerprint of each (workload, seed).

Run from the repository root, at a commit whose simulated output is known
to be right::

    python3 perfbench/record_fingerprints.py --workload all --seeds 0-31

Runs one unit per seed, untimed, and writes ``fingerprints.json``.  The
benchmark then counts every unit whose fingerprint differs as a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import FINGERPRINTS, WORKLOADS, load_fingerprints  # noqa: E402


def seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def fingerprint_of(workload: str, seed: int, scratch: Path) -> str:
    inputs = workloads.build_inputs(workload, seed)
    if workload == "serve-phone":
        import serve

        unit = serve.run_serve_unit(inputs, ROOT, scratch, traced=False)
    elif workload == "batch-pair":
        unit = workloads.run_batch_unit(inputs, scratch)
    else:
        unit = workloads.run_fleet_unit(inputs, scratch)
    if unit.get("failed") or not unit.get("fingerprint"):
        raise SystemExit(f"{workload} seed {seed}: unit failed: {unit.get('problem')}")
    return unit["fingerprint"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="record_fingerprints.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-31")
    args = parser.parse_args(argv)
    stored = load_fingerprints()
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for workload in selected:
            for seed in args.seeds:
                value = fingerprint_of(workload, seed, Path(workdir))
                stored.setdefault(workload, {})[str(seed)] = value
                print(workload, seed, value, flush=True)
    FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
