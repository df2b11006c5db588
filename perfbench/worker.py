"""One benchmark session: set up once, then run units until the budget.

Started by ``run.py`` as a fresh interpreter, so set-up (imports and input
compilation) is paid, and measured, in every session.  With ``--budget 0``
the session only sets up (and, for the served phone, boots a daemon and
stops it again).  Writes a JSON report of its set-up time and of every
unit it ran to ``--out``.

In an untraced session the in-process workloads run under latency
probes (see ``layers.Probe``), and every untraced unit and every set-up
takes host-speed slices (see ``hostspeed``).  In a traced session units
alternate:
untraced (the baseline for the tracing overhead), then traced with every
layer span installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _run_unit(workload: str, inputs, scratch: Path, traced: bool) -> dict:
    import hostspeed
    import layers
    import workloads

    # Traced units take no host-speed slices: their time goes to the layers.
    meter = hostspeed.SpeedMeter()
    runner = (
        workloads.run_batch_unit if workload == "batch-pair" else workloads.run_fleet_unit
    )
    if workload == "serve-phone":
        import serve

        try:
            unit = serve.run_serve_unit(
                inputs, ROOT, scratch, traced, meter=None if traced else meter
            )
        except Exception as error:  # noqa: BLE001 - a failed unit is counted, not fatal
            return workloads.failed_unit(len(inputs), error)
    elif traced:
        tracer = layers.Tracer()
        unit = runner(inputs, scratch, around=lambda: layers.install(tracer))
        unit["layers"] = tracer.report()
        unit["covered_s"] = tracer.covered_s
    else:
        probe = layers.Probe(policy=workloads.PROBED_POLICY[workload], meter=meter)
        unit = runner(inputs, scratch, around=probe.install)
        unit["mutation_s"] = probe.samples["mutation"]
        unit["advance_s"] = probe.samples["advance"]
        unit["ratios"] = probe.ratios
    unit["slices_s"] = meter.slices
    if unit["wall_s"] > 0:
        unit["wall_s"] -= meter.spent_s
    return unit


def pin_to_one_cpu() -> None:
    """Keep this session, and the daemon it starts, on one CPU.

    The served phone is a closed loop of two processes.  On a small VM a
    round trip between two CPUs includes waking the idle one, which the
    host schedules when it can; on one CPU it is a context switch.  The
    in-process workloads run one busy thread and lose nothing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--budget", type=float, required=True, help="seconds of units; 0 = set up only"
    )
    parser.add_argument("--warmup", type=int, default=0, help="unmeasured units first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    from hostspeed import SETUP_SLICES, reference_slice

    # The host's speed around the set-up: slices before it (their time is
    # taken out of the set-up) and after it.
    slices = [reference_slice() for _ in range(SETUP_SLICES)]
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at - sum(slices)
    report = {"setup_s": setup_s, "units": []}
    scratch = Path(args.scratch)

    if args.budget <= 0:
        if args.workload == "serve-phone":
            import serve

            report["boot_s"] = serve.boot_only(ROOT, scratch)
        slices += [reference_slice() for _ in range(SETUP_SLICES)]
        report["slices_s"] = slices
        Path(args.out).write_text(json.dumps(report), encoding="utf-8")
        return 0

    units = report["units"]
    for _ in range(args.warmup):
        unit = _run_unit(args.workload, inputs, scratch, False)
        unit.update(traced=False, warmup=True)
        units.append(unit)
    traced_next = False
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and traced_next
        unit = _run_unit(args.workload, inputs, scratch, traced)
        unit.update(traced=traced, warmup=False)
        units.append(unit)
        if "rss_mb" not in report:
            # Peak RSS after one measured unit: later units only add the
            # benchmark's own samples, which grow with the unit count.
            report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            traced_next = not traced_next
        spent = time.monotonic() - started
        # A traced session always ends on a traced unit, so each traced
        # unit has an untraced one to compare with.
        if spent >= args.budget and not traced_next:
            break

    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
