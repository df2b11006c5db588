#!/usr/bin/env python3
"""Collector smoke: a streaming fleet run watched live, end to end.

The CI-facing acceptance drill for the observability pipeline (what
``make collector-smoke`` runs):

1. run a sharded fleet with ``--stream``: every shard worker ships
   mergeable telemetry deltas into a spool directory while a live
   ``Collector`` tails it from this process, frame by frame;
2. assert the live view **converges to the sealed final report**: once
   every source is final, the collector's rolling counters equal the
   merged per-shard telemetry on the ``FleetReport`` — and equal what
   the run sealed into ``final.json``;
3. assert monotone convergence along the way: the rolling delivered
   count never decreased while shards streamed;
4. render the ``simty top`` screen once over the finished spool and
   scrape the same rolling view as Prometheus text;
5. write the decision-audit artifact: a fully-sampled SIMTY run whose
   Table-1 decision records land in ``collector-smoke-decisions.jsonl``
   (uploaded by CI), and assert the sampler is a pure function of the
   run digest — two runs sample identical decision sequences.

Run:  PYTHONPATH=src python scripts/collector_smoke.py
"""

import argparse
import json
import shutil
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.fleet import (  # noqa: E402
    FleetConfig,
    MICRO_ARCHETYPES,
    PopulationSpec,
    run_fleet,
)
from repro.obs import Collector, DecisionAudit, prometheus_text  # noqa: E402
from repro.runner import RunSpec  # noqa: E402
from repro.runner.executor import execute_spec  # noqa: E402


def log_line(log, message):
    stamp = time.strftime("%H:%M:%S")
    line = f"[{stamp}] {message}"
    print(line, flush=True)
    log.write(line + "\n")
    log.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=600)
    parser.add_argument("--shards", type=int, default=6)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--log", default="collector-smoke.log",
                        help="smoke log (uploaded as a CI artifact)")
    parser.add_argument("--stream-dir", default="collector-smoke-stream",
                        help="spool directory the shards stream into")
    parser.add_argument("--decisions-out",
                        default="collector-smoke-decisions.jsonl",
                        help="decision-audit JSONL (uploaded as a CI artifact)")
    args = parser.parse_args()

    population = PopulationSpec(
        size=args.devices,
        archetypes=MICRO_ARCHETYPES,
        seed=2016,
        name="collector-smoke",
    )
    stream_dir = Path(args.stream_dir)
    if stream_dir.exists():
        shutil.rmtree(stream_dir)
    fleet_dir = stream_dir.with_name(stream_dir.name + "-journals")
    if fleet_dir.exists():
        shutil.rmtree(fleet_dir)
    config = FleetConfig(
        shards=args.shards,
        workers=args.workers,
        device_retries=1,
        device_backoff_s=0.001,
        shard_retries=2,
        straggler_min_s=120.0,
        stream_dir=str(stream_dir),
        stream_interval_s=0.1,
    )

    with open(args.log, "w", encoding="utf-8") as log:
        log_line(log, f"population {population.digest()[:12]} "
                      f"({args.devices} devices, {args.shards} shards) "
                      f"streaming into {stream_dir}/")

        # 1. Fleet in a worker thread, live Collector tailing the spool.
        box = {}

        def run():
            box["report"] = run_fleet(population, config, fleet_dir=fleet_dir)

        worker = threading.Thread(target=run, daemon=True)
        started = time.perf_counter()
        worker.start()
        collector = Collector(spool_dir=stream_dir)
        frames = 0
        delivered_history = []
        while worker.is_alive():
            collector.scan()
            frames += 1
            delivered_history.append(
                collector.rolling().counter("engine.deliveries")
            )
            time.sleep(0.1)
        worker.join()
        report = box["report"]
        collector.scan()  # pick up the tail written after the last frame
        wall = time.perf_counter() - started
        log_line(log, f"fleet: {report.completed} devices in {wall:.1f}s; "
                      f"collector saw {frames} live frames")

        # 2. Convergence: live view == sealed report == final.json.
        assert collector.all_final(), collector.status()
        rolling = collector.rolling()
        merged = report.telemetry
        assert merged is not None
        assert rolling.counters == merged.counters, (
            rolling.counters, merged.counters)
        final = json.loads((stream_dir / "final.json").read_text())
        assert final["telemetry"]["counters"] == rolling.counters
        assert final["completed"] == report.completed == args.devices
        log_line(log, f"live view converged to final report: "
                      f"{rolling.counter('engine.deliveries')} deliveries, "
                      f"{rolling.counter('shard.devices')} devices, "
                      f"{len(rolling.counters)} counter cells equal")

        # 3. Monotone convergence while shards streamed.
        assert delivered_history == sorted(delivered_history), (
            "rolling delivered count went backwards")
        live_peaks = [n for n in delivered_history if n > 0]
        log_line(log, f"monotone: delivered count climbed "
                      f"{delivered_history[0]} -> {delivered_history[-1]} "
                      f"over {len(delivered_history)} frames "
                      f"({len(live_peaks)} non-empty)")

        # 4. The `simty top` screen and the Prometheus scrape.
        screen = collector.render()
        assert f"devices: {args.devices}" in screen, screen.splitlines()[0]
        assert "final" in screen
        text = prometheus_text(rolling)
        assert f"shard_devices_total{{status=\"ok\"}} {args.devices}" in text
        log_line(log, "simty-top render + prometheus scrape agree: "
                      + screen.splitlines()[0])

        # 5. Decision-audit artifact: digest-seeded, reproducible.
        spec = RunSpec(workload="heavy", policy="simty")
        seqs = []
        for _ in range(2):
            audit = DecisionAudit.for_digest(
                spec.digest(), sample_rate=1.0, capacity=1 << 16
            )
            result = execute_spec(spec, audit=audit)
            seqs.append([r.seq for r in result.trace.decisions])
        assert seqs[0] == seqs[1], "decision sampling is not reproducible"
        records = list(result.trace.decisions)
        assert records, "no decisions sampled on the heavy workload"
        with open(args.decisions_out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")
        joined = sum(1 for r in records if not r.new_entry)
        log_line(log, f"decision audit: {audit.decisions_seen} decisions, "
                      f"{joined} joins / {len(records) - joined} new entries, "
                      f"log written to {args.decisions_out}")

        log_line(log, "collector smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
