#!/usr/bin/env python3
"""Fleet smoke: a 10k-device population under kill + corruption chaos.

The CI-facing acceptance drill for the fleet layer (what ``make
fleet-smoke`` runs):

1. run a 10k-device micro-archetype population (with a poison archetype
   riding along, so quarantine accounting is exercised) *uninterrupted*
   — the reference report;
2. run the same population with chaos: five shard workers ``os._exit``
   mid-flight (SIGKILL-equivalent, torn journal tails), bounded shard
   retries bringing the fleet home — assert the merged report is
   **byte-identical** to the reference;
3. corrupt three of the surviving shard journals on disk (garbage,
   truncation, deletion) and ``--resume``: only the damaged shards
   re-run, and the report is byte-identical again;
4. assert quarantine and coverage accounting: every poison device is
   listed with its reproducer digest, and attempted = completed +
   quarantined.

Shard journals stay in --journal-dir and quarantine reproducers in its
``quarantine/`` subdir so CI uploads both as artifacts on failure.

Run:  PYTHONPATH=src python scripts/fleet_smoke.py
"""

import argparse
import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.durable import damage_log  # noqa: E402
from repro.fleet import (  # noqa: E402
    FleetChaos,
    FleetConfig,
    MICRO_ARCHETYPES,
    PopulationSpec,
    poison_archetype,
    run_fleet,
    shard_journal_path,
)

KILLED_SHARDS = {0: 1, 3: 1, 5: 2, 8: 1, 11: 1}  # 5 shards, 6 kills
CORRUPTIONS = [(1, "garbage"), (4, "truncate"), (9, "delete")]


def log_line(log, message):
    stamp = time.strftime("%H:%M:%S")
    line = f"[{stamp}] {message}"
    print(line, flush=True)
    log.write(line + "\n")
    log.flush()


def payload(report):
    return json.dumps(report.deterministic_payload(), sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=10_000)
    parser.add_argument("--shards", type=int, default=12)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--log", default="fleet-smoke.log",
                        help="smoke log (uploaded as a CI artifact)")
    parser.add_argument("--journal-dir", default="fleet-smoke-journals",
                        help="chaos run's fleet dir (journals + quarantine)")
    args = parser.parse_args()

    population = PopulationSpec(
        size=args.devices,
        archetypes=MICRO_ARCHETYPES + (poison_archetype(weight=0.002),),
        seed=2016,
        name="fleet-smoke",
    )
    base = FleetConfig(
        shards=args.shards,
        workers=args.workers,
        device_retries=1,
        device_backoff_s=0.001,
        shard_retries=2,
        straggler_min_s=120.0,
    )

    journal_dir = Path(args.journal_dir)
    if journal_dir.exists():
        shutil.rmtree(journal_dir)
    reference_dir = journal_dir.with_name(journal_dir.name + "-reference")
    if reference_dir.exists():
        shutil.rmtree(reference_dir)

    with open(args.log, "w", encoding="utf-8") as log:
        log_line(log, f"population {population.digest()[:12]} "
                      f"({args.devices} devices, {args.shards} shards)")

        # 1. Uninterrupted reference.
        started = time.perf_counter()
        reference = run_fleet(population, base, fleet_dir=reference_dir)
        log_line(log, f"reference: {reference.completed} completed / "
                      f"{reference.quarantined} quarantined in "
                      f"{time.perf_counter() - started:.1f}s "
                      f"({reference.devices_per_s:.0f} devices/s)")
        assert reference.shard_stats["failed"] == 0

        # 2. Chaos run: five shards killed mid-flight, retries recover.
        chaos = dataclasses.replace(
            base,
            chaos=FleetChaos(kill_shards=KILLED_SHARDS, kill_after_devices=50),
        )
        started = time.perf_counter()
        chaotic = run_fleet(population, chaos, fleet_dir=journal_dir)
        kills = sum(KILLED_SHARDS.values())
        log_line(log, f"chaos: {kills} worker kills across "
                      f"{len(KILLED_SHARDS)} shards, "
                      f"{chaotic.shard_stats['retried']} shard retries, "
                      f"{time.perf_counter() - started:.1f}s")
        assert chaotic.shard_stats["retried"] == kills, (
            chaotic.shard_stats, kills)
        if payload(chaotic) != payload(reference):
            log_line(log, "FAIL: chaos-run report differs from reference")
            return 1
        log_line(log, "chaos-run report byte-identical to reference")

        # 3. Corrupt surviving journals, resume, compare again.
        for shard, mode in CORRUPTIONS:
            damage_log(shard_journal_path(journal_dir, shard), mode)
        log_line(log, f"corrupted journals: {CORRUPTIONS}")
        started = time.perf_counter()
        resumed = run_fleet(
            population, base, fleet_dir=journal_dir, resume=True
        )
        expected_rerun = len(CORRUPTIONS)
        log_line(log, f"resume: {resumed.shard_stats['resumed']} shards "
                      f"trusted, {resumed.shard_stats['completed']} re-run, "
                      f"{time.perf_counter() - started:.1f}s")
        assert resumed.shard_stats["completed"] == expected_rerun
        assert resumed.shard_stats["resumed"] == args.shards - expected_rerun
        if payload(resumed) != payload(reference):
            log_line(log, "FAIL: resumed report differs from reference")
            return 1
        log_line(log, "resumed report byte-identical to reference")

        # 4. Quarantine + coverage accounting.
        assert reference.quarantined > 0, "poison archetype never sampled"
        assert reference.attempted_devices == (
            reference.completed + reference.quarantined
        )
        for record in reference.summary.quarantined:
            assert population.device(record.device).digest == record.digest
        reproducers = list((journal_dir / "quarantine").glob("device-*.json"))
        assert len(reproducers) == reference.quarantined, (
            len(reproducers), reference.quarantined)
        log_line(log, f"{reference.quarantined} poison devices quarantined "
                      f"with reproducer digests; coverage "
                      f"{reference.coverage:.4f}")

        log_line(log, "fleet smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
