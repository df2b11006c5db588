"""Fleet throughput bench: devices/sec with an enforced floor.

Runs a micro-archetype population through the sharded executor (worker
processes, journals, per-device reduction — the whole robustness stack)
and writes ``BENCH_fleet.json`` at the repo root.  CI runs
``test_fleet_devices_per_second_floor`` and fails the build when
throughput drops below :data:`FLOOR_DEVICES_PER_S` — the guard that the
fault-tolerance layers (fsync'd journals, supervision, reduction)
never quietly eat an order of magnitude of fleet throughput.

The floor is about a third of the best-of-2 measured on a 2-vCPU shared
VM (~1,700 devices/s, single runs 1,050-2,200): micro devices simulate in
well under a millisecond, so the margin absorbs a slower CI runner.

The same population also runs once in-process (``workers=0``) with a
``gc.callbacks`` hook that counts the cyclic collector's passes and the
objects they find.  A finished device holds no reference cycle, so it is
freed by reference counting alone and the collector finds nothing; the
test fails if a device's graph becomes cyclic garbage again (a back
reference from an alarm to its simulator once made every device's
simulator, queues, monitor and trace collectable only by the cyclic GC).
"""

import dataclasses
import gc
import tempfile
import time
from pathlib import Path

from repro.fleet import FleetConfig, make_population, run_fleet

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: CI-enforced minimum merged-fleet throughput, devices per second.
FLOOR_DEVICES_PER_S = 550.0

DEVICES = 600
CONFIG = FleetConfig(
    shards=6,
    workers=2,
    device_backoff_s=0.001,
    straggler_min_s=120.0,
)


def collector_load(population):
    """Cyclic-GC passes and objects found per device, in one process."""
    seen = {"collections": 0, "collected": 0}

    def watch(phase, info):
        if phase == "stop":
            seen["collections"] += 1
            seen["collected"] += info["collected"]

    gc.collect()
    gc.callbacks.append(watch)
    try:
        with tempfile.TemporaryDirectory() as fleet_dir:
            report = run_fleet(
                population,
                dataclasses.replace(CONFIG, workers=0),
                fleet_dir=fleet_dir,
            )
    finally:
        gc.callbacks.remove(watch)
    assert report.completed == population.size
    return {
        "devices": population.size,
        "collections": seen["collections"],
        "collected": seen["collected"],
        "collections_per_device": round(
            seen["collections"] / population.size, 3
        ),
        "collected_per_device": round(seen["collected"] / population.size, 3),
    }


def test_fleet_devices_per_second_floor(emit, write_report):
    population = make_population(DEVICES, archetypes="micro", seed=0)
    best = None
    for _ in range(2):  # best-of-2: absorb one unlucky scheduler stall
        with tempfile.TemporaryDirectory() as fleet_dir:
            started = time.perf_counter()
            report = run_fleet(population, CONFIG, fleet_dir=fleet_dir)
            wall = time.perf_counter() - started
        assert report.completed == DEVICES
        assert report.shard_stats["failed"] == 0
        rate = DEVICES / wall
        if best is None or rate > best["devices_per_s"]:
            best = {
                "devices": DEVICES,
                "shards": CONFIG.shards,
                "workers": CONFIG.workers,
                "wall_s": round(wall, 3),
                "devices_per_s": round(rate, 1),
            }

    collector = collector_load(population)

    payload = {
        "unit": "devices per second, best of 2 full fleet runs",
        "floor_devices_per_s": FLOOR_DEVICES_PER_S,
        "result": best,
        "collector": collector,
    }
    write_report(REPORT_PATH, payload)

    emit(
        f"fleet throughput: {best['devices_per_s']:.0f} devices/s "
        f"({DEVICES} devices, {CONFIG.shards} shards x "
        f"{CONFIG.workers} workers, wall {best['wall_s']:.2f}s, "
        f"floor {FLOOR_DEVICES_PER_S:.0f}/s); cyclic GC in-process: "
        f"{collector['collections']} passes, "
        f"{collector['collected']} objects found"
    )
    assert collector["collected"] == 0, (
        f"the cyclic collector found {collector['collected']} objects over "
        f"{DEVICES} in-process devices; a finished device must be freed by "
        "reference counting alone (a reference cycle crept back into a run)"
    )
    assert best["devices_per_s"] >= FLOOR_DEVICES_PER_S, (
        f"fleet throughput {best['devices_per_s']:.1f} devices/s fell below "
        f"the enforced floor of {FLOOR_DEVICES_PER_S}; see BENCH_fleet.json"
    )
