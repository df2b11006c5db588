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
"""

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

    payload = {
        "unit": "devices per second, best of 2 full fleet runs",
        "floor_devices_per_s": FLOOR_DEVICES_PER_S,
        "result": best,
    }
    write_report(REPORT_PATH, payload)

    emit(
        f"fleet throughput: {best['devices_per_s']:.0f} devices/s "
        f"({DEVICES} devices, {CONFIG.shards} shards x "
        f"{CONFIG.workers} workers, wall {best['wall_s']:.2f}s, "
        f"floor {FLOOR_DEVICES_PER_S:.0f}/s)"
    )
    assert best["devices_per_s"] >= FLOOR_DEVICES_PER_S, (
        f"fleet throughput {best['devices_per_s']:.1f} devices/s fell below "
        f"the enforced floor of {FLOOR_DEVICES_PER_S}; see BENCH_fleet.json"
    )
