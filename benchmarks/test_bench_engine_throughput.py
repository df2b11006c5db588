"""Engine throughput bench: dispatch events/sec with an enforced floor.

Drives the heavy workload through the engine two ways — the batch
:meth:`~repro.simulator.engine.Simulator.run` loop and the decomposed
``start()``/``step()``/``finish()`` stepping driver the service daemon
uses — and writes ``BENCH_engine_throughput.json`` at the repo root.
One measurement is :data:`RUNS` back-to-back heavy runs (about a second
of timed work, each on a freshly built simulator, building untimed), so
a 10% change stands above timer and scheduler noise.  A shared host's
speed still moves between recordings, so a reference slice
(``perfbench/hostspeed.reference_slice``) is timed before every run,
outside the timed span, and the report gives each figure twice: raw, and
scaled to the reference host (``speed_ratio`` over the measurement's
slices).  CI runs ``test_engine_events_per_second_floor`` and fails the
build when either driver's raw figure drops below
:data:`FLOOR_EVENTS_PER_S`, the guard that instrumentation hooks
(telemetry, the decision audit) stay zero-cost on the uninstrumented hot
path.

The floor sits well under observed: a 2-vCPU shared VM clears ~20-27k
dispatch events/s with the one-list queue kernel, depending on the
host's speed at the time (~15k before the integer insert path, ~5.7k
before cached entry attributes and the indexed queue backend), so a
busy CI runner keeps a wide margin.
"""

import sys
import time
from pathlib import Path

from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator, SimulatorConfig

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import reference_slice, speed_ratio  # noqa: E402

REPORT_PATH = ROOT / "BENCH_engine_throughput.json"

#: CI-enforced minimum engine throughput, dispatch events per second.
FLOOR_EVENTS_PER_S = 8_000.0

#: Heavy runs per measurement: ~1 s of timed work on a 2-vCPU VM.
RUNS = 32

WORKLOAD = "heavy"
POLICY = "simty"


def _build() -> Simulator:
    workload = DEFAULT_REGISTRY.build_workload(WORKLOAD, None)
    policy = DEFAULT_REGISTRY.create_policy(POLICY)
    simulator = Simulator(
        policy, config=SimulatorConfig(horizon=workload.horizon)
    )
    workload.apply(simulator)
    return simulator


def _drive_batch(simulator: Simulator) -> None:
    simulator.run()


def _drive_stepping(simulator: Simulator) -> None:
    simulator.start()
    while simulator.step() is not None:
        pass
    simulator.finish()


def _measure(driver) -> dict:
    best = None
    for _ in range(2):  # best-of-2: absorb one unlucky scheduler stall
        events = deliveries = 0
        wall = 0.0
        slices = []
        for _ in range(RUNS):
            simulator = _build()
            slices.append(reference_slice())  # between runs, never inside
            started = time.perf_counter()
            driver(simulator)
            wall += time.perf_counter() - started
            events += simulator._events
            deliveries += simulator.trace.delivery_count()
        assert events > 500 * RUNS
        assert deliveries > 500 * RUNS
        rate = events / wall
        ratio = speed_ratio(slices)
        if best is None or rate > best["events_per_s"]:
            best = {
                "events": events,
                "deliveries": deliveries,
                "wall_s": round(wall, 4),
                "events_per_s": round(rate, 1),
                "host_speed_ratio": round(ratio, 3),
                "events_per_s_at_reference": round(rate * ratio, 1),
            }
    return best


def test_engine_events_per_second_floor(emit, write_report):
    batch = _measure(_drive_batch)
    stepping = _measure(_drive_stepping)

    # The two drivers execute the same schedule: same dispatch-event and
    # delivery counts, or one of them is skipping (or inventing) work.
    assert batch["events"] == stepping["events"]
    assert batch["deliveries"] == stepping["deliveries"]

    payload = {
        "unit": f"dispatch events per second, best of 2 x {RUNS} heavy runs",
        "workload": WORKLOAD,
        "policy": POLICY,
        "floor_events_per_s": FLOOR_EVENTS_PER_S,
        "batch": batch,
        "stepping": stepping,
    }
    write_report(REPORT_PATH, payload)

    emit(
        f"engine throughput: batch {batch['events_per_s']:.0f} ev/s "
        f"({batch['events_per_s_at_reference']:.0f} at reference speed), "
        f"stepping {stepping['events_per_s']:.0f} ev/s "
        f"({stepping['events_per_s_at_reference']:.0f} at reference speed) "
        f"({batch['events']} events, {batch['deliveries']} deliveries, "
        f"floor {FLOOR_EVENTS_PER_S:.0f}/s)"
    )
    for name, result in (("batch", batch), ("stepping", stepping)):
        assert result["events_per_s"] >= FLOOR_EVENTS_PER_S, (
            f"{name} driver throughput {result['events_per_s']:.1f} "
            f"events/s fell below the enforced floor of "
            f"{FLOOR_EVENTS_PER_S}; see BENCH_engine_throughput.json"
        )
