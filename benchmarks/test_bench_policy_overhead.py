"""P1 — policy computation overhead.

The paper argues realignment costs only "slight computation overhead"
(Sec. 2.1).  These micro-benchmarks time a single insert against queues of
growing size for each policy — the operation the alarm manager performs on
every registration and reinsertion — on both scheduling-kernel backends.

``test_backend_speedup_at_scale`` additionally measures the list/indexed
ratio at 1k and 10k alarms and commits the numbers to
``BENCH_queue_backend.json`` at the repo root: the indexed backend must be
at least 5x faster at 10k and never slower at 1k.
"""

import time
from pathlib import Path

import pytest

from repro.core.alarm import Alarm, RepeatKind
from repro.core.backend import BACKEND_NAMES
from repro.core.exact import ExactPolicy
from repro.core.hardware import WIFI_ONLY
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy

REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_queue_backend.json"


def make_alarm(nominal, window, grace, label="bench"):
    return Alarm(
        app="bench",
        label=label,
        nominal_time=nominal,
        repeat_interval=60_000,
        window_length=window,
        grace_length=grace,
        repeat_kind=RepeatKind.STATIC,
        hardware=WIFI_ONLY,
        hardware_known=True,
    )


def build_queue(policy, size, seed_step=1_700):
    queue = policy.make_queue()
    for index in range(size):
        policy.insert(
            queue,
            make_alarm(
                nominal=1_000 + index * seed_step,
                window=(index % 4) * 400,
                grace=30_000,
                label=f"seed{index}",
            ),
            0,
        )
    return queue


@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
@pytest.mark.parametrize("size", [10, 100, 500])
@pytest.mark.parametrize(
    "policy_factory", [NativePolicy, SimtyPolicy, ExactPolicy],
    ids=["native", "simty", "exact"],
)
def test_bench_insert_cost(benchmark, policy_factory, size, backend):
    policy = policy_factory(queue_backend=backend)
    queue = build_queue(policy, size)
    probe = make_alarm(nominal=500_000, window=800, grace=30_000, label="probe")

    def insert_and_remove():
        # Remove the probe again so the queue size stays fixed across
        # benchmark rounds; removal is part of every re-registration anyway.
        policy.insert(queue, probe, 0)
        queue.remove_alarm(probe)

    benchmark(insert_and_remove)
    assert queue.alarm_count() == size


def _time_insert(policy, queue, reps=5):
    """Best-of-``reps`` seconds for one insert+remove round trip."""
    probe = make_alarm(nominal=500_000, window=800, grace=30_000, label="probe")
    inner = max(3, 20_000 // queue.alarm_count())
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            policy.insert(queue, probe, 0)
            queue.remove_alarm(probe)
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def test_backend_speedup_at_scale(emit, write_report):
    """Indexed backend: >=5x faster at 10k alarms, never slower at 1k."""
    report = {"unit": "seconds per insert+remove, best of 5 reps", "cells": []}
    speedups = {}
    for policy_cls, policy_name in ((NativePolicy, "native"), (SimtyPolicy, "simty")):
        for size in (1_000, 10_000):
            timings = {}
            for backend in ("list", "indexed"):
                policy = policy_cls(queue_backend=backend)
                build_start = time.perf_counter()
                queue = build_queue(policy, size)
                build_seconds = time.perf_counter() - build_start
                timings[backend] = _time_insert(policy, queue)
                report["cells"].append(
                    {
                        "policy": policy_name,
                        "backend": backend,
                        "alarms": size,
                        "insert_seconds": timings[backend],
                        "build_seconds": round(build_seconds, 3),
                    }
                )
            speedup = timings["list"] / timings["indexed"]
            speedups[(policy_name, size)] = speedup
            report["cells"][-1]["speedup_vs_list"] = round(speedup, 1)

    report["speedups"] = {
        f"{policy}@{size}": round(value, 1)
        for (policy, size), value in speedups.items()
    }
    write_report(REPORT_PATH, report)

    lines = ["backend speedup (list time / indexed time):"]
    for (policy, size), value in sorted(speedups.items()):
        lines.append(f"  {policy:8s} n={size:6d}  {value:7.1f}x")
    emit("\n".join(lines))

    for (policy, size), value in speedups.items():
        if size >= 10_000:
            assert value >= 5.0, (
                f"{policy} indexed backend only {value:.1f}x at {size} alarms"
            )
        else:
            assert value >= 1.0, (
                f"{policy} indexed backend slower than list at {size} alarms"
            )
