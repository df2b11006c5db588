"""P1 — policy computation overhead.

The paper argues realignment costs only "slight computation overhead"
(Sec. 2.1).  These micro-benchmarks time a single insert against queues of
growing size for each policy — the operation the alarm manager performs on
every registration and reinsertion — on both scheduling-kernel backends.

``test_backend_speedup_at_scale`` additionally measures the list/indexed
ratio at 1k and 10k alarms and commits the numbers to
``BENCH_queue_backend.json`` at the repo root: the indexed backend must be
at least 5x faster at 10k and never slower at 1k.  The same report keeps
the short-queue crossover, 2 to 128 alarms: the list backend beside the
indexed backend forced into each of its regimes (the in-order scan and the
end index).  ``repro.core.backend.SHORT_QUEUE`` is chosen from that table.
"""

import time
from pathlib import Path

import pytest

from repro.core import backend as backend_module
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


#: Queue sizes of the short-queue crossover table.
CROSSOVER_SIZES = (2, 4, 8, 16, 32, 64, 128)
#: Each variant's backend and, for the indexed backend, the ``SHORT_QUEUE``
#: that forces it into one regime.
CROSSOVER_VARIANTS = {
    "list": ("list", None),
    "indexed-scan": ("indexed", 1 << 30),
    "indexed-index": ("indexed", 0),
}


def _crossover_row(policy_cls, size, monkeypatch, reps=7, inner=2_000):
    """Seconds per insert+remove at ``size`` alarms: the list backend and
    the indexed backend in each regime, best of ``reps`` interleaved
    rounds so a slow stretch of the host hits every variant.  The probe
    lands mid-queue, where a re-registered alarm usually goes."""
    probe = make_alarm(
        nominal=1_000 + size * 1_700 // 2, window=800, grace=30_000, label="probe"
    )

    def regime(limit):
        # Built and timed in one regime: a queue built past SHORT_QUEUE
        # keeps its end index, which a forced scan would then maintain.
        if limit is not None:
            monkeypatch.setattr(backend_module, "SHORT_QUEUE", limit)

    queues = {}
    for name, (backend, limit) in CROSSOVER_VARIANTS.items():
        regime(limit)
        policy = policy_cls(queue_backend=backend)
        queues[name] = (policy, build_queue(policy, size))
    best = dict.fromkeys(CROSSOVER_VARIANTS, float("inf"))
    for _ in range(reps):
        for name, (_, limit) in CROSSOVER_VARIANTS.items():
            regime(limit)
            policy, queue = queues[name]
            start = time.perf_counter()
            for _ in range(inner):
                policy.insert(queue, probe, 0)
                queue.remove_alarm(probe)
            best[name] = min(best[name], (time.perf_counter() - start) / inner)
    monkeypatch.undo()
    return best


def test_backend_speedup_at_scale(emit, write_report, monkeypatch):
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
    crossover = report["crossover"] = {
        "unit": "seconds per insert+remove, mid-queue probe, best of 7 reps",
        "short_queue": backend_module.SHORT_QUEUE,
        "cells": [],
    }
    for policy_cls, policy_name in ((NativePolicy, "native"), (SimtyPolicy, "simty")):
        for size in CROSSOVER_SIZES:
            row = _crossover_row(policy_cls, size, monkeypatch)
            crossover["cells"].append(
                {
                    "policy": policy_name,
                    "alarms": size,
                    **{f"{name}_seconds": seconds for name, seconds in row.items()},
                    "index_over_scan": round(
                        row["indexed-index"] / row["indexed-scan"], 2
                    ),
                }
            )
    write_report(REPORT_PATH, report)

    lines = ["backend speedup (list time / indexed time):"]
    for (policy, size), value in sorted(speedups.items()):
        lines.append(f"  {policy:8s} n={size:6d}  {value:7.1f}x")
    lines.append(
        "short-queue crossover (us per insert+remove; index/scan > 1: scan wins):"
    )
    for cell in crossover["cells"]:
        lines.append(
            f"  {cell['policy']:8s} n={cell['alarms']:6d}"
            f"  list {cell['list_seconds'] * 1e6:7.2f}"
            f"  scan {cell['indexed-scan_seconds'] * 1e6:7.2f}"
            f"  index {cell['indexed-index_seconds'] * 1e6:7.2f}"
            f"  index/scan {cell['index_over_scan']:5.2f}"
        )
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
