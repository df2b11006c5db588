"""Chaos harness: fault-injecting workloads that drive the supervisor.

The harness registers one extra workload, ``"chaos"``, on the *default*
registry so that forked attempts (which rebuild specs through the default
registry, inherited via fork) see the same faults as the serial path.  The
builder consults its kwargs to decide how to misbehave:

* ``mode="ok"`` — build a small healthy synthetic workload;
* ``mode="crash"`` — raise ``RuntimeError`` (a poisoned spec);
* ``mode="flaky"`` — crash the first ``fail_times`` attempts, tracked
  through an on-disk counter file so retries (including cross-process
  resubmissions) observe each other, then succeed;
* ``mode="hang"`` — sleep ``sleep_s`` before building (a stuck run for
  the timeout path to quarantine);
* ``mode="kill"`` — ``os._exit`` the process, which on the pool path is
  a child that exits without a result: ``FAILED``, its exit code named
  in the error (the WakeScope-style "worker just died" case).

``corrupt_cache_entry`` truncates/garbles a ``<digest>.pkl`` on disk to
exercise the cache's quarantine path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.runner import DEFAULT_REGISTRY, RunSpec
from repro.workloads.synthetic import SyntheticConfig, generate

CHAOS_WORKLOAD = "chaos"

#: Small but real: enough alarms that the run produces nonzero metrics.
_HEALTHY = dict(app_count=3, horizon=600_000, period_range_s=(60, 120))


def _bump_counter(counter_path: str) -> int:
    """Increment an attempt counter shared across processes via the fs."""
    path = Path(counter_path)
    count = int(path.read_text() or "0") if path.exists() else 0
    count += 1
    path.write_text(str(count))
    return count


def build_chaos(
    config=None,
    *,
    seed=None,
    mode: str = "ok",
    sleep_s: float = 0.0,
    fail_times: int = 0,
    counter_path: str = "",
    marker: int = 0,
):
    """The fault-injecting workload builder (see module docstring).

    ``marker`` only differentiates spec digests so one test can schedule
    several otherwise-identical chaos runs.
    """
    del marker  # digest salt only
    if mode == "crash":
        raise RuntimeError("chaos: injected crash")
    if mode == "flaky":
        attempt = _bump_counter(counter_path)
        if attempt <= fail_times:
            raise RuntimeError(f"chaos: flaky attempt {attempt}/{fail_times}")
    if mode == "hang":
        time.sleep(sleep_s)
    if mode == "kill":
        os._exit(42)
    return generate(SyntheticConfig(**_HEALTHY), seed=seed or 1)


def install() -> None:
    """Idempotently register the chaos workload on the default registry.

    Registration must live on the *default* registry for forked attempts
    to see it (inherited via fork); tests scope it with the
    ``chaos_workload`` fixture so the pollution never outlives a test —
    the registry listing and CLI ``--workload`` choices stay clean.
    """
    DEFAULT_REGISTRY.register_workload(
        CHAOS_WORKLOAD, build_chaos, replace=True
    )


def uninstall() -> None:
    DEFAULT_REGISTRY.unregister_workload(CHAOS_WORKLOAD)


def chaos_spec(mode: str = "ok", *, marker: int = 0, **kwargs) -> RunSpec:
    """A RunSpec driving the chaos builder with the given fault mode."""
    workload_kwargs = {"mode": mode, "marker": marker, **kwargs}
    return RunSpec(
        workload=CHAOS_WORKLOAD,
        policy="native",
        workload_kwargs=workload_kwargs,
        seed=1,
    )


def corrupt_cache_entry(
    cache_dir, digest: str, payload: bytes = b"not a pickle \x00\xff"
) -> Path:
    """Overwrite ``<digest>.pkl`` with garbage, returning its path."""
    path = Path(cache_dir) / f"{digest}.pkl"
    path.write_bytes(payload)
    return path


def truncate_cache_entry(cache_dir, digest: str, keep_bytes: int = 12) -> Path:
    """Truncate ``<digest>.pkl`` mid-stream (a torn write), return its path."""
    path = Path(cache_dir) / f"{digest}.pkl"
    data = path.read_bytes()
    path.write_bytes(data[:keep_bytes])
    return path
