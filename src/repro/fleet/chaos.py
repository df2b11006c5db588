"""Fleet chaos: kill shard workers mid-flight, poison devices.

The runner-level chaos harness (``tests/runner/chaos.py``) injects faults
*per spec*; fleet chaos injects them *per shard* — the failure unit the
fleet executor supervises.  Faults come in two flavours:

* **Worker faults** (:class:`FleetChaos`): a plain-data plan carried on
  :class:`~repro.fleet.executor.FleetConfig` telling shard workers to
  ``os._exit`` (SIGKILL-equivalent: no cleanup, a torn journal tail) or
  stall mid-shard on specific attempts.  The plan is config, not
  population, so it never touches device digests — a chaos-killed,
  resumed fleet must produce a report byte-identical to a clean run.
* **Poison devices**: the ``"fleet-chaos"`` registry workload builds
  healthy micro-devices or deterministically crashes, driving the
  executor's per-device quarantine path.  Registered on the default
  registry (idempotently) only when a population actually references it.

Damaged shard journals come from :func:`repro.durable.damage_log`, the
one on-disk damage helper every durable log's tests share.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Tuple, Union

from ..runner.registry import DEFAULT_REGISTRY
from ..workloads.scenarios import Workload
from ..workloads.synthetic import SyntheticConfig, generate
from .population import DeviceArchetype

#: Registry name of the fault-injecting device workload.
FLEET_CHAOS_WORKLOAD = "fleet-chaos"


def build_fleet_chaos(
    config=None,
    *,
    seed=None,
    mode: str = "ok",
    app_count: int = 2,
    horizon: int = 120_000,
    period_range_s: Tuple[int, int] = (30, 90),
    sleep_s: float = 0.0,
    marker: int = 0,
) -> Workload:
    """Build a healthy micro-device, or misbehave per ``mode``.

    ``"ok"`` builds; ``"crash"`` raises (a poison device the executor
    must quarantine, not retry forever); ``"hang"`` sleeps ``sleep_s``
    first (a per-device timeout target).  ``marker`` only salts digests.
    """
    del marker
    if mode == "crash":
        raise RuntimeError("fleet-chaos: poison device")
    if mode == "hang":
        time.sleep(sleep_s)
    elif mode != "ok":
        raise ValueError(f"unknown fleet-chaos mode {mode!r}")
    return generate(
        SyntheticConfig(
            app_count=app_count,
            horizon=horizon,
            period_range_s=tuple(period_range_s),
        ),
        seed=seed if seed is not None else 1,
    )


def install_chaos_workload() -> None:
    """Idempotently register ``fleet-chaos`` on the default registry.

    Shard workers call this before building devices so populations
    holding poison archetypes resolve in any process, fork or spawn.
    """
    DEFAULT_REGISTRY.register_workload(
        FLEET_CHAOS_WORKLOAD, build_fleet_chaos, replace=True
    )


def uninstall_chaos_workload() -> None:
    """Remove ``fleet-chaos`` from the default registry (test hygiene:
    the CLI's ``--workload`` choices must never grow a chaos entry)."""
    DEFAULT_REGISTRY.unregister_workload(FLEET_CHAOS_WORKLOAD)


def poison_archetype(
    weight: float = 0.01, name: str = "poison"
) -> DeviceArchetype:
    """An archetype whose every device crashes on build (quarantine bait)."""
    return DeviceArchetype(
        name=name,
        weight=weight,
        workload=FLEET_CHAOS_WORKLOAD,
        policy="native",
        workload_kwargs={"mode": "crash"},
    )


# ----------------------------------------------------------------------
# Worker-level fault plan
# ----------------------------------------------------------------------
KillPlan = Union[Mapping[int, int], Tuple[Tuple[int, int], ...]]


def _freeze_plan(plan: KillPlan) -> Tuple[Tuple[int, int], ...]:
    if isinstance(plan, Mapping):
        items = plan.items()
    else:
        items = tuple(plan)
    return tuple(sorted((int(shard), int(n)) for shard, n in items))


@dataclass(frozen=True)
class FleetChaos:
    """A deterministic worker-fault plan, keyed by (shard, attempt).

    ``kill_shards`` maps shard id -> number of attempts to kill: attempt
    1..n of that shard ``os._exit``\\ s after processing
    ``kill_after_devices`` devices — mid-flight, with journal lines
    already written and the seal never reached.  ``hang_shards`` maps
    shard id -> number of attempts that sleep ``hang_s`` before device
    work, for straggler-detection tests.  Exit code 137 mimics SIGKILL.
    """

    kill_shards: KillPlan = ()
    kill_after_devices: int = 1
    hang_shards: KillPlan = ()
    hang_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kill_shards", _freeze_plan(self.kill_shards)
        )
        object.__setattr__(
            self, "hang_shards", _freeze_plan(self.hang_shards)
        )

    def _lookup(self, plan: Tuple[Tuple[int, int], ...], shard: int) -> int:
        for entry, n in plan:
            if entry == shard:
                return n
        return 0

    def should_kill(self, shard: int, attempt: int, processed: int) -> bool:
        return (
            attempt <= self._lookup(self.kill_shards, shard)
            and processed >= self.kill_after_devices
        )

    def should_hang(self, shard: int, attempt: int) -> bool:
        return attempt <= self._lookup(self.hang_shards, shard)

    def kill_now(self) -> None:  # pragma: no cover - exits the process
        os._exit(137)
