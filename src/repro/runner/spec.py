"""The run specification: one simulation, fully described by value.

A :class:`RunSpec` names *what* to run — policy (by registry name, plus
construction kwargs), workload (by registry name, plus builder kwargs and an
explicit seed), scenario and simulator configuration, and the power model —
without holding any live objects.  Because every field is plain data, a spec
is frozen, hashable, picklable (so it can cross a process boundary to a
worker) and digestible (so results can be cached content-addressed).

The digest is a SHA-256 over a canonical JSON encoding of the spec.  It is
stable across processes and interpreter runs: enums encode by name, mappings
sort by encoded key, floats use ``repr`` semantics via ``json``.  Any change
to any field — beta, a policy kwarg, the horizon, the seed, a perturbed
power-model constant — changes the digest and therefore misses the cache.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from ..core.hardware import HardwareSet
from ..power.model import PowerModel
from ..power.profiles import NEXUS5
from ..simulator.engine import SimulatorConfig
from ..workloads.scenarios import ScenarioConfig

#: Bump when the encoding itself changes, so stale on-disk caches never
#: alias fresh results.  Schema 2: ``SimulatorConfig.queue_backend`` joined
#: the dataclass encoding, so backend choice keys cached results.
#: Schema 3: the scenario source registry landed — ``BackgroundConfig``
#: became ``BackgroundLoad`` (dataclasses encode by type name) and the
#: ``"scenario"`` workload embeds a ``ScenarioSpec`` in its kwargs.
#: Schema 4: the default queue backend became ``"indexed"``; a spec that
#: leaves the backend unset no longer names the run it did under schema 3,
#: so list-era cache entries must not be reused for it.
DIGEST_SCHEMA = 4

KwargsLike = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]

#: The scenario of every spec that names none (frozen, so shared).
_DEFAULT_SCENARIO = ScenarioConfig()


def _freeze_kwargs(kwargs: KwargsLike) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a kwargs mapping to a sorted, hashable tuple of pairs."""
    if isinstance(kwargs, Mapping):
        items = kwargs.items()
    else:
        items = tuple(kwargs)
    return tuple(sorted((str(key), value) for key, value in items))


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run.

    ``policy`` and ``workload`` are registry names (see
    :mod:`repro.runner.registry`); ``policy_kwargs`` / ``workload_kwargs``
    are passed to the registered factory / builder.  ``seed`` is threaded
    into the workload builder (install-phase seed for the paper scenarios,
    generator seed for synthetic workloads) so parallel workers rebuild
    byte-identical workloads.  ``policy_label`` only affects the reported
    ``policy_name`` of the result, not the run itself — it is excluded from
    the digest.
    """

    workload: str
    policy: str
    policy_kwargs: KwargsLike = ()
    workload_kwargs: KwargsLike = ()
    scenario: Optional[ScenarioConfig] = None
    simulator: Optional[SimulatorConfig] = None
    model: PowerModel = NEXUS5
    seed: Optional[int] = None
    policy_label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "policy_kwargs", _freeze_kwargs(self.policy_kwargs)
        )
        object.__setattr__(
            self, "workload_kwargs", _freeze_kwargs(self.workload_kwargs)
        )
        if self.scenario is None:
            object.__setattr__(self, "scenario", _DEFAULT_SCENARIO)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable hex digest of everything that influences the result."""
        payload = {
            "schema": DIGEST_SCHEMA,
            "workload": self.workload,
            "policy": self.policy,
            "policy_kwargs": encode_value(self.policy_kwargs),
            "workload_kwargs": encode_value(self.workload_kwargs),
            "scenario": encode_value(self.scenario),
            "simulator": encode_value(self.simulator),
            "model": encode_value(self.model),
            "seed": self.seed,
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def display_name(self) -> str:
        """The policy name reported in results (label wins over name)."""
        return self.policy_label or self.policy

    def __hash__(self) -> int:
        return hash(self.digest())


def encode_value(value: Any) -> Any:
    """Recursively encode ``value`` into a canonical JSON-able structure.

    Raises ``TypeError`` for objects with no stable encoding (e.g. live
    policy instances) — put those behind a registry name instead of
    embedding them in a spec.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, HardwareSet):
        return {"HardwareSet": [encode_value(c) for c in value]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                field.name: encode_value(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        encoded = [
            [encode_value(key), encode_value(item)]
            for key, item in value.items()
        ]
        encoded.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__mapping__": encoded}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": encoded}
    raise TypeError(
        f"cannot build a stable digest for {type(value).__name__!r}; "
        "reference it through a registry name instead of embedding the "
        "object in a RunSpec"
    )
