"""Device populations: frozen, digest-addressed fleets of simulated devices.

A fleet run simulates a *population* — thousands to millions of devices,
each with its own app mix, seed and policy — and a population must be as
reproducible as a single run.  :class:`PopulationSpec` is therefore built
exactly like :class:`~repro.runner.spec.RunSpec`: frozen plain data, a
canonical SHA-256 digest, and a pure function from (population, device
index) to the :class:`RunSpec` that device runs.

Two properties are load-bearing for the fleet executor's robustness story:

* **Shard independence.**  Per-device material (seed, archetype pick,
  sampled workload knobs) is derived with :mod:`hashlib` from
  ``(population digest, device index)`` — never from shard-local RNG
  state — so changing the shard count, resuming half a fleet, or
  reassigning a straggler shard cannot change any device's workload.
  ``fleet(devices=10_000, shards=1)`` and ``shards=64`` simulate the
  exact same 10,000 devices.
* **Content addressing.**  The population digest keys shard journals: a
  resumed fleet refuses journals written for a different population, and
  a quarantined device's reproducer is just ``device_spec(pop, index)``.

Archetypes describe *distributions*, not devices: each device
deterministically picks an archetype (weighted by the archetype weights)
and samples its archetype's ``sampled_kwargs`` — e.g. an app count drawn
from a range — through a device-local RNG seeded from the derived
material.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..runner.spec import KwargsLike, RunSpec, _freeze_kwargs, encode_value
from ..simulator.engine import SimulatorConfig
from ..workloads.sources import ScenarioSpec, SourceUse

#: Bump when the derivation or encoding changes so stale shard journals
#: (which embed the population digest) are never resumed against a fleet
#: that would simulate different devices.  Schema 2: archetypes grew the
#: ``scenario`` template field (declarative per-device workloads).
POPULATION_SCHEMA = 2

#: Sampler kinds accepted in ``DeviceArchetype.sampled_kwargs`` values.
SAMPLER_KINDS = ("randint", "uniform", "choice")


@dataclass(frozen=True)
class DeviceArchetype:
    """One device class: a workload/policy template plus per-device knobs.

    ``workload_kwargs`` are passed verbatim to the registry builder;
    ``sampled_kwargs`` map kwarg names to sampler specs — ``("randint",
    lo, hi)``, ``("uniform", lo, hi)`` or ``("choice", (a, b, ...))`` —
    resolved per device from the device's derived RNG, so two devices of
    the same archetype still differ in composition, deterministically.

    ``scenario`` switches the archetype to declarative workloads: devices
    run the compiled :class:`~repro.workloads.sources.ScenarioSpec`, and
    both ``workload_kwargs`` (fixed) and ``sampled_kwargs`` (per-device)
    address *scenario overrides* with dotted ``"<source id>.<key>"`` keys
    (plain keys hit scenario fields like ``horizon``).  Bad keys fail at
    archetype construction, not on device one million.
    """

    name: str
    weight: float = 1.0
    workload: str = "synthetic"
    policy: str = "simty"
    workload_kwargs: KwargsLike = ()
    sampled_kwargs: KwargsLike = ()
    policy_kwargs: KwargsLike = ()
    scenario: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload_kwargs", _freeze_kwargs(self.workload_kwargs)
        )
        object.__setattr__(
            self, "sampled_kwargs", _freeze_kwargs(self.sampled_kwargs)
        )
        object.__setattr__(
            self, "policy_kwargs", _freeze_kwargs(self.policy_kwargs)
        )
        if not self.name:
            raise ValueError("archetype needs a name")
        if self.weight <= 0:
            raise ValueError(f"archetype {self.name!r}: weight must be > 0")
        for key, spec in self.sampled_kwargs:
            _validate_sampler(self.name, key, spec)
        if self.scenario is not None:
            # Probe the override targets once with representative values so
            # a typo'd source id or key fails here, not mid-fleet.
            probes = dict(self.workload_kwargs)
            for key, spec in self.sampled_kwargs:
                probes[key] = _sample_probe(spec)
            if probes:
                self.scenario.override(probes)


def _validate_sampler(archetype: str, key: str, spec) -> None:
    prefix = f"archetype {archetype!r}, sampled kwarg {key!r}"
    if not isinstance(spec, tuple) or not spec:
        raise ValueError(f"{prefix}: sampler must be a non-empty tuple")
    kind = spec[0]
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"{prefix}: unknown sampler {kind!r}; choose from {SAMPLER_KINDS}"
        )
    if kind in ("randint", "uniform"):
        if len(spec) != 3 or spec[1] > spec[2]:
            raise ValueError(f"{prefix}: expected ({kind!r}, lo, hi) with lo <= hi")
    elif kind == "choice" and (len(spec) != 2 or not spec[1]):
        raise ValueError(f"{prefix}: expected ('choice', (option, ...))")


def _sample(spec: tuple, rng: random.Random):
    kind = spec[0]
    if kind == "randint":
        return rng.randint(int(spec[1]), int(spec[2]))
    if kind == "uniform":
        return rng.uniform(float(spec[1]), float(spec[2]))
    return rng.choice(list(spec[1]))


def _sample_probe(spec: tuple):
    """A representative (deterministic) value a sampler could produce."""
    kind = spec[0]
    if kind == "randint":
        return int(spec[1])
    if kind == "uniform":
        return float(spec[1])
    return list(spec[1])[0]


@dataclass(frozen=True)
class DeviceSpec:
    """One resolved device: its index, archetype and the run to execute.

    ``rank`` is the device's hex sampling rank (derived from the same
    hashlib material as its seed): the fleet reservoir keeps the devices
    with the smallest ranks, which makes the sample uniform *and*
    independent of shard count, merge order, and resume history.
    """

    index: int
    archetype: str
    run: RunSpec
    rank: str = ""

    @property
    def digest(self) -> str:
        return self.run.digest()


@dataclass(frozen=True)
class PopulationSpec:
    """A frozen, digestible description of a device population.

    ``queue_backend``/``monitor`` apply to every device's simulator
    config.  Fleets default to the indexed backend because it is the
    simulator's default, not for scale: population scale means many
    devices, and a micro device's queues hold at most 3 entries, which the
    indexed backend answers with its short-queue scan.  The recording
    invariant monitor makes violation rates measurable per archetype.
    """

    size: int
    archetypes: Tuple[DeviceArchetype, ...]
    seed: int = 0
    name: str = "fleet"
    queue_backend: Optional[str] = "indexed"
    monitor: Optional[str] = "record"

    def __post_init__(self) -> None:
        object.__setattr__(self, "archetypes", tuple(self.archetypes))
        if self.size < 1:
            raise ValueError("population size must be at least 1")
        if not self.archetypes:
            raise ValueError("population needs at least one archetype")
        names = [archetype.name for archetype in self.archetypes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate archetype names in {names}")

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable hex digest over everything that shapes any device."""
        cached = getattr(self, "_digest", None)
        if cached is not None:
            return cached
        payload = {
            "schema": POPULATION_SCHEMA,
            "size": self.size,
            "seed": self.seed,
            "name": self.name,
            "queue_backend": self.queue_backend,
            "monitor": self.monitor,
            "archetypes": [encode_value(a) for a in self.archetypes],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        # Memoized on the frozen instance: device derivation hashes the
        # digest once per device, and re-encoding the archetype tuple for
        # every device in a million-device fleet would dominate runtime.
        object.__setattr__(self, "_digest", digest)
        return digest

    @functools.cached_property
    def _simulator(self) -> Optional[SimulatorConfig]:
        """The simulator config every device shares, built once.

        Memoized like the digest: the config is frozen, so every device
        shares one instance instead of validating a fresh one.
        """
        if self.queue_backend is None and self.monitor is None:
            return None
        return SimulatorConfig(
            queue_backend=self.queue_backend, monitor=self.monitor
        )

    # ------------------------------------------------------------------
    # Device derivation (pure in (digest, index); shard-independent)
    # ------------------------------------------------------------------
    def _material(self, index: int) -> bytes:
        """32 bytes of per-device entropy from (population digest, index)."""
        token = f"{self.digest()}:device:{index}:seed:{self.seed}"
        return hashlib.sha256(token.encode("utf-8")).digest()

    def device(self, index: int) -> DeviceSpec:
        """The device at ``index``, identical under any sharding."""
        if not 0 <= index < self.size:
            raise IndexError(f"device index {index} outside [0, {self.size})")
        material = self._material(index)
        pick = int.from_bytes(material[8:16], "big") / float(1 << 64)
        archetype = self._pick_archetype(pick)
        device_seed = int.from_bytes(material[0:8], "big") % (1 << 31)
        sampler_rng = random.Random(int.from_bytes(material[16:24], "big"))
        if archetype.scenario is not None:
            assignments: Dict[str, object] = dict(archetype.workload_kwargs)
            for key, spec in archetype.sampled_kwargs:
                assignments[key] = _sample(spec, sampler_rng)
            scenario = archetype.scenario
            if assignments:
                scenario = scenario.override(assignments)
            workload_name = "scenario"
            kwargs: Dict[str, object] = {"spec": scenario}
        else:
            workload_name = archetype.workload
            kwargs = dict(archetype.workload_kwargs)
            for key, spec in archetype.sampled_kwargs:
                kwargs[key] = _sample(spec, sampler_rng)
        run = RunSpec(
            workload=workload_name,
            policy=archetype.policy,
            policy_kwargs=archetype.policy_kwargs,
            workload_kwargs=kwargs,
            simulator=self._simulator,
            seed=device_seed,
            policy_label=f"{archetype.policy}@{archetype.name}",
        )
        return DeviceSpec(
            index=index,
            archetype=archetype.name,
            run=run,
            rank=material[24:32].hex(),
        )

    def devices(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[DeviceSpec]:
        """Devices ``lo..hi`` (a shard's slice), lazily."""
        hi = self.size if hi is None else hi
        for index in range(lo, hi):
            yield self.device(index)

    def _pick_archetype(self, pick: float) -> DeviceArchetype:
        total = sum(archetype.weight for archetype in self.archetypes)
        threshold = pick * total
        running = 0.0
        for archetype in self.archetypes:
            running += archetype.weight
            if threshold < running:
                return archetype
        return self.archetypes[-1]


# ----------------------------------------------------------------------
# Stock archetype mixes
# ----------------------------------------------------------------------
#: A handset-like mix at the paper's 3 h horizon: mainstream phones, power
#: users with dense app mixes, wearables on the duration-aware policy and
#: fixed-interval kiosks.  Weights sum to 1 for readability only.
STANDARD_ARCHETYPES: Tuple[DeviceArchetype, ...] = (
    DeviceArchetype(
        name="mainstream",
        weight=0.5,
        policy="simty",
        sampled_kwargs={"app_count": ("randint", 4, 10)},
        workload_kwargs={"period_range_s": (60, 900)},
    ),
    DeviceArchetype(
        name="power-user",
        weight=0.2,
        policy="simty",
        sampled_kwargs={
            "app_count": ("randint", 10, 25),
            "dynamic_fraction": ("uniform", 0.4, 0.8),
            "churn_fraction": ("uniform", 0.1, 0.5),
        },
        workload_kwargs={"period_range_s": (30, 600)},
    ),
    DeviceArchetype(
        name="wearable",
        weight=0.15,
        policy="simty+dur",
        sampled_kwargs={"app_count": ("randint", 2, 5)},
        workload_kwargs={
            "period_range_s": (120, 1800),
            "task_range_ms": (100, 1500),
        },
    ),
    DeviceArchetype(
        name="kiosk",
        weight=0.15,
        policy="bucket",
        sampled_kwargs={"app_count": ("randint", 3, 8)},
        workload_kwargs={"period_range_s": (60, 300)},
    ),
)

#: Tiny devices (2-4 apps, 2 simulated minutes) for smokes and benchmarks:
#: a 10k-device fleet stays tens of seconds, not tens of minutes.
MICRO_ARCHETYPES: Tuple[DeviceArchetype, ...] = (
    DeviceArchetype(
        name="micro-light",
        weight=0.6,
        policy="simty",
        sampled_kwargs={"app_count": ("randint", 2, 3)},
        workload_kwargs={"period_range_s": (30, 90), "horizon": 120_000},
    ),
    DeviceArchetype(
        name="micro-heavy",
        weight=0.4,
        policy="native",
        sampled_kwargs={"app_count": ("randint", 3, 4)},
        workload_kwargs={"period_range_s": (20, 60), "horizon": 120_000},
    ),
)

#: Scenario-driven devices: the paper's populations plus a push-heavy
#: messenger mix, each a declarative ScenarioSpec with per-device sampled
#: overrides.  ``phase_seed`` stays unpinned so every device's app phases
#: derive from its own device seed.  Short horizons keep fleet smokes fast.
SCENARIO_ARCHETYPES: Tuple[DeviceArchetype, ...] = (
    DeviceArchetype(
        name="paper-light",
        weight=0.45,
        policy="simty",
        scenario=ScenarioSpec(
            name="paper-light",
            horizon=600_000,
            sources=(
                SourceUse("table3-apps", kwargs={"set": "light"}),
                SourceUse("background"),
            ),
        ),
        sampled_kwargs={
            "table3-apps.install_window_ms": ("randint", 120_000, 600_000),
            "background.oneshots_per_hour": ("uniform", 5.0, 25.0),
        },
    ),
    DeviceArchetype(
        name="paper-heavy",
        weight=0.35,
        policy="simty",
        scenario=ScenarioSpec(
            name="paper-heavy",
            horizon=600_000,
            sources=(
                SourceUse("table3-apps", kwargs={"set": "heavy"}),
                SourceUse("background"),
            ),
        ),
        sampled_kwargs={
            "background.nonwakeups_per_hour": ("uniform", 10.0, 30.0),
        },
    ),
    DeviceArchetype(
        name="push-messenger",
        weight=0.2,
        policy="simty",
        scenario=ScenarioSpec(
            name="push-messenger",
            horizon=600_000,
            sources=(
                SourceUse("synthetic", kwargs={"app_count": 6}),
                SourceUse("push-storm", kwargs={"rate_per_hour": 40.0}),
            ),
        ),
        sampled_kwargs={
            "synthetic.app_count": ("randint", 3, 10),
            "push-storm.rate_per_hour": ("uniform", 20.0, 120.0),
        },
    ),
)

#: Named mixes selectable from the CLI (``simty fleet --archetypes ...``).
ARCHETYPE_SETS: Dict[str, Tuple[DeviceArchetype, ...]] = {
    "standard": STANDARD_ARCHETYPES,
    "micro": MICRO_ARCHETYPES,
    "scenario": SCENARIO_ARCHETYPES,
}


def make_population(
    size: int,
    archetypes: str = "standard",
    seed: int = 0,
    queue_backend: Optional[str] = "indexed",
    monitor: Optional[str] = "record",
) -> PopulationSpec:
    """Build a population from a named archetype mix."""
    try:
        mix = ARCHETYPE_SETS[archetypes]
    except KeyError:
        raise ValueError(
            f"unknown archetype set {archetypes!r}; "
            f"choose from {sorted(ARCHETYPE_SETS)}"
        ) from None
    return PopulationSpec(
        size=size,
        archetypes=mix,
        seed=seed,
        name=archetypes,
        queue_backend=queue_backend,
        monitor=monitor,
    )
