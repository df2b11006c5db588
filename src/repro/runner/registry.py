"""Pluggable policy and workload registries.

The registry is the single place that maps the *names* appearing in a
:class:`~repro.runner.spec.RunSpec` to live objects: policy factories (which
take plain-data kwargs) and workload builders (which take a
:class:`~repro.workloads.scenarios.ScenarioConfig`, an explicit ``seed`` and
builder kwargs).

Unknown names raise :class:`UnknownNameError` (a ``KeyError``) with a
did-you-mean suggestion::

    >>> DEFAULT_REGISTRY.create_policy("simt")
    Traceback (most recent call last):
        ...
    repro.runner.registry.UnknownNameError: "unknown policy 'simt'; did you mean 'simty'? ..."
"""

from __future__ import annotations

import difflib
from dataclasses import replace
from typing import Any, Callable, Dict, Mapping, Optional

from ..core.bucket import FixedIntervalPolicy
from ..core.duration import DurationAwareSimtyPolicy
from ..core.exact import ExactPolicy
from ..core.native import NativePolicy
from ..core.policy import AlignmentPolicy
from ..core.similarity import HARDWARE_CLASSIFIERS
from ..core.simty import SimtyPolicy
from ..workloads.scenarios import (
    ScenarioConfig,
    Workload,
    build_heavy,
    build_light,
)
from ..workloads.synthetic import SyntheticConfig, generate

PolicyFactory = Callable[..., AlignmentPolicy]
WorkloadBuilder = Callable[..., Workload]


class UnknownNameError(KeyError):
    """An unregistered policy or workload name, with a suggestion."""


def _unknown(kind: str, name: str, known: Mapping[str, Any]) -> UnknownNameError:
    message = f"unknown {kind} {name!r}"
    close = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
    if close:
        message += f"; did you mean {close[0]!r}?"
    message += f" choose from {sorted(known)}"
    return UnknownNameError(message)


class Registry:
    """Named policy factories and workload builders.

    Policy factories are callables taking only plain-data kwargs (so specs
    stay hashable); workload builders follow the protocol
    ``builder(config: ScenarioConfig | None, *, seed: int | None = None,
    **kwargs) -> Workload`` and must build a *fresh* workload on every call
    (alarms are mutable and single-use).
    """

    def __init__(self) -> None:
        self._policies: Dict[str, PolicyFactory] = {}
        self._workloads: Dict[str, WorkloadBuilder] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_policy(
        self, name: str, factory: PolicyFactory, *, replace: bool = False
    ) -> PolicyFactory:
        if not replace and name in self._policies:
            raise ValueError(f"policy {name!r} already registered")
        self._policies[name] = factory
        return factory

    def register_workload(
        self, name: str, builder: WorkloadBuilder, *, replace: bool = False
    ) -> WorkloadBuilder:
        if not replace and name in self._workloads:
            raise ValueError(f"workload {name!r} already registered")
        self._workloads[name] = builder
        return builder

    def unregister_policy(self, name: str) -> None:
        self._policies.pop(name, None)

    def unregister_workload(self, name: str) -> None:
        self._workloads.pop(name, None)

    # ------------------------------------------------------------------
    # Lookup and construction
    # ------------------------------------------------------------------
    def policy_factory(self, name: str) -> PolicyFactory:
        try:
            return self._policies[name]
        except KeyError:
            raise _unknown("policy", name, self._policies) from None

    def workload_builder(self, name: str) -> WorkloadBuilder:
        try:
            return self._workloads[name]
        except KeyError:
            raise _unknown("workload", name, self._workloads) from None

    def create_policy(self, name: str, **kwargs: Any) -> AlignmentPolicy:
        return self.policy_factory(name)(**kwargs)

    def build_workload(
        self,
        name: str,
        config: Optional[ScenarioConfig] = None,
        *,
        seed: Optional[int] = None,
        **kwargs: Any,
    ) -> Workload:
        return self.workload_builder(name)(config, seed=seed, **kwargs)

    def policy_names(self) -> list:
        return sorted(self._policies)

    def workload_names(self) -> list:
        return sorted(self._workloads)


# ----------------------------------------------------------------------
# Default entries
# ----------------------------------------------------------------------
def _make_simty(
    classifier: str = "three-level", queue_backend: Optional[str] = None
) -> SimtyPolicy:
    return SimtyPolicy(
        hardware_classifier=_classifier(classifier), queue_backend=queue_backend
    )


def _make_simty_dur(
    classifier: str = "three-level", queue_backend: Optional[str] = None
) -> DurationAwareSimtyPolicy:
    return DurationAwareSimtyPolicy(
        hardware_classifier=_classifier(classifier), queue_backend=queue_backend
    )


def _classifier(name: str):
    try:
        return HARDWARE_CLASSIFIERS[name]
    except KeyError:
        raise _unknown("hardware classifier", name, HARDWARE_CLASSIFIERS) from None


def _make_bucket(
    bucket_interval: int = 300_000, queue_backend: Optional[str] = None
) -> FixedIntervalPolicy:
    return FixedIntervalPolicy(
        bucket_interval=bucket_interval, queue_backend=queue_backend
    )


def _seeded_scenario(
    config: Optional[ScenarioConfig], seed: Optional[int]
) -> ScenarioConfig:
    config = config or ScenarioConfig()
    if seed is not None:
        config = replace(config, phase_seed=seed)
    return config


def _build_light(
    config: Optional[ScenarioConfig] = None, *, seed: Optional[int] = None
) -> Workload:
    return build_light(_seeded_scenario(config, seed))


def _build_heavy(
    config: Optional[ScenarioConfig] = None, *, seed: Optional[int] = None
) -> Workload:
    return build_heavy(_seeded_scenario(config, seed))


def _build_synthetic(
    config: Optional[ScenarioConfig] = None,
    *,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> Workload:
    # The synthetic generator is configured by its own kwargs; the scenario
    # config only contributes defaults for horizon and beta when the kwargs
    # leave them unspecified.
    if config is not None:
        kwargs.setdefault("horizon", config.horizon)
        kwargs.setdefault("beta", config.beta)
    return generate(SyntheticConfig(**kwargs), seed=seed)


def _build_scenario(
    config: Optional[ScenarioConfig] = None,
    *,
    seed: Optional[int] = None,
    spec: Any = None,
    path: Optional[str] = None,
    canonical: Optional[str] = None,
    **kwargs: Any,
) -> Workload:
    """Compile a declarative scenario (the ``"scenario"`` workload).

    Exactly one of ``spec`` (a :class:`ScenarioSpec`, which pickles across
    pool workers inside ``workload_kwargs``), ``path`` (a TOML/JSON config
    file) or ``canonical`` (a canonical scenario name) selects the
    scenario; ``seed`` is the run-level base seed threaded into every
    source's derivation.  The positional ``config`` is accepted for
    builder-protocol parity but unused — a scenario carries its own
    horizon and knobs.
    """
    from ..workloads.sources import (
        CANONICAL_SCENARIOS,
        ScenarioConfigError,
        compile_scenario,
        load_scenario,
    )
    from ..workloads.sources.base import suggest

    del config  # scenarios are self-contained
    selectors = [value for value in (spec, path, canonical) if value is not None]
    if len(selectors) != 1:
        raise ScenarioConfigError(
            [
                "the 'scenario' workload needs exactly one of spec=, path= "
                "or canonical="
            ]
        )
    if kwargs:
        raise ScenarioConfigError(
            [
                f"unknown 'scenario' workload kwarg {key!r}; override source "
                "kwargs inside the spec instead"
                for key in sorted(kwargs)
            ]
        )
    if path is not None:
        spec = load_scenario(path)
    elif canonical is not None:
        try:
            spec = CANONICAL_SCENARIOS[canonical]()
        except KeyError:
            raise ScenarioConfigError(
                [
                    f"no canonical scenario named {canonical!r}"
                    f"{suggest(canonical, sorted(CANONICAL_SCENARIOS))}; "
                    f"choose from {sorted(CANONICAL_SCENARIOS)}"
                ]
            ) from None
    return compile_scenario(spec, seed=seed)


def _install_defaults(registry: Registry) -> Registry:
    registry.register_policy("native", NativePolicy)
    registry.register_policy("simty", _make_simty)
    registry.register_policy("exact", ExactPolicy)
    registry.register_policy("simty+dur", _make_simty_dur)
    registry.register_policy("bucket", _make_bucket)
    registry.register_workload("light", _build_light)
    registry.register_workload("heavy", _build_heavy)
    registry.register_workload("synthetic", _build_synthetic)
    registry.register_workload("scenario", _build_scenario)
    return registry


#: The process-wide registry used when no explicit registry is passed.
DEFAULT_REGISTRY = _install_defaults(Registry())


def register_policy(
    name: str, factory: PolicyFactory, *, replace: bool = False
) -> PolicyFactory:
    """Register a policy factory on the default registry."""
    return DEFAULT_REGISTRY.register_policy(name, factory, replace=replace)


def register_workload(
    name: str, builder: WorkloadBuilder, *, replace: bool = False
) -> WorkloadBuilder:
    """Register a workload builder on the default registry."""
    return DEFAULT_REGISTRY.register_workload(name, builder, replace=replace)
