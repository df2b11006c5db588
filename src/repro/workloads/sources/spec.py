"""`ScenarioSpec`: declarative workload composition, and its compiler.

A scenario is plain frozen data — a name, a horizon, and an ordered list
of :class:`SourceUse` entries naming registered sources with their kwargs.
Like :class:`~repro.runner.spec.RunSpec` it is hashable, picklable and
digestible, so it can ride inside a ``RunSpec`` (``workload="scenario"``,
``workload_kwargs={"spec": ...}``), cross process boundaries to pool
workers and fleet shards, and key the content-addressed result cache.

:func:`compile_scenario` is the single composition point: it validates
every source, walks them left to right building a
:class:`~repro.workloads.sources.base.BuildContext` (later sources see
earlier sources' registrations, for label targeting), merges the emitted
registrations / directives / externals exactly the way the legacy
builders did (stable sort by registration time), and finally applies any
whole-workload transforms (fault injectors).

Scenario files are TOML (Python >= 3.11, via :mod:`tomllib`) or JSON::

    [scenario]
    name = "storm-day"
    horizon_ms = 10800000

    [[source]]
    use = "table3-apps"
    set = "heavy"

    [[source]]
    use = "push-storm"
    id = "push@3h"
    start_ms = 7200000
    rate_per_hour = 240.0

Validation is total: every unknown source name, unknown key, type
mismatch and duplicate id in the file is reported in one structured
:class:`~repro.workloads.sources.base.ScenarioConfigError`, each problem
carrying a did-you-mean suggestion where one is close.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ...core.units import THREE_HOURS_MS
from ..scenarios import Workload
from .base import (
    BuildContext,
    ScenarioConfigError,
    ScenarioSource,
    get_source,
    source_names,
    suggest,
)

try:  # Python >= 3.11; on older interpreters scenario files must be JSON.
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]

#: Bump when the scenario encoding or compilation semantics change, so a
#: stale cached result can never alias a recompiled scenario.
SCENARIO_SCHEMA = 1

KwargsLike = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


def _freeze_kwargs(kwargs: KwargsLike) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(kwargs, Mapping):
        items = kwargs.items()
    else:
        items = tuple(kwargs)
    return tuple(
        sorted((str(key), _freeze_value(value)) for key, value in items)
    )


def _freeze_value(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(item) for item in value)
    return value


def _thaw_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw_value(item) for item in value]
    return value


@dataclass(frozen=True)
class SourceUse:
    """One source instance in a scenario: registry name, id and kwargs.

    ``id`` names *this use* of the source (a scenario may use ``push-storm``
    twice with different ids); it defaults to the source name and must be
    unique within the scenario — fleet archetypes and CLI overrides address
    source kwargs as ``"<id>.<key>"``.
    """

    source: str
    id: str = ""
    kwargs: KwargsLike = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", _freeze_kwargs(self.kwargs))
        if not self.id:
            object.__setattr__(self, "id", self.source)

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative workload: ordered sources plus the horizon."""

    name: str = "scenario"
    horizon: int = THREE_HOURS_MS
    sources: Tuple[SourceUse, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))

    def digest(self) -> str:
        """Stable hex digest over everything that shapes the workload."""
        from ...runner.spec import encode_value

        payload = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "horizon": self.horizon,
            "seed": self.seed,
            "sources": [encode_value(use) for use in self.sources],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Overrides (the fleet's per-device sampling hook)
    # ------------------------------------------------------------------
    def override(self, assignments: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with dotted ``"<source id>.<key>"`` kwargs replaced.

        Keys without a dot address the scenario itself (``horizon``,
        ``seed``, ``name``).  Unknown ids/keys raise
        :class:`ScenarioConfigError` — a silent typo in an archetype
        would sample a different fleet than intended.
        """
        spec = self
        problems: List[str] = []
        scenario_fields = {"horizon", "seed", "name"}
        by_id = {use.id: use for use in spec.sources}
        new_sources = {use.id: dict(use.kwargs) for use in spec.sources}
        scalar: Dict[str, Any] = {}
        for key, value in assignments.items():
            if "." not in key:
                if key not in scenario_fields:
                    problems.append(
                        f"override {key!r}: not a scenario field"
                        f"{suggest(key, sorted(scenario_fields))}"
                    )
                    continue
                scalar[key] = value
                continue
            source_id, _, field_name = key.partition(".")
            use = by_id.get(source_id)
            if use is None:
                problems.append(
                    f"override {key!r}: no source with id {source_id!r}"
                    f"{suggest(source_id, sorted(by_id))}"
                )
                continue
            cls = get_source(use.source)
            if field_name not in cls.field_names():
                problems.append(
                    f"override {key!r}: source {use.source!r} has no key "
                    f"{field_name!r}{suggest(field_name, cls.field_names())}"
                )
                continue
            new_sources[source_id][field_name] = value
        if problems:
            raise ScenarioConfigError(problems)
        sources = tuple(
            replace(use, kwargs=_freeze_kwargs(new_sources[use.id]))
            for use in spec.sources
        )
        return replace(spec, sources=sources, **scalar)

    def validate(self) -> List[str]:
        """All validation problems (empty = compilable)."""
        problems: List[str] = []
        if self.horizon <= 0:
            problems.append(f"horizon must be positive, got {self.horizon}")
        seen_ids: Dict[str, int] = {}
        for index, use in enumerate(self.sources):
            where = f"source[{index}] ({use.id!r})"
            if use.id in seen_ids:
                problems.append(
                    f"{where}: duplicate source id (also used at "
                    f"source[{seen_ids[use.id]}]); give one an explicit id"
                )
            seen_ids.setdefault(use.id, index)
            try:
                cls = get_source(use.source)
            except ScenarioConfigError as error:
                problems.append(f"{where}: {'; '.join(error.problems)}")
                continue
            problems.extend(cls.validate_kwargs(use.kwargs_dict(), where=where))
        return problems


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_scenario(
    spec: ScenarioSpec, seed: Optional[int] = None
) -> Workload:
    """Compile a scenario into a fresh, single-use :class:`Workload`.

    ``seed`` (usually :attr:`RunSpec.seed <repro.runner.spec.RunSpec.seed>`)
    overrides ``spec.seed`` as the run-level base seed every source's
    deterministic seed derivation mixes in.
    """
    problems = spec.validate()
    if problems:
        raise ScenarioConfigError(problems)
    base_seed = seed if seed is not None else spec.seed
    digest = spec.digest()
    registrations = []
    directives = []
    externals = []
    transforms = []
    for index, use in enumerate(spec.sources):
        cls = get_source(use.source)
        source = cls.from_kwargs(
            use.kwargs_dict(), where=f"source[{index}] ({use.id!r})"
        )
        ctx = BuildContext(
            horizon=spec.horizon,
            scenario_digest=digest,
            source_id=use.id,
            source_index=index,
            base_seed=base_seed,
            registrations_so_far=registrations,
        )
        build = source.build(ctx)
        registrations = registrations + build.registrations
        directives.extend(build.directives)
        externals.extend(build.externals)
        transforms.extend(build.transforms)
    # Exactly the legacy builders' merge: stable sort by registration
    # time, preserving source order within a tick (and alarm-id creation
    # order overall) so canonical configs replay byte-identically.
    registrations = sorted(registrations, key=lambda r: r.time)
    directives = sorted(directives, key=lambda d: d.time)
    externals = sorted(externals, key=lambda e: e.time)
    workload = Workload(
        name=spec.name,
        registrations=registrations,
        horizon=spec.horizon,
        directives=directives,
        externals=externals,
    )
    for transform in transforms:
        try:
            workload = transform(workload)
        except (KeyError, ValueError) as error:
            raise ScenarioConfigError(
                [f"scenario {spec.name!r}: workload transform failed: {error}"]
            ) from None
    return workload


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def scenario_from_dict(
    data: Mapping[str, Any], where: str = "scenario"
) -> ScenarioSpec:
    """Parse the file-level dict layout into a :class:`ScenarioSpec`.

    Collects *all* structural problems before raising; source-level kwarg
    validation happens in :meth:`ScenarioSpec.validate` (run it, or just
    compile, for the full report).
    """
    problems: List[str] = []
    known_top = {"scenario", "source"}
    for key in data:
        if key not in known_top:
            problems.append(
                f"{where}: unknown top-level table {key!r}"
                f"{suggest(key, sorted(known_top))}"
            )
    header = data.get("scenario", {})
    if not isinstance(header, Mapping):
        problems.append(f"{where}: [scenario] must be a table")
        header = {}
    known_header = {"name", "horizon_ms", "seed"}
    for key in header:
        if key not in known_header:
            problems.append(
                f"{where}: unknown [scenario] key {key!r}"
                f"{suggest(key, sorted(known_header))}"
            )
    uses: List[SourceUse] = []
    raw_sources = data.get("source", [])
    if isinstance(raw_sources, Mapping):
        raw_sources = [raw_sources]
    for index, entry in enumerate(raw_sources):
        if not isinstance(entry, Mapping):
            problems.append(f"{where}: source[{index}] must be a table")
            continue
        entry = dict(entry)
        use_name = entry.pop("use", None)
        if not isinstance(use_name, str) or not use_name:
            problems.append(
                f"{where}: source[{index}] needs a 'use' key naming a "
                f"registered source (one of {source_names()})"
            )
            continue
        use_id = entry.pop("id", "")
        uses.append(SourceUse(source=use_name, id=use_id, kwargs=entry))
    if problems:
        raise ScenarioConfigError(problems)
    return ScenarioSpec(
        name=str(header.get("name", "scenario")),
        horizon=int(header.get("horizon_ms", THREE_HOURS_MS)),
        seed=header.get("seed"),
        sources=tuple(uses),
    )


def scenario_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """The inverse of :func:`scenario_from_dict` (JSON-ready plain data)."""
    header: Dict[str, Any] = {"name": spec.name, "horizon_ms": spec.horizon}
    if spec.seed is not None:
        header["seed"] = spec.seed
    sources = []
    for use in spec.sources:
        entry: Dict[str, Any] = {"use": use.source}
        if use.id != use.source:
            entry["id"] = use.id
        for key, value in use.kwargs:
            entry[key] = _thaw_value(value)
        sources.append(entry)
    return {"scenario": header, "source": sources}


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load *and validate* a scenario config file (TOML; JSON for ``.json``).

    Structural problems (unknown tables, missing ``use`` keys) and
    source-level kwarg problems (unknown sources, unknown or mistyped
    keys, bad values) are all collected into one
    :class:`ScenarioConfigError`, so a config file with three typos
    reports all three at once.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioConfigError([f"scenario file not found: {path}"])
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ScenarioConfigError([f"{path}: invalid JSON: {error}"]) from None
    else:
        if tomllib is None:
            raise ScenarioConfigError(
                [
                    f"{path}: TOML scenario files need Python >= 3.11 "
                    "(tomllib); re-express the config as JSON"
                ]
            )
        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as error:
            raise ScenarioConfigError([f"{path}: invalid TOML: {error}"]) from None
    spec = scenario_from_dict(data, where=str(path))
    problems = spec.validate()
    if problems:
        raise ScenarioConfigError(problems)
    return spec
