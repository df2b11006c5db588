"""The scenario source registry: config-driven workload composition.

Workloads are compositions of named, self-describing *sources* — the
paper's Table 3 apps, background streams, synthetic populations, push
storms, churn waves, fault injectors, calendar wakeups, network-gated
syncs, trace replays — declared as plain data (:class:`ScenarioSpec`,
loadable from TOML/JSON) and compiled into a single
:class:`~repro.workloads.scenarios.Workload` by
:func:`compile_scenario`.  See ``docs/scenarios.md`` for the tour and
:mod:`repro.workloads.sources.base` for the plugin protocol.

Importing this package registers every stock source.
"""

from __future__ import annotations

from .base import (
    BuildContext,
    FieldSpec,
    ScenarioConfigError,
    ScenarioSource,
    SourceBuild,
    UnknownSourceError,
    get_source,
    register_source,
    source_names,
    unregister_source,
)
from .spec import (
    SCENARIO_SCHEMA,
    ScenarioSpec,
    SourceUse,
    compile_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from .background import BackgroundSource
from .calendar import CalendarSource
from .canon import CANONICAL_SCENARIOS, canonical_diurnal, canonical_scenario
from .churn import ChurnSource
from .external import ExternalWakesSource, InteractiveSessionsSource
from .faults import FaultSource
from .netgated import NetworkGatedSource
from .push_storm import PushStormSource
from .replay import TraceReplaySource
from .synthetic import SyntheticSource
from .table3 import Table3AppsSource

#: Every stock source, registered in import order.
STOCK_SOURCES = (
    Table3AppsSource,
    BackgroundSource,
    SyntheticSource,
    PushStormSource,
    ExternalWakesSource,
    InteractiveSessionsSource,
    ChurnSource,
    FaultSource,
    CalendarSource,
    NetworkGatedSource,
    TraceReplaySource,
)

for _source in STOCK_SOURCES:
    register_source(_source, replace=True)

__all__ = [
    "BackgroundSource",
    "BuildContext",
    "CANONICAL_SCENARIOS",
    "CalendarSource",
    "ChurnSource",
    "ExternalWakesSource",
    "FaultSource",
    "FieldSpec",
    "InteractiveSessionsSource",
    "NetworkGatedSource",
    "PushStormSource",
    "SCENARIO_SCHEMA",
    "ScenarioConfigError",
    "ScenarioSource",
    "ScenarioSpec",
    "SourceBuild",
    "SourceUse",
    "STOCK_SOURCES",
    "SyntheticSource",
    "Table3AppsSource",
    "TraceReplaySource",
    "UnknownSourceError",
    "canonical_diurnal",
    "canonical_scenario",
    "compile_scenario",
    "get_source",
    "load_scenario",
    "register_source",
    "scenario_from_dict",
    "scenario_to_dict",
    "source_names",
    "unregister_source",
]
