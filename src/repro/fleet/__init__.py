"""Fleet simulation: digest-addressed device populations, sharded
supervised execution, and constant-memory aggregation.

Entry points:

* :func:`~repro.fleet.population.make_population` /
  :class:`~repro.fleet.population.PopulationSpec` — describe a fleet.
* :func:`~repro.fleet.executor.run_fleet` — run or resume it.
* ``simty fleet`` — the CLI front end.
"""

from .chaos import (
    FLEET_CHAOS_WORKLOAD,
    FleetChaos,
    install_chaos_workload,
    poison_archetype,
    uninstall_chaos_workload,
)
from .executor import (
    FleetConfig,
    FleetReport,
    FleetResumeError,
    ShardPlan,
    plan_shards,
    run_fleet,
    run_shard,
    shard_journal_path,
)
from .population import (
    ARCHETYPE_SETS,
    MICRO_ARCHETYPES,
    STANDARD_ARCHETYPES,
    DeviceArchetype,
    DeviceSpec,
    PopulationSpec,
    make_population,
)
from .reduce import (
    DeviceSummary,
    Hist,
    QuarantineRecord,
    ShardSummary,
    merge_shard_summaries,
)

__all__ = [
    "ARCHETYPE_SETS",
    "DeviceArchetype",
    "DeviceSpec",
    "DeviceSummary",
    "FLEET_CHAOS_WORKLOAD",
    "FleetChaos",
    "FleetConfig",
    "FleetReport",
    "FleetResumeError",
    "Hist",
    "MICRO_ARCHETYPES",
    "PopulationSpec",
    "QuarantineRecord",
    "STANDARD_ARCHETYPES",
    "ShardPlan",
    "ShardSummary",
    "install_chaos_workload",
    "make_population",
    "merge_shard_summaries",
    "plan_shards",
    "poison_archetype",
    "uninstall_chaos_workload",
    "run_fleet",
    "run_shard",
    "shard_journal_path",
]
