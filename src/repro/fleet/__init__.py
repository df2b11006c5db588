"""Fleet simulation: digest-addressed device populations, sharded
supervised execution, and constant-memory aggregation.

Entry points:

* :func:`~repro.fleet.population.make_population` /
  :class:`~repro.fleet.population.PopulationSpec` — describe a fleet.
* :func:`~repro.fleet.executor.run_fleet` — run or resume it.
* ``simty fleet`` — the CLI front end.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".chaos": (
            "FLEET_CHAOS_WORKLOAD",
            "FleetChaos",
            "install_chaos_workload",
            "poison_archetype",
            "uninstall_chaos_workload",
        ),
        ".executor": (
            "FleetConfig",
            "FleetReport",
            "FleetResumeError",
            "ShardPlan",
            "plan_shards",
            "run_fleet",
            "run_shard",
            "shard_journal_path",
        ),
        ".population": (
            "ARCHETYPE_SETS",
            "MICRO_ARCHETYPES",
            "STANDARD_ARCHETYPES",
            "DeviceArchetype",
            "DeviceSpec",
            "PopulationSpec",
            "make_population",
        ),
        ".reduce": (
            "DeviceSummary",
            "Hist",
            "QuarantineRecord",
            "ShardSummary",
            "merge_shard_summaries",
        ),
    },
)
