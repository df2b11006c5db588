"""Fleet chaos: SIGKILLed workers, corrupted journals, stragglers.

The acceptance property from the issue lives here: a fleet whose shard
workers are killed mid-flight and whose journals are fault-injected,
resumed with ``--resume``, must produce a merged report *byte-identical*
to an uninterrupted run — with quarantine and coverage accounting intact.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.durable import damage_log
from repro.fleet import (
    FleetChaos,
    FleetConfig,
    MICRO_ARCHETYPES,
    PopulationSpec,
    poison_archetype,
    run_fleet,
    shard_journal_path,
)

#: One poison archetype rides along so chaos runs also exercise the
#: quarantine accounting they must keep byte-identical.
POPULATION = PopulationSpec(
    size=48,
    archetypes=MICRO_ARCHETYPES + (poison_archetype(weight=0.08),),
    seed=11,
    name="chaos-fleet",
)

BASE = FleetConfig(
    shards=4,
    workers=2,
    device_retries=1,
    device_backoff_s=0.001,
    shard_retries=2,
    reservoir_size=8,
    straggler_min_s=60.0,
)


def payload(report) -> str:
    return json.dumps(report.deterministic_payload(), sort_keys=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run every chaos scenario compares against."""
    fleet_dir = tmp_path_factory.mktemp("reference")
    return run_fleet(POPULATION, BASE, fleet_dir=fleet_dir)


class TestKilledWorkers:
    def test_killed_shards_retried_to_identical_report(self, reference, tmp_path):
        chaos = FleetChaos(kill_shards={0: 1, 2: 2}, kill_after_devices=2)
        config = dataclasses.replace(BASE, chaos=chaos)
        report = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert report.shard_stats["retried"] == 3
        assert report.shard_stats["completed"] == 4
        assert payload(report) == payload(reference)

    def test_kill_then_resume_identical(self, reference, tmp_path):
        # Kill shards 1 and 3 on every allowed attempt: both end FAILED.
        chaos = FleetChaos(kill_shards={1: 9, 3: 9}, kill_after_devices=1)
        config = dataclasses.replace(BASE, shard_retries=1, chaos=chaos)
        partial = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert partial.shard_stats["failed"] == 2
        assert partial.completed < POPULATION.size
        # Partial mode still accounts for what the dead shards attempted.
        assert partial.attempted_devices > partial.completed

        resumed = run_fleet(POPULATION, BASE, fleet_dir=tmp_path, resume=True)
        assert resumed.shard_stats["resumed"] == 2
        assert resumed.shard_stats["completed"] == 2
        assert payload(resumed) == payload(reference)

    def test_exit_code_style_accounting_on_failure(self, tmp_path):
        chaos = FleetChaos(kill_shards={0: 9}, kill_after_devices=1)
        config = dataclasses.replace(BASE, shard_retries=0, chaos=chaos)
        report = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert report.shard_stats["failed"] == 1
        assert "FAILED" in report.render()


class TestCorruptedJournals:
    @pytest.mark.parametrize("mode", ["garbage", "truncate", "delete"])
    def test_each_corruption_mode_forces_rerun(self, reference, tmp_path, mode):
        run_fleet(POPULATION, BASE, fleet_dir=tmp_path)
        damage_log(shard_journal_path(tmp_path, 1), mode)
        resumed = run_fleet(POPULATION, BASE, fleet_dir=tmp_path, resume=True)
        assert resumed.shard_stats["resumed"] == 3
        assert resumed.shard_stats["completed"] == 1
        assert payload(resumed) == payload(reference)

    def test_kills_plus_corruption_plus_resume_identical(
        self, reference, tmp_path
    ):
        """The full acceptance gauntlet in one scenario: workers killed
        mid-flight, then surviving journals damaged, then --resume."""
        chaos = FleetChaos(kill_shards={0: 1, 1: 1, 2: 1}, kill_after_devices=2)
        config = dataclasses.replace(BASE, chaos=chaos)
        chaotic = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert payload(chaotic) == payload(reference)

        damage_log(shard_journal_path(tmp_path, 0), "garbage")
        damage_log(shard_journal_path(tmp_path, 3), "truncate")
        resumed = run_fleet(POPULATION, BASE, fleet_dir=tmp_path, resume=True)
        assert resumed.shard_stats["resumed"] == 2
        assert payload(resumed) == payload(reference)

    def test_journal_header_is_range_checked(self, reference, tmp_path):
        """A sealed journal for the *wrong shard range* is never trusted."""
        run_fleet(POPULATION, BASE, fleet_dir=tmp_path)
        # Swap two shard journals on disk: both headers now disagree with
        # the plan that owns the filename.
        a, b = shard_journal_path(tmp_path, 0), shard_journal_path(tmp_path, 1)
        a_text, b_text = a.read_text(), b.read_text()
        a.write_text(b_text)
        b.write_text(a_text)
        resumed = run_fleet(POPULATION, BASE, fleet_dir=tmp_path, resume=True)
        assert resumed.shard_stats["completed"] == 2
        assert payload(resumed) == payload(reference)


class TestStragglers:
    def test_hung_shard_reassigned_and_report_identical(
        self, reference, tmp_path
    ):
        # Shard 0 hangs 30 s on its first attempt; with straggler_min_s
        # far below that, the parent terminates and reassigns it once the
        # other shards establish a median.
        chaos = FleetChaos(hang_shards={0: 1}, hang_s=30.0)
        config = dataclasses.replace(
            BASE,
            chaos=chaos,
            straggler_min_s=1.0,
            straggler_factor=2.0,
        )
        report = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert report.shard_stats["reassigned"] == 1
        assert report.shard_stats["completed"] == 4
        assert payload(report) == payload(reference)

    def test_no_shard_worker_outlives_the_fleet(self, tmp_path):
        chaos = FleetChaos(
            hang_shards={0: 1}, hang_s=30.0, kill_shards={1: 1}
        )
        config = dataclasses.replace(
            BASE, chaos=chaos, straggler_min_s=1.0, straggler_factor=2.0
        )
        report = run_fleet(POPULATION, config, fleet_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert report.shard_stats["reassigned"] == 1
        assert report.shard_stats["retried"] == 1


class TestChaosPlanSafety:
    def test_chaos_lives_in_config_not_population(self):
        """Chaos must never change device digests: it rides on
        FleetConfig, and the population digest ignores it."""
        assert POPULATION.digest() == dataclasses.replace(POPULATION).digest()
        config = dataclasses.replace(
            BASE, chaos=FleetChaos(kill_shards={0: 1})
        )
        assert config.chaos is not None  # and POPULATION is untouched

    def test_kill_chaos_requires_worker_processes(self):
        with pytest.raises(ValueError, match="worker"):
            FleetConfig(
                workers=0, chaos=FleetChaos(kill_shards={0: 1})
            )
