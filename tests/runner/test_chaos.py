"""Chaos suite: fault injection against the supervised run harness.

Each test wires one failure mode from :mod:`tests.runner.chaos` through
``run_many`` and asserts the batch degrades instead of dying: crashes and
hangs become quarantined records, corrupt cache entries are re-simulated,
and a child that dies mid-batch (``os._exit``) only takes its own spec
down.
"""

import multiprocessing

import pytest

from repro.runner import ResultCache, RunStatus, run_many

from .chaos import (
    chaos_spec,
    corrupt_cache_entry,
    truncate_cache_entry,
)

pytestmark = pytest.mark.usefixtures("chaos_workload")


def statuses(records):
    return [record.status for record in records]


class TestCrashOnNthSpec:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_poisoned_spec_in_five(self, max_workers):
        specs = [chaos_spec("ok", marker=index) for index in range(5)]
        specs[2] = chaos_spec("crash")
        records = run_many(
            specs, max_workers=max_workers, on_error="keep_going"
        )
        assert statuses(records) == [
            RunStatus.OK,
            RunStatus.OK,
            RunStatus.FAILED,
            RunStatus.OK,
            RunStatus.OK,
        ]
        healthy = [record.result for record in records if record.ok]
        assert all(result is not None for result in healthy)
        # The four healthy markers are distinct specs, yet simulate the
        # same workload bytes — deterministic regardless of the failure.
        wakeups = {result.wakeups.cpu.delivered for result in healthy}
        assert len(wakeups) == 1


class TestHang:
    def test_serial_hang_is_quarantined_as_timeout(self):
        specs = [chaos_spec("ok"), chaos_spec("hang", sleep_s=1.2)]
        records = run_many(
            specs, timeout_s=1.0, on_error="keep_going"
        )
        assert statuses(records) == [RunStatus.OK, RunStatus.TIMEOUT]
        assert records[1].error_type == "TimeoutError"
        assert records[1].attempts == 1

    def test_pool_hang_is_quarantined_and_pool_recovers(self):
        specs = [
            chaos_spec("ok"),
            chaos_spec("hang", sleep_s=8.0),
            chaos_spec("ok", marker=1),
        ]
        records = run_many(
            specs, max_workers=2, timeout_s=2.0, on_error="keep_going"
        )
        assert statuses(records) == [
            RunStatus.OK,
            RunStatus.TIMEOUT,
            RunStatus.OK,
        ]

    def test_hang_retry_can_time_out_again(self):
        (record,) = run_many(
            [chaos_spec("hang", sleep_s=0.3)],
            timeout_s=0.2,
            retries=1,
            on_error="keep_going",
        )
        assert record.status is RunStatus.TIMEOUT
        assert record.attempts == 2

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_timeout_records_how_long_the_attempt_ran(self, max_workers):
        # Two hangs, so the pool path really forks; there each child is
        # killed at its deadline.  Serially, the hang builds for its whole
        # sleep before the deadline is seen.
        specs = [chaos_spec("hang", sleep_s=0.6, marker=index) for index in range(2)]
        records = run_many(
            specs,
            max_workers=max_workers,
            timeout_s=0.1,
            retries=1,
            on_error="keep_going",
        )
        assert statuses(records) == [RunStatus.TIMEOUT, RunStatus.TIMEOUT]
        for record in records:
            assert record.wall_time_s > 0.1
        if max_workers == 1:
            assert all(record.wall_time_s >= 0.5 for record in records)


class TestHardDeadline:
    """The pool path's deadline is per attempt, from the attempt's own
    start, and a killed or dead child is reaped before ``run_many``
    returns."""

    def test_pool_timeout_is_a_hard_per_attempt_deadline(self):
        specs = [
            chaos_spec("hang", sleep_s=0.8),
            chaos_spec("hang", sleep_s=1.6, marker=1),
        ]
        records = run_many(
            specs, max_workers=2, timeout_s=1.0, on_error="keep_going"
        )
        assert statuses(records) == [RunStatus.OK, RunStatus.TIMEOUT]
        assert records[1].wall_time_s < 1.6

    def test_no_child_outlives_the_batch(self):
        specs = [
            chaos_spec("hang", sleep_s=8.0),
            chaos_spec("kill"),
            chaos_spec("ok"),
        ]
        records = run_many(
            specs, max_workers=2, timeout_s=0.5, on_error="keep_going"
        )
        assert multiprocessing.active_children() == []
        assert statuses(records) == [
            RunStatus.TIMEOUT,
            RunStatus.FAILED,
            RunStatus.OK,
        ]
        assert "exited with code 42" in records[1].error_message


class TestCorruptCacheEntry:
    def test_garbage_entry_is_quarantined_and_resimulated(self, tmp_path):
        spec = chaos_spec("ok")
        cache = ResultCache(disk_dir=tmp_path)
        run_many([spec], cache=cache)
        digest = spec.digest()
        path = corrupt_cache_entry(tmp_path, digest)

        cache2 = ResultCache(disk_dir=tmp_path)
        records = run_many([spec], cache=cache2)
        assert records[0].status is RunStatus.OK
        assert records[0].result is not None
        assert cache2.stats.corrupt == 1
        assert cache2.stats.misses == 1 and cache2.stats.hits == 0
        # The bad bytes moved aside; the re-simulation re-populated the slot.
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()
        assert "corrupt" in str(cache2.stats)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        spec = chaos_spec("ok")
        cache = ResultCache(disk_dir=tmp_path)
        run_many([spec], cache=cache)
        truncate_cache_entry(tmp_path, spec.digest(), keep_bytes=12)

        cache2 = ResultCache(disk_dir=tmp_path)
        assert cache2.get(spec.digest()) is None
        assert cache2.stats.corrupt == 1
        # A healthy rerun repairs the entry for the next reader.
        run_many([spec], cache=cache2)
        cache3 = ResultCache(disk_dir=tmp_path)
        assert cache3.get(spec.digest()) is not None


class TestKilledWorker:
    def test_worker_death_fails_only_its_spec(self):
        # Every attempt has its own child, so the kill is charged to the
        # killed spec alone: it burns its retry in a second child and
        # lands as FAILED while the innocent spec completes.
        specs = [chaos_spec("ok"), chaos_spec("kill")]
        records = run_many(
            specs,
            max_workers=2,
            retries=1,
            on_error="keep_going",
        )
        assert records[0].status in (RunStatus.OK, RunStatus.RETRIED_OK)
        assert records[0].result is not None
        assert records[1].status is RunStatus.FAILED
        assert records[1].attempts == 2
        assert records[1].result is None

    def test_pool_survives_kill_and_finishes_batch(self):
        specs = [
            chaos_spec("ok"),
            chaos_spec("kill"),
            chaos_spec("ok", marker=1),
            chaos_spec("ok", marker=2),
        ]
        records = run_many(
            specs,
            max_workers=2,
            retries=2,
            on_error="keep_going",
        )
        assert records[1].status is RunStatus.FAILED
        for index in (0, 2, 3):
            assert records[index].ok, f"spec {index} should have recovered"
            assert records[index].result is not None
