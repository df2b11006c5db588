"""Supervised execution: statuses, timeouts, retries, and checkpoint/resume."""

import random
import threading

import pytest

from repro.runner import (
    Registry,
    ResultCache,
    RunJournal,
    RunSpec,
    RunStatus,
    SpecTimeoutError,
    backoff_delay,
    failure_table,
    run_many,
    summary_table,
)
from repro.runner.supervision import run_supervised_serial
from repro.workloads.scenarios import ScenarioConfig

from .chaos import chaos_spec

pytestmark = pytest.mark.usefixtures("chaos_workload")

SHORT = ScenarioConfig(horizon=900_000)

OK = RunSpec(workload="light", policy="native", scenario=SHORT)
OK2 = RunSpec(workload="light", policy="simty", scenario=SHORT)
BAD = chaos_spec("crash")
HANG = chaos_spec("hang", sleep_s=8.0)


def statuses(records):
    return [record.status for record in records]


class UnpicklableError(Exception):
    """Carries a lock, so it cannot cross a process boundary."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class TestKeepGoing:
    """Acceptance: one raising + one hanging spec, partial results survive."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_index_aligned_partial_batch(self, max_workers):
        specs = [OK, BAD, HANG, OK2]
        # The timeout must sit well clear of both sides: far above a
        # healthy run (~0.1 s, but slower on a loaded CI box) and far
        # below the hang's sleep.
        records = run_many(
            specs,
            max_workers=max_workers,
            timeout_s=2.0,
            on_error="keep_going",
        )
        assert [record.spec for record in records] == specs
        assert statuses(records) == [
            RunStatus.OK,
            RunStatus.FAILED,
            RunStatus.TIMEOUT,
            RunStatus.OK,
        ]
        assert records[0].result is not None and records[3].result is not None
        assert records[1].result is None and records[2].result is None
        assert records[1].error_type == "RuntimeError"
        assert "injected crash" in records[1].error_message
        assert records[2].error_type == "TimeoutError"

    def test_serial_failure_keeps_traceback(self):
        (record,) = run_many([BAD], on_error="keep_going")
        assert record.status is RunStatus.FAILED
        assert "RuntimeError" in record.traceback
        assert record.attempts == 1

    def test_failed_records_not_cached(self):
        cache = ResultCache()
        run_many([OK, BAD], cache=cache, on_error="keep_going")
        assert cache.stats.misses == 2
        ok_digest, bad_digest = OK.digest(), BAD.digest()
        assert cache.get(ok_digest) is not None
        assert cache.get(bad_digest) is None

    def test_duplicates_of_failed_spec_share_failure(self):
        cache = ResultCache()
        records = run_many(
            [BAD, BAD, OK], cache=cache, on_error="keep_going"
        )
        assert statuses(records) == [
            RunStatus.FAILED,
            RunStatus.FAILED,
            RunStatus.OK,
        ]
        # The duplicate is not re-executed and not counted as a cache hit.
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_tables_render_missing_cells(self):
        records = run_many([OK, BAD], on_error="keep_going")
        table = summary_table(records)
        assert "failed" in table and "chaos" in table
        failures = failure_table(records)
        assert "injected crash" in failures
        assert failure_table([records[0]]) == ""


class TestOnErrorRaise:
    def test_serial_raises_original_exception(self):
        with pytest.raises(RuntimeError, match="injected crash"):
            run_many([BAD])

    def test_serial_reraises_unpicklable_exception_unchanged(self):
        raised = []

        def build(config=None, *, seed=None):
            raised.append(UnpicklableError())
            raise raised[-1]

        registry = Registry()
        registry.register_workload("unpicklable", build)
        spec = RunSpec(workload="unpicklable", policy="native")
        with pytest.raises(UnpicklableError) as excinfo:
            run_many([spec], registry=registry)
        assert excinfo.value is raised[0]

    def test_pool_raises(self):
        with pytest.raises(RuntimeError, match="injected crash"):
            run_many([BAD, OK, OK2], max_workers=2)

    def test_timeout_raises_structured_error(self):
        with pytest.raises(SpecTimeoutError) as excinfo:
            run_many([HANG], timeout_s=0.2)
        assert excinfo.value.timeout_s == 0.2
        assert excinfo.value.attempts == 1

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_many([], retries=-1)
        with pytest.raises(ValueError):
            run_many([], timeout_s=0.0)
        with pytest.raises(ValueError):
            run_many([], on_error="explode")
        with pytest.raises(ValueError):
            run_many([], resume=True)


class TestTimeoutAttempt:
    def test_timed_attempt_computes_no_digest(self, monkeypatch):
        """A timed serial attempt never re-derives the spec digest: callers
        that need it (``run_many``, fleet quarantine) already hold it."""
        calls = []
        digest = RunSpec.digest

        def counting_digest(spec):
            calls.append(spec)
            return digest(spec)

        monkeypatch.setattr(RunSpec, "digest", counting_digest)
        outcome = run_supervised_serial(OK, timeout_s=30.0)
        assert outcome.ok
        assert calls == []


class TestRetries:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_flaky_spec_becomes_retried_ok(self, tmp_path, max_workers):
        flaky = chaos_spec(
            "flaky",
            fail_times=1,
            counter_path=str(tmp_path / f"attempts-{max_workers}"),
        )
        specs = [flaky, OK] if max_workers > 1 else [flaky]
        records = run_many(
            specs, max_workers=max_workers, retries=2, on_error="keep_going"
        )
        assert records[0].status is RunStatus.RETRIED_OK
        assert records[0].attempts == 2
        assert records[0].result is not None

    def test_retries_exhausted_is_failed(self, tmp_path):
        flaky = chaos_spec(
            "flaky", fail_times=5, counter_path=str(tmp_path / "attempts")
        )
        (record,) = run_many([flaky], retries=1, on_error="keep_going")
        assert record.status is RunStatus.FAILED
        assert record.attempts == 2

    def test_backoff_grows_exponentially_with_jitter(self):
        rng = random.Random(7)
        delays = [
            backoff_delay(attempt, base_s=0.1, cap_s=10.0, rng=rng)
            for attempt in (1, 2, 3, 4)
        ]
        for attempt, delay in zip((1, 2, 3, 4), delays):
            step = 0.1 * 2 ** (attempt - 1)
            assert step * 0.5 <= delay <= step
        assert backoff_delay(10, base_s=0.1, cap_s=0.4) <= 0.4
        with pytest.raises(ValueError):
            backoff_delay(0)


class TestCheckpointResume:
    def test_journal_records_completions(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        journal = RunJournal.at(tmp_path)
        run_many([OK, OK2], cache=cache, checkpoint=journal)
        assert OK.digest() in journal and OK2.digest() in journal
        assert len(journal) == 2

    def test_resume_runs_only_unjournaled_digests(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        journal = RunJournal.at(tmp_path)
        run_many([OK, OK2], cache=cache, checkpoint=journal)

        # A fresh invocation (new cache object, same dir) resumes: the two
        # journaled digests come from disk, only the third simulates.
        third = RunSpec(workload="heavy", policy="native", scenario=SHORT)
        cache2 = ResultCache(disk_dir=tmp_path)
        journal2 = RunJournal.at(tmp_path)
        records = run_many(
            [OK, OK2, third], cache=cache2, checkpoint=journal2, resume=True
        )
        assert cache2.stats.hits == 2 and cache2.stats.misses == 1
        assert statuses(records) == [RunStatus.OK] * 3
        assert third.digest() in journal2

    def test_resume_distrusts_unjournaled_cache_entries(self, tmp_path):
        """A cache entry whose completion was never journaled (the run died
        between the cache write and the journal append) is re-executed."""
        cache = ResultCache(disk_dir=tmp_path)
        journal = RunJournal.at(tmp_path)
        run_many([OK], cache=cache, checkpoint=journal)
        # Simulate the interrupted half-commit: OK2's pickle lands on disk
        # but its completion was never journaled.
        interrupted = run_many([OK2], cache=cache)  # no checkpoint
        assert interrupted[0].result is not None
        assert OK2.digest() not in journal

        cache2 = ResultCache(disk_dir=tmp_path)
        records = run_many(
            [OK, OK2],
            cache=cache2,
            checkpoint=RunJournal.at(tmp_path),
            resume=True,
        )
        assert cache2.stats.hits == 1  # OK, trusted via the journal
        assert cache2.stats.misses == 1  # OK2 re-executed despite its pkl
        assert statuses(records) == [RunStatus.OK, RunStatus.OK]

    def test_nonresume_invocation_restarts_journal(self, tmp_path):
        journal = RunJournal.at(tmp_path)
        run_many([OK], checkpoint=journal)
        assert OK.digest() in journal
        run_many([OK2], checkpoint=journal)  # fresh journal, not resume
        assert OK.digest() not in journal
        assert OK2.digest() in journal

    def test_failures_journaled_but_not_completed(self, tmp_path):
        journal = RunJournal.at(tmp_path)
        run_many([BAD], checkpoint=journal, on_error="keep_going")
        assert BAD.digest() not in journal  # not completed...
        reloaded = RunJournal(journal.path)
        assert BAD.digest() not in reloaded  # ...and stays re-runnable

    def test_record_after_torn_tail_survives_reload(self, tmp_path):
        """A record appended after a torn tail starts its own line: it must
        not be glued onto the fragment and forgotten on the next resume."""
        journal = RunJournal.at(tmp_path)
        journal.record("aaa")
        journal.record("bbb")
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "to')  # torn mid-write
        reopened = RunJournal(journal.path)
        reopened.record("ccc")
        assert RunJournal(journal.path).completed() == {"aaa", "bbb", "ccc"}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = RunJournal.at(tmp_path)
        journal.record("a" * 64)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "bbbb')  # torn mid-write
        reloaded = RunJournal(journal.path)
        assert "a" * 64 in reloaded
        assert len(reloaded) == 1
