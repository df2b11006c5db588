"""Content-addressed result cache: hits, misses, and the on-disk layer."""

import dataclasses

from repro.obs import summary as summary_module
from repro.obs.telemetry import Telemetry
from repro.power.profiles import NEXUS5
from repro.runner import ResultCache, RunSpec, run_spec
from repro.simulator import trace as trace_module
from repro.workloads.scenarios import ScenarioConfig

from .test_executor import trace_bytes

SHORT = ScenarioConfig(horizon=900_000)


def short_spec(**changes) -> RunSpec:
    base = RunSpec(workload="light", policy="simty", scenario=SHORT)
    return dataclasses.replace(base, **changes) if changes else base


class TestHitAndMiss:
    def test_identical_spec_hits(self):
        cache = ResultCache()
        first = run_spec(short_spec(), cache=cache)
        second = run_spec(short_spec(), cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.result is first.result
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_beta_change_misses(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(
            short_spec(scenario=ScenarioConfig(horizon=900_000, beta=0.9)),
            cache=cache,
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_policy_kwargs_change_misses(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(
            short_spec(policy_kwargs=(("classifier", "two-level"),)),
            cache=cache,
        )
        assert cache.stats.misses == 2

    def test_horizon_change_misses(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(
            short_spec(scenario=ScenarioConfig(horizon=600_000)), cache=cache
        )
        assert cache.stats.misses == 2

    def test_seed_change_misses(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(short_spec(seed=2), cache=cache)
        assert cache.stats.misses == 2

    def test_model_change_misses(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(
            short_spec(model=dataclasses.replace(NEXUS5, sleep_power_mw=1.0)),
            cache=cache,
        )
        assert cache.stats.misses == 2


class TestDiskLayer:
    def test_roundtrip_through_disk(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        # A second cache over the same directory simulates a new process.
        reader = ResultCache(disk_dir=tmp_path)
        replay = run_spec(short_spec(), cache=reader)
        assert replay.cache_hit
        assert replay.result.energy == record.result.energy
        assert replay.result.wakeups == record.result.wakeups

    def test_clear_keeps_disk_entries(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert record.digest in cache  # still on disk
        assert cache.get(record.digest) is not None

    def test_memory_only_cache_forgets_on_clear(self):
        cache = ResultCache()
        record = run_spec(short_spec(), cache=cache)
        cache.clear()
        assert cache.get(record.digest) is None

    def test_records_log(self):
        cache = ResultCache()
        run_spec(short_spec(), cache=cache)
        run_spec(short_spec(), cache=cache)
        assert [record.cache_hit for record in cache.records] == [False, True]


class TestCorruptEntries:
    def _entry_path(self, cache_dir, digest):
        return cache_dir / f"{digest}.pkl"

    def test_truncated_pickle_is_quarantined(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        path = self._entry_path(tmp_path, record.digest)
        path.write_bytes(path.read_bytes()[:10])

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_foreign_bytes_are_quarantined(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        self._entry_path(tmp_path, record.digest).write_bytes(b"\x00garbage")

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert reader.stats.corrupt == 1

    def test_wrong_payload_type_is_quarantined(self, tmp_path):
        import pickle

        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        # A valid pickle of the wrong type (e.g. written by foreign code).
        self._entry_path(tmp_path, record.digest).write_bytes(
            pickle.dumps({"not": "a result"})
        )
        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert reader.stats.corrupt == 1

    def test_quarantined_entry_is_resimulated(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        self._entry_path(tmp_path, record.digest).write_bytes(b"torn")

        reader = ResultCache(disk_dir=tmp_path)
        replay = run_spec(short_spec(), cache=reader)
        assert not replay.cache_hit  # treated as a miss...
        assert replay.result.energy == record.result.energy
        assert reader.stats.misses == 1
        # ...and the slot is healthy again for the next process.
        third = ResultCache(disk_dir=tmp_path)
        assert third.get(record.digest) is not None
        assert third.stats.corrupt == 0

    def test_pre_named_tuple_entry_is_quarantined_and_resimulated(
        self, tmp_path, monkeypatch
    ):
        """An entry pickled while delivery records were frozen dataclasses
        cannot load into the named tuples: it is quarantined once and the
        spec re-simulates to the same trace."""
        current = trace_module.AlarmDeliveryRecord
        legacy = dataclasses.make_dataclass(
            "AlarmDeliveryRecord",
            current._fields,
            frozen=True,
            namespace={
                name: getattr(current, name)
                for name in ("window_delay", "grace_delay", "normalized_delay")
            },
        )
        legacy.__module__ = trace_module.__name__
        with monkeypatch.context() as patch:
            patch.setattr(trace_module, "AlarmDeliveryRecord", legacy)
            # The trace of that layout pickled its plain attribute dict.
            patch.delattr(trace_module.SimulationTrace, "__getstate__")
            writer = ResultCache(disk_dir=tmp_path)
            record = run_spec(short_spec(), cache=writer)
        assert type(record.result.trace.deliveries()[0]) is legacy
        path = self._entry_path(tmp_path, record.digest)

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        replay = run_spec(short_spec(), cache=reader)
        assert not replay.cache_hit
        assert trace_bytes(replay.result.trace) == trace_bytes(
            record.result.trace
        )

    def test_histogram_summary_entry_is_quarantined_and_resimulated(
        self, tmp_path, monkeypatch
    ):
        """An entry pickled while telemetry histograms were frozen
        ``HistogramSummary`` cells (float totals) does not load into a
        half-shaped ``Hist``: it is quarantined once and re-simulated."""
        legacy = dataclasses.make_dataclass(
            "HistogramSummary",
            [("count", int), ("total", float), ("min", float), ("max", float),
             ("buckets", tuple, dataclasses.field(default=()))],
            frozen=True,
        )
        legacy.__module__ = summary_module.__name__
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer, telemetry=Telemetry())
        telemetry = record.result.trace.telemetry
        assert telemetry.histograms
        with monkeypatch.context() as patch:
            patch.setattr(
                summary_module, "HistogramSummary", legacy, raising=False
            )
            record.result.trace.telemetry = dataclasses.replace(
                telemetry,
                histograms={
                    key: legacy(
                        cell.count, cell.total, cell.min, cell.max,
                        tuple(sorted(cell.buckets.items())),
                    )
                    for key, cell in telemetry.histograms.items()
                },
            )
            writer.put(record.digest, record.result)
        # Span timings are wall clock: compare the rest of the trace.
        record.result.trace.telemetry = None
        path = self._entry_path(tmp_path, record.digest)

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert reader.stats.corrupt == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        replay = run_spec(short_spec(), cache=reader, telemetry=Telemetry())
        assert not replay.cache_hit
        assert replay.result.trace.telemetry.histograms == telemetry.histograms
        replay.result.trace.telemetry = None
        assert trace_bytes(replay.result.trace) == trace_bytes(
            record.result.trace
        )

    def test_quarantine_does_not_clobber_prior_quarantine(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=writer)
        path = self._entry_path(tmp_path, record.digest)
        marker = path.with_name(path.name + ".corrupt")
        marker.write_bytes(b"earlier quarantine")
        path.write_bytes(b"torn again")

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get(record.digest) is None
        assert marker.read_bytes() == b"earlier quarantine"
        corrupts = list(tmp_path.glob("*.corrupt"))
        assert len(corrupts) == 2


class TestAtomicWrites:
    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        run_spec(short_spec(), cache=cache)
        run_spec(short_spec(seed=2), cache=cache)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_tmp_names_are_writer_unique(self, tmp_path):
        """Two writers of one digest must use distinct temp paths, so a
        slow writer can never interleave bytes into a fast writer's file."""
        import pickle
        from unittest import mock

        cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=cache)
        seen = []
        original = pickle.dump

        def spying_dump(obj, handle, *args, **kwargs):
            seen.append(handle.name)
            return original(obj, handle, *args, **kwargs)

        with mock.patch("repro.runner.cache.pickle.dump", spying_dump):
            cache.put(record.digest, record.result)
            cache.put(record.digest, record.result)
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(".tmp" in name for name in seen)

    def test_failed_write_cleans_its_tmp(self, tmp_path):
        from unittest import mock

        cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=cache)
        with mock.patch(
            "repro.runner.cache.pickle.dump", side_effect=OSError("disk full")
        ):
            import pytest

            with pytest.raises(OSError):
                cache.put("f" * 64, record.result)
        assert list(tmp_path.glob("*.tmp")) == []


class TestMemoryBound:
    def _specs(self, count):
        return [short_spec(seed=seed) for seed in range(1, count + 1)]

    def test_lru_eviction_past_cap(self):
        cache = ResultCache(max_memory_entries=2)
        records = [run_spec(spec, cache=cache) for spec in self._specs(3)]
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest digest left memory; the two recent ones stayed.
        assert records[0].digest not in cache
        assert records[1].digest in cache and records[2].digest in cache

    def test_recent_use_protects_an_entry(self):
        cache = ResultCache(max_memory_entries=2)
        first, second = [run_spec(spec, cache=cache) for spec in self._specs(2)]
        # Touch the older entry so the *other* one becomes LRU.
        assert cache.get(first.digest) is first.result
        run_spec(self._specs(3)[2], cache=cache)
        assert first.digest in cache
        assert second.digest not in cache

    def test_eviction_falls_back_to_disk(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path, max_memory_entries=1)
        records = [run_spec(spec, cache=cache) for spec in self._specs(2)]
        assert records[0].digest not in cache._memory
        # The evicted entry reloads from disk: a hit, not a re-simulation.
        rerun = run_spec(self._specs(2)[0], cache=cache)
        assert rerun.cache_hit
        assert cache.stats.misses == 2

    def test_evictions_render_in_stats_line(self):
        cache = ResultCache(max_memory_entries=1)
        for spec in self._specs(3):
            run_spec(spec, cache=cache)
        assert "2 evicted" in str(cache.stats)
        assert "0 hits / 3 misses / 0 corrupt" in str(cache.stats)

    def test_non_positive_cap_rejected(self):
        import pytest

        for cap in (0, -1):
            with pytest.raises(ValueError):
                ResultCache(max_memory_entries=cap)


class TestCacheTelemetry:
    def test_hits_misses_and_evictions_counted(self):
        from repro.obs.telemetry import Telemetry

        cache = ResultCache(max_memory_entries=1)
        hub = Telemetry()
        cache.bind_telemetry(hub)
        specs = [short_spec(seed=seed) for seed in (1, 2)]
        run_spec(specs[0], cache=cache)
        run_spec(specs[1], cache=cache)  # evicts the first entry
        run_spec(specs[1], cache=cache)  # memory hit
        summary = hub.summary()
        assert summary.counter("cache.miss") == cache.stats.misses == 2
        assert summary.counter("cache.hit") == cache.stats.hits == 1
        assert summary.counter("cache.evict") == cache.stats.evictions == 1


class TestCrashMidRename:
    """Leftover ``*.tmp`` files from crashed writers: swept, never loaded."""

    def _orphan(self, tmp_path, digest, age_s=3600.0, content=b"half-written"):
        import os
        import time

        orphan = tmp_path / f"{digest}.pkl.99999.deadbeef.tmp"
        orphan.write_bytes(content)
        stamp = time.time() - age_s
        os.utime(orphan, (stamp, stamp))
        return orphan

    def test_stale_tmp_swept_on_construction(self, tmp_path):
        orphan = self._orphan(tmp_path, "a" * 64)
        cache = ResultCache(disk_dir=tmp_path)
        assert not orphan.exists()
        assert cache.stats.stale_tmp == 1

    def test_fresh_tmp_left_for_its_inflight_writer(self, tmp_path):
        fresh = self._orphan(tmp_path, "a" * 64, age_s=0.0)
        cache = ResultCache(disk_dir=tmp_path)
        assert fresh.exists()  # may belong to a live concurrent put
        assert cache.stats.stale_tmp == 0
        # An explicit sweep with no grace period reclaims it.
        assert cache.sweep_stale_tmp(max_age_s=0.0) == 1
        assert not fresh.exists()

    def test_orphaned_tmp_is_never_loaded(self, tmp_path):
        """Even a *valid pickle* under a tmp name must read as a miss:
        lookups only ever open ``<digest>.pkl``."""
        import pickle

        cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=cache)
        payload = pickle.dumps(record.result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = "e" * 64
        self._orphan(tmp_path, digest, age_s=0.0, content=payload)
        fresh_cache = ResultCache(disk_dir=tmp_path)
        assert fresh_cache.get(digest) is None
        assert digest not in fresh_cache

    def test_sweep_counts_into_telemetry_when_bound(self, tmp_path):
        from repro.obs.telemetry import Telemetry

        self._orphan(tmp_path, "a" * 64, age_s=0.0)
        cache = ResultCache(disk_dir=tmp_path)
        hub = Telemetry()
        cache.bind_telemetry(hub)
        cache.sweep_stale_tmp(max_age_s=0.0)
        assert hub.summary().counter("cache.tmp_swept") == 1


class TestMultiProcessContention:
    def test_concurrent_writers_of_one_digest(self, tmp_path):
        """Many processes storing the same digest into one shared disk dir:
        the entry must load cleanly afterwards and no temp files remain."""
        import multiprocessing
        import pickle

        seed_cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=seed_cache)
        digest, result = record.digest, record.result

        def hammer():
            cache = ResultCache(disk_dir=tmp_path)
            for _ in range(10):
                cache.put(digest, result)

        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert worker.exitcode == 0
        assert list(tmp_path.glob("*.tmp")) == []
        reloaded = ResultCache(disk_dir=tmp_path).get(digest)
        assert reloaded is not None
        assert pickle.dumps(reloaded) == pickle.dumps(result)

    def test_crashed_writer_among_live_ones(self, tmp_path):
        """A writer killed between its temp write and the rename leaves an
        orphan that a later cache construction sweeps."""
        import os
        import time

        cache = ResultCache(disk_dir=tmp_path)
        record = run_spec(short_spec(), cache=cache)
        # Fake the crash artifact: a temp file from a dead pid, old enough
        # to be past any in-flight writer's grace window.
        orphan = tmp_path / f"{record.digest}.pkl.40001.cafef00d.tmp"
        orphan.write_bytes(b"\x80\x05partial")
        stamp = time.time() - 7200.0
        os.utime(orphan, (stamp, stamp))

        survivor = ResultCache(disk_dir=tmp_path)
        assert not orphan.exists()
        assert survivor.stats.stale_tmp == 1
        assert survivor.get(record.digest) is not None  # real entry intact
