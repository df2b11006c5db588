"""The scheduling-kernel queue backends and the interval-endpoint index."""

import pytest

from repro.core.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    IndexedBackend,
    ListBackend,
    _IntervalIndex,
    make_backend,
)
from repro.core.entry import QueueEntry
from repro.core.intervals import Interval
from repro.core.queue import AlarmQueue

from ..conftest import make_alarm


def entry_at(nominal, window=0, grace=None):
    return QueueEntry([make_alarm(nominal=nominal, window=window, grace=grace)])


class TestRegistry:
    def test_names_cover_both_backends(self):
        assert set(BACKEND_NAMES) == {"list", "indexed"}

    def test_default_is_indexed(self):
        assert DEFAULT_BACKEND == "indexed"
        assert AlarmQueue(grace_mode=False).backend_name == "indexed"

    def test_make_backend_builds_each(self):
        assert isinstance(make_backend("list", False), ListBackend)
        assert isinstance(make_backend("indexed", False), IndexedBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown queue backend"):
            make_backend("btree", False)
        with pytest.raises(ValueError, match="unknown queue backend"):
            AlarmQueue(grace_mode=False, backend="btree")


class TestIntervalIndex:
    def overlapping_ids(self, index, probe):
        return sorted(entry.entry_id for entry in index.overlapping(probe))

    def test_touching_endpoints_count_as_overlap(self):
        index = _IntervalIndex()
        left = entry_at(nominal=1_000, window=1_000)  # window [1000, 2000]
        right = entry_at(nominal=3_000, window=1_000)  # window [3000, 4000]
        index.add(left, left.window)
        index.add(right, right.window)
        # Probe ending exactly at a start, and starting exactly at an end.
        assert self.overlapping_ids(index, Interval(2_500, 3_000)) == [
            right.entry_id
        ]
        assert self.overlapping_ids(index, Interval(2_000, 2_500)) == [
            left.entry_id
        ]
        # Closed-interval point contact on both sides at once.
        assert self.overlapping_ids(index, Interval(2_000, 3_000)) == sorted(
            [left.entry_id, right.entry_id]
        )

    def test_none_interval_entries_are_absent(self):
        index = _IntervalIndex()
        entry = entry_at(nominal=1_000, window=100)
        index.add(entry, None)
        assert index.overlapping(Interval(0, 10_000_000)) == []

    def test_zero_width_intervals_match_only_their_point(self):
        index = _IntervalIndex()
        point = entry_at(nominal=5_000, window=0)  # window [5000, 5000]
        index.add(point, point.window)
        assert self.overlapping_ids(index, Interval(5_000, 5_000)) == [
            point.entry_id
        ]
        assert self.overlapping_ids(index, Interval(4_000, 4_999)) == []
        assert self.overlapping_ids(index, Interval(5_001, 6_000)) == []

    def test_horizon_adjacent_intervals(self):
        horizon = 3 * 3_600_000
        index = _IntervalIndex()
        tail = entry_at(nominal=horizon - 1, window=1)  # straddles the horizon
        index.add(tail, tail.window)
        assert self.overlapping_ids(index, Interval(horizon, horizon + 1)) == [
            tail.entry_id
        ]
        assert self.overlapping_ids(index, Interval(0, horizon - 2)) == []

    def test_discard_removes_both_endpoint_records(self):
        index = _IntervalIndex()
        entry = entry_at(nominal=1_000, window=500)
        index.add(entry, entry.window)
        index.discard(entry)
        assert index.overlapping(Interval(0, 10_000_000)) == []
        assert index._starts == [] and index._ends == []
        index.discard(entry)  # double-discard is a no-op

    def test_straddling_found_from_either_scan_side(self):
        # Many intervals ending before the probe start (prefix-heavy) and
        # many starting after it (suffix-heavy) force both scan branches.
        index = _IntervalIndex()
        straddler = QueueEntry(
            [make_alarm(nominal=0, window=100_000, repeat=600_000)]
        )  # window [0, 100_000]
        index.add(straddler, straddler.window)
        others = []
        for position in range(10):
            early = entry_at(nominal=position * 100, window=10)
            index.add(early, early.window)
            others.append(early)
        probe = Interval(50_000, 50_001)
        assert self.overlapping_ids(index, probe) == [straddler.entry_id]
        for other in others:
            index.discard(other)
        for position in range(10):
            late = entry_at(nominal=60_000 + position * 100, window=10)
            index.add(late, late.window)
        assert straddler.entry_id in self.overlapping_ids(index, probe)


class TestIndexedBackend:
    def filled(self, *nominals, grace_mode=False, window=200):
        backend = IndexedBackend(grace_mode)
        entries = [entry_at(nominal, window=window) for nominal in nominals]
        for entry in entries:
            backend.add(entry)
        return backend, entries

    def test_entries_in_key_order(self):
        backend, _ = self.filled(5_000, 1_000, 3_000)
        times = [entry.delivery_time(False) for entry in backend.entries()]
        assert times == [1_000, 3_000, 5_000]

    def test_discard_is_id_addressed(self):
        backend, entries = self.filled(1_000, 2_000, 3_000)
        backend.discard(entries[1])
        assert len(backend) == 2
        assert entries[1] not in list(backend.entries())
        backend.discard(entries[1])  # absent: no-op
        assert len(backend) == 2

    def test_pop_head_returns_earliest(self):
        backend, entries = self.filled(9_000, 4_000)
        assert backend.pop_head() is entries[1]
        assert backend.peek() is entries[0]

    def test_candidates_are_exact_and_in_queue_order(self):
        backend, entries = self.filled(1_000, 2_000, 50_000)
        probe = Interval(900, 2_100)
        candidates = backend.window_candidates(probe)
        assert candidates == [entries[0], entries[1]]
        assert all(
            entry.window.overlaps(probe) for entry in candidates
        )

    def test_candidates_agree_with_list_backend_filtering(self):
        nominals = (1_000, 1_500, 2_000, 40_000, 40_100, 90_000)
        indexed, entries = self.filled(*nominals)
        listed = ListBackend(False)
        for entry in entries:
            listed.add(entry)
        for probe in (
            Interval(0, 5_000),
            Interval(1_200, 1_200),
            Interval(39_000, 41_000),
            Interval(100_000, 200_000),
        ):
            expected = [
                entry
                for entry in listed.window_candidates(probe)
                if entry.window is not None and entry.window.overlaps(probe)
            ]
            assert indexed.window_candidates(probe) == expected

    def test_bulk_load_matches_incremental_adds(self):
        entries = [entry_at(nominal) for nominal in (7_000, 1_000, 4_000)]
        incremental = IndexedBackend(False)
        for entry in entries:
            incremental.add(entry)
        bulk = IndexedBackend(False)
        bulk.bulk_load(entries)
        assert list(bulk.entries()) == list(incremental.entries())
        probe = Interval(0, 10_000)
        assert bulk.window_candidates(probe) == incremental.window_candidates(
            probe
        )

    def test_grace_candidates_use_grace_interval(self):
        backend = IndexedBackend(True)
        entry = entry_at(nominal=1_000, window=10, grace=5_000)
        backend.add(entry)
        # Probe beyond the window but inside the grace interval.
        assert backend.grace_candidates(Interval(4_000, 4_500)) == [entry]
        assert backend.window_candidates(Interval(4_000, 4_500)) == []
