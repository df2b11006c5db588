"""The scheduling-kernel queue backends and their overlap index."""

import random

import pytest

from repro.core import backend as backend_module
from repro.core.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    SHORT_QUEUE,
    IndexedBackend,
    ListBackend,
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
    """The key list as start index plus the lazy end-sorted lists.

    Each case files entries in an :class:`IndexedBackend` and reads the
    window (or grace) candidates of a probe: the exact overlapping set.
    The cases use queues of at most ``SHORT_QUEUE`` entries, so the
    threshold is patched to 0 to make every query take the index path.
    """

    @pytest.fixture(autouse=True)
    def index_every_queue(self, monkeypatch):
        monkeypatch.setattr(backend_module, "SHORT_QUEUE", 0)

    def overlapping_ids(self, backend, probe):
        return sorted(entry.entry_id for entry in backend.window_candidates(probe))

    def filled(self, *entries, grace_mode=False):
        backend = IndexedBackend(grace_mode)
        for entry in entries:
            backend.add(entry)
        return backend

    def test_touching_endpoints_count_as_overlap(self):
        left = entry_at(nominal=1_000, window=1_000)  # window [1000, 2000]
        right = entry_at(nominal=3_000, window=1_000)  # window [3000, 4000]
        backend = self.filled(left, right)
        # Probe ending exactly at a start, and starting exactly at an end.
        assert self.overlapping_ids(backend, Interval(2_500, 3_000)) == [
            right.entry_id
        ]
        assert self.overlapping_ids(backend, Interval(2_000, 2_500)) == [
            left.entry_id
        ]
        # Closed-interval point contact on both sides at once.
        assert self.overlapping_ids(backend, Interval(2_000, 3_000)) == sorted(
            [left.entry_id, right.entry_id]
        )

    def test_none_interval_entries_are_absent(self):
        # Disjoint windows inside overlapping graces: the window
        # intersection vanishes while the grace intersection holds.
        entry = QueueEntry(
            [
                make_alarm(nominal=1_000, window=100, grace=5_000),
                make_alarm(nominal=2_000, window=100, grace=5_000),
            ]
        )
        assert entry.window is None
        for grace_mode in (False, True):
            backend = self.filled(entry, grace_mode=grace_mode)
            assert backend.window_candidates(Interval(0, 10_000_000)) == []
            assert backend._kinds["window"].ends == []
            assert backend.grace_candidates(Interval(0, 10_000_000)) == [entry]

    def test_zero_width_intervals_match_only_their_point(self):
        point = entry_at(nominal=5_000, window=0)  # window [5000, 5000]
        backend = self.filled(point)
        assert self.overlapping_ids(backend, Interval(5_000, 5_000)) == [
            point.entry_id
        ]
        assert self.overlapping_ids(backend, Interval(4_000, 4_999)) == []
        assert self.overlapping_ids(backend, Interval(5_001, 6_000)) == []

    def test_horizon_adjacent_intervals(self):
        horizon = 3 * 3_600_000
        tail = entry_at(nominal=horizon - 1, window=1)  # straddles the horizon
        backend = self.filled(tail)
        assert self.overlapping_ids(
            backend, Interval(horizon, horizon + 1)
        ) == [tail.entry_id]
        assert self.overlapping_ids(backend, Interval(0, horizon - 2)) == []

    def test_discard_removes_both_endpoint_records(self):
        entry = entry_at(nominal=1_000, window=500)
        backend = self.filled(entry)
        backend.window_candidates(Interval(0, 1))  # builds the end list
        backend.discard(entry)
        assert backend.window_candidates(Interval(0, 10_000_000)) == []
        index = backend._kinds["window"]
        assert backend._order == [] and backend._records == {}
        assert index.ends == [] and index.indexed == {}
        backend.discard(entry)  # double-discard is a no-op

    def test_straddling_found_from_either_scan_side(self):
        # Many intervals ending before the probe start (prefix-heavy) and
        # many starting after it (suffix-heavy) force both scan branches.
        straddler = QueueEntry(
            [make_alarm(nominal=0, window=100_000, repeat=600_000)]
        )  # window [0, 100_000]
        backend = self.filled(straddler)
        others = []
        for position in range(10):
            early = entry_at(nominal=position * 100, window=10)
            backend.add(early)
            others.append(early)
        probe = Interval(50_000, 50_001)
        assert self.overlapping_ids(backend, probe) == [straddler.entry_id]
        for other in others:
            backend.discard(other)
        for position in range(10):
            late = entry_at(nominal=60_000 + position * 100, window=10)
            backend.add(late)
        assert straddler.entry_id in self.overlapping_ids(backend, probe)

    def test_suffix_straddlers_come_out_in_queue_order(self):
        # Straddlers found on the end-suffix side are filed by end; the
        # query hands them back by key, ahead of the entries inside.
        long_late_end = entry_at(nominal=1_000, window=9_000)  # [1000, 10000]
        short_end = entry_at(nominal=2_000, window=3_000)  # [2000, 5000]
        inside = entry_at(nominal=4_500, window=10)
        early = [entry_at(nominal=position, window=0) for position in range(20)]
        backend = self.filled(long_late_end, short_end, inside, *early)
        found = backend.window_candidates(Interval(4_000, 4_600))
        assert found == [long_late_end, short_end, inside]

    def test_only_the_queried_kind_is_indexed(self):
        backend = self.filled(entry_at(nominal=1_000, window=10, grace=50))
        assert backend._kinds == {}
        backend.grace_candidates(Interval(0, 2_000))
        assert set(backend._kinds) == {"grace"}

    def test_refresh_moves_only_what_changed(self):
        wide = entry_at(nominal=1_000, window=5_000, grace=9_000)
        backend = self.filled(wide, grace_mode=True)
        backend.window_candidates(Interval(0, 1))
        backend.grace_candidates(Interval(0, 1))
        record = backend._order[0]
        window_record = backend._kinds["window"].ends[0]
        # Same start, shorter grace: the key and the window end stay.
        wide.add(make_alarm(nominal=1_000, window=5_000, grace=7_000))
        backend.refresh(wide)
        assert backend._order[0] is record
        assert backend._kinds["window"].ends[0] is window_record
        assert backend._kinds["grace"].ends[0][0] == 8_000
        assert backend.grace_candidates(Interval(8_500, 9_000)) == []

    @pytest.mark.parametrize("pin", [(3_000, 3_100), (500, 600)], ids=["late", "early"])
    @pytest.mark.parametrize("grace_mode", [False, True])
    def test_interval_starting_off_its_key_is_still_returned(self, grace_mode, pin):
        # Pinning one interval away from the members' latest nominal time
        # breaks "interval start == key"; the query must still find it,
        # whether the interval now starts after its key or before it.
        queue = AlarmQueue(grace_mode=grace_mode)
        stray = QueueEntry([make_alarm(nominal=1_000, window=100, grace=1_000)])
        other = QueueEntry([make_alarm(nominal=1_500, window=100, grace=1_000)])
        queue.add_entry(stray)
        queue.add_entry(other)
        assert queue.grace_candidates(Interval(0, 1)) == []
        assert queue.window_candidates(Interval(0, 1)) == []
        # The key follows the window (NATIVE) or the grace start (SIMTY,
        # imperceptible); the other interval no longer starts at the key.
        pinned = "grace" if not grace_mode else "window"
        queue.update_entry(stray, lambda entry: setattr(entry, pinned, Interval(*pin)))
        assert queue.window_candidates(Interval(1_050, 1_050)) == (
            [] if pinned == "window" else [stray]
        )
        assert queue.grace_candidates(Interval(1_050, 1_050)) == (
            [stray] if pinned == "window" else []
        )
        probe = Interval(pin[0] + 50, pin[0] + 50)
        assert stray in getattr(queue, f"{pinned}_candidates")(probe)
        # Back in line: the fast path answers again.
        queue.update_entry(
            stray, lambda entry: setattr(entry, pinned, Interval(1_000, 3_100))
        )
        assert not queue._backend._kinds[pinned].strays
        assert stray in getattr(queue, f"{pinned}_candidates")(Interval(3_050, 3_050))


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


def overlapping(entries, kind, probe):
    """The oracle: the entries whose ``kind`` interval meets ``probe``."""
    return [
        entry
        for entry in entries
        if (interval := getattr(entry, kind)) is not None
        and interval.overlaps(probe)
    ]


class TestShortQueueScan:
    """A queue of at most ``SHORT_QUEUE`` entries is answered by one
    in-order scan, a longer one by the end indexes.  Both regimes must
    return the exact overlapping entries, in queue order."""

    def varied_entry(self, position, rng):
        # Paired positions share a nominal time (keys tie on entry id);
        # windows of 500/1000 touch their neighbours' starts exactly.
        nominal = 1_000 * (position // 2) + rng.choice([0, 0, 500])
        shape = position % 4
        if shape == 0:  # zero-width window
            return entry_at(nominal, window=0, grace=rng.choice([0, 2_000]))
        if shape == 1:  # disjoint windows inside overlapping graces
            return QueueEntry(
                [
                    make_alarm(nominal=nominal, window=100, grace=5_000),
                    make_alarm(nominal=nominal + 1_000, window=100, grace=5_000),
                ]
            )
        return entry_at(nominal, window=rng.choice([500, 1_000]), grace=3_000)

    def probes(self, entries, rng):
        probes = [Interval(0, 10_000_000)]
        for entry in entries:
            for interval in (entry.window, entry.grace):
                if interval is not None:
                    probes += [
                        Interval(interval.start, interval.start),
                        Interval(interval.end, interval.end),
                        Interval(interval.end + 1, interval.end + 1),
                        Interval(max(0, interval.start - 300), interval.start - 1)
                        if interval.start > 0
                        else Interval(0, 0),
                    ]
        for _ in range(10):
            start = rng.randrange(0, 30_000)
            probes.append(Interval(start, start + rng.choice([0, 400, 2_500])))
        return probes

    def assert_regimes_agree(self, queue, rng):
        backend = queue._backend
        entries = list(backend.entries())
        for kind in ("window", "grace"):
            query = getattr(backend, f"{kind}_candidates")
            for probe in self.probes(entries, rng):
                expected = overlapping(entries, kind, probe)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(backend_module, "SHORT_QUEUE", len(backend))
                    scanned = query(probe)
                    patch.setattr(backend_module, "SHORT_QUEUE", 0)
                    indexed = query(probe)
                assert scanned == expected, (kind, probe)
                assert indexed == expected, (kind, probe)
                assert query(probe) == expected, (kind, probe)

    def pin_stray(self, queue, entry, offset):
        # Pinning the interval the key does not follow breaks "interval
        # start == key" (as BUCKET does), forcing the stray path.
        pinned = "window" if queue.grace_mode else "grace"
        start = entry.delivery_time(queue.grace_mode) + offset
        queue.update_entry(
            entry, lambda e: setattr(e, pinned, Interval(start, start + 200))
        )

    @pytest.mark.parametrize("grace_mode", [False, True])
    @pytest.mark.parametrize(
        "size", [SHORT_QUEUE - 1, SHORT_QUEUE, SHORT_QUEUE + 1]
    )
    def test_regimes_agree_around_the_threshold(self, size, grace_mode):
        rng = random.Random(size * 2 + grace_mode)
        queue = AlarmQueue(grace_mode=grace_mode)
        entries = [self.varied_entry(position, rng) for position in range(size)]
        for entry in entries:
            queue.add_entry(entry)
        self.assert_regimes_agree(queue, rng)
        self.pin_stray(queue, entries[size // 2], 700)
        self.assert_regimes_agree(queue, rng)

    @pytest.mark.parametrize("grace_mode", [False, True])
    def test_regimes_agree_growing_past_and_shrinking_below(self, grace_mode):
        rng = random.Random(7 + grace_mode)
        queue = AlarmQueue(grace_mode=grace_mode)
        entries = []
        for position in range(SHORT_QUEUE + 4):
            entries.append(self.varied_entry(position, rng))
            queue.add_entry(entries[-1])
            if position == SHORT_QUEUE - 2:
                self.pin_stray(queue, entries[3], -400)
            self.assert_regimes_agree(queue, rng)
        # Back in line: the stray is re-pinned where its key says.
        self.pin_stray(queue, entries[3], 0)
        while len(queue):
            if len(queue) % 3:
                queue.remove_entry(rng.choice(list(queue.entries())))
            else:
                queue.pop_due(queue.next_delivery_time())
            self.assert_regimes_agree(queue, rng)

    def test_end_index_is_built_on_the_first_long_query(self):
        rng = random.Random(3)
        queue = AlarmQueue(grace_mode=True)
        backend = queue._backend
        for position in range(SHORT_QUEUE):
            queue.add_entry(self.varied_entry(position, rng))
        probe = Interval(0, 10_000_000)
        queue.window_candidates(probe)
        queue.grace_candidates(probe)
        assert backend._kinds == {}
        queue.add_entry(self.varied_entry(SHORT_QUEUE, rng))
        assert backend._kinds == {}
        found = queue.grace_candidates(probe)
        assert set(backend._kinds) == {"grace"}
        assert len(backend._kinds["grace"].ends) == SHORT_QUEUE + 1
        assert found == list(queue.entries())
        queue.window_candidates(probe)
        assert set(backend._kinds) == {"grace", "window"}
