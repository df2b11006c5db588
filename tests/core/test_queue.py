"""The time-ordered alarm queue."""

import pytest

from repro.core.bucket import FixedIntervalPolicy
from repro.core.entry import QueueEntry
from repro.core.intervals import Interval
from repro.core.queue import AlarmQueue

from ..conftest import make_alarm


def queue_with(*nominals, grace_mode=False):
    queue = AlarmQueue(grace_mode=grace_mode)
    alarms = []
    for nominal in nominals:
        alarm = make_alarm(nominal=nominal, window=10, grace=1_000)
        alarms.append(alarm)
        queue.add_entry(QueueEntry([alarm]))
    return queue, alarms


class TestOrdering:
    def test_entries_sorted_by_delivery_time(self):
        queue, _ = queue_with(5_000, 1_000, 3_000)
        times = [entry.delivery_time(False) for entry in queue.entries()]
        assert times == sorted(times)

    def test_peek_returns_earliest(self):
        queue, _ = queue_with(5_000, 1_000)
        assert queue.peek().delivery_time(False) == 1_000

    def test_tie_broken_by_entry_id(self):
        queue, _ = queue_with(1_000, 1_000)
        first, second = list(queue.entries())
        assert first.entry_id < second.entry_id

    def test_reindex_after_entry_mutation(self):
        queue = AlarmQueue(grace_mode=False)
        wide = QueueEntry([make_alarm(nominal=3_000, window=3_000)])
        point = QueueEntry([make_alarm(nominal=4_000, window=10)])
        queue.add_entry(wide)
        queue.add_entry(point)
        assert queue.peek() is wide
        # Joining a later alarm narrows the wide entry's window and pushes
        # its delivery time behind the point entry's; add_to_entry keeps
        # the order (and the alarm map) right without any manual resort.
        joiner = make_alarm(nominal=4_500, window=100)
        queue.add_to_entry(wide, joiner)
        assert queue.peek() is point
        assert queue.find_alarm(joiner.alarm_id) is wide

    def test_update_entry_reindexes(self):
        queue = AlarmQueue(grace_mode=False)
        first = QueueEntry([make_alarm(nominal=1_000, window=100)])
        second = QueueEntry([make_alarm(nominal=2_000, window=100)])
        queue.add_entry(first)
        queue.add_entry(second)
        queue.update_entry(
            first, lambda entry: setattr(entry, "window", Interval(5_000, 5_000))
        )
        assert queue.peek() is second


class TestMutation:
    def test_empty_entry_rejected(self):
        queue = AlarmQueue(grace_mode=False)
        with pytest.raises(ValueError):
            queue.add_entry(QueueEntry())

    def test_remove_alarm_by_identity(self):
        queue, alarms = queue_with(1_000, 2_000)
        removed = queue.remove_alarm(alarms[0])
        assert removed is alarms[0]
        assert queue.alarm_count() == 1

    def test_remove_missing_alarm_returns_none(self):
        queue, _ = queue_with(1_000)
        assert queue.remove_alarm(make_alarm(nominal=99)) is None

    def test_removing_last_member_drops_entry(self):
        queue, alarms = queue_with(1_000)
        queue.remove_alarm(alarms[0])
        assert len(queue) == 0
        assert not queue

    def test_remove_from_shared_entry_keeps_entry(self):
        queue = AlarmQueue(grace_mode=False)
        first = make_alarm(nominal=1_000, window=100)
        second = make_alarm(nominal=1_050, window=100)
        queue.add_entry(QueueEntry([first, second]))
        queue.remove_alarm(first)
        assert len(queue) == 1
        assert queue.alarm_count() == 1

    @pytest.mark.parametrize("backend", ["list", "indexed"])
    def test_remove_alarm_refuses_to_leave_an_entry_without_delivery_time(
        self, backend
    ):
        # BUCKET pins three zero-window alarms to one boundary.  Without
        # the first, the others' own intervals share no instant, so the
        # rebuilt entry would have no delivery time.
        policy = FixedIntervalPolicy(bucket_interval=300_000)
        queue = AlarmQueue(grace_mode=policy.grace_mode, backend=backend)
        alarms = [make_alarm(nominal=t) for t in (100_000, 120_000, 150_000)]
        for alarm in alarms:
            policy.insert(queue, alarm, 0)
        (entry,) = queue.entries()
        with pytest.raises(ValueError, match="detach_batch"):
            queue.remove_alarm(alarms[0])
        # Nothing moved: the entry, its pin, the alarm map and the index.
        assert list(entry) == alarms
        assert entry.window == entry.grace == Interval(300_000, 300_000)
        assert [queue.find_alarm(a.alarm_id) for a in alarms] == [entry] * 3
        assert list(queue.entries()) == [entry]
        assert queue.window_candidates(Interval(300_000, 300_000)) == [entry]
        assert queue.next_delivery_time() == 300_000
        removed, mates = queue.detach_batch(alarms[0])
        assert removed is alarms[0] and mates == alarms[1:]
        assert len(queue) == 0

    def test_drain_returns_all_alarms(self):
        queue, alarms = queue_with(1_000, 2_000, 3_000)
        drained = queue.drain()
        assert set(drained) == set(alarms)
        assert len(queue) == 0


class TestDuePopping:
    def test_pop_due_respects_time(self):
        queue, _ = queue_with(1_000, 2_000)
        assert queue.pop_due(500) is None
        entry = queue.pop_due(1_000)
        assert entry is not None
        assert entry.delivery_time(False) == 1_000

    def test_pop_due_drains_in_order(self):
        queue, _ = queue_with(1_000, 2_000)
        times = []
        while (entry := queue.pop_due(10_000)) is not None:
            times.append(entry.delivery_time(False))
        assert times == [1_000, 2_000]

    def test_next_delivery_time(self):
        queue, _ = queue_with(4_000)
        assert queue.next_delivery_time() == 4_000
        queue.drain()
        assert queue.next_delivery_time() is None

    def test_find_alarm(self):
        queue, alarms = queue_with(1_000)
        assert queue.find_alarm(alarms[0].alarm_id) is queue.peek()
        assert queue.find_alarm(-5) is None


class TestGraceMode:
    def test_grace_mode_orders_by_grace_start(self):
        queue = AlarmQueue(grace_mode=True)
        # Imperceptible entry whose grace start is later than another's.
        early = QueueEntry([make_alarm(nominal=2_000, window=10, grace=1_000)])
        late = QueueEntry(
            [
                make_alarm(nominal=1_000, window=10, grace=5_000),
                make_alarm(nominal=4_000, window=10, grace=5_000),
            ]
        )
        queue.add_entry(early)
        queue.add_entry(late)
        assert queue.peek() is early
