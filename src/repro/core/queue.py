"""The time-ordered alarm queue: a facade over a pluggable backend.

Sec. 2.1: "the registered alarms are queued in the increasing order of their
delivery times" and both policies "sequentially examine the queue entries".
The queue therefore keeps entries sorted by their (policy-dependent) delivery
time, with entry id as a deterministic tie-breaker, and exposes the in-order
scan both policies rely on.

Storage and indexing live in a :class:`~repro.core.backend.QueueBackend`
(see that module): ``"indexed"`` (the default) keeps the hot path
sub-linear at large queue sizes, ``"list"`` is the full-scan reference it
is tested against.  The facade owns the *mutation discipline* the
backends rely on: every in-place change to a queued entry is followed by
the backend's ``refresh``, so callers mutate entries through
:meth:`add_to_entry` / :meth:`update_entry` instead of touching them
directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .alarm import Alarm
from .backend import DEFAULT_BACKEND, make_backend
from .entry import QueueEntry
from .intervals import Interval


class AlarmQueue:
    """Entries sorted by delivery time.

    ``grace_mode`` selects how entry delivery times are computed (see
    :meth:`QueueEntry.delivery_time`); it is fixed per queue because a queue
    always belongs to exactly one policy.  ``backend`` names the storage
    backend (:data:`~repro.core.backend.BACKEND_NAMES`).
    """

    def __init__(self, grace_mode: bool, backend: str = DEFAULT_BACKEND) -> None:
        self.grace_mode = grace_mode
        self.backend_name = backend
        self._backend = make_backend(backend, grace_mode)
        #: id-addressed membership: every queued alarm, by alarm_id.  All
        #: removals and lookups route through this map instead of scanning
        #: entries times members.
        self._alarms: Dict[int, QueueEntry] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_entry(self, entry: QueueEntry) -> None:
        if entry.is_empty():
            raise ValueError("cannot queue an empty entry")
        self._backend.add(entry)
        for alarm in entry:
            self._alarms[alarm.alarm_id] = entry

    def remove_entry(self, entry: QueueEntry) -> None:
        self._backend.discard(entry)
        for alarm in entry:
            self._alarms.pop(alarm.alarm_id, None)

    def add_to_entry(self, entry: QueueEntry, alarm: Alarm) -> None:
        """Add ``alarm`` to a queued ``entry``, keeping the indexes right.

        The entry's delivery time and intervals narrow when a member joins,
        so the backend re-indexes whatever moved.
        """
        entry.add(alarm)
        self._backend.refresh(entry)
        self._alarms[alarm.alarm_id] = entry

    def update_entry(
        self, entry: QueueEntry, mutate: Callable[[QueueEntry], None]
    ) -> None:
        """Apply an arbitrary mutation to a queued entry, re-indexing it.

        For callers that adjust entry attributes beyond the member algebra
        (e.g. the BUCKET policy pinning an entry's window to its boundary).
        ``mutate`` must not add or remove member alarms — use
        :meth:`add_to_entry` / :meth:`remove_alarm` for those.
        """
        mutate(entry)
        self._backend.refresh(entry)

    def remove_alarm(self, alarm: Alarm) -> Optional[Alarm]:
        """Remove any queued instance of ``alarm`` (matched by id).

        Returns the removed instance, or ``None`` when the alarm was not
        queued.  Entries emptied by the removal are dropped; entries that
        shrink have their intervals rebuilt and are re-indexed.

        Raises :class:`ValueError`, and changes nothing, when the other
        members' grace intervals share no instant: rebuilt from them, the
        entry would have no delivery time.  Only a forced-alignment
        (BUCKET) entry can hold such members; :meth:`detach_batch` takes
        the whole batch out instead.
        """
        entry = self._alarms.get(alarm.alarm_id)
        if entry is None:
            return None
        found = entry.contains_alarm_id(alarm.alarm_id)
        assert found is not None, "alarm map out of sync with entry members"
        survivors = [member for member in entry.alarms if member is not found]
        if survivors and max(
            member.nominal_time for member in survivors
        ) > min(member.nominal_time + member.grace_length for member in survivors):
            raise ValueError(
                f"removing {found.label or found.alarm_id!r} would leave "
                f"entry #{entry.entry_id} with members whose grace intervals "
                "share no instant, so no delivery time; use detach_batch to "
                "take the whole batch out"
            )
        del self._alarms[alarm.alarm_id]
        entry.remove(found)
        if entry.is_empty():
            self._backend.discard(entry)
        else:
            self._backend.refresh(entry)
        return found

    def detach_batch(self, alarm: Alarm) -> Tuple[Optional[Alarm], List[Alarm]]:
        """Remove ``alarm`` together with the rest of its entry.

        Returns ``(removed, batch_mates)``: the removed instance (``None``
        when the alarm was not queued) and the alarms that shared its
        entry, now unqueued for the caller to re-align.  The entry is
        dropped without being rebuilt or re-indexed: its attributes were
        derived with the removed alarm in the mix, and the members of a
        forced-alignment (BUCKET) entry need not overlap at all, so the
        batch-mates' own intersection may be empty.
        """
        entry = self._alarms.get(alarm.alarm_id)
        if entry is None:
            return None, []
        found = entry.contains_alarm_id(alarm.alarm_id)
        assert found is not None, "alarm map out of sync with entry members"
        self.remove_entry(entry)
        return found, [member for member in entry if member is not found]

    def rebuild(self, entries: List[QueueEntry]) -> None:
        """Replace the queue contents wholesale (NATIVE's rebatch path).

        The entries are bulk-loaded so ordering work is paid once for the
        whole batch rather than once per entry.
        """
        self._backend.clear()
        self._alarms.clear()
        for entry in entries:
            if entry.is_empty():
                raise ValueError("cannot queue an empty entry")
            for alarm in entry:
                self._alarms[alarm.alarm_id] = entry
        self._backend.bulk_load(entries)

    def drain(self) -> List[Alarm]:
        """Remove every entry and return all queued alarms (for rebatching)."""
        alarms = [alarm for entry in self._backend.entries() for alarm in entry]
        self._backend.clear()
        self._alarms.clear()
        return alarms

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[QueueEntry]:
        """Entries in increasing delivery-time order."""
        return self._backend.entries()

    def find_alarm(self, alarm_id: int) -> Optional[QueueEntry]:
        """The entry currently holding ``alarm_id``, if any."""
        return self._alarms.get(alarm_id)

    def peek(self) -> Optional[QueueEntry]:
        """The entry with the earliest delivery time, or ``None``."""
        return self._backend.peek()

    def pop_due(self, now: int) -> Optional[QueueEntry]:
        """Pop the earliest entry if its delivery time has arrived."""
        head = self._backend.head()
        if head is None or head[0] > now:
            return None
        entry = self._backend.pop_head()
        for alarm in entry:
            self._alarms.pop(alarm.alarm_id, None)
        return entry

    def next_delivery_time(self) -> Optional[int]:
        """The head's delivery time, read from its stored sort key."""
        head = self._backend.head()
        return None if head is None else head[0]

    # ------------------------------------------------------------------
    # Overlap-candidate queries (the policies' search pruning)
    # ------------------------------------------------------------------
    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        """Entries whose window interval can overlap ``probe``, queue order.

        A superset of the entries any window-overlap search can select;
        exact (no false positives) on the indexed backend, the full entry
        list on the reference backend.  Callers re-check overlap either
        way, so backend choice never changes a decision.
        """
        return self._backend.window_candidates(probe)

    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        """Entries whose grace interval can overlap ``probe``, queue order.

        Because every alarm's window starts with its grace interval
        (``window ⊆ grace``, Sec. 3.1.2) and entry intervals are member
        intersections, any entry with HIGH *or* MEDIUM time similarity to
        an alarm has a grace interval overlapping the alarm's — so this
        query is an exact candidate set for SIMTY's whole search phase.
        """
        return self._backend.grace_candidates(probe)

    def alarm_count(self) -> int:
        return len(self._alarms)

    def __len__(self) -> int:
        return len(self._backend)

    def __bool__(self) -> bool:
        return len(self._backend) > 0

    def __iter__(self) -> Iterator[QueueEntry]:
        return self.entries()
