"""Pluggable queue backends: the scheduling kernel's storage layer.

:class:`~repro.core.queue.AlarmQueue` is a thin facade over a
:class:`QueueBackend`, which owns three concerns:

* **ordered iteration** — entries in increasing ``(delivery_time,
  entry_id)`` order, the scan order both policies' first-found
  tie-breaking depends on (Sec. 2.1: "the registered alarms are queued in
  the increasing order of their delivery times");
* **id-addressed membership** — an ``alarm_id -> entry`` map so removals
  and lookups never scan entries times members;
* **overlap-candidate queries** — given an incoming alarm's window or
  grace interval, the entries whose corresponding interval *can* overlap
  it, returned in queue order so a first-found selection over the
  candidates is identical to one over the full queue.

Two implementations ship:

:class:`ListBackend`
    The reference semantics and the paper-era data structure: a plain
    list fully re-sorted on every mutation, with candidate queries that
    return *every* entry (the policy filters, exactly as the paper's
    sequential scan of the queue).  Obviously correct, O(n) per
    operation, and the test oracle every other backend is differentially
    fuzzed against.

:class:`IndexedBackend`
    The default.  Sort order maintained incrementally with
    ``bisect.insort`` keyed on ``(delivery_time, entry_id)``, plus a
    sorted interval-endpoint index per interval kind (window / grace).
    Candidate queries touch only entries whose indexed interval can
    overlap the probe:

    * entries whose interval **starts inside** ``(q.start, q.end]`` are a
      contiguous bisect range of the start-sorted index;
    * entries whose interval **straddles** ``q.start`` (start <=
      q.start <= end) are found by scanning the cheaper of the
      start-prefix and the end-suffix around ``q.start``.

    The candidate set is *exact* for interval overlap — every returned
    entry's indexed interval overlaps the probe, and no overlapping entry
    is missed — so a policy that re-checks overlap (all of ours do)
    produces bit-identical decisions on either backend.

Mutation discipline (enforced by the facade): an entry's delivery time
and intervals may only change while the entry is *outside* the backend —
``discard`` before mutating, ``add`` after — so the indexed keys always
match the entry's current attributes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple

from .entry import QueueEntry
from .intervals import Interval

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "IndexedBackend",
    "ListBackend",
    "QueueBackend",
    "make_backend",
]

#: Sort key of an entry inside a backend.
OrderKey = Tuple[int, int]


class QueueBackend(ABC):
    """Storage + index layer behind :class:`~repro.core.queue.AlarmQueue`.

    Constructed with the queue's ``grace_mode`` because the sort key —
    ``(entry.delivery_time(grace_mode), entry.entry_id)`` — depends on it.
    """

    #: Registry name of the backend ("list", "indexed", ...).
    name: str = "abstract"

    def __init__(self, grace_mode: bool) -> None:
        self.grace_mode = grace_mode

    def key(self, entry: QueueEntry) -> OrderKey:
        """The entry's current sort key."""
        return (entry.delivery_time(self.grace_mode), entry.entry_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @abstractmethod
    def add(self, entry: QueueEntry) -> None:
        """Index ``entry`` under its current key and intervals."""

    @abstractmethod
    def discard(self, entry: QueueEntry) -> None:
        """Remove ``entry``; a no-op when it is not present."""

    @abstractmethod
    def pop_head(self) -> QueueEntry:
        """Remove and return the entry with the smallest key."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry."""

    def bulk_load(self, entries: List[QueueEntry]) -> None:
        """Index many entries at once (a rebatch rebuilding the queue).

        Backends may override to amortise ordering work across the whole
        batch instead of paying the per-``add`` cost ``len(entries)``
        times.
        """
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @abstractmethod
    def entries(self) -> Iterator[QueueEntry]:
        """Entries in increasing key order."""

    @abstractmethod
    def peek(self) -> Optional[QueueEntry]:
        """The entry with the smallest key, or ``None`` when empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of entries."""

    # ------------------------------------------------------------------
    # Overlap-candidate queries
    # ------------------------------------------------------------------
    @abstractmethod
    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        """Entries whose window interval can overlap ``probe``, in queue
        order.  May over-approximate (the policy re-checks) but must never
        miss an entry whose window overlaps ``probe``."""

    @abstractmethod
    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        """Entries whose grace interval can overlap ``probe``, in queue
        order.  Same superset contract as :meth:`window_candidates`."""


class ListBackend(QueueBackend):
    """The reference backend: a plain list re-sorted on every mutation.

    Candidate queries return the full entry list in queue order — the
    policy's own overlap/applicability checks do all the filtering,
    byte-for-byte as the seed implementation scanned ``queue.entries()``.
    """

    name = "list"

    def __init__(self, grace_mode: bool) -> None:
        super().__init__(grace_mode)
        self._entries: List[QueueEntry] = []

    def add(self, entry: QueueEntry) -> None:
        self._entries.append(entry)
        self._entries.sort(key=self.key)

    def discard(self, entry: QueueEntry) -> None:
        # QueueEntry has identity equality, so this is an identity scan.
        try:
            self._entries.remove(entry)
        except ValueError:
            pass

    def bulk_load(self, entries: List[QueueEntry]) -> None:
        self._entries.extend(entries)
        self._entries.sort(key=self.key)

    def pop_head(self) -> QueueEntry:
        return self._entries.pop(0)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> Iterator[QueueEntry]:
        return iter(self._entries)

    def peek(self) -> Optional[QueueEntry]:
        return self._entries[0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        return list(self._entries)

    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        return list(self._entries)


class _IntervalIndex:
    """A sorted interval-endpoint index over queue entries.

    Holds, per indexed entry, the interval it was indexed under, plus two
    sorted endpoint lists — ``(start, entry_id)`` and ``(end, entry_id)``
    — maintained with ``bisect``.  Entries whose interval is ``None``
    (an imperceptible batch whose window intersection vanished) are
    simply absent: they can never overlap anything.
    """

    __slots__ = ("_intervals", "_starts", "_ends")

    def __init__(self) -> None:
        self._intervals: Dict[int, Tuple[Interval, QueueEntry]] = {}
        self._starts: List[Tuple[int, int]] = []
        self._ends: List[Tuple[int, int]] = []

    def add(self, entry: QueueEntry, interval: Optional[Interval]) -> None:
        if interval is None:
            return
        self._intervals[entry.entry_id] = (interval, entry)
        insort(self._starts, (interval.start, entry.entry_id))
        insort(self._ends, (interval.end, entry.entry_id))

    def discard(self, entry: QueueEntry) -> None:
        record = self._intervals.pop(entry.entry_id, None)
        if record is None:
            return
        interval, _ = record
        start_pos = bisect_left(self._starts, (interval.start, entry.entry_id))
        del self._starts[start_pos]
        end_pos = bisect_left(self._ends, (interval.end, entry.entry_id))
        del self._ends[end_pos]

    def clear(self) -> None:
        self._intervals.clear()
        self._starts.clear()
        self._ends.clear()

    def overlapping(self, probe: Interval) -> List[QueueEntry]:
        """Every indexed entry whose interval overlaps ``probe`` (closed
        intervals: touching endpoints count), in arbitrary order."""
        intervals = self._intervals
        starts = self._starts
        found: List[QueueEntry] = []
        # Part 1 — intervals starting strictly inside (probe.start,
        # probe.end]: a contiguous bisect range; every one overlaps
        # (start <= probe.end, and end >= start > probe.start).
        lo = bisect_right(starts, (probe.start, _MAX_ID))
        hi = bisect_right(starts, (probe.end, _MAX_ID))
        for index in range(lo, hi):
            found.append(intervals[starts[index][1]][1])
        # Part 2 — intervals straddling probe.start (start <= probe.start
        # <= end): scan whichever side of the endpoint lists is shorter
        # and filter with the stored interval.
        prefix = lo  # entries with start <= probe.start
        suffix_lo = bisect_left(self._ends, (probe.start, -1))
        suffix = len(self._ends) - suffix_lo  # entries with end >= probe.start
        if prefix <= suffix:
            for index in range(prefix):
                interval, entry = intervals[starts[index][1]]
                if interval.end >= probe.start:
                    found.append(entry)
        else:
            ends = self._ends
            for index in range(suffix_lo, len(ends)):
                interval, entry = intervals[ends[index][1]]
                if interval.start <= probe.start:
                    found.append(entry)
        return found


#: Sentinel larger than any real entry id, for inclusive bisect bounds.
_MAX_ID = float("inf")


class IndexedBackend(QueueBackend):
    """Sorted-order backend with id-addressed removal and interval indexes.

    * ``bisect.insort`` keeps ``(delivery_time, entry_id)`` order without
      re-sorting — O(log n) search plus a memmove per mutation;
    * an ``entry_id -> key`` map makes removals position-addressed;
    * two :class:`_IntervalIndex` instances (window, grace) answer the
      policies' overlap-candidate queries in O(log n + candidates +
      min(prefix, suffix)) instead of O(n) classification work.

    Candidates are returned sorted by queue key, so first-found selection
    over them is bit-identical to a full in-order scan (Table 1 ties
    resolve the same way).
    """

    name = "indexed"

    def __init__(self, grace_mode: bool) -> None:
        super().__init__(grace_mode)
        self._order: List[Tuple[OrderKey, QueueEntry]] = []
        self._keys: Dict[int, OrderKey] = {}
        self._windows = _IntervalIndex()
        self._graces = _IntervalIndex()

    def add(self, entry: QueueEntry) -> None:
        key = self.key(entry)
        self._keys[entry.entry_id] = key
        # Keys are unique (entry_id tie-break), so the entry itself is
        # never compared during the insort.
        insort(self._order, (key, entry))
        self._windows.add(entry, entry.window)
        self._graces.add(entry, entry.grace)

    def discard(self, entry: QueueEntry) -> None:
        key = self._keys.pop(entry.entry_id, None)
        if key is None:
            return
        position = bisect_left(self._order, (key,))
        # The key is unique, so the entry sits exactly at `position`.
        del self._order[position]
        self._windows.discard(entry)
        self._graces.discard(entry)

    def pop_head(self) -> QueueEntry:
        _, entry = self._order[0]
        self.discard(entry)
        return entry

    def clear(self) -> None:
        self._order.clear()
        self._keys.clear()
        self._windows.clear()
        self._graces.clear()

    def entries(self) -> Iterator[QueueEntry]:
        return (entry for _, entry in self._order)

    def peek(self) -> Optional[QueueEntry]:
        return self._order[0][1] if self._order else None

    def __len__(self) -> int:
        return len(self._order)

    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        return self._in_queue_order(self._windows.overlapping(probe))

    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        return self._in_queue_order(self._graces.overlapping(probe))

    def _in_queue_order(self, found: List[QueueEntry]) -> List[QueueEntry]:
        keys = self._keys
        found.sort(key=lambda entry: keys[entry.entry_id])
        return found


_BACKENDS = {
    ListBackend.name: ListBackend,
    IndexedBackend.name: IndexedBackend,
}

#: Names accepted by :func:`make_backend` (and everything threading a
#: backend selection: ``SimulatorConfig.queue_backend``, policy
#: constructors, the ``--queue-backend`` CLI flag).
BACKEND_NAMES = tuple(sorted(_BACKENDS))

#: The default: the indexed backend returns traces byte-identical to the
#: list oracle at a fraction of the cost.
DEFAULT_BACKEND = IndexedBackend.name


def make_backend(name: str, grace_mode: bool) -> QueueBackend:
    """Construct the backend registered under ``name``."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown queue backend {name!r}; choose from {list(BACKEND_NAMES)}"
        ) from None
    return factory(grace_mode)
