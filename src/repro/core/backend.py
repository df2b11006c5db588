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
    The default.  One ``bisect``-sorted list of ``(delivery_time,
    entry_id, entry)`` records is the queue order and the start index of
    every interval.  A queue of at most :data:`SHORT_QUEUE` entries is
    answered by one in-order scan; only a longer one builds the end index
    its queries need.  Its candidate sets are *exact* for interval
    overlap in either regime, so a policy that re-checks overlap (all of
    ours do) makes bit-identical decisions on either backend.

Mutation discipline (enforced by the facade): an entry is mutated in
place and then handed to :meth:`QueueBackend.refresh`; a backend never
reads an entry between the two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

#: A backend's record of an entry: its sort key, then the entry itself.
Record = Tuple[int, int, QueueEntry]


class QueueBackend(ABC):
    """Storage + index layer behind :class:`~repro.core.queue.AlarmQueue`.

    Constructed with the queue's ``grace_mode`` because the sort key —
    ``(entry.delivery_time(grace_mode), entry.entry_id)`` — depends on it.
    """

    #: Registry name of the backend ("list", "indexed", ...).
    name: str = "abstract"

    def __init__(self, grace_mode: bool) -> None:
        self.grace_mode = grace_mode

    def key(self, entry: QueueEntry) -> Tuple[int, int]:
        """The entry's current sort key."""
        return (entry.delivery_time(self.grace_mode), entry.entry_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @abstractmethod
    def add(self, entry: QueueEntry) -> None:
        """Index ``entry`` under its current key and intervals."""

    @abstractmethod
    def refresh(self, entry: QueueEntry) -> None:
        """Re-index a present ``entry`` after an in-place mutation: a
        ``discard`` before it plus an ``add`` after it (keys are unique)."""

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
        """Index many entries at once (a rebatch rebuilding the queue)."""
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @abstractmethod
    def entries(self) -> Iterator[QueueEntry]:
        """Entries in increasing key order."""

    @abstractmethod
    def head(self) -> Optional[Record]:
        """The record with the smallest key, or ``None`` when empty."""

    def peek(self) -> Optional[QueueEntry]:
        """The entry with the smallest key, or ``None`` when empty."""
        head = self.head()
        return None if head is None else head[2]

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

    def refresh(self, entry: QueueEntry) -> None:
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

    def head(self) -> Optional[Record]:
        entries = self._entries
        return (*self.key(entries[0]), entries[0]) if entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        return list(self._entries)

    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        return list(self._entries)


#: Sentinel larger than any real entry id, for inclusive bisect bounds.
_MAX_ID = float("inf")

#: The longest queue :class:`IndexedBackend` answers with one in-order
#: scan instead of an end index.  Up to it, filing every mutation in an
#: end index costs more than the index saves a query: the crossover table
#: in ``BENCH_queue_backend.json`` (written by
#: ``benchmarks/test_bench_policy_overhead.py``) has the forced scan
#: ahead of the forced index, or level with it, at every size through 64
#: on both policies; at 128 the index starts to win.
SHORT_QUEUE = 64


def _windows_overlapping(
    records: List[Record], start: int, end: int
) -> List[QueueEntry]:
    """The entries in ``records`` whose window meets ``[start, end]``."""
    return [
        e
        for _, _, e in records
        if (w := e.window) is not None and w.end >= start and w.start <= end
    ]


def _graces_overlapping(
    records: List[Record], start: int, end: int
) -> List[QueueEntry]:
    """The entries in ``records`` whose grace meets ``[start, end]``."""
    return [
        e
        for _, _, e in records
        if (g := e.grace) is not None and g.end >= start and g.start <= end
    ]


#: The filter every query path shares, per interval kind; it reads the
#: attribute inline (an ``attrgetter`` call per entry costs ~40% more).
_OVERLAPPING = {"window": _windows_overlapping, "grace": _graces_overlapping}


class _EndIndex:
    """The end-sorted side of one interval kind (window or grace).

    ``ends`` holds ``(end, entry_id)`` for every entry whose interval of
    this kind exists, ``indexed`` the end each is filed under.
    ``strays`` names the entries whose interval does not start at their
    key: while any exists, queries of this kind scan every entry.
    """

    __slots__ = ("kind", "ends", "indexed", "strays")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ends: List[Tuple[int, int]] = []
        self.indexed: Dict[int, int] = {}
        self.strays: Set[int] = set()

    def file(self, record: Record) -> None:
        """File a new or mutated entry's ``record`` under its interval."""
        _, entry_id, entry = record
        interval = getattr(entry, self.kind)
        end = None if interval is None else interval.end
        if end != self.indexed.get(entry_id):
            self.discard(entry_id)
            if end is not None:
                insort(self.ends, (end, entry_id))
                self.indexed[entry_id] = end
        if interval is not None and interval.start != record[0]:
            self.strays.add(entry_id)
        else:
            self.strays.discard(entry_id)

    def discard(self, entry_id: int) -> None:
        end = self.indexed.pop(entry_id, None)
        if end is not None:
            del self.ends[bisect_left(self.ends, (end, entry_id))]
        self.strays.discard(entry_id)


class IndexedBackend(QueueBackend):
    """Sorted-order backend whose key list doubles as the start index.

    An entry's delivery time is the earliest point of its window or grace
    intersection, and both start at the members' latest nominal time
    (Sec. 3.2.1), so an interval's start *is* its entry's key.  A query
    returns, in queue order, the straddlers of the probe's start (from
    the key prefix or, when shorter, an end-sorted suffix), then the
    intervals starting inside the probe (a bisect range of the keys).

    A query on a queue of at most :data:`SHORT_QUEUE` entries instead
    tests every entry's interval in one in-order pass: the same entries,
    in the same order.  A kind's end list (:class:`_EndIndex`) is built
    on the first query that finds the queue longer; until then mutations
    file nothing, and once built it is kept until :meth:`clear`.
    :meth:`refresh` moves only the records whose value changed.
    """

    name = "indexed"

    def __init__(self, grace_mode: bool) -> None:
        super().__init__(grace_mode)
        self._order: List[Record] = []
        self._records: Dict[int, Record] = {}
        self._kinds: Dict[str, _EndIndex] = {}

    def add(self, entry: QueueEntry) -> None:
        record = (*self.key(entry), entry)
        self._records[entry.entry_id] = record
        # Keys are unique (entry_id tie-break), so the entry itself is
        # never compared during the insort.
        insort(self._order, record)
        for index in self._kinds.values():
            index.file(record)

    def refresh(self, entry: QueueEntry) -> None:
        record = self._records[entry.entry_id]
        time = entry.delivery_time(self.grace_mode)
        if time != record[0]:
            del self._order[bisect_left(self._order, record[:2])]
            record = self._records[entry.entry_id] = (time, entry.entry_id, entry)
            insort(self._order, record)
        for index in self._kinds.values():
            index.file(record)

    def discard(self, entry: QueueEntry) -> None:
        record = self._records.pop(entry.entry_id, None)
        if record is None:
            return
        # The key is unique, so the entry sits exactly at this position.
        del self._order[bisect_left(self._order, record[:2])]
        for index in self._kinds.values():
            index.discard(entry.entry_id)

    def pop_head(self) -> QueueEntry:
        entry = self._order[0][2]
        self.discard(entry)
        return entry

    def clear(self) -> None:
        self._order.clear()
        self._records.clear()
        self._kinds.clear()

    def entries(self) -> Iterator[QueueEntry]:
        return (record[2] for record in self._order)

    def head(self) -> Optional[Record]:
        return self._order[0] if self._order else None

    def __len__(self) -> int:
        return len(self._order)

    def window_candidates(self, probe: Interval) -> List[QueueEntry]:
        return self._overlapping("window", probe)

    def grace_candidates(self, probe: Interval) -> List[QueueEntry]:
        return self._overlapping("grace", probe)

    def _overlapping(self, kind: str, probe: Interval) -> List[QueueEntry]:
        """Every entry whose ``kind`` interval overlaps ``probe`` (closed
        intervals: touching endpoints count), in queue order."""
        order, overlapping = self._order, _OVERLAPPING[kind]
        start, end = probe.start, probe.end
        if len(order) <= SHORT_QUEUE:
            return overlapping(order, start, end)
        index = self._kinds.get(kind)
        if index is None:
            index = self._kinds[kind] = _EndIndex(kind)
            for record in order:
                index.file(record)
        if index.strays:
            return overlapping(order, start, end)
        # Keys up to ``lo`` start at or before ``start``; keys in
        # ``[lo, hi)`` start inside ``(start, end]``, so overlap it.
        lo = bisect_right(order, (start, _MAX_ID))
        hi = bisect_right(order, (end, _MAX_ID), lo)
        # The straddlers of ``start``: walk the shorter of the key prefix
        # and the suffix of the end list from ``start``.
        ends = index.ends
        suffix_lo = bisect_left(ends, (start,))
        if lo <= len(ends) - suffix_lo:
            # An interval starting inside the probe also ends after start.
            return overlapping(order[:hi], start, end)
        records = self._records
        straddling = sorted(
            record
            for _, entry_id in ends[suffix_lo:]
            if (record := records[entry_id])[0] <= start
        )
        found = [entry for _, _, entry in straddling]
        found += overlapping(order[lo:hi], start, end)
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
