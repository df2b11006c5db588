"""Queue entries: groups of alarms scheduled for joint delivery.

Sec. 3.2.1 defines five attributes for each entry.  The *window* (resp.
*grace*) interval of an entry is the intersection of the window (resp. grace)
intervals of its member alarms; the *hardware set* is the union of the
members' hardware sets; an entry is *perceptible* when any member is; and the
*delivery time* of a perceptible (resp. imperceptible) entry is the earliest
point of its window (resp. grace) interval.

Android's NATIVE policy has no grace intervals and always delivers at the
earliest point of the window intersection; the entry therefore exposes the
delivery time as a function of a ``grace_mode`` flag chosen by the policy.

An invariant maintained by both policies: a *perceptible* entry always has a
non-empty window intersection, because perceptible alarms may only join (or
be joined by) entries with high time similarity.

These attributes change only when membership does, so the entry updates
window, grace, hardware and perceptibility in :meth:`QueueEntry.add` and
rebuilds them on removal; queries read them instead of rescanning members.
Member perceptibility is stable while an alarm is queued: it only flips
when the alarm is delivered (footnote 5), and a delivered alarm has
already left its entry.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Optional, Set

from .alarm import Alarm
from .hardware import EMPTY_HARDWARE, Component, HardwareSet
from .intervals import Interval

_ENTRY_IDS = itertools.count(1)


class QueueEntry:
    """A batch of alarms to be delivered together."""

    __slots__ = (
        "entry_id",
        "alarms",
        "window",
        "grace",
        "hardware",
        "perceptible",
    )

    def __init__(self, alarms: Iterable[Alarm] = ()) -> None:
        self.entry_id = next(_ENTRY_IDS)
        self.alarms: List[Alarm] = []
        self.window: Optional[Interval] = None
        self.grace: Optional[Interval] = None
        self.hardware: HardwareSet = EMPTY_HARDWARE
        #: True when any member is perceptible (Sec. 3.2.1).
        self.perceptible = False
        for alarm in alarms:
            self.add(alarm)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, alarm: Alarm) -> None:
        """Add ``alarm`` and narrow the entry's intervals.

        The caller (the alignment policy) is responsible for having checked
        applicability; this method only maintains the attribute algebra.
        """
        if alarm in self.alarms:
            raise ValueError(f"alarm {alarm.label} already in entry")
        self.alarms.append(alarm)
        window = alarm.window_interval()
        grace = alarm.grace_interval()
        if len(self.alarms) == 1:
            self.window = window
            self.grace = grace
        else:
            if self.window is not None:
                self.window = self.window.intersect(window)
            if self.grace is not None:
                self.grace = self.grace.intersect(grace)
        self.hardware = self.hardware.union(alarm.hardware)
        if alarm.is_perceptible():
            self.perceptible = True

    def remove(self, alarm: Alarm) -> None:
        """Remove ``alarm`` and rebuild the entry attributes from scratch."""
        self.alarms.remove(alarm)
        self._recompute()

    def _recompute(self) -> None:
        """Rebuild every attribute from the members in one pass.

        An intersection of closed intervals is ``[max of starts, min of
        ends]``, empty when those cross, so the members' integer bounds
        stand in for pairwise interval intersections.
        """
        if not self.alarms:
            self.window = self.grace = None
            self.hardware = EMPTY_HARDWARE
            self.perceptible = False
            return
        start = -math.inf
        window_end = grace_end = math.inf
        components: Set[Component] = set()
        perceptible = False
        for alarm in self.alarms:
            nominal = alarm.nominal_time
            if nominal > start:
                start = nominal
            if nominal + alarm.window_length < window_end:
                window_end = nominal + alarm.window_length
            if nominal + alarm.grace_length < grace_end:
                grace_end = nominal + alarm.grace_length
            components |= alarm.hardware.components
            perceptible = perceptible or alarm.is_perceptible()
        self.window = _bounded(start, window_end)
        self.grace = _bounded(start, grace_end)
        self.hardware = HardwareSet(components)
        self.perceptible = perceptible

    # ------------------------------------------------------------------
    # Attributes (Sec. 3.2.1)
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.alarms

    def is_perceptible(self) -> bool:
        """True when the entry contains any perceptible alarm."""
        return self.perceptible

    def delivery_time(self, grace_mode: bool) -> int:
        """When the entry should be delivered.

        With ``grace_mode`` (SIMTY): the earliest point of the window
        interval for perceptible entries, of the grace interval for
        imperceptible entries.  Without it (NATIVE): always the earliest
        point of the window interval.
        """
        if self.is_empty():
            raise ValueError("empty entry has no delivery time")
        if grace_mode and not self.perceptible:
            assert self.grace is not None, "grace intersection vanished"
            return self.grace.start
        if self.window is None:
            # Defensive fallback: an imperceptible entry queried in
            # non-grace mode after grace-based alignment.
            assert self.grace is not None
            return self.grace.start
        return self.window.start

    def contains_alarm_id(self, alarm_id: int) -> Optional[Alarm]:
        """Return the member with ``alarm_id`` if present."""
        for alarm in self.alarms:
            if alarm.alarm_id == alarm_id:
                return alarm
        return None

    def __len__(self) -> int:
        return len(self.alarms)

    def __iter__(self):
        return iter(self.alarms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        labels = ", ".join(alarm.label for alarm in self.alarms)
        return f"QueueEntry#{self.entry_id}[{labels}]"


def _bounded(start: int, end: int) -> Optional[Interval]:
    """``[start, end]``, or ``None`` when the bounds cross."""
    return Interval(start, end) if start <= end else None
