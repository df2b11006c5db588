"""Closed time-interval algebra.

Window and grace intervals (Sec. 2.1 and 3.1.2 of the paper) are closed
intervals ``[start, end]`` on the integer millisecond timeline.  Alignment
decisions reduce to overlap tests and intersections of these intervals, so
the whole policy layer is built on this small, well-tested type.

Android treats an alarm with a zero-length window (``alpha = 0``) as
deliverable only at its nominal time; a degenerate interval ``[t, t]`` is
therefore valid and overlaps another interval iff the point lies inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` in simulator ticks.

    ``start`` must not exceed ``end``; use :meth:`Interval.empty` checks via
    :func:`intersect_all` when an intersection may vanish.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(
                f"interval start {self.start} exceeds end {self.end}"
            )

    @property
    def length(self) -> int:
        """Width of the interval in ticks (0 for a point interval)."""
        return self.end - self.start

    def contains(self, instant: int) -> bool:
        """Return ``True`` when ``instant`` lies inside the closed interval."""
        return self.start <= instant <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` when the two closed intervals share a point.

        Touching endpoints count as overlap, consistent with Android's
        batching rule where a batch whose window ends exactly when another
        alarm's window starts can still deliver both together.
        """
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersection with ``other``, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start > end:
            return None
        return Interval(start, end)

    def shift(self, delta: int) -> "Interval":
        """Translate the interval by ``delta`` ticks."""
        return Interval(self.start + delta, self.end + delta)

    def clamp(self, instant: int) -> int:
        """Project ``instant`` onto the interval."""
        return min(max(instant, self.start), self.end)

    def __iter__(self) -> Iterator[int]:
        yield self.start
        yield self.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end}]"


def intersect_all(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Intersection of every interval, or ``None`` when it is empty.

    An empty iterable has no well-defined intersection and raises
    ``ValueError`` instead of silently returning the universe.
    """
    result: Optional[Interval] = None
    seen = False
    for interval in intervals:
        seen = True
        if result is None:
            result = interval
        else:
            result = result.intersect(interval)
            if result is None:
                return None
    if not seen:
        raise ValueError("intersection of zero intervals is undefined")
    return result


def overlap_length(first: Interval, second: Interval) -> int:
    """Length of the overlap between two intervals (0 when disjoint or touching)."""
    intersection = first.intersect(second)
    if intersection is None:
        return 0
    return intersection.length
