"""How fast the host runs right now, sampled between a unit's calls.

A shared host's CPU changes speed as other tenants come and go: on a
2-vCPU shared VM a fixed pure-Python loop takes from ~0.6x to 1x of its
slowest time, in stretches from a fraction of a second to many minutes,
and the same replay's rate moved by half between two runs a few minutes
apart.  So every unit times a short reference loop every :data:`EVERY_S`
seconds, between calls into the program (never inside a timed call), and
the benchmark reports host times scaled to a host on which one reference
slice takes :data:`REFERENCE_SLICE_S`: a unit's time by the ratio over all
its slices, one call's time by the ratio over the last :data:`WINDOW`
slices before it.  The reference loop
is benchmark code: a change to the program moves the program's times and
never the slices.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: Seconds between two reference slices.
EVERY_S = 0.05
#: Iterations of one reference slice.
SLICE_ITERATIONS = 4_000
#: The reference host: one slice takes this long (about an uncontended
#: 2-vCPU shared VM running CPython 3.11).
REFERENCE_SLICE_S = 0.0005
#: Slices taken back to back before and after a set-up.
SETUP_SLICES = 16
#: Latest slices that give the host speed around one timed call.
WINDOW = 3


def reference_slice() -> float:
    """Seconds one fixed piece of interpreter work takes now."""
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(SLICE_ITERATIONS):
        total += index * index % 7
        table[index & 255] = total
    return time.perf_counter() - started


def speed_ratio(slices: Sequence[float]) -> float:
    """How many times slower than the reference host the host ran while
    ``slices`` were taken; host seconds ÷ this = reference seconds."""
    if not slices:
        raise ValueError("no reference slices were taken")
    return sum(slices) / len(slices) / REFERENCE_SLICE_S


class SpeedMeter:
    """Reference slices taken at most every :data:`EVERY_S` seconds."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        #: Host seconds spent in slices (to take out of a unit's time).
        self.spent_s = 0.0
        #: Speed ratio over the last :data:`WINDOW` slices: how fast the
        #: host ran around the call being timed now.
        self.ratio = 1.0
        self._next_at = 0.0

    def tick(self) -> None:
        """Take a slice if one is due; call only between timed calls."""
        now = time.perf_counter()
        if now < self._next_at:
            return
        self.slices.append(reference_slice())
        self.ratio = speed_ratio(self.slices[-WINDOW:])
        finished = time.perf_counter()
        self.spent_s += finished - now
        self._next_at = finished + EVERY_S
