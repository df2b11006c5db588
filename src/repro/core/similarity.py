"""Similarity determination (Sec. 3.1) and the preferability ranking (Table 1).

Two orthogonal similarity metrics drive SIMTY:

* **Hardware similarity** reflects the degree of energy savings achievable by
  aligning two alarms.  The default classification is three-level
  (Sec. 3.1.1): *high* when the two wakelocked hardware sets are identical
  and non-empty, *medium* when both are non-empty and partially identical,
  *low* otherwise.  The paper also sketches a two-level and a four-level
  variant; all three are provided as pluggable classifiers so the ablation
  benchmark (A2 in DESIGN.md) can compare them.

* **Time similarity** reflects the user-experience impact: *high* when the
  window intervals overlap, *medium* when the grace intervals (but not the
  windows) overlap, *low* otherwise (Sec. 3.1.2).

Table 1 combines the two into a preferability score where 1 is best and
``inf`` marks an inapplicable entry (time similarity low).
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Dict, FrozenSet, Optional, Tuple

from .hardware import Component, HardwareSet
from .intervals import Interval


class TimeSimilarity(IntEnum):
    """Three-level time similarity (Sec. 3.1.2). Lower value = more similar."""

    HIGH = 0
    MEDIUM = 1
    LOW = 2


class HardwareSimilarity(IntEnum):
    """Three-level hardware similarity (Sec. 3.1.1). Lower value = more similar."""

    HIGH = 0
    MEDIUM = 1
    LOW = 2


def classify_hardware(
    first: HardwareSet, second: HardwareSet
) -> HardwareSimilarity:
    """Default three-level hardware similarity between two hardware sets.

    High: identical and non-empty.  Medium: both non-empty and partially
    identical (they share at least one component but are not identical).
    Low: otherwise — disjoint sets, or either set empty (aligning then saves
    only the device-wakeup energy).
    """
    if first.is_empty() or second.is_empty():
        return HardwareSimilarity.LOW
    if first == second:
        return HardwareSimilarity.HIGH
    if not first.intersection(second).is_empty():
        return HardwareSimilarity.MEDIUM
    return HardwareSimilarity.LOW


def classify_time(
    window_a: Optional[Interval],
    grace_a: Optional[Interval],
    window_b: Optional[Interval],
    grace_b: Optional[Interval],
) -> TimeSimilarity:
    """Three-level time similarity between two (window, grace) interval pairs.

    Queue entries can have an *empty* window intersection (``None``) when all
    their members are imperceptible and were aligned via grace overlap; such
    an entry can never be window-similar to anything.
    """
    if window_a is not None and window_b is not None:
        if window_a.overlaps(window_b):
            return TimeSimilarity.HIGH
    if grace_a is not None and grace_b is not None:
        if grace_a.overlaps(grace_b):
            return TimeSimilarity.MEDIUM
    return TimeSimilarity.LOW


#: A memo key: the component sets of the two hardware sets being ranked.
_PairKey = Tuple[FrozenSet[Component], FrozenSet[Component]]


class HardwareSimilarityClassifier:
    """Interface for pluggable hardware-similarity granularities.

    ``rank`` maps a pair of hardware sets to an integer where 0 is the most
    similar and ``num_ranks - 1`` the least.  The preferability combinator
    (:func:`preference`) only needs this ordering.

    Subclasses define the classification in :meth:`classify`; ``rank``
    memoises it per pair of component sets.  A hardware set holds only
    wakelockable components, of which there are seven, so the memo is
    bounded by 128 × 128 pairs.
    """

    #: Number of distinct ranks produced by :meth:`rank`.
    num_ranks: int = 3

    #: Short name used in reports and sweeps.
    name: str = "abstract"

    #: Human-readable label per rank (index = rank value), used by the
    #: telemetry layer to break SIMTY decisions down per Table 1 cell.
    rank_names: tuple = ("high", "medium", "low")

    def __init__(self) -> None:
        self._ranks: Dict[_PairKey, int] = {}

    def rank(self, first: HardwareSet, second: HardwareSet) -> int:
        """The memoised :meth:`classify` of ``(first, second)``."""
        key = (first._components, second._components)
        ranks = self._ranks
        rank = ranks.get(key)
        if rank is None:
            rank = ranks[key] = self.classify(first, second)
        return rank

    def classify(self, first: HardwareSet, second: HardwareSet) -> int:
        """The rank of ``(first, second)``, computed afresh."""
        raise NotImplementedError


class ThreeLevelHardware(HardwareSimilarityClassifier):
    """The paper's default high/medium/low classification (Sec. 3.1.1)."""

    num_ranks = 3
    name = "three-level"
    rank_names = ("high", "medium", "low")

    def classify(self, first: HardwareSet, second: HardwareSet) -> int:
        return int(classify_hardware(first, second))


class TwoLevelHardware(HardwareSimilarityClassifier):
    """Two-level variant: do the alarms share *any* identical component?"""

    num_ranks = 2
    name = "two-level"
    rank_names = ("shared", "disjoint")

    def classify(self, first: HardwareSet, second: HardwareSet) -> int:
        if first.intersection(second).is_empty():
            return 1
        return 0


class FourLevelHardware(HardwareSimilarityClassifier):
    """Four-level variant: medium split by energy-hungry shared components.

    Sec. 3.1.1: "we can obtain a four-level distinction by further dividing
    the medium similarity into two levels, depending on whether the identical
    components are energy hungry or not."
    """

    num_ranks = 4
    name = "four-level"
    rank_names = ("high", "medium-hungry", "medium-light", "low")

    def classify(self, first: HardwareSet, second: HardwareSet) -> int:
        base = classify_hardware(first, second)
        if base is HardwareSimilarity.HIGH:
            return 0
        if base is HardwareSimilarity.MEDIUM:
            shared = first.intersection(second)
            if shared.energy_hungry():
                return 1
            return 2
        return 3


#: Registry of available classifiers, keyed by their report name.
HARDWARE_CLASSIFIERS = {
    classifier.name: classifier
    for classifier in (
        ThreeLevelHardware(),
        TwoLevelHardware(),
        FourLevelHardware(),
    )
}


def preference(hardware_rank: int, time_similarity: TimeSimilarity) -> float:
    """Preferability of a queue entry for a new alarm, per Table 1.

    With the default three-level hardware classifier this reproduces the
    paper's table exactly::

        time \\ hw   High  Medium  Low
        High          1      3      5
        Medium        2      4      6
        Low          inf    inf    inf

    Hardware similarity dominates (columns), time similarity breaks ties
    (rows).  An entry with low time similarity is never applicable.  The
    formula generalizes to the 2- and 4-level hardware variants by widening
    the column count.
    """
    if time_similarity is TimeSimilarity.LOW:
        return math.inf
    return 2 * hardware_rank + int(time_similarity) + 1
