"""Hardware components and hardware sets.

The paper classifies hardware similarity over the set of components an alarm
*wakelocks* (Sec. 3.1.1).  Essential components (CPU, memory) that are on
whenever the device is awake are excluded from similarity; user-perceptible
components (screen, speaker, vibrator) make an alarm *perceptible*
(Sec. 3.1.2).

The components below mirror the LG Nexus 5 inventory of Table 2 plus the
grouping used in the evaluation (the paper treats "Speaker & Vibrator" as one
wakelockable unit because the Alarm Clock app always acquires both).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Iterable, Optional, Tuple


class Component(Enum):
    """A wakelockable (or essential) hardware component."""

    CPU = "cpu"
    MEMORY = "memory"
    WIFI = "wifi"
    CELLULAR = "cellular"
    WPS = "wps"
    GPS = "gps"
    ACCELEROMETER = "accelerometer"
    SCREEN = "screen"
    SPEAKER_VIBRATOR = "speaker_vibrator"

    # Members are singletons compared by identity, so the identity hash is
    # exact and skips ``Enum.__hash__``, a Python-level call that task
    # holds, the wakelock ledger and the metrics make per component.  Set
    # iteration order was never fixed: the name hash varies per process.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Component.{self.name}"


#: Components that are on whenever the device is awake; excluded from
#: similarity classification (Sec. 3.1.1).
ESSENTIAL_COMPONENTS: FrozenSet[Component] = frozenset(
    {Component.CPU, Component.MEMORY}
)

#: Components whose activation the user can perceive (Sec. 3.1.2): wakelocking
#: any of these makes the alarm perceptible.
PERCEPTIBLE_COMPONENTS: FrozenSet[Component] = frozenset(
    {Component.SCREEN, Component.SPEAKER_VIBRATOR}
)

#: Components the paper singles out as energy hungry; used by the 4-level
#: hardware-similarity variant (Sec. 3.1.1, "depending on whether the
#: identical components are energy hungry or not").
ENERGY_HUNGRY_COMPONENTS: FrozenSet[Component] = frozenset(
    {Component.WPS, Component.GPS, Component.SCREEN, Component.CELLULAR}
)


class HardwareSet:
    """An immutable set of *wakelockable* components acquired by an alarm.

    Essential components are silently dropped on construction so that
    similarity classification never sees them.  The empty set is meaningful:
    it models an alarm that merely wakes the CPU (e.g. a bookkeeping timer),
    and per footnote 4 it is also the initial state of a newly registered
    alarm whose usage has not been observed yet.
    """

    __slots__ = ("_components", "_ordered")

    def __init__(self, components: Iterable[Component] = ()) -> None:
        self._components: FrozenSet[Component] = frozenset(
            component
            for component in components
            if component not in ESSENTIAL_COMPONENTS
        )
        #: Components in report order, sorted on first iteration.
        self._ordered: Optional[Tuple[Component, ...]] = None

    def __getstate__(self):
        # The pickled state is the component set alone, the same form
        # older pickles hold, so result caches stay readable both ways.
        return None, {"_components": self._components}

    def __setstate__(self, state) -> None:
        _, slots = state
        self._components = slots["_components"]
        self._ordered = None

    @property
    def components(self) -> FrozenSet[Component]:
        """The wakelockable components in this set."""
        return self._components

    def is_empty(self) -> bool:
        """True when the alarm wakelocks no component beyond the CPU."""
        return not self._components

    def is_perceptible(self) -> bool:
        """True when any component is user perceptible (Sec. 3.1.2)."""
        return bool(self._components & PERCEPTIBLE_COMPONENTS)

    def union(self, other: "HardwareSet") -> "HardwareSet":
        """Set union; used for queue-entry hardware sets (Sec. 3.2.1)."""
        return HardwareSet(self._components | other._components)

    def intersection(self, other: "HardwareSet") -> "HardwareSet":
        """Set intersection of wakelockable components."""
        return HardwareSet(self._components & other._components)

    def energy_hungry(self) -> FrozenSet[Component]:
        """The energy-hungry components in this set."""
        return self._components & ENERGY_HUNGRY_COMPONENTS

    def __contains__(self, component: Component) -> bool:
        return component in self._components

    def __iter__(self):
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = tuple(
                sorted(self._components, key=lambda c: c.value)
            )
        return iter(ordered)

    def __len__(self) -> int:
        return len(self._components)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HardwareSet):
            return self._components == other._components
        if isinstance(other, (set, frozenset)):
            return self._components == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(component.name for component in self)
        return f"HardwareSet({{{names}}})"


#: Convenience singletons used across workloads and tests.
EMPTY_HARDWARE = HardwareSet()
WIFI_ONLY = HardwareSet({Component.WIFI})
WPS_ONLY = HardwareSet({Component.WPS})
ACCELEROMETER_ONLY = HardwareSet({Component.ACCELEROMETER})
SPEAKER_VIBRATOR_ONLY = HardwareSet({Component.SPEAKER_VIBRATOR})


@dataclass(frozen=True)
class ComponentPower:
    """Static power characteristics for one component.

    ``activation_energy_mj`` is the fixed cost paid once per batch in which
    any alarm uses the component (radio ramp, WPS scan, vibrator spin-up);
    ``active_power_mw`` is drawn for the duration the component is held.
    """

    component: Component
    activation_energy_mj: float
    active_power_mw: float

    def __post_init__(self) -> None:
        if self.activation_energy_mj < 0:
            raise ValueError("activation energy must be non-negative")
        if self.active_power_mw < 0:
            raise ValueError("active power must be non-negative")
