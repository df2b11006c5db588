"""The alarm model.

An alarm (Sec. 2.1) is registered with a *nominal delivery time*, a *window
interval* starting at the nominal time that permits early batching
(``alpha`` times the repeating interval, Android's default ``alpha = 0.75``),
and — new in this paper — a *grace interval* (``beta`` times the repeating
interval, ``alpha <= beta < 1``) within which an imperceptible alarm may be
postponed (Sec. 3.1.2).

Repeating alarms are *static* when their nominal times lie on a fixed grid
(``nominal += repeat_interval`` after each delivery) and *dynamic* when the
interval is re-appointed from the actual delivery time
(``nominal = delivered_at + repeat_interval``).  One-shot alarms have a zero
repeating interval and, like newly registered alarms whose hardware usage has
not been observed yet, are always treated as perceptible (footnote 5).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from .hardware import EMPTY_HARDWARE, HardwareSet
from .intervals import Interval

_ALARM_IDS = itertools.count(1)


class RepeatKind(Enum):
    """How an alarm's next nominal delivery time is determined."""

    ONE_SHOT = "one_shot"
    STATIC = "static"
    DYNAMIC = "dynamic"


class Alarm:
    """A registered alarm and its delivery-time bookkeeping.

    Instances are mutable: the nominal time advances as repeating alarms are
    reinserted, and the hardware set is *learned* on first delivery
    (footnote 4: Android only reveals the wakelocked hardware after the
    alarm's task runs).  Identity (``alarm_id``) defines equality so an alarm
    can be located in a queue regardless of its current nominal time.
    """

    __slots__ = (
        "alarm_id",
        "app",
        "label",
        "nominal_time",
        "repeat_interval",
        "window_length",
        "grace_length",
        "repeat_kind",
        "wakeup",
        "task_duration",
        "hold_duration",
        "true_hardware",
        "observed_hardware",
        "hardware_known",
        "_perceptible",
        "delivery_count",
        "last_delivery",
        "claimed_by",
    )

    def __init__(
        self,
        *,
        app: str,
        nominal_time: int,
        repeat_interval: int = 0,
        window_length: Optional[int] = None,
        grace_length: Optional[int] = None,
        window_fraction: Optional[float] = None,
        grace_fraction: Optional[float] = None,
        repeat_kind: RepeatKind = RepeatKind.ONE_SHOT,
        wakeup: bool = True,
        hardware: HardwareSet = EMPTY_HARDWARE,
        hardware_known: bool = False,
        task_duration: int = 0,
        hold_duration: Optional[int] = None,
        label: str = "",
        alarm_id: Optional[int] = None,
    ) -> None:
        if nominal_time < 0:
            raise ValueError("nominal time must be non-negative")
        if repeat_interval < 0:
            raise ValueError("repeat interval must be non-negative")
        if repeat_kind is RepeatKind.ONE_SHOT:
            if repeat_interval != 0:
                raise ValueError("one-shot alarms must have repeat_interval 0")
        elif repeat_interval == 0:
            raise ValueError("repeating alarms need a positive repeat interval")

        window_length = _resolve_length(
            "window", window_length, window_fraction, repeat_interval
        )
        grace_length = _resolve_length(
            "grace", grace_length, grace_fraction, repeat_interval
        )
        if grace_length is None:
            grace_length = window_length if window_length is not None else 0
        if window_length is None:
            window_length = 0
        if grace_length < window_length:
            # Sec. 3.1.2: the grace interval is no smaller than the window.
            raise ValueError(
                f"grace length {grace_length} smaller than window "
                f"length {window_length}"
            )
        if repeat_interval and grace_length >= repeat_interval:
            # Sec. 3.1.2: beta < 1 guarantees one delivery per repeat interval.
            raise ValueError(
                "grace interval must be strictly smaller than the repeating "
                f"interval (got {grace_length} >= {repeat_interval})"
            )

        self.alarm_id = alarm_id if alarm_id is not None else next(_ALARM_IDS)
        self.app = app
        self.label = label or f"{app}#{self.alarm_id}"
        self.nominal_time = nominal_time
        self.repeat_interval = repeat_interval
        self.window_length = window_length
        self.grace_length = grace_length
        self.repeat_kind = repeat_kind
        if hold_duration is not None and hold_duration < task_duration:
            raise ValueError("hold duration cannot undercut the task duration")
        self.wakeup = wakeup
        self.task_duration = task_duration
        #: How long the task keeps its hardware wakelocked.  ``None`` means
        #: "exactly as long as the task runs" (the well-behaved case); a
        #: larger value models a no-sleep bug [Pathak et al., MobiSys'12]
        #: where the app forgets to release its wakelock promptly.
        self.hold_duration = hold_duration
        #: The hardware the alarm's task will actually wakelock.
        self.true_hardware = hardware
        #: What the alarm manager currently believes (footnote 4).
        self.observed_hardware = hardware if hardware_known else EMPTY_HARDWARE
        self.hardware_known = hardware_known
        self._perceptible = self._classify_perceptible()
        self.delivery_count = 0
        self.last_delivery: Optional[int] = None
        #: Claim token of the Simulator run that consumed this alarm.
        #: Alarms are mutable and single-use; the simulator uses this to
        #: reject registration of an alarm another run already owns.
        self.claimed_by: Optional[object] = None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_repeating(self) -> bool:
        return self.repeat_kind is not RepeatKind.ONE_SHOT

    @property
    def hardware(self) -> HardwareSet:
        """The hardware set the policy may reason about (observed view)."""
        return self.observed_hardware

    def is_perceptible(self) -> bool:
        """Perceptibility per Sec. 3.1.2 and footnote 5.

        One-shot alarms and alarms whose hardware usage is still unknown are
        deemed perceptible; otherwise perceptibility follows from the
        observed hardware set.  The answer only changes when the hardware
        is learned, so it is cached and refreshed by
        :meth:`record_delivery`.
        """
        return self._perceptible

    def _classify_perceptible(self) -> bool:
        if self.repeat_kind is RepeatKind.ONE_SHOT:
            return True
        if not self.hardware_known:
            return True
        return self.observed_hardware.is_perceptible()

    # ------------------------------------------------------------------
    # Intervals
    # ------------------------------------------------------------------
    def window_interval(self) -> Interval:
        """``[nominal, nominal + window_length]`` (Sec. 2.1)."""
        return Interval(self.nominal_time, self.nominal_time + self.window_length)

    def grace_interval(self) -> Interval:
        """``[nominal, nominal + grace_length]`` (Sec. 3.1.2).

        For a perceptible alarm the policy never exploits the portion beyond
        the window, but the attribute is defined for every alarm.
        """
        return Interval(self.nominal_time, self.nominal_time + self.grace_length)

    def tolerance_interval(self) -> Interval:
        """The interval the policy may actually use for this alarm.

        Perceptible alarms must be delivered within their window; only
        imperceptible alarms may use the full grace interval (Sec. 3.2.1).
        """
        if self.is_perceptible():
            return self.window_interval()
        return self.grace_interval()

    # ------------------------------------------------------------------
    # Delivery bookkeeping
    # ------------------------------------------------------------------
    def record_delivery(self, delivered_at: int) -> None:
        """Update counters and learn the hardware set (footnote 4)."""
        self.delivery_count += 1
        self.last_delivery = delivered_at
        self.observed_hardware = self.true_hardware
        self.hardware_known = True
        # Footnote 5: a repeating alarm stops being perceptible by default
        # once its hardware usage is known.
        self._perceptible = self._classify_perceptible()

    def next_nominal_after(self, delivered_at: int) -> Optional[int]:
        """Nominal time of the next occurrence, or ``None`` for one-shots.

        Static alarms stay on their registration grid; dynamic alarms
        re-appoint the interval from the actual delivery time (Sec. 2.1).
        """
        if self.repeat_kind is RepeatKind.ONE_SHOT:
            return None
        if self.repeat_kind is RepeatKind.STATIC:
            return self.nominal_time + self.repeat_interval
        return delivered_at + self.repeat_interval

    def reschedule(self, delivered_at: int) -> bool:
        """Advance ``nominal_time`` after a delivery.

        Returns ``True`` when the alarm repeats (and should be reinserted).
        """
        next_nominal = self.next_nominal_after(delivered_at)
        if next_nominal is None:
            return False
        self.nominal_time = next_nominal
        return True

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Alarm):
            return self.alarm_id == other.alarm_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.alarm_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Alarm({self.label!r}, nominal={self.nominal_time}, "
            f"repeat={self.repeat_interval}, kind={self.repeat_kind.value}, "
            f"wakeup={self.wakeup})"
        )


def _resolve_length(
    name: str,
    length: Optional[int],
    fraction: Optional[float],
    repeat_interval: int,
) -> Optional[int]:
    """Resolve an interval length given either ticks or a fraction of ReIn."""
    if length is not None and fraction is not None:
        raise ValueError(f"specify {name} length or fraction, not both")
    if fraction is not None:
        if not 0.0 <= fraction:
            raise ValueError(f"{name} fraction must be non-negative")
        if repeat_interval == 0:
            raise ValueError(
                f"{name} fraction requires a repeating alarm; "
                "give an absolute length for one-shot alarms"
            )
        return int(round(fraction * repeat_interval))
    if length is not None and length < 0:
        raise ValueError(f"{name} length must be non-negative")
    return length
