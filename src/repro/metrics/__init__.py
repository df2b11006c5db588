"""Evaluation metrics: delay (Fig. 4), wakeups (Table 4), energy (Fig. 3),
fairness, no-sleep detection and standby projection.

The Sec. 3.2.2 periodicity guarantees are checked online, by the invariant
monitor (``SimulatorConfig(monitor="record")``, see
:mod:`repro.core.invariants`), not by a metric over a finished trace."""

from .anomaly import (
    AppWakelockProfile,
    NoSleepSuspect,
    app_wakelock_profiles,
    detect_no_sleep_suspects,
)
from .delay import (
    DelayReport,
    DelaySummary,
    delay_report,
    max_grace_violation_ms,
    max_window_violation_ms,
)
from .energy import EnergyComparison, compare_energy
from .fairness import AppDelay, delay_fairness, jain_index, per_app_delays
from .standby import StandbyEstimate, standby_estimate
from .wakeups import (
    WakeupBreakdown,
    WakeupRow,
    least_required_wakeups,
    wakeup_breakdown,
)

__all__ = [
    "AppWakelockProfile",
    "NoSleepSuspect",
    "app_wakelock_profiles",
    "detect_no_sleep_suspects",
    "DelayReport",
    "DelaySummary",
    "delay_report",
    "max_grace_violation_ms",
    "max_window_violation_ms",
    "EnergyComparison",
    "AppDelay",
    "delay_fairness",
    "jain_index",
    "per_app_delays",
    "compare_energy",
    "StandbyEstimate",
    "standby_estimate",
    "WakeupBreakdown",
    "WakeupRow",
    "least_required_wakeups",
    "wakeup_breakdown",
]
