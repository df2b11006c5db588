"""Evaluation metrics: delay (Fig. 4), wakeups (Table 4), energy (Fig. 3),
fairness, no-sleep detection and standby projection.

The Sec. 3.2.2 periodicity guarantees are checked online, by the invariant
monitor (``SimulatorConfig(monitor="record")``, see
:mod:`repro.core.invariants`), not by a metric over a finished trace."""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".anomaly": (
            "AppWakelockProfile",
            "NoSleepSuspect",
            "app_wakelock_profiles",
            "detect_no_sleep_suspects",
        ),
        ".delay": (
            "DelayReport",
            "DelaySummary",
            "delay_report",
            "max_grace_violation_ms",
            "max_window_violation_ms",
        ),
        ".energy": ("EnergyComparison", "compare_energy"),
        ".fairness": (
            "AppDelay",
            "delay_fairness",
            "jain_index",
            "per_app_delays",
        ),
        ".standby": ("StandbyEstimate", "standby_estimate"),
        ".wakeups": (
            "WakeupBreakdown",
            "WakeupRow",
            "least_required_wakeups",
            "wakeup_breakdown",
        ),
    },
)
