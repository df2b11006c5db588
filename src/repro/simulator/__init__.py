"""Discrete-event alarm-manager simulator (the evaluation substrate).

Replaces the paper's instrumented Android framework + LG Nexus 5 testbed
(see DESIGN.md, substitution table) while implementing exactly the insert /
reinsert / deliver semantics of Secs. 2.1 and 3.2.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".alarm_manager": ("AlarmManager",),
        ".android_api": (
            "ANDROID_DEFAULT_ALPHA",
            "DEFAULT_GRACE_FRACTION",
            "AndroidAlarmManagerFacade",
        ),
        ".clock": (
            "WALL_CLOCK_MODES",
            "AcceleratedWallClock",
            "ManualWallClock",
            "SystemWallClock",
            "VirtualClock",
            "WallClock",
            "make_wall_clock",
        ),
        ".device": ("DEFAULT_TAIL_MS", "Device", "WakeReason", "WakeSession"),
        ".engine": (
            "DEFAULT_MAX_STALLED_EVENTS",
            "SimulationStalled",
            "Simulator",
            "SimulatorConfig",
            "simulate",
        ),
        ".events": ("Event", "EventKind", "event_log"),
        ".external": ("ExternalWake", "poisson_wakes", "schedule"),
        ".monitor": (
            "ON_VIOLATION_MODES",
            "InvariantMonitor",
            "InvariantViolationError",
        ),
        ".rtc": ("DEFAULT_WAKE_LATENCY_MS", "RealTimeClock"),
        ".serialize": (
            "alarm_from_dict",
            "alarm_to_dict",
            "load_trace",
            "save_trace",
            "trace_from_dict",
            "trace_to_dict",
        ),
        ".tasks": (
            "TaskExecution",
            "component_hold_times",
            "schedule_batch_tasks",
        ),
        ".trace": (
            "AlarmDeliveryRecord",
            "BatchRecord",
            "RegistrationRecord",
            "SimulationTrace",
            "snapshot_delivery",
        ),
        ".wakelock": ("ComponentUsage", "WakelockLedger"),
    },
)
