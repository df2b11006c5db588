"""Core alarm-alignment machinery: the paper's primary contribution.

This subpackage is independent of the simulator and the power model; it can
be reused directly inside any scheduler that manages batched timers.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".alarm": ("Alarm", "RepeatKind"),
        ".backend": (
            "BACKEND_NAMES",
            "DEFAULT_BACKEND",
            "IndexedBackend",
            "ListBackend",
            "QueueBackend",
            "make_backend",
        ),
        ".bucket": ("FixedIntervalPolicy",),
        ".duration": ("DurationAwareSimtyPolicy", "duration_dissimilarity"),
        ".entry": ("QueueEntry",),
        ".exact": ("ExactPolicy",),
        ".hardware": (
            "ACCELEROMETER_ONLY",
            "EMPTY_HARDWARE",
            "ENERGY_HUNGRY_COMPONENTS",
            "ESSENTIAL_COMPONENTS",
            "PERCEPTIBLE_COMPONENTS",
            "SPEAKER_VIBRATOR_ONLY",
            "WIFI_ONLY",
            "WPS_ONLY",
            "Component",
            "ComponentPower",
            "HardwareSet",
        ),
        ".intervals": ("Interval", "intersect_all", "overlap_length"),
        ".invariants": (
            "Violation",
            "ViolationSummary",
            "check_delivery",
            "check_delivery_gap",
            "check_exactly_once",
            "check_queue",
        ),
        ".native": ("NativePolicy",),
        ".oracle": ("OracleResult", "minimum_wakeups", "optimality_gap"),
        ".policy": ("AlignmentPolicy",),
        ".queue": ("AlarmQueue",),
        ".simty": ("SimtyPolicy",),
        ".similarity": (
            "HARDWARE_CLASSIFIERS",
            "FourLevelHardware",
            "HardwareSimilarity",
            "HardwareSimilarityClassifier",
            "ThreeLevelHardware",
            "TimeSimilarity",
            "TwoLevelHardware",
            "classify_hardware",
            "classify_time",
            "preference",
        ),
        ".units": (
            "MS_PER_HOUR",
            "MS_PER_MINUTE",
            "MS_PER_SECOND",
            "THREE_HOURS_MS",
            "hours",
            "minutes",
            "seconds",
            "to_seconds",
        ),
    },
)
