"""Seeded synthetic workload generator.

Beyond the paper's two fixed scenarios, scalability (S1) and robustness
studies need workloads of arbitrary size with controlled composition:
number of apps, period distribution, fraction of dynamic alarms, hardware
mix and perceptible share.  Generation is fully determined by the seed so
property-based tests can shrink failures to reproducible cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.alarm import Alarm, RepeatKind
from ..core.hardware import (
    ACCELEROMETER_ONLY,
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    WPS_ONLY,
    Component,
    HardwareSet,
)
from ..core.units import THREE_HOURS_MS, seconds
from .scenarios import Registration, Workload

#: Weighted hardware pool loosely matching Table 3's mix.
DEFAULT_HARDWARE_POOL: Sequence[Tuple[HardwareSet, float]] = (
    (WIFI_ONLY, 0.55),
    (WPS_ONLY, 0.12),
    (ACCELEROMETER_ONLY, 0.10),
    (SPEAKER_VIBRATOR_ONLY, 0.08),
    (HardwareSet({Component.WIFI, Component.WPS}), 0.05),
    (HardwareSet({Component.WIFI, Component.CELLULAR}), 0.05),
    (EMPTY_HARDWARE, 0.05),
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for synthetic workload generation."""

    app_count: int = 20
    period_range_s: Tuple[int, int] = (60, 1_800)
    alpha_choices: Sequence[float] = (0.0, 0.75)
    dynamic_fraction: float = 0.5
    beta: float = 0.96
    hardware_pool: Sequence[Tuple[HardwareSet, float]] = DEFAULT_HARDWARE_POOL
    task_range_ms: Tuple[int, int] = (200, 4_000)
    horizon: int = THREE_HOURS_MS
    #: Fraction of apps registering *mid-run* (uniformly over the first
    #: half of the horizon) instead of at t=0 — the "churn profile" knob
    #: fleet archetypes sample.  0.0 (the default) draws nothing extra
    #: from the RNG, so existing seeds generate byte-identical workloads.
    churn_fraction: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.app_count <= 0:
            raise ValueError("need at least one app")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic fraction must be a probability")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn fraction must be a probability")


def generate(config: SyntheticConfig, seed: Optional[int] = None) -> Workload:
    """Generate a reproducible synthetic workload.

    ``seed`` overrides ``config.seed`` when given; the run harness threads
    :attr:`RunSpec.seed <repro.runner.spec.RunSpec.seed>` through here so
    parallel workers rebuild byte-identical workloads.  Generation draws
    only from this locally seeded RNG — never from the global
    ``random`` state — so concurrent generation in a process pool cannot
    perturb it.
    """
    if seed is None:
        seed = config.seed
    rng = random.Random(seed)
    hardware_sets = [entry[0] for entry in config.hardware_pool]
    weights = [entry[1] for entry in config.hardware_pool]
    registrations: List[Registration] = []
    for index in range(config.app_count):
        period = seconds(rng.randint(*config.period_range_s))
        alpha = rng.choice(config.alpha_choices)
        dynamic = rng.random() < config.dynamic_fraction
        hardware = rng.choices(hardware_sets, weights=weights, k=1)[0]
        task_ms = rng.randint(*config.task_range_ms)
        # Churn draws are gated on the knob being set at all: with the
        # default 0.0 the RNG stream is untouched and historic seeds (and
        # their RunSpec digests' meanings) are preserved.
        start_time = 0
        if config.churn_fraction > 0.0 and rng.random() < config.churn_fraction:
            start_time = rng.randrange(0, max(1, config.horizon // 2))
        first_nominal = start_time + period + rng.randrange(0, max(1, period // 2))
        alarm = Alarm(
            app=f"synthetic-{index}",
            label=f"synthetic-{index}",
            nominal_time=first_nominal,
            repeat_interval=period,
            window_fraction=alpha,
            grace_fraction=max(alpha, config.beta),
            repeat_kind=RepeatKind.DYNAMIC if dynamic else RepeatKind.STATIC,
            wakeup=True,
            hardware=hardware,
            task_duration=task_ms,
        )
        registrations.append(Registration(time=start_time, alarm=alarm))
    return Workload(
        name=f"synthetic-{config.app_count}-seed{seed}",
        registrations=registrations,
        horizon=config.horizon,
    )
