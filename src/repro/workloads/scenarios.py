"""Workload plumbing: :class:`Workload`, the paper scenarios, background load.

The paper's evaluation (Sec. 4.1) fixes two workloads — **light** (Alarm
Clock plus the 11 apps whose alarms wakelock only the Wi-Fi, isolating
*time* similarity) and **heavy** (all 18 Table 3 apps, adding WPS,
accelerometer and speaker/vibrator users, exercising *hardware* similarity
too) — and those remain the canonical entry points here.  But the repo has
long outgrown "two workloads": synthetic populations
(:mod:`repro.workloads.synthetic`), diurnal days
(:mod:`repro.workloads.diurnal`), mid-run churn
(:mod:`repro.workloads.churn`), push conversion, fault injection and trace
replay all build or derive :class:`Workload` values.  Since the scenario
source registry landed (:mod:`repro.workloads.sources`), *every* named
workload — including light and heavy — is expressed as a declarative
composition of sources and compiled by
:func:`repro.workloads.sources.compile_scenario`; the builders below are
back-compat shims over those canonical scenario configs, proven
byte-identical to the historical construction by the equivalence suite.

Table 4's CPU row "also count[s] one-shot and system alarms": real phones
run framework services and sporadic one-shot timers besides the major app
alarms.  :class:`BackgroundLoad` models that population — a few periodic
system services plus seeded streams of one-shot wakeup and non-wakeup
alarms — so absolute wakeup counts land in the paper's range.  Background
alarms wakelock no extra hardware, so they only influence the CPU row.
Construct it through the registered ``background`` scenario source when
composing configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..core.alarm import Alarm, RepeatKind
from ..core.hardware import EMPTY_HARDWARE
from ..core.units import THREE_HOURS_MS, seconds
from ..simulator.engine import Simulator
from .apps import PAPER_BETA, AppSpec, heavy_apps, light_apps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator.external import ExternalWake
    from .churn import Directive


@dataclass(frozen=True)
class Registration:
    """An alarm plus the simulation time at which the app registers it."""

    time: int
    alarm: Alarm


@dataclass
class Workload:
    """A named set of registrations (plus optional churn) for one run.

    Alarms are mutable and single-use: build a fresh workload (same builder,
    same config) for every run rather than re-applying one instance.
    ``directives`` scripts mid-run churn (see :mod:`repro.workloads.churn`);
    cancel/re-register targets are resolved by label against the
    registrations and any mid-run installs preceding them.  ``externals``
    carries external wake events (push messages, screen-on sessions) that
    belong to the workload itself — the run harness hands them to the
    simulator alongside any externals the caller injects explicitly.
    """

    name: str
    registrations: List[Registration]
    horizon: int
    directives: List["Directive"] = field(default_factory=list)
    externals: List["ExternalWake"] = field(default_factory=list)

    def apply(self, simulator: Simulator) -> None:
        for registration in self.registrations:
            simulator.add_alarm(registration.alarm, registration.time)
        if self.directives:
            from .churn import apply_directives

            alarms_by_label = {
                registration.alarm.label: registration.alarm
                for registration in self.registrations
            }
            apply_directives(simulator, self.directives, alarms_by_label)

    def alarms(self) -> List[Alarm]:
        return [registration.alarm for registration in self.registrations]

    def major_labels(self) -> List[str]:
        """Labels of the Table 3 major alarms in this workload."""
        return [
            registration.alarm.label
            for registration in self.registrations
            if not registration.alarm.label.startswith(("sys:", "oneshot:", "nw:"))
        ]


@dataclass(frozen=True)
class BackgroundLoad:
    """Synthetic one-shot and system-alarm population (CPU-row calibration)."""

    include_system_services: bool = True
    #: (label, period seconds, alpha) for periodic framework work: sync
    #: retries, heartbeats, battery polls, log rotation, NTP.  These are
    #: repeating *imperceptible* CPU-only alarms — the population behind the
    #: Table 4 CPU row's surplus over the major alarms.  SIMTY can
    #: grace-align them into app batches; NATIVE mostly wakes for them.
    system_services: Sequence[Tuple[str, int, float]] = (
        ("sys:heartbeat", 60, 0.0),
        ("sys:radio-poll", 120, 0.0),
        ("sys:content-sync", 180, 0.75),
        ("sys:wifi-scan", 240, 0.0),
        ("sys:job-scheduler", 300, 0.0),
        ("sys:account-sync", 300, 0.75),
        ("sys:sensor-batch", 420, 0.0),
        ("sys:battery-stats", 600, 0.75),
        ("sys:log-rotate", 900, 0.0),
        ("sys:ntp", 3600, 0.75),
    )
    oneshots_per_hour: float = 15.0
    oneshot_window_s: Tuple[int, int] = (15, 120)
    oneshot_lead_s: int = 60
    oneshot_task_ms: int = 200
    nonwakeups_per_hour: float = 20.0
    seed: int = 20160605  # DAC'16 started June 5, 2016


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a reproducible scenario."""

    beta: float = PAPER_BETA
    horizon: int = THREE_HOURS_MS
    #: Apps on a real phone are installed and launched minutes apart
    #: (Sec. 4.1 installs 18 apps sequentially), so their alarm grids start
    #: with arbitrary relative phases.  Each app's first nominal time is
    #: offset by a seeded uniform draw from ``[0, install_window_ms)``;
    #: a fixed per-app stagger would phase-lock same-period apps.
    install_window_ms: int = 600_000
    phase_seed: int = 1
    background: BackgroundLoad = field(default_factory=BackgroundLoad)


def major_registrations(
    apps: Iterable[AppSpec], config: ScenarioConfig
) -> List[Registration]:
    """Register each app's major alarm at t=0 with a seeded random phase."""
    rng = random.Random(config.phase_seed)
    registrations = []
    for spec in apps:
        offset = rng.randrange(0, max(1, config.install_window_ms))
        first_nominal = seconds(spec.repeat_interval_s) + offset
        alarm = spec.make_alarm(beta=config.beta, first_nominal_ms=first_nominal)
        registrations.append(Registration(time=0, alarm=alarm))
    return registrations


def background_registrations(config: ScenarioConfig) -> List[Registration]:
    """System services plus seeded one-shot / non-wakeup alarm streams."""
    background = config.background
    registrations: List[Registration] = []
    if background.include_system_services:
        for index, (label, period_s, alpha) in enumerate(
            background.system_services
        ):
            period = seconds(period_s)
            alarm = Alarm(
                app=label,
                label=label,
                nominal_time=period + (index + 1) * 17_000,
                repeat_interval=period,
                window_fraction=alpha,
                grace_fraction=max(alpha, config.beta),
                repeat_kind=RepeatKind.STATIC,
                wakeup=True,
                hardware=EMPTY_HARDWARE,
                task_duration=background.oneshot_task_ms,
            )
            registrations.append(Registration(time=0, alarm=alarm))

    rng = random.Random(background.seed)
    registrations.extend(
        _oneshot_stream(
            rng,
            config,
            rate_per_hour=background.oneshots_per_hour,
            wakeup=True,
            prefix="oneshot",
        )
    )
    registrations.extend(
        _oneshot_stream(
            rng,
            config,
            rate_per_hour=background.nonwakeups_per_hour,
            wakeup=False,
            prefix="nw",
        )
    )
    return registrations


def _oneshot_stream(
    rng: random.Random,
    config: ScenarioConfig,
    rate_per_hour: float,
    wakeup: bool,
    prefix: str,
) -> List[Registration]:
    background = config.background
    count = int(round(rate_per_hour * config.horizon / 3_600_000.0))
    registrations = []
    low_s, high_s = background.oneshot_window_s
    for index in range(count):
        nominal = rng.randrange(seconds(60), config.horizon)
        window = seconds(rng.randint(low_s, high_s))
        register_at = max(0, nominal - seconds(background.oneshot_lead_s))
        alarm = Alarm(
            app=prefix,
            label=f"{prefix}:{index}",
            nominal_time=nominal,
            repeat_interval=0,
            window_length=window,
            grace_length=window,
            repeat_kind=RepeatKind.ONE_SHOT,
            wakeup=wakeup,
            hardware=EMPTY_HARDWARE,
            task_duration=background.oneshot_task_ms,
        )
        registrations.append(Registration(time=register_at, alarm=alarm))
    return registrations


def _build(name: str, apps: List[AppSpec], config: ScenarioConfig) -> Workload:
    """The pre-registry construction, kept verbatim as the equivalence
    reference: the compiled canonical configs must reproduce its output
    byte-for-byte (tests/workloads/test_scenario_equivalence.py)."""
    registrations = major_registrations(apps, config)
    registrations.extend(background_registrations(config))
    registrations.sort(key=lambda registration: registration.time)
    return Workload(name=name, registrations=registrations, horizon=config.horizon)


def build_light(config: Optional[ScenarioConfig] = None) -> Workload:
    """The light workload: 12 apps, Wi-Fi-only majors + Alarm Clock.

    Back-compat shim: compiles the canonical ``light`` scenario config
    (``table3-apps`` + ``background`` sources) pinned to ``config``.
    """
    config = config or ScenarioConfig()
    from .sources import compile_scenario
    from .sources.canon import canonical_scenario

    return compile_scenario(canonical_scenario("light", config))


def build_heavy(config: Optional[ScenarioConfig] = None) -> Workload:
    """The heavy workload: all 18 apps of Table 3.

    Back-compat shim over the canonical ``heavy`` scenario config, like
    :func:`build_light`.
    """
    config = config or ScenarioConfig()
    from .sources import compile_scenario
    from .sources.canon import canonical_scenario

    return compile_scenario(canonical_scenario("heavy", config))


SCENARIOS = {
    "light": build_light,
    "heavy": build_heavy,
}
