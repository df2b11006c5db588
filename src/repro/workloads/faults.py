"""Fault injection: no-sleep bugs and misbehaving apps.

Derives a *new* workload exhibiting the pathologies the paper's related
work catalogues, so detectors (:mod:`repro.metrics.anomaly`) and the
robustness of alignment policies can be exercised:

* :func:`with_no_sleep_bug` — an app's tasks keep their wakelocks far
  beyond the task duration ("what is keeping my phone awake?");
* :func:`with_jitter` — an app's nominal times drift randomly, modelling
  the irregular apps the authors had to imitate (Table 3's ``*`` rows);
* :func:`with_storm` — an app re-registers its alarm at a much shorter
  interval, modelling a misconfigured retry loop.

Injectors are copy-on-write: every alarm is cloned into the returned
workload and the input is left untouched.  The original in-place mutators
poisoned any structure assuming workload specs are immutable — most
notably ``RunSpec`` digests and the content-addressed result cache, which
would happily serve a pre-fault cached result for a post-fault workload.
"""

from __future__ import annotations

import random
from typing import Callable, List

from ..core.alarm import Alarm
from .scenarios import Registration, Workload


def clone_alarm(alarm: Alarm) -> Alarm:
    """A fresh, unclaimed copy of an alarm's registration-time state.

    Preserves identity (``alarm_id``/``label``) so fault-vs-baseline
    comparisons line up, but resets all runtime bookkeeping
    (delivery counters, observed hardware, the single-use claim token) —
    the clone behaves exactly like a newly built alarm.
    """
    return Alarm(
        app=alarm.app,
        label=alarm.label,
        alarm_id=alarm.alarm_id,
        nominal_time=alarm.nominal_time,
        repeat_interval=alarm.repeat_interval,
        repeat_kind=alarm.repeat_kind,
        window_length=alarm.window_length,
        grace_length=alarm.grace_length,
        wakeup=alarm.wakeup,
        hardware=alarm.true_hardware,
        hardware_known=alarm.hardware_known,
        task_duration=alarm.task_duration,
        hold_duration=alarm.hold_duration,
    )


def _derive(
    workload: Workload,
    app: str,
    mutate: Callable[[Alarm], None],
    suffix: str,
) -> Workload:
    """Clone every alarm, apply ``mutate`` to the target app's clones."""
    matched = False
    registrations: List[Registration] = []
    for registration in workload.registrations:
        clone = clone_alarm(registration.alarm)
        if clone.app == app:
            matched = True
            mutate(clone)
        registrations.append(
            Registration(time=registration.time, alarm=clone)
        )
    if not matched:
        raise KeyError(f"workload has no app named {app!r}")
    return Workload(
        name=f"{workload.name}+{suffix}",
        registrations=registrations,
        horizon=workload.horizon,
        directives=list(workload.directives),
        externals=list(workload.externals),
    )


def with_no_sleep_bug(workload: Workload, app: str, hold_ms: int) -> Workload:
    """A copy of ``workload`` where ``app`` holds wakelocks for ``hold_ms``."""

    def mutate(alarm: Alarm) -> None:
        if hold_ms < alarm.task_duration:
            raise ValueError("hold must be at least the task duration")
        alarm.hold_duration = hold_ms

    return _derive(workload, app, mutate, f"nosleep({app})")


def with_jitter(
    workload: Workload, app: str, jitter_ms: int, seed: int = 0
) -> Workload:
    """A copy where ``app``'s first nominal times shift by up to ``jitter_ms``.

    Models the irregular registration behaviour of the imitated apps; the
    repeating grid then drifts with the shifted origin.  Deterministic per
    seed.
    """
    rng = random.Random(seed)

    def mutate(alarm: Alarm) -> None:
        alarm.nominal_time += rng.randint(0, jitter_ms)

    return _derive(workload, app, mutate, f"jitter({app})")


def with_storm(
    workload: Workload, app: str, interval_divisor: int
) -> Workload:
    """A copy where ``app``'s repeating interval shrinks by ``interval_divisor``.

    Window and grace lengths shrink proportionally so the alarm stays
    valid; the result is an alarm storm (e.g. a retry loop gone wrong).
    """
    if interval_divisor <= 1:
        raise ValueError("divisor must exceed 1")

    def mutate(alarm: Alarm) -> None:
        if not alarm.is_repeating:
            return
        if alarm.repeat_interval // interval_divisor <= 0:
            raise ValueError("divisor too large for this alarm's interval")
        alarm.repeat_interval //= interval_divisor
        alarm.window_length //= interval_divisor
        alarm.grace_length //= interval_divisor

    return _derive(workload, app, mutate, f"storm({app})")
