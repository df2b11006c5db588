"""Differential fuzz harness for the alignment policies.

Generates seeded random workloads — alarm populations crossed with mid-run
churn scripts and external-wake injections — and runs each case under both
NATIVE and SIMTY with the online invariant monitor armed
(``on_violation="record"``).  Four independent detectors examine every
case:

* **invariants** — any :class:`~repro.core.invariants.Violation` the
  monitor recorded (Sec. 3.2.2 delivery guarantees, queue structure);
* **oracle** — on clairvoyance-eligible cases (static/one-shot alarms
  only, no churn, no externals, no wakelock holds) a policy's distinct
  wake instants must not undercut :func:`repro.core.oracle.minimum_wakeups`
  — fewer wakeups than the provable lower bound means occurrences were
  dropped or double-counted;
* **differential** — on churn-free cases, each static repeating wakeup
  alarm must be delivered the same number of times (±1 for the horizon
  boundary) under both policies; a larger divergence means one policy
  skipped or duplicated occurrences the other did not;
* **backend** — every policy run is repeated on the ``indexed`` queue
  backend (:mod:`repro.core.backend`) and its serialized trace must be
  byte-identical to the reference ``list`` backend's: backend choice may
  change the cost of a decision, never the decision;
* **stepping** — every policy run is repeated through the incremental
  stepping core (``start()``/``step()``/``finish()`` — the loop the live
  ``simty serve`` daemon drives) and must again serialize byte-identically
  to the reference batch ``run()``: how the engine is *driven* may never
  change what it computes.

Any failing case is automatically *shrunk* — alarms, churn operations and
externals are greedily removed while the failure reproduces — and rendered
as a ready-to-paste test case, so a fuzz hit lands in the repo as a
regression test, not a stack of random bytes.

Cases are plain frozen dataclasses built from a single integer seed:
``generate_case(seed)`` is a pure function, so every failure is replayable
from ``(seed,)`` alone and the CI smoke run (``simty fuzz --budget 60
--seed 0``) is fully deterministic.

Since the scenario source registry landed, the campaign also fuzzes
*scenario compositions*: ``generate_scenario_case(seed)`` samples a random
mix of registered sources (synthetic populations, push storms, calendar
wakeups, churn waves, network-gated syncs, inline trace replays, fault
injectors) into a :class:`~repro.workloads.sources.ScenarioSpec`, compiles
it, and runs it through the same crash / invariant / backend / stepping
detectors.  A failing composition is shrunk to a **minimal scenario
config** — sources are greedily removed while the failure persists — and
rendered as a pytest reproducer embedding the surviving config inline.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.alarm import Alarm, RepeatKind
from ..core.hardware import (
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    HardwareSet,
)
from ..core.invariants import Violation
from ..core.native import NativePolicy
from ..core.oracle import minimum_wakeups
from ..core.simty import SimtyPolicy
from ..simulator.engine import Simulator, SimulatorConfig
from ..simulator.external import ExternalWake
from ..simulator.serialize import trace_to_dict

#: The policies every case is run under.
POLICY_NAMES = ("native", "simty")

#: Queue backends each policy run is differentially compared across: the
#: first entry is the reference whose outcome feeds the other detectors.
#: Pinned to the full-scan ``list`` oracle rather than the default backend,
#: so the axis keeps comparing two implementations whatever the default.
BACKEND_AXIS = ("list", "indexed")

#: Engine drivers each policy run is differentially compared across: the
#: batch ``run()`` is the reference; ``step`` drives the incremental core.
DRIVER_AXIS = ("run", "step")

_KINDS = {
    "static": RepeatKind.STATIC,
    "dynamic": RepeatKind.DYNAMIC,
    "one_shot": RepeatKind.ONE_SHOT,
}

_HARDWARE: Dict[str, HardwareSet] = {
    "none": EMPTY_HARDWARE,
    "wifi": WIFI_ONLY,
    "speaker": SPEAKER_VIBRATOR_ONLY,
}


# ---------------------------------------------------------------------------
# Case specification (plain data: generatable, shrinkable, renderable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlarmSpec:
    """One alarm of a fuzz case, as plain values.

    ``interval == 0`` means one-shot; ``hardware`` is a key of the fuzz
    hardware menu (``"none"``/``"wifi"`` imperceptible, ``"speaker"``
    perceptible); ``hold_ms`` models a no-sleep bug holding the wakelock
    past the (zero-length) task.
    """

    label: str
    nominal: int
    interval: int = 0
    kind: str = "one_shot"
    window: int = 0
    grace: int = 0
    wakeup: bool = True
    hardware: str = "none"
    hold_ms: Optional[int] = None

    def build(self, alarm_id: Optional[int] = None) -> Alarm:
        return Alarm(
            app=self.label,
            label=self.label,
            alarm_id=alarm_id,
            nominal_time=self.nominal,
            repeat_interval=self.interval,
            repeat_kind=_KINDS[self.kind],
            window_length=self.window,
            grace_length=self.grace,
            wakeup=self.wakeup,
            hardware=_HARDWARE[self.hardware],
            hold_duration=self.hold_ms,
        )


@dataclass(frozen=True)
class ChurnOp:
    """One timed churn operation targeting an alarm by label."""

    op: str  # "cancel" | "reregister"
    time: int
    target: str
    nominal_offset: Optional[int] = None


@dataclass(frozen=True)
class ExternalSpec:
    """One external wake (push message / button press)."""

    time: int
    hold_ms: int = 0


@dataclass(frozen=True)
class FuzzCase:
    """A complete generated scenario: alarms × churn × externals."""

    seed: int
    horizon: int
    alarms: Tuple[AlarmSpec, ...]
    churn: Tuple[ChurnOp, ...] = ()
    externals: Tuple[ExternalSpec, ...] = ()

    def oracle_eligible(self) -> bool:
        """True when the greedy stabbing bound is strict for this case."""
        return (
            not self.churn
            and not self.externals
            and all(
                spec.kind in ("static", "one_shot") and spec.hold_ms is None
                for spec in self.alarms
            )
        )

    def differential_eligible(self) -> bool:
        """True when NATIVE/SIMTY delivery counts are comparable."""
        return not self.churn and not self.externals

    def static_labels(self) -> List[str]:
        return [
            spec.label
            for spec in self.alarms
            if spec.kind == "static" and spec.wakeup
        ]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

_INTERVALS_S = (30, 45, 60, 90, 120, 180, 300)
_ALPHAS = (0.0, 0.25, 0.5, 0.75)


def generate_case(seed: int) -> FuzzCase:
    """Build one deterministic random case from a seed.

    Roughly 40% of cases are "pure" (static/one-shot alarms only, no churn,
    no externals, no holds) so the strict oracle bound stays exercised; the
    rest mix dynamic alarms, cancellation/re-registration churn, external
    wakes and no-sleep holds.
    """
    rng = random.Random(seed)
    horizon = rng.choice((10, 20, 30)) * 60_000
    pure = rng.random() < 0.4
    alarms: List[AlarmSpec] = []
    for index in range(rng.randint(1, 5)):
        label = f"a{index}"
        roll = rng.random()
        if pure:
            kind = "static" if roll < 0.8 else "one_shot"
        elif roll < 0.55:
            kind = "static"
        elif roll < 0.8:
            kind = "dynamic"
        else:
            kind = "one_shot"
        if kind == "one_shot":
            nominal = rng.randrange(0, max(1, horizon * 3 // 4))
            window = rng.choice((0, 15_000, 60_000))
            alarms.append(
                AlarmSpec(
                    label=label,
                    nominal=nominal,
                    window=window,
                    grace=window,
                    wakeup=True if pure else rng.random() < 0.85,
                )
            )
            continue
        interval = rng.choice(_INTERVALS_S) * 1_000
        alpha = rng.choice(_ALPHAS)
        beta = min(0.9, alpha + rng.choice((0.0, 0.15, 0.4)))
        window = int(alpha * interval)
        grace = max(window, min(interval - 1, int(beta * interval)))
        hardware = rng.choice(("none", "wifi", "wifi", "speaker"))
        hold_ms = None
        if not pure and rng.random() < 0.1:
            hold_ms = rng.choice((2_000, 5_000))
        alarms.append(
            AlarmSpec(
                label=label,
                nominal=rng.randrange(0, interval),
                interval=interval,
                kind=kind,
                window=window,
                grace=grace,
                wakeup=True if pure else rng.random() < 0.85,
                hardware=hardware,
                hold_ms=hold_ms,
            )
        )
    churn: List[ChurnOp] = []
    externals: List[ExternalSpec] = []
    if not pure:
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                target = rng.choice(alarms).label
                op = rng.choice(("cancel", "reregister", "reregister"))
                offset = None
                if op == "reregister" and rng.random() < 0.5:
                    offset = rng.randrange(0, 120_000)
                churn.append(
                    ChurnOp(
                        op=op,
                        time=rng.randrange(horizon // 10, horizon),
                        target=target,
                        nominal_offset=offset,
                    )
                )
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                externals.append(
                    ExternalSpec(
                        time=rng.randrange(0, horizon),
                        hold_ms=rng.choice((0, 500, 2_000)),
                    )
                )
    return FuzzCase(
        seed=seed,
        horizon=horizon,
        alarms=tuple(alarms),
        churn=tuple(sorted(churn, key=lambda op: op.time)),
        externals=tuple(sorted(externals, key=lambda e: e.time)),
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class PolicyOutcome:
    """What one policy did with one case."""

    policy: str
    violations: List[Violation] = field(default_factory=list)
    wake_count: int = 0
    delivered: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Canonical serialized trace (sorted-key JSON) for backend comparison.
    trace_json: Optional[str] = None


@dataclass(frozen=True)
class Failure:
    """One detector firing on one case."""

    kind: str  # "invariant"|"oracle"|"differential"|"backend"|"stepping"|"crash"
    detail: str


@dataclass
class CaseOutcome:
    case: FuzzCase
    outcomes: Dict[str, PolicyOutcome]
    failures: List[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _make_policy(name: str):
    return NativePolicy() if name == "native" else SimtyPolicy()


def _drive(simulator: Simulator, driver: str):
    """Run a prepared simulator to completion via the requested driver."""
    if driver == "run":
        return simulator.run()
    if driver == "step":
        simulator.start()
        while simulator.step() is not None:
            pass
        return simulator.finish()
    raise ValueError(f"unknown driver {driver!r}; choose from {DRIVER_AXIS}")


def _run_policy(
    case: FuzzCase,
    policy_name: str,
    queue_backend: str = BACKEND_AXIS[0],
    driver: str = "run",
) -> PolicyOutcome:
    outcome = PolicyOutcome(policy=policy_name)
    config = SimulatorConfig(
        horizon=case.horizon,
        # Zero latency/tail makes one wake session per distinct delivery
        # instant, so the session count is directly comparable to the
        # oracle's stab count; it also removes all legitimate lateness,
        # making the monitor's deadlines exact.
        wake_latency_ms=0,
        tail_ms=0,
        monitor="record",
        max_events=500_000,
        queue_backend=queue_backend,
    )
    externals = [
        ExternalWake(time=spec.time, hold_ms=spec.hold_ms)
        for spec in case.externals
    ]
    simulator = Simulator(_make_policy(policy_name), config, externals)
    alarms_by_label: Dict[str, Alarm] = {}
    try:
        for index, spec in enumerate(case.alarms):
            # Deterministic ids (not the global counter) so the serialized
            # traces of repeated runs of one case are byte-comparable.
            alarm = spec.build(alarm_id=index + 1)
            alarms_by_label[spec.label] = alarm
            simulator.add_alarm(alarm, 0)
        for op in case.churn:
            target = alarms_by_label[op.target]
            if op.op == "cancel":
                simulator.cancel_alarm(target, op.time)
            elif op.op == "reregister":
                simulator.reregister_alarm(
                    target, op.time, nominal_offset=op.nominal_offset
                )
            else:
                raise ValueError(f"unknown churn op {op.op!r}")
        trace = _drive(simulator, driver)
    except Exception as error:  # noqa: BLE001 - a crash IS a finding
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.violations = list(trace.violations)
    outcome.wake_count = trace.wake_count()
    outcome.trace_json = json.dumps(trace_to_dict(trace), sort_keys=True)
    for record in trace.deliveries():
        outcome.delivered[record.label] = (
            outcome.delivered.get(record.label, 0) + 1
        )
    return outcome


def run_case(case: FuzzCase) -> CaseOutcome:
    """Run one case under every policy × backend and apply all detectors.

    The reference (``list``) backend outcome per policy feeds the
    invariant/oracle/differential detectors; the ``indexed`` rerun only
    has to reproduce the reference trace byte-for-byte.
    """
    outcomes = {name: _run_policy(case, name) for name in POLICY_NAMES}
    failures: List[Failure] = []
    for name, outcome in outcomes.items():
        if outcome.error is not None:
            failures.append(
                Failure(kind="crash", detail=f"{name}: {outcome.error}")
            )
        for violation in outcome.violations:
            failures.append(
                Failure(
                    kind="invariant",
                    detail=f"{name}: {violation.format()}",
                )
            )
    for name, reference in outcomes.items():
        for backend in BACKEND_AXIS[1:]:
            rerun = _run_policy(case, name, queue_backend=backend)
            if rerun.error is not None:
                if reference.error is None:
                    failures.append(
                        Failure(
                            kind="backend",
                            detail=(
                                f"{name}: {backend} backend crashed where "
                                f"{BACKEND_AXIS[0]} did not: {rerun.error}"
                            ),
                        )
                    )
                continue
            if reference.error is None and rerun.trace_json != reference.trace_json:
                failures.append(
                    Failure(
                        kind="backend",
                        detail=(
                            f"{name}: serialized traces diverge between the "
                            f"{BACKEND_AXIS[0]} and {backend} backends"
                        ),
                    )
                )
    for name, reference in outcomes.items():
        for driver in DRIVER_AXIS[1:]:
            rerun = _run_policy(case, name, driver=driver)
            if rerun.error is not None:
                if reference.error is None:
                    failures.append(
                        Failure(
                            kind="stepping",
                            detail=(
                                f"{name}: {driver} driver crashed where "
                                f"{DRIVER_AXIS[0]} did not: {rerun.error}"
                            ),
                        )
                    )
                continue
            if reference.error is None and rerun.trace_json != reference.trace_json:
                failures.append(
                    Failure(
                        kind="stepping",
                        detail=(
                            f"{name}: serialized traces diverge between the "
                            f"{DRIVER_AXIS[0]} and {driver} drivers"
                        ),
                    )
                )
    if case.oracle_eligible() and not any(
        outcome.error for outcome in outcomes.values()
    ):
        bound = minimum_wakeups(
            [spec.build() for spec in case.alarms],
            case.horizon,
            complete_tolerances_only=True,
        ).wakeups
        for name, outcome in outcomes.items():
            if outcome.wake_count < bound:
                failures.append(
                    Failure(
                        kind="oracle",
                        detail=(
                            f"{name}: {outcome.wake_count} wake sessions "
                            f"undercut the oracle lower bound {bound}"
                        ),
                    )
                )
    if case.differential_eligible() and not any(
        outcome.error for outcome in outcomes.values()
    ):
        native, simty = outcomes["native"], outcomes["simty"]
        for label in case.static_labels():
            gap = abs(
                native.delivered.get(label, 0) - simty.delivered.get(label, 0)
            )
            if gap > 1:
                failures.append(
                    Failure(
                        kind="differential",
                        detail=(
                            f"alarm {label}: NATIVE delivered "
                            f"{native.delivered.get(label, 0)}, SIMTY "
                            f"{simty.delivered.get(label, 0)} (|diff| > 1)"
                        ),
                    )
                )
    return CaseOutcome(case=case, outcomes=outcomes, failures=failures)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _failure_kinds(outcome: CaseOutcome) -> frozenset:
    return frozenset(failure.kind for failure in outcome.failures)


def shrink_case(
    case: FuzzCase,
    kinds: frozenset,
    run: Callable[[FuzzCase], CaseOutcome] = run_case,
) -> FuzzCase:
    """Greedy delta-debugging: drop components while the failure persists.

    Repeatedly tries removing one alarm (with its churn references), one
    churn op, or one external; a removal is kept when the reduced case
    still fails with at least one of the original failure ``kinds``.
    Terminates at a local minimum — every single removal repairs the case.
    """

    def still_fails(candidate: FuzzCase) -> bool:
        return bool(_failure_kinds(run(candidate)) & kinds)

    shrunk = case
    progress = True
    while progress:
        progress = False
        for index in range(len(shrunk.alarms)):
            spec = shrunk.alarms[index]
            candidate = replace(
                shrunk,
                alarms=shrunk.alarms[:index] + shrunk.alarms[index + 1 :],
                churn=tuple(
                    op for op in shrunk.churn if op.target != spec.label
                ),
            )
            if candidate.alarms and still_fails(candidate):
                shrunk = candidate
                progress = True
                break
        if progress:
            continue
        for index in range(len(shrunk.churn)):
            candidate = replace(
                shrunk,
                churn=shrunk.churn[:index] + shrunk.churn[index + 1 :],
            )
            if still_fails(candidate):
                shrunk = candidate
                progress = True
                break
        if progress:
            continue
        for index in range(len(shrunk.externals)):
            candidate = replace(
                shrunk,
                externals=shrunk.externals[:index]
                + shrunk.externals[index + 1 :],
            )
            if still_fails(candidate):
                shrunk = candidate
                progress = True
                break
    return shrunk


def render_case(case: FuzzCase) -> str:
    """Render a case as a ready-to-paste pytest regression test."""
    lines = [
        f"def test_fuzz_regression_seed_{case.seed}():",
        '    """Shrunk reproducer found by `simty fuzz` — keep as regression."""',
        "    from repro.analysis.fuzz import (",
        "        AlarmSpec, ChurnOp, ExternalSpec, FuzzCase, run_case,",
        "    )",
        "",
        "    case = FuzzCase(",
        f"        seed={case.seed},",
        f"        horizon={case.horizon},",
        "        alarms=(",
    ]
    for spec in case.alarms:
        lines.append(f"            {spec!r},")
    lines.append("        ),")
    if case.churn:
        lines.append("        churn=(")
        for op in case.churn:
            lines.append(f"            {op!r},")
        lines.append("        ),")
    if case.externals:
        lines.append("        externals=(")
        for spec in case.externals:
            lines.append(f"            {spec!r},")
        lines.append("        ),")
    lines.extend(
        [
            "    )",
            "    outcome = run_case(case)",
            "    assert outcome.ok, [f.detail for f in outcome.failures]",
        ]
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The scenario-composition axis
# ---------------------------------------------------------------------------

#: Fraction of campaign cases that fuzz scenario compositions instead of
#: raw alarm populations.
DEFAULT_SCENARIO_FRACTION = 0.25


@dataclass(frozen=True)
class ScenarioCase:
    """One fuzzed scenario composition (plain data, like :class:`FuzzCase`)."""

    seed: int
    spec: "ScenarioSpec"


@dataclass
class ScenarioOutcome:
    case: ScenarioCase
    outcomes: Dict[str, PolicyOutcome]
    failures: List[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_source_use(rng: random.Random, index: int) -> "SourceUse":
    """One random source instance with small, fast-to-simulate kwargs."""
    from ..workloads.sources import SourceUse

    kind = rng.choice(
        (
            "synthetic",
            "synthetic",
            "push-storm",
            "calendar",
            "network-gated",
            "trace-replay",
            "churn",
            "external-wakes",
        )
    )
    use_id = f"{kind}#{index}"
    if kind == "synthetic":
        kwargs = {
            "app_count": rng.randint(1, 6),
            "period_range_s": (30, rng.choice((120, 300, 600))),
            "dynamic_fraction": rng.choice((0.0, 0.5, 1.0)),
            "churn_fraction": rng.choice((0.0, 0.0, 0.4)),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "push-storm":
        kwargs = {
            "rate_per_hour": rng.choice((30.0, 120.0, 360.0)),
            "hardware": rng.choice(("none", "wifi", "speaker-vibrator")),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "calendar":
        kwargs = {
            "times": tuple(
                f"00:{rng.randrange(60):02d}" for _ in range(rng.randint(1, 3))
            ),
            "lead_ms": rng.choice((0, 10_000, 60_000)),
        }
    elif kind == "network-gated":
        kwargs = {
            "sessions_per_hour": rng.choice((2.0, 6.0, 20.0)),
            "syncs_per_session": rng.randint(1, 4),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "trace-replay":
        kwargs = {
            "events": tuple(
                (
                    f"replayed-{index}",
                    rng.randrange(30_000, 500_000),
                    rng.choice((0, 15_000, 60_000)),
                    rng.choice((100, 1_000)),
                )
                for _ in range(rng.randint(1, 4))
            ),
            "lead_ms": rng.choice((0, 30_000)),
        }
    elif kind == "churn":
        kwargs = {
            "at_ms": rng.randrange(60_000, 400_000),
            "pattern": rng.choice(("cancellation-storm", "app-update-wave")),
            "spread_ms": rng.choice((0, 30_000)),
            "seed": rng.randrange(1 << 16),
        }
    else:  # external-wakes
        kwargs = {
            "rate_per_hour": rng.choice((4.0, 12.0)),
            "hold_ms": rng.choice((0, 500, 2_000)),
            "seed": rng.randrange(1 << 16),
        }
    return SourceUse(kind, id=use_id, kwargs=kwargs)


def generate_scenario_case(seed: int) -> ScenarioCase:
    """Build one deterministic random scenario composition from a seed.

    Compositions stay small (1-4 sources, 5-15 simulated minutes) so the
    campaign covers many source *combinations* rather than a few long
    runs.  A ``fault`` source is occasionally appended when a synthetic
    source is present (faults need an app to target).
    """
    from ..workloads.sources import ScenarioSpec, SourceUse

    rng = random.Random(f"scenario:{seed}")
    horizon = rng.choice((5, 10, 15)) * 60_000
    uses = [
        _random_source_use(rng, index) for index in range(rng.randint(1, 4))
    ]
    synthetic_ids = [
        use for use in uses if use.source == "synthetic"
    ]
    if synthetic_ids and rng.random() < 0.3:
        target_use = rng.choice(synthetic_ids)
        target_count = dict(target_use.kwargs)["app_count"]
        uses.append(
            SourceUse(
                "fault",
                id=f"fault#{len(uses)}",
                kwargs={
                    "app": f"synthetic-{rng.randrange(target_count)}",
                    "kind": rng.choice(("no-sleep", "jitter", "storm")),
                    "hold_ms": 30_000,
                    "interval_divisor": 2,
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    spec = ScenarioSpec(
        name=f"fuzz-scenario-{seed}",
        horizon=horizon,
        sources=tuple(uses),
        seed=rng.randrange(1 << 16),
    )
    return ScenarioCase(seed=seed, spec=spec)


def _run_scenario_policy(
    case: ScenarioCase,
    policy_name: str,
    queue_backend: str = BACKEND_AXIS[0],
    driver: str = "run",
) -> PolicyOutcome:
    """Compile and run one scenario under one policy/backend/driver.

    The compiled workload's alarms are re-numbered deterministically
    (compilation draws from the process-global id counter, which would
    make repeated compiles byte-incomparable).
    """
    from ..workloads.sources import ScenarioConfigError, compile_scenario

    outcome = PolicyOutcome(policy=policy_name)
    try:
        workload = compile_scenario(case.spec)
    except ScenarioConfigError as error:
        outcome.error = f"ScenarioConfigError: {error}"
        return outcome
    for index, registration in enumerate(workload.registrations):
        registration.alarm.alarm_id = index + 1
    config = SimulatorConfig(
        horizon=workload.horizon,
        wake_latency_ms=0,
        tail_ms=0,
        monitor="record",
        max_events=500_000,
        queue_backend=queue_backend,
    )
    externals = [
        ExternalWake(
            time=event.time, hold_ms=event.hold_ms, description=event.description
        )
        for event in workload.externals
    ]
    simulator = Simulator(_make_policy(policy_name), config, externals)
    try:
        workload.apply(simulator)
        trace = _drive(simulator, driver)
    except Exception as error:  # noqa: BLE001 - a crash IS a finding
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.violations = list(trace.violations)
    outcome.wake_count = trace.wake_count()
    outcome.trace_json = json.dumps(trace_to_dict(trace), sort_keys=True)
    for record in trace.deliveries():
        outcome.delivered[record.label] = (
            outcome.delivered.get(record.label, 0) + 1
        )
    return outcome


def run_scenario_case(case: ScenarioCase) -> ScenarioOutcome:
    """Run one composition under every policy × backend × driver.

    Detectors: crash, invariant violations, backend byte-equality and
    stepping byte-equality.  (The oracle and differential detectors need
    churn/external-free static populations, which compositions rarely
    are; the classic axis keeps those covered.)
    """
    outcomes = {
        name: _run_scenario_policy(case, name) for name in POLICY_NAMES
    }
    failures: List[Failure] = []
    for name, outcome in outcomes.items():
        if outcome.error is not None:
            failures.append(
                Failure(kind="crash", detail=f"{name}: {outcome.error}")
            )
        for violation in outcome.violations:
            failures.append(
                Failure(kind="invariant", detail=f"{name}: {violation.format()}")
            )
    for name, reference in outcomes.items():
        if reference.error is not None:
            continue
        for axis, kind, values in (
            ("queue_backend", "backend", BACKEND_AXIS[1:]),
            ("driver", "stepping", DRIVER_AXIS[1:]),
        ):
            for value in values:
                rerun = _run_scenario_policy(case, name, **{axis: value})
                if rerun.error is not None:
                    failures.append(
                        Failure(
                            kind=kind,
                            detail=(
                                f"{name}: {value} crashed where the "
                                f"reference did not: {rerun.error}"
                            ),
                        )
                    )
                elif rerun.trace_json != reference.trace_json:
                    failures.append(
                        Failure(
                            kind=kind,
                            detail=(
                                f"{name}: serialized traces diverge on the "
                                f"{value} {kind} axis"
                            ),
                        )
                    )
    return ScenarioOutcome(case=case, outcomes=outcomes, failures=failures)


def shrink_scenario_case(
    case: ScenarioCase,
    kinds: frozenset,
    run: Callable[[ScenarioCase], ScenarioOutcome] = run_scenario_case,
) -> ScenarioCase:
    """Greedily drop sources while the failure persists (minimal config)."""
    shrunk = case
    progress = True
    while progress:
        progress = False
        for index in range(len(shrunk.spec.sources)):
            sources = (
                shrunk.spec.sources[:index] + shrunk.spec.sources[index + 1 :]
            )
            if not sources:
                continue
            candidate = ScenarioCase(
                seed=shrunk.seed, spec=replace(shrunk.spec, sources=sources)
            )
            failing = frozenset(
                failure.kind for failure in run(candidate).failures
            )
            if failing & kinds:
                shrunk = candidate
                progress = True
                break
    return shrunk


def render_scenario_case(case: ScenarioCase) -> str:
    """Render a composition as a pytest reproducer with the config inline."""
    from ..workloads.sources import scenario_to_dict

    payload = json.dumps(scenario_to_dict(case.spec), indent=4, sort_keys=True)
    indented = "\n".join(f"    {row}" for row in payload.splitlines())
    return "\n".join(
        [
            f"def test_fuzz_scenario_regression_seed_{case.seed}():",
            '    """Shrunk scenario composition found by `simty fuzz`."""',
            "    from repro.analysis.fuzz import ScenarioCase, run_scenario_case",
            "    from repro.workloads.sources import scenario_from_dict",
            "",
            f"    config = {indented.lstrip()}",
            f"    case = ScenarioCase(seed={case.seed}, "
            "spec=scenario_from_dict(config))",
            "    outcome = run_scenario_case(case)",
            "    assert outcome.ok, [f.detail for f in outcome.failures]",
        ]
    )


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A failing case, its shrunk form, and the rendered reproducer.

    ``case``/``shrunk`` are :class:`FuzzCase` for the classic axis and
    :class:`ScenarioCase` for the scenario-composition axis.
    """

    case: object
    shrunk: object
    failures: List[Failure]
    reproducer: str


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    cases_run: int
    elapsed_s: float
    failures: List[FuzzFailure] = field(default_factory=list)
    violation_total: int = 0
    oracle_divergences: int = 0
    differential_divergences: int = 0
    backend_divergences: int = 0
    stepping_divergences: int = 0
    crashes: int = 0
    scenario_cases_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases in {self.elapsed_s:.1f}s "
            f"(seed {self.seed}, policies {'/'.join(POLICY_NAMES)}, "
            f"backends {'/'.join(BACKEND_AXIS)}, "
            f"drivers {'/'.join(DRIVER_AXIS)})",
            f"  invariant violations:     {self.violation_total}",
            f"  oracle divergences:       {self.oracle_divergences}",
            f"  differential divergences: {self.differential_divergences}",
            f"  backend divergences:      {self.backend_divergences}",
            f"  stepping divergences:     {self.stepping_divergences}",
            f"  crashes:                  {self.crashes}",
            f"  scenario compositions:    {self.scenario_cases_run}",
        ]
        if self.ok:
            lines.append("  all cases clean")
        else:
            lines.append(f"  FAILING CASES: {len(self.failures)}")
            for failure in self.failures:
                lines.append("")
                for item in failure.failures:
                    lines.append(f"  - [{item.kind}] {item.detail}")
                lines.append("  shrunk reproducer:")
                for row in failure.reproducer.splitlines():
                    lines.append(f"    {row}")
        return "\n".join(lines)


def fuzz(
    seed: int = 0,
    budget_s: float = 60.0,
    max_cases: int = 1_000,
    clock: Callable[[], float] = time.monotonic,
    scenario_fraction: float = DEFAULT_SCENARIO_FRACTION,
) -> FuzzReport:
    """Run a fuzz campaign until the time budget or case budget is spent.

    Case ``i`` is generated from ``seed + i``, so any failure is replayable
    in isolation; failing cases are shrunk and rendered immediately.
    ``scenario_fraction`` of the cases (chosen deterministically per index)
    fuzz scenario compositions instead of raw alarm populations; 0 disables
    the axis, 1 fuzzes only compositions.
    """
    if not 0.0 <= scenario_fraction <= 1.0:
        raise ValueError("scenario_fraction must be a probability")
    started = clock()
    report = FuzzReport(seed=seed, cases_run=0, elapsed_s=0.0)
    for index in range(max_cases):
        if clock() - started >= budget_s:
            break
        case_seed = seed + index
        on_scenario_axis = (
            random.Random(f"axis:{case_seed}").random() < scenario_fraction
        )
        if on_scenario_axis:
            case = generate_scenario_case(case_seed)
            outcome = run_scenario_case(case)
            report.scenario_cases_run += 1
        else:
            case = generate_case(case_seed)
            outcome = run_case(case)
        report.cases_run += 1
        for failure in outcome.failures:
            if failure.kind == "invariant":
                report.violation_total += 1
            elif failure.kind == "oracle":
                report.oracle_divergences += 1
            elif failure.kind == "differential":
                report.differential_divergences += 1
            elif failure.kind == "backend":
                report.backend_divergences += 1
            elif failure.kind == "stepping":
                report.stepping_divergences += 1
            else:
                report.crashes += 1
        if not outcome.ok:
            kinds = frozenset(failure.kind for failure in outcome.failures)
            if on_scenario_axis:
                shrunk = shrink_scenario_case(case, kinds)
                reproducer = render_scenario_case(shrunk)
            else:
                shrunk = shrink_case(case, kinds)
                reproducer = render_case(shrunk)
            report.failures.append(
                FuzzFailure(
                    case=case,
                    shrunk=shrunk,
                    failures=outcome.failures,
                    reproducer=reproducer,
                )
            )
    report.elapsed_s = clock() - started
    return report
