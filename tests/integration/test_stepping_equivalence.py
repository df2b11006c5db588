"""Batch ``run()`` and the incremental stepping core must be identical.

The engine was decomposed into ``start()`` / ``step()`` / ``advance_to()``
/ ``finish()`` so the live alarm-service daemon can drive it against a
wall clock; ``run()`` is now a thin loop over the same core.  The refactor
is only sound if *how* the engine is driven never changes *what* it
computes — pinned here exactly the way the queue-backend refactor was:

* every registered policy × every queue backend, batch vs step-driven vs
  coarse ``advance_to``-driven on a churn-heavy synthetic workload, byte-
  identical serialized traces;
* the paper experiments (light/heavy × NATIVE/SIMTY × both backends)
  replayed step-wise against the batch trace;
* the 200-case seeded fuzz corpus rerun through the stepping driver
  (``run_case`` now carries a stepping detector, so the corpus covers
  invariant + oracle + differential + backend + stepping at once);
* stepping-API contract tests: single-use, idempotent ``finish()``,
  ``advance_to`` monotonicity, and the live-mode gate for mid-run
  scheduling.
"""

import json
import re

import pytest

from repro.analysis.experiments import run_experiment
from repro.analysis.fuzz import generate_case, run_case
from repro.core.alarm import Alarm, RepeatKind
from repro.core.backend import BACKEND_NAMES
from repro.core.hardware import SPEAKER_VIBRATOR_ONLY, WIFI_ONLY
from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.simulator.external import ExternalWake
from repro.simulator.serialize import trace_to_dict

from .test_backend_equivalence import canonical_trace_json

HORIZON = 1_800_000  # 30 simulated minutes keeps the full matrix fast

POLICIES = DEFAULT_REGISTRY.policy_names()


def synthetic_workload(simulator: Simulator) -> None:
    """A small but adversarial spec: repeats, one-shots, churn, holds."""
    mail = Alarm(
        app="mail",
        label="mail",
        nominal_time=60_000,
        repeat_interval=300_000,
        repeat_kind=RepeatKind.STATIC,
        window_length=75_000,
        grace_length=150_000,
        hardware=WIFI_ONLY,
    )
    chat = Alarm(
        app="chat",
        label="chat",
        nominal_time=95_000,
        repeat_interval=180_000,
        repeat_kind=RepeatKind.DYNAMIC,
        grace_length=90_000,
        hardware=WIFI_ONLY,
        hardware_known=True,
        task_duration=800,
    )
    ring = Alarm(
        app="clock",
        label="ring",
        nominal_time=420_000,
        window_length=0,
        grace_length=0,
        hardware=SPEAKER_VIBRATOR_ONLY,
    )
    lazy = Alarm(
        app="sync",
        label="lazy",
        nominal_time=130_000,
        repeat_interval=240_000,
        repeat_kind=RepeatKind.STATIC,
        grace_length=120_000,
        wakeup=False,
    )
    stuck = Alarm(
        app="buggy",
        label="stuck",
        nominal_time=200_000,
        repeat_interval=600_000,
        repeat_kind=RepeatKind.STATIC,
        grace_length=300_000,
        hold_duration=4_000,
    )
    for alarm in (mail, chat, ring, lazy, stuck):
        simulator.add_alarm(alarm, 0)
    simulator.cancel_alarm(ring, 400_000)
    simulator.reregister_alarm(mail, 700_000, nominal_offset=30_000)
    simulator.reregister_alarm(chat, 1_000_000)
    simulator.cancel_alarm(stuck, 1_300_000)


def build(policy_name: str, backend: str) -> Simulator:
    return Simulator(
        DEFAULT_REGISTRY.create_policy(policy_name),
        config=SimulatorConfig(
            horizon=HORIZON, monitor="record", queue_backend=backend
        ),
        external_events=[
            ExternalWake(time=330_000, hold_ms=500),
            ExternalWake(time=910_000),
        ],
    )


def drive_run(simulator: Simulator):
    return simulator.run()


def drive_step(simulator: Simulator):
    simulator.start()
    while simulator.step() is not None:
        pass
    return simulator.finish()


def drive_advance(simulator: Simulator):
    """Coarse strides, deliberately not aligned to any event time."""
    simulator.start()
    instant = 0
    while instant < HORIZON:
        instant += 70_001
        simulator.advance_to(min(instant, HORIZON))
    return simulator.finish()


def drive_drain(simulator: Simulator):
    return simulator.drain()


DRIVERS = {
    "step": drive_step,
    "advance": drive_advance,
    "drain": drive_drain,
}


def canon(trace) -> str:
    """Canonical trace with process-global entry ids scrubbed.

    The monitor's entry-algebra details quote ``entry #N`` where N comes
    from a process-global batch-entry counter (the same reason alarm ids
    need remapping): two runs of one workload in one process number their
    entries differently even though the traces are otherwise identical.
    """
    return re.sub(r"entry #\d+", "entry #?", canonical_trace_json(trace))


class TestEveryPolicyEveryBackend:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_drivers_byte_identical(self, policy, backend):
        reference_sim = build(policy, backend)
        synthetic_workload(reference_sim)
        reference = canon(drive_run(reference_sim))
        for name, driver in DRIVERS.items():
            simulator = build(policy, backend)
            synthetic_workload(simulator)
            stepped = canon(driver(simulator))
            assert stepped == reference, (policy, backend, name)


class TestPaperExperiments:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workload", ["light", "heavy"])
    @pytest.mark.parametrize("policy", ["native", "simty"])
    def test_step_loop_matches_batch(self, workload, policy, backend):
        config = SimulatorConfig(monitor="record", queue_backend=backend)
        batch = run_experiment(workload, policy, simulator_config=config)
        assert batch.trace.violations == []

        built = DEFAULT_REGISTRY.build_workload(workload)
        simulator = Simulator(
            DEFAULT_REGISTRY.create_policy(policy),
            config=SimulatorConfig(
                horizon=built.horizon, monitor="record", queue_backend=backend
            ),
        )
        built.apply(simulator)
        stepped = drive_step(simulator)
        assert stepped.violations == []
        assert canonical_trace_json(stepped) == canonical_trace_json(
            batch.trace
        )


class TestFuzzCorpusStepping:
    def test_200_seeded_cases_clean_through_the_stepping_driver(self):
        """The corpus that guards the backends now guards the drivers too."""
        dirty = []
        for seed in range(200):
            outcome = run_case(generate_case(seed))
            if not outcome.ok:
                dirty.append(
                    (seed, [failure.detail for failure in outcome.failures])
                )
        assert not dirty, dirty


class TestSteppingContract:
    def make(self) -> Simulator:
        simulator = build("simty", "list")
        synthetic_workload(simulator)
        return simulator

    def test_run_is_single_use(self):
        simulator = self.make()
        simulator.run()
        with pytest.raises(RuntimeError, match="single-use"):
            simulator.run()

    def test_start_is_single_use(self):
        simulator = self.make()
        simulator.start()
        with pytest.raises(RuntimeError, match="single-use"):
            simulator.start()

    def test_finish_is_idempotent_and_seals_the_trace(self):
        simulator = self.make()
        simulator.start()
        while simulator.step() is not None:
            pass
        first = simulator.finish()
        second = simulator.finish()
        assert first is second
        assert json.dumps(trace_to_dict(first), sort_keys=True)

    def test_step_returns_none_only_at_exhaustion(self):
        simulator = self.make()
        simulator.start()
        instants = []
        while (instant := simulator.step()) is not None:
            instants.append(instant)
        assert instants == sorted(instants)
        assert instants[-1] < HORIZON
        assert simulator.step() is None  # stays exhausted

    def test_advance_to_never_moves_the_clock_backwards(self):
        simulator = self.make()
        simulator.start()
        simulator.advance_to(600_000)
        assert simulator.now == 600_000
        # A stale target is a harmless no-op (the live tick path relies
        # on this), never a rewind.
        assert simulator.advance_to(599_999) == 0
        assert simulator.now == 600_000

    def test_advance_to_parks_the_clock_in_empty_space(self):
        simulator = Simulator(
            DEFAULT_REGISTRY.create_policy("native"),
            config=SimulatorConfig(horizon=HORIZON, monitor="record"),
        )
        simulator.add_alarm(
            Alarm(app="x", nominal_time=10_000, grace_length=0), 0
        )
        simulator.start()
        simulator.advance_to(500_000)
        assert simulator.now == 500_000
        assert simulator.next_event_time() is None

    def overshoot(self) -> Simulator:
        # A wake 10 ms before the horizon runs its task past it.
        simulator = build("simty", "list")
        simulator.add_alarm(
            Alarm(app="edge", nominal_time=HORIZON - 10, grace_length=0,
                  task_duration=100),
            0,
        )
        simulator.start()
        simulator.advance_to(HORIZON - 5)
        assert simulator.now > HORIZON
        return simulator

    def drained(self) -> Simulator:
        simulator = self.make()
        simulator.start()
        while simulator.step() is not None:
            pass
        return simulator

    def parked(self) -> Simulator:
        simulator = self.make()
        simulator.start()
        simulator.advance_to(HORIZON)
        return simulator

    def mid_run(self) -> Simulator:
        simulator = self.make()
        simulator.start()
        simulator.advance_to(HORIZON // 2)
        return simulator

    @pytest.mark.parametrize(
        "setup, expect_none",
        [("drained", True), ("parked", True), ("overshoot", True),
         ("mid_run", False)],
    )
    def test_next_event_time_agrees_with_step(self, setup, expect_none):
        simulator = getattr(self, setup)()
        upcoming = simulator.next_event_time()
        assert (upcoming is None) is expect_none
        assert simulator.step() == upcoming

    def test_batch_mode_rejects_mid_run_scheduling(self):
        simulator = self.make()
        simulator.start()
        simulator.advance_to(100_000)
        with pytest.raises(RuntimeError, match="live=True"):
            simulator.add_alarm(
                Alarm(app="late", nominal_time=200_000, grace_length=0),
                150_000,
            )

    def test_live_mode_accepts_mid_run_scheduling(self):
        simulator = Simulator(
            DEFAULT_REGISTRY.create_policy("simty"),
            config=SimulatorConfig(
                horizon=HORIZON, monitor="record", live=True
            ),
        )
        simulator.start()
        simulator.advance_to(100_000)
        late = Alarm(
            app="late",
            label="late",
            nominal_time=200_000,
            repeat_interval=300_000,
            repeat_kind=RepeatKind.STATIC,
            grace_length=100_000,
        )
        simulator.add_alarm(late, 150_000)
        # An op behind the engine clock is caught up at the next step
        # (batch semantics: processed at max(now, t)), never lost.  The
        # no-past policy is enforced at the service boundary instead.
        stale = Alarm(
            app="past", label="past", nominal_time=50_000, grace_length=0
        )
        simulator.add_alarm(stale, 50_000)
        trace = simulator.drain()
        assert any(
            record.label == "late" for record in trace.deliveries()
        )
        assert any(
            record.label == "past" and record.time >= 100_000
            for record in trace.registrations
        )

    def test_live_mid_run_schedule_matches_upfront_schedule(self):
        """Scheduling at t mid-run == declaring the same op before start."""

        def alarms():
            early = Alarm(
                app="early",
                label="early",
                nominal_time=30_000,
                repeat_interval=200_000,
                repeat_kind=RepeatKind.STATIC,
                grace_length=100_000,
            )
            late = Alarm(
                app="late",
                label="late",
                nominal_time=600_000,
                repeat_interval=250_000,
                repeat_kind=RepeatKind.STATIC,
                grace_length=120_000,
            )
            return early, late

        def make(live: bool) -> Simulator:
            return Simulator(
                DEFAULT_REGISTRY.create_policy("simty"),
                config=SimulatorConfig(
                    horizon=HORIZON, monitor="record", live=live
                ),
            )

        batch = make(live=False)
        early, late = alarms()
        batch.add_alarm(early, 0)
        batch.add_alarm(late, 500_000)
        batch.cancel_alarm(early, 900_000)
        reference = canonical_trace_json(batch.run())

        live = make(live=True)
        early, late = alarms()
        live.add_alarm(early, 0)
        live.start()
        live.advance_to(400_000)
        live.add_alarm(late, 500_000)
        live.advance_to(800_000)
        live.cancel_alarm(early, 900_000)
        assert canonical_trace_json(live.drain()) == reference
