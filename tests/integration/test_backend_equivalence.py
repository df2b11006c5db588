"""ListBackend and IndexedBackend must be observationally identical.

Backend choice is a pure cost decision: the scheduling kernel's contract is
that every policy makes bit-identical alignment decisions on either
backend.  Three layers enforce it here:

* a hypothesis state machine drives a list-backed and an indexed-backed
  queue through the *same* random registration / cancellation / churn
  sequence (zero-width windows included) and asserts identical entry
  membership, delivery order and due-popping after every step, and that
  the indexed window and grace candidates of random probes are exactly
  the list queue's overlapping entries, in queue order.  It runs twice:
  with the indexed backend's short-queue scan, and with the scan
  threshold at 0 so every query goes through the end indexes;
* a seeded fuzz corpus (the same generator the ``simty fuzz`` CLI uses,
  invariant monitor armed) asserts byte-identical serialized traces and
  zero violations across 200 cases;
* the paper experiments (light/heavy × NATIVE/SIMTY) are replayed on both
  backends and their serialized traces compared, canonicalized only for
  the process-global alarm-id counter.
"""

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.analysis.fuzz import generate_case, run_case
from repro.analysis.experiments import run_experiment
from repro.core import backend as backend_module
from repro.core.alarm import Alarm, RepeatKind
from repro.core.hardware import (
    ACCELEROMETER_ONLY,
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    WPS_ONLY,
)
from repro.core.intervals import Interval
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.simulator.engine import SimulatorConfig
from repro.simulator.serialize import trace_to_dict

HARDWARE_CHOICES = [
    WIFI_ONLY,
    WPS_ONLY,
    ACCELEROMETER_ONLY,
    SPEAKER_VIBRATOR_ONLY,
    EMPTY_HARDWARE,
]

alarm_params = st.tuples(
    st.integers(min_value=0, max_value=600_000),      # nominal
    st.integers(min_value=0, max_value=60_000),       # window (0 = zero-width)
    st.integers(min_value=0, max_value=90_000),       # extra grace
    st.sampled_from(range(len(HARDWARE_CHOICES))),    # hardware index
    st.booleans(),                                    # hardware known
)


def build_alarm(params):
    nominal, window, extra_grace, hw_index, known = params
    return Alarm(
        app="eq",
        nominal_time=nominal,
        repeat_interval=1_000_000,
        window_length=window,
        grace_length=window + extra_grace,
        repeat_kind=RepeatKind.STATIC,
        hardware=HARDWARE_CHOICES[hw_index],
        hardware_known=known,
    )


def membership(queue):
    """The queue's observable state: ordered entries as member-id tuples."""
    return [
        (
            entry.delivery_time(queue.grace_mode),
            tuple(sorted(alarm.alarm_id for alarm in entry)),
        )
        for entry in queue.entries()
    ]


def members(entries):
    return [tuple(sorted(alarm.alarm_id for alarm in entry)) for entry in entries]


def overlapping(entries, kind, probe):
    """The entries whose ``kind`` interval meets ``probe``, in given order."""
    return [
        entry
        for entry in entries
        if getattr(entry, kind) is not None and getattr(entry, kind).overlaps(probe)
    ]


probe_params = st.tuples(
    st.integers(min_value=0, max_value=800_000),      # start
    st.integers(min_value=0, max_value=150_000),      # width (0 = a point)
)


class BackendLockstepMachine(RuleBasedStateMachine):
    """Drive both backends through one op sequence; they must never differ."""

    policy_factory = SimtyPolicy
    #: The indexed backend's short-queue threshold for the run; ``None``
    #: keeps the module's own.
    short_queue = None

    def __init__(self):
        super().__init__()
        self.saved_short_queue = backend_module.SHORT_QUEUE
        if self.short_queue is not None:
            backend_module.SHORT_QUEUE = self.short_queue

    def teardown(self):
        backend_module.SHORT_QUEUE = self.saved_short_queue

    @initialize()
    def setup(self):
        self.policy = self.policy_factory()
        self.reference = self.policy.make_queue(backend="list")
        self.indexed = self.policy.make_queue(backend="indexed")
        self.alarms = []
        self.clock = 0
        self.probes = []

    def both(self, operate):
        first = operate(self.reference)
        second = operate(self.indexed)
        return first, second

    @rule(params=alarm_params)
    def register(self, params):
        alarm = build_alarm(params)
        self.alarms.append(alarm)
        self.both(lambda queue: self.policy.insert(queue, alarm, self.clock))

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def cancel(self, index):
        if not self.alarms:
            return
        alarm = self.alarms.pop(index % len(self.alarms))
        removed = self.both(lambda queue: queue.remove_alarm(alarm))
        assert (removed[0] is None) == (removed[1] is None)

    @rule(
        index=st.integers(min_value=0, max_value=10_000),
        shift=st.integers(min_value=1, max_value=500_000),
    )
    def churn_reregister(self, index, shift):
        if not self.alarms:
            return
        alarm = self.alarms[index % len(self.alarms)]
        alarm.nominal_time += shift
        self.both(lambda queue: self.policy.reinsert(queue, alarm, self.clock))

    @rule(advance=st.integers(min_value=0, max_value=200_000))
    def pop_due(self, advance):
        self.clock += advance
        while True:
            popped = self.both(lambda queue: queue.pop_due(self.clock))
            assert (popped[0] is None) == (popped[1] is None)
            if popped[0] is None:
                break
            reference_ids = sorted(a.alarm_id for a in popped[0])
            indexed_ids = sorted(a.alarm_id for a in popped[1])
            assert reference_ids == indexed_ids
            delivered = set(reference_ids)
            self.alarms = [
                alarm for alarm in self.alarms
                if alarm.alarm_id not in delivered
            ]

    @rule(params=probe_params)
    def probe(self, params):
        start, width = params
        self.probes.append(Interval(start, start + width))

    @invariant()
    def candidates_are_the_overlapping_entries(self):
        # Every entry's own bounds probe the touching cases; the drawn
        # probes cover the rest.
        probes = list(self.probes)
        for entry in self.reference.entries():
            for interval in (entry.window, entry.grace):
                if interval is not None:
                    probes.append(Interval(interval.start, interval.start))
                    probes.append(Interval(interval.end, interval.end + 1))
        for kind in ("window", "grace"):
            for probe in probes:
                query = f"{kind}_candidates"
                expected = overlapping(
                    getattr(self.reference, query)(probe), kind, probe
                )
                found = getattr(self.indexed, query)(probe)
                assert members(found) == members(expected)

    @invariant()
    def same_observable_state(self):
        assert membership(self.reference) == membership(self.indexed)
        assert len(self.reference) == len(self.indexed)
        assert self.reference.alarm_count() == self.indexed.alarm_count()
        heads = self.reference.peek(), self.indexed.peek()
        assert (heads[0] is None) == (heads[1] is None)
        if heads[0] is not None:
            assert sorted(a.alarm_id for a in heads[0]) == sorted(
                a.alarm_id for a in heads[1]
            )


class SimtyLockstepMachine(BackendLockstepMachine):
    policy_factory = SimtyPolicy


class NativeLockstepMachine(BackendLockstepMachine):
    policy_factory = NativePolicy


class SimtyIndexedLockstepMachine(SimtyLockstepMachine):
    short_queue = 0


class NativeIndexedLockstepMachine(NativeLockstepMachine):
    short_queue = 0


def lockstep_case(machine):
    case = machine.TestCase
    case.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
    return case


TestSimtyLockstep = lockstep_case(SimtyLockstepMachine)
TestNativeLockstep = lockstep_case(NativeLockstepMachine)
TestSimtyIndexedLockstep = lockstep_case(SimtyIndexedLockstepMachine)
TestNativeIndexedLockstep = lockstep_case(NativeIndexedLockstepMachine)


class TestFuzzCorpus:
    def test_200_seeded_cases_clean_across_backends(self):
        """Monitor armed, both policies, both backends: zero findings.

        ``run_case`` reruns every policy on the indexed backend and
        byte-compares serialized traces, so a single clean corpus covers
        the invariant, oracle, differential AND backend detectors.
        """
        dirty = []
        for seed in range(200):
            outcome = run_case(generate_case(seed))
            if not outcome.ok:
                dirty.append(
                    (seed, [failure.detail for failure in outcome.failures])
                )
        assert not dirty, dirty


def canonical_trace_json(trace) -> str:
    """Serialized trace with alarm ids renumbered by first appearance.

    ``Alarm`` draws ids from a process-global counter, so two runs of the
    same workload in one process get different raw ids; every other byte
    of the trace must match exactly.
    """
    payload = trace_to_dict(trace)
    mapping = {}

    def remap(alarm_id):
        if alarm_id is None:
            return None
        return mapping.setdefault(alarm_id, len(mapping) + 1)

    for record in payload["registrations"]:
        record["alarm_id"] = remap(record["alarm_id"])
    for batch in payload["batches"]:
        for alarm in batch["alarms"]:
            alarm["alarm_id"] = remap(alarm["alarm_id"])
        for task in batch["tasks"]:
            task["alarm_id"] = remap(task["alarm_id"])
    for violation in payload["violations"]:
        violation["alarm_id"] = remap(violation["alarm_id"])
    return json.dumps(payload, sort_keys=True)


class TestPaperExperiments:
    @pytest.mark.parametrize("workload", ["light", "heavy"])
    @pytest.mark.parametrize("policy", ["native", "simty"])
    def test_trace_identical_across_backends(self, workload, policy):
        traces = {}
        for backend in ("list", "indexed"):
            result = run_experiment(
                workload,
                policy,
                simulator_config=SimulatorConfig(
                    monitor="record", queue_backend=backend
                ),
            )
            assert result.trace.violations == []
            traces[backend] = canonical_trace_json(result.trace)
        assert traces["list"] == traces["indexed"]
