"""The allocation-free queue audit against a frozen copy of its predecessor.

``check_queue`` and ``_check_entry_algebra`` below are the audit as it was
before it became one integer pass per entry, copied verbatim: an
``Interval`` pair and a ``HardwareSet`` union per member.  They are the
oracle.  The shipping :func:`repro.core.invariants.check_queue` must return
field-for-field equal violations — same kinds, same order, byte-identical
details — on hand-corrupted queues and on every audit point of monitored
runs that do and do not breach the entry algebra.

The last part checks the monitor's reuse of a clean audit at the step end
against a monitor whose step end always audits in full: after in-place
corruptions made between two steps with no queue call (between public
``step()`` calls, and between two ``advance_to`` calls), and over whole
runs of every workload and policy pair, driven by ``run`` and by
``advance_to`` in the daemon's 60 s stride, the violations and the check
count must be the same.  The reuse must also really carry a clean audit
from one step to a later one, and across deliveries that reinsert nothing
(a push-heavy handset), where in-place corruptions made between a pop and
its step end must still be seen at that step end.
"""

import itertools
from typing import Dict, List, Optional, Set

import pytest

from repro.core import alarm as alarm_module
from repro.core import entry as entry_module
from repro.core import invariants
from repro.core.bucket import FixedIntervalPolicy
from repro.core.entry import QueueEntry
from repro.core.exact import ExactPolicy
from repro.core.hardware import (
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    Component,
    HardwareSet,
)
from repro.core.intervals import Interval
from repro.core.invariants import (
    DUPLICATE_QUEUED,
    EMPTY_ENTRY,
    ENTRY_ALGEBRA,
    OVERDUE_ENTRY,
    PERCEPTIBLE_NO_WINDOW,
    QUEUE_ORDER,
    UNREGISTERED_QUEUED,
    Violation,
)
from repro.core.native import NativePolicy
from repro.core.queue import AlarmQueue
from repro.core.simty import SimtyPolicy
from repro.core.units import THREE_HOURS_MS
from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator import monitor as monitor_module
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.simulator.monitor import InvariantMonitor
from repro.workloads.churn import app_update_wave, cancellation_storm
from repro.workloads.scenarios import build_light
from repro.workloads.sources.spec import ScenarioSpec, SourceUse, compile_scenario

from ..conftest import make_alarm

# ---------------------------------------------------------------------------
# The frozen reference (verbatim)
# ---------------------------------------------------------------------------


def check_queue(
    queue: AlarmQueue,
    now: int,
    *,
    registered_ids: Optional[Set[int]] = None,
    overdue_tolerance_ms: Optional[int] = None,
) -> List[Violation]:
    """Structural audit of one queue.

    Checks: no empty entries; no alarm queued in two entries (or twice in
    one); entries sorted by delivery time; each entry's window/grace/
    hardware attributes equal the recomputed intersection/union of its
    members; perceptible entries keep a non-empty window intersection; and
    — when ``registered_ids`` is given — every queued alarm is still
    registered (an alignment target that was cancelled must not linger).

    ``overdue_tolerance_ms`` additionally flags entries whose delivery time
    lies more than that far in the past: the engine pops due entries every
    iteration, so an overdue resident entry is an orphaned batch.  Leave it
    ``None`` for queues that may legally hold overdue entries (non-wakeup
    alarms while the device sleeps).
    """
    violations: List[Violation] = []
    seen: Dict[int, str] = {}
    previous_delivery: Optional[int] = None
    for entry in queue.entries():
        if entry.is_empty():
            violations.append(
                Violation(
                    kind=EMPTY_ENTRY,
                    time=now,
                    detail=f"entry #{entry.entry_id} is empty but queued",
                )
            )
            continue
        delivery = entry.delivery_time(queue.grace_mode)
        if previous_delivery is not None and delivery < previous_delivery:
            violations.append(
                Violation(
                    kind=QUEUE_ORDER,
                    time=now,
                    detail=(
                        f"entry #{entry.entry_id} due at {delivery} is "
                        f"queued after an entry due at {previous_delivery}"
                    ),
                )
            )
        previous_delivery = delivery
        if overdue_tolerance_ms is not None and delivery + overdue_tolerance_ms < now:
            violations.append(
                Violation(
                    kind=OVERDUE_ENTRY,
                    time=now,
                    detail=(
                        f"entry #{entry.entry_id} was due at {delivery}, "
                        f"{now - delivery}ms ago, but is still queued"
                    ),
                )
            )
        for alarm in entry:
            if alarm.alarm_id in seen:
                violations.append(
                    Violation(
                        kind=DUPLICATE_QUEUED,
                        time=now,
                        alarm_id=alarm.alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm queued in entry #{entry.entry_id} and "
                            f"again in entry {seen[alarm.alarm_id]}"
                        ),
                    )
                )
            else:
                seen[alarm.alarm_id] = f"#{entry.entry_id}"
            if registered_ids is not None and alarm.alarm_id not in registered_ids:
                violations.append(
                    Violation(
                        kind=UNREGISTERED_QUEUED,
                        time=now,
                        alarm_id=alarm.alarm_id,
                        label=alarm.label,
                        detail=(
                            f"alarm still queued in entry #{entry.entry_id} "
                            "after cancellation"
                        ),
                    )
                )
        violations.extend(_check_entry_algebra(entry, now))
    return violations


def _check_entry_algebra(entry: QueueEntry, now: int) -> List[Violation]:
    """Recompute an entry's attribute algebra and compare (Sec. 3.2.1)."""
    violations: List[Violation] = []
    window = None
    grace = None
    hardware = EMPTY_HARDWARE
    perceptible = False
    for index, alarm in enumerate(entry.alarms):
        perceptible = perceptible or alarm.is_perceptible()
        alarm_window = alarm.window_interval()
        alarm_grace = alarm.grace_interval()
        if index == 0:
            window = alarm_window
            grace = alarm_grace
        else:
            if window is not None:
                window = window.intersect(alarm_window)
            if grace is not None:
                grace = grace.intersect(alarm_grace)
        hardware = hardware.union(alarm.hardware)
    if (
        entry.window != window
        or entry.grace != grace
        or entry.hardware != hardware
        or entry.perceptible != perceptible
    ):
        violations.append(
            Violation(
                kind=ENTRY_ALGEBRA,
                time=now,
                detail=(
                    f"entry #{entry.entry_id} attributes drifted from its "
                    f"members: window {entry.window} vs recomputed {window}, "
                    f"grace {entry.grace} vs {grace}, hardware "
                    f"{entry.hardware} vs {hardware}, perceptible "
                    f"{entry.perceptible} vs {perceptible}"
                ),
            )
        )
    if perceptible and window is None:
        violations.append(
            Violation(
                kind=PERCEPTIBLE_NO_WINDOW,
                time=now,
                detail=(
                    f"perceptible entry #{entry.entry_id} has an empty "
                    "window intersection"
                ),
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def fields(violations):
    return [
        (v.kind, v.time, v.alarm_id, v.label, v.detail) for v in violations
    ]


def assert_same(queue, now, **kwargs):
    """Both audits agree on ``queue``; returns the shipping audit's result."""
    expected = fields(check_queue(queue, now, **kwargs))
    violations = invariants.check_queue(queue, now, **kwargs)
    actual = fields(violations)
    # Compare element-wise so a mismatch reports one violation, not a
    # diff of two long lists.
    assert len(actual) == len(expected), (len(actual), len(expected))
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"
    return violations


def audit_variants(queue, now, ids):
    """Every argument combination the monitor and the tests use."""
    kinds = set()
    for registered_ids in (None, ids):
        for overdue in (None, 0):
            found = assert_same(
                queue,
                now,
                registered_ids=registered_ids,
                overdue_tolerance_ms=overdue,
            )
            kinds.update(violation.kind for violation in found)
    return kinds


# ---------------------------------------------------------------------------
# (a) Hand-corrupted queues
# ---------------------------------------------------------------------------


def exact_queue(*alarms, grace_mode=False):
    # The list backend: the corruptions reach into its storage directly.
    # In grace mode an imperceptible entry is due off its grace interval,
    # so a corrupted window leaves its delivery time defined.
    policy = ExactPolicy()
    queue = AlarmQueue(grace_mode=grace_mode, backend="list")
    for alarm in alarms:
        policy.insert(queue, alarm, 0)
    return queue


def head(queue):
    return next(iter(queue.entries()))


def corrupt_empty():
    queue = exact_queue(make_alarm(nominal=50_000))
    queue._backend._entries.append(QueueEntry())
    return queue, EMPTY_ENTRY


def corrupt_duplicate_across_entries():
    alarm = make_alarm(nominal=50_000, label="dup")
    queue = AlarmQueue(grace_mode=False, backend="list")
    queue._backend._entries.append(QueueEntry([alarm]))
    queue._backend._entries.append(QueueEntry([alarm]))
    return queue, DUPLICATE_QUEUED


def corrupt_duplicate_within_entry():
    alarm = make_alarm(nominal=50_000, window=5_000, label="twice")
    queue = exact_queue(alarm)
    head(queue).alarms.append(alarm)
    return queue, DUPLICATE_QUEUED


def corrupt_order():
    queue = exact_queue(
        make_alarm(nominal=50_000, label="a"),
        make_alarm(nominal=80_000, label="b"),
    )
    queue._backend._entries.reverse()
    return queue, QUEUE_ORDER


def corrupt_overdue():
    return exact_queue(make_alarm(nominal=10_000)), OVERDUE_ENTRY


def corrupt_unregistered():
    return exact_queue(make_alarm(nominal=50_000, label="ghost")), UNREGISTERED_QUEUED


def corrupt_window_drift():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).window = Interval(0, 1)
    return queue, ENTRY_ALGEBRA


def corrupt_grace_drift():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000, grace=20_000))
    head(queue).grace = Interval(50_000, 55_000)
    return queue, ENTRY_ALGEBRA


def corrupt_hardware_drift():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).hardware = HardwareSet({Component.GPS, Component.WIFI})
    return queue, ENTRY_ALGEBRA


def corrupt_hardware_emptied():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).hardware = EMPTY_HARDWARE
    return queue, ENTRY_ALGEBRA


def corrupt_hardware_wrong_type():
    # A plain set: unequal to the recomputed HardwareSet.
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).hardware = {Component.GPS}
    return queue, ENTRY_ALGEBRA


def corrupt_hardware_equal_frozenset():
    # A frozenset of the right components compares equal to a HardwareSet,
    # so equality (and hence the audit) accepts it.
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).hardware = frozenset(WIFI_ONLY.components)
    return queue, None


def corrupt_perceptible_flag():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).perceptible = True
    return queue, ENTRY_ALGEBRA


def corrupt_tuple_window():
    # Right bounds, wrong type: a tuple never equals an Interval.
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000), grace_mode=True)
    head(queue).window = (50_000, 60_000)
    return queue, ENTRY_ALGEBRA


class _SubInterval(Interval):
    pass


def corrupt_subclass_window():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000), grace_mode=True)
    head(queue).window = _SubInterval(50_000, 60_000)
    return queue, ENTRY_ALGEBRA


class _BoundsWindow:
    """Not an Interval, but equal to one with the same bounds."""

    def __init__(self, start, end):
        self.start = start
        self.end = end

    def __eq__(self, other):
        return isinstance(other, Interval) and (other.start, other.end) == (
            self.start,
            self.end,
        )


def corrupt_equal_foreign_window():
    # Equality accepts it, so the audit must too.
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000), grace_mode=True)
    head(queue).window = _BoundsWindow(50_000, 60_000)
    return queue, None


def corrupt_vanished_window():
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).window = None
    return queue, ENTRY_ALGEBRA


def corrupt_vanished_grace():
    # The window survives, so the delivery time is still defined.
    queue = exact_queue(make_alarm(nominal=50_000, window=10_000))
    head(queue).grace = None
    return queue, ENTRY_ALGEBRA


def corrupt_perceptible_no_window():
    # Two perceptible members whose windows are disjoint but whose graces
    # overlap: the algebra is consistent, the window is gone.
    first = make_alarm(
        nominal=50_000, grace=20_000, hardware=SPEAKER_VIBRATOR_ONLY, label="p1"
    )
    second = make_alarm(
        nominal=60_000, grace=20_000, hardware=SPEAKER_VIBRATOR_ONLY, label="p2"
    )
    queue = AlarmQueue(grace_mode=False, backend="list")
    queue.add_entry(QueueEntry([first, second]))
    return queue, PERCEPTIBLE_NO_WINDOW


def corrupt_bucket_pinned():
    # BUCKET pins its entries to the boundary, off the member algebra.
    policy = FixedIntervalPolicy(bucket_interval=300_000)
    queue = AlarmQueue(grace_mode=policy.grace_mode, backend="list")
    policy.insert(queue, make_alarm(nominal=10_000, label="b1"), 0)
    policy.insert(queue, make_alarm(nominal=250_000, label="b2"), 0)
    return queue, ENTRY_ALGEBRA


def corrupt_everything_at_once():
    queue, _ = corrupt_order()
    entries = queue._backend._entries
    entries[0].hardware = EMPTY_HARDWARE
    entries[1].alarms.append(entries[0].alarms[0])
    entries.append(QueueEntry())
    return queue, QUEUE_ORDER


CORRUPTIONS = [
    corrupt_empty,
    corrupt_duplicate_across_entries,
    corrupt_duplicate_within_entry,
    corrupt_order,
    corrupt_overdue,
    corrupt_unregistered,
    corrupt_window_drift,
    corrupt_grace_drift,
    corrupt_hardware_drift,
    corrupt_hardware_emptied,
    corrupt_hardware_wrong_type,
    corrupt_hardware_equal_frozenset,
    corrupt_perceptible_flag,
    corrupt_tuple_window,
    corrupt_subclass_window,
    corrupt_equal_foreign_window,
    corrupt_vanished_window,
    corrupt_vanished_grace,
    corrupt_perceptible_no_window,
    corrupt_bucket_pinned,
    corrupt_everything_at_once,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_hand_corrupted_queue_matches_reference(corrupt):
    queue, expected_kind = corrupt()
    # An empty registered set flags every member, so the unregistered
    # branch is compared for every corruption too.
    kinds = audit_variants(queue, 100_000, ids=set())
    if expected_kind is None:
        assert kinds == {UNREGISTERED_QUEUED, OVERDUE_ENTRY}
    else:
        assert expected_kind in kinds


def test_healthy_queue_matches_reference():
    alarms = [
        make_alarm(nominal=50_000 + 7_000 * index, window=30_000, grace=50_000)
        for index in range(12)
    ]
    queue = AlarmQueue(grace_mode=True)
    policy = SimtyPolicy()
    for alarm in alarms:
        policy.insert(queue, alarm, 0)
    ids = {alarm.alarm_id for alarm in alarms}
    assert audit_variants(queue, 0, ids) == set()


# ---------------------------------------------------------------------------
# (b, c) Every audit point of monitored runs
# ---------------------------------------------------------------------------


def replay_audits(monkeypatch, policy, workload):
    """Run ``workload`` monitored; cross-check every audit the monitor makes.

    Returns the violation count per kind over all compared audits.
    """
    tally: Dict[str, int] = {}
    audits = [0]

    def both(queue, now, **kwargs):
        found = assert_same(queue, now, **kwargs)
        audits[0] += 1
        for violation in found:
            tally[violation.kind] = tally.get(violation.kind, 0) + 1
        return found

    monkeypatch.setattr(monitor_module, "check_queue", both)
    simulator = Simulator(policy, config=SimulatorConfig(monitor="record"))
    workload.apply(simulator)
    simulator.run()
    # The wrapper must really have stood in for the monitor's audits.
    assert audits[0] > 1_000
    return tally


def test_bucket_run_audits_match_reference(monkeypatch):
    # BUCKET breaches the entry algebra by design, so this is a large
    # corpus of failure-branch details, not only healthy queues.
    tally = replay_audits(monkeypatch, FixedIntervalPolicy(), build_light())
    assert tally[ENTRY_ALGEBRA] > 1_000
    assert tally[PERCEPTIBLE_NO_WINDOW] > 100


def churned_light():
    workload = build_light()
    labels = workload.major_labels()
    workload.directives = cancellation_storm(
        labels[:3], at=1_800_000, spread_ms=600_000, seed=7
    ) + app_update_wave(labels[3:], at=5_400_000, spacing_ms=30_000)
    return workload


@pytest.mark.parametrize(
    "policy", [SimtyPolicy, NativePolicy], ids=lambda cls: cls.name
)
def test_churn_run_audits_match_reference(monkeypatch, policy):
    assert replay_audits(monkeypatch, policy(), churned_light()) == {}


# ---------------------------------------------------------------------------
# (d) The step-end audit's within-step reuse against an always-full one
# ---------------------------------------------------------------------------


class FullStepEndMonitor(InvariantMonitor):
    """The reference: every step end runs the full structural audit."""

    def on_step_end(self, now: int) -> None:
        self._audit(now, overdue_tolerance_ms=0)


def _fresh_ids(monkeypatch):
    # Violation details name entries and alarms by id, and both come from
    # process-global counters: restart them so two runs can be compared.
    monkeypatch.setattr(entry_module, "_ENTRY_IDS", itertools.count(1))
    monkeypatch.setattr(alarm_module, "_ALARM_IDS", itertools.count(1))


def _upcoming(simulator) -> Optional[Set[str]]:
    """The phases the next ``step()`` runs, or ``None`` when none is left."""
    instant = simulator.next_event_time()
    if instant is None or instant >= simulator.config.horizon:
        return None
    phases = set()
    for name, schedule, index in (
        ("registration", simulator._registrations, simulator._registration_index),
        ("cancellation", simulator._cancellations, simulator._cancellation_index),
        (
            "registration",
            simulator._reregistrations,
            simulator._reregistration_index,
        ),
        ("external", simulator._externals, simulator._external_index),
    ):
        if index < len(schedule) and schedule[index].time <= instant:
            phases.add(name)
    manager = simulator.manager
    due = manager.next_wakeup_time()
    if due is not None and due <= instant:
        phases.add("delivery")
    if simulator.device.awake:
        due = manager.next_nonwakeup_time()
        if due is not None and due <= instant:
            phases.add("delivery")
        if not phases and simulator.device.sleep_at == instant:
            phases.add("sleep")
    return phases


def _surviving_entry(simulator, accept=lambda entry: True) -> QueueEntry:
    """The latest ``accept``-ed wakeup-queue entry; it outlives the next step."""
    entry = [e for e in simulator.manager.wakeup_queue.entries() if accept(e)][-1]
    assert entry.delivery_time(simulator.policy.grace_mode) > (
        simulator.next_event_time()
    )
    return entry


def corrupt_entry_hardware(simulator) -> None:
    entry = _surviving_entry(simulator)
    if Component.GPS in entry.hardware.components:
        entry.hardware = EMPTY_HARDWARE
    else:
        entry.hardware = entry.hardware.union(HardwareSet({Component.GPS}))


def _window_enders(entry: QueueEntry) -> List:
    """Members whose window ends the entry's window and can shrink."""
    return [
        alarm
        for alarm in entry.alarms
        if alarm.window_length > 0
        and alarm.nominal_time + alarm.window_length == entry.window.end
    ]


def corrupt_member_window(simulator) -> None:
    # Shorten the window of a member that ends the entry's window: the
    # recomputed intersection then ends earlier (or vanishes).
    entry = _surviving_entry(
        simulator, lambda entry: entry.window is not None and _window_enders(entry)
    )
    _window_enders(entry)[0].window_length -= 1


#: Corruptions made between two steps, without a queue call.
STEP_CORRUPTIONS = [corrupt_entry_hardware, corrupt_member_window]

#: The run corrupts the queue before the first step of this kind past it.
CORRUPT_AFTER_MS = 1_800_000


def gated_run(monkeypatch, monitor_cls, policy, kind, corrupt):
    """Run churned light monitored; corrupt once, before the first
    ``kind`` step past :data:`CORRUPT_AFTER_MS`.  Returns (violations,
    check count, instant of the corrupted step)."""
    _fresh_ids(monkeypatch)
    monitor = monitor_cls(on_violation="record")
    simulator = Simulator(
        DEFAULT_REGISTRY.create_policy(policy), monitor=monitor
    )
    churned_light().apply(simulator)
    simulator.start()
    corrupted_at = None
    while (phases := _upcoming(simulator)) is not None:
        if (
            corrupted_at is None
            and simulator.now >= CORRUPT_AFTER_MS
            and phases == {kind}
        ):
            corrupt(simulator)
            corrupted_at = simulator.next_event_time()
        simulator.step()
    simulator.finish()
    assert corrupted_at is not None, f"no {kind} step to corrupt before"
    return fields(monitor.violations), monitor.check_count, corrupted_at


@pytest.mark.parametrize("corrupt", STEP_CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ["sleep", "delivery", "registration"])
@pytest.mark.parametrize("policy", ["simty", "native"])
def test_step_end_reuse_sees_a_corruption_made_between_steps(
    monkeypatch, policy, kind, corrupt
):
    expected, expected_checks, at = gated_run(
        monkeypatch, FullStepEndMonitor, policy, kind, corrupt
    )
    actual, checks, _ = gated_run(
        monkeypatch, InvariantMonitor, policy, kind, corrupt
    )
    # The reference saw the corruption in the corrupted step itself.
    assert any(
        violation[0] == ENTRY_ALGEBRA and violation[1] >= at
        for violation in expected
    )
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"


def with_churn(workload):
    """``workload`` plus a cancellation storm and an app-update wave."""
    labels = workload.major_labels()
    workload.directives = cancellation_storm(
        labels[:3], at=1_800_000, spread_ms=600_000, seed=7
    ) + app_update_wave(labels[3:], at=5_400_000, spacing_ms=30_000)
    return workload


def count_carried(monitor) -> List[int]:
    """Count the step ends that reuse a clean audit made in an earlier step.

    Wraps the monitor instance's ``_audit`` and ``on_step_end``: a step end
    that audits nothing itself reused a clean audit, and when no audit ran
    since the previous step end either, that audit came from an earlier
    step.  Returns a one-item list the count lands in.
    """
    carried = [0]
    audited = [False]
    audit, step_end = monitor._audit, monitor.on_step_end

    def auditing(*args, **kwargs):
        audited[0] = True
        return audit(*args, **kwargs)

    def ending(now):
        in_step = audited[0]
        audited[0] = False
        step_end(now)
        if not audited[0] and not in_step:
            carried[0] += 1
        audited[0] = False

    monitor._audit = auditing
    monitor.on_step_end = ending
    return carried


#: ``simty serve``'s advance stride in the replays below.
STRIDE_MS = 60_000


def advance_through(simulator) -> None:
    """Drive a built simulator to its horizon in :data:`STRIDE_MS`
    ``advance_to`` calls, as a client of the daemon does, then seal."""
    simulator.start()
    horizon = simulator.config.horizon
    for to in range(STRIDE_MS, horizon + STRIDE_MS, STRIDE_MS):
        simulator.advance_to(to)
    simulator.finish()


def replay(
    monkeypatch, monitor_cls, policy, workload, churn, drive=Simulator.run
):
    """One monitored run, driven by ``drive``; returns (violations, check
    count, reuses, reuses of a clean audit from an earlier step)."""
    _fresh_ids(monkeypatch)
    reuses = [0]

    def counting(*args, **kwargs):
        reuses[0] += 1
        return invariants.check_overdue(*args, **kwargs)

    monkeypatch.setattr(monitor_module, "check_overdue", counting)
    monitor = monitor_cls(on_violation="record")
    simulator = Simulator(
        DEFAULT_REGISTRY.create_policy(policy), monitor=monitor
    )
    built = DEFAULT_REGISTRY.build_workload(workload)
    (with_churn(built) if churn else built).apply(simulator)
    carried = count_carried(monitor)
    drive(simulator)
    checks = monitor.check_count
    return fields(monitor.violations), checks, reuses[0], carried[0]


def replay_run(monkeypatch, monitor_cls, policy, workload, churn):
    """One monitored ``run()``; returns (violations, check count, reuses)."""
    return replay(monkeypatch, monitor_cls, policy, workload, churn)[:3]


@pytest.mark.parametrize("churn", [False, True], ids=["steady", "churn"])
@pytest.mark.parametrize("policy", ["simty", "native", "bucket", "simty+dur"])
@pytest.mark.parametrize("workload", ["light", "heavy", "synthetic"])
def test_step_end_reuse_replays_like_the_full_audit(
    monkeypatch, workload, policy, churn
):
    expected, expected_checks, _ = replay_run(
        monkeypatch, FullStepEndMonitor, policy, workload, churn
    )
    actual, checks, reuses = replay_run(
        monkeypatch, InvariantMonitor, policy, workload, churn
    )
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"
    if policy == "bucket":
        # BUCKET breaks the entry algebra at every audit: never reused.
        assert reuses == 0 and expected
    else:
        assert reuses > 0


@pytest.mark.parametrize("churn", [False, True], ids=["steady", "churn"])
@pytest.mark.parametrize("policy", ["simty", "native", "bucket", "simty+dur"])
@pytest.mark.parametrize("workload", ["light", "heavy", "synthetic"])
def test_step_end_reuse_across_advances_replays_like_the_full_audit(
    monkeypatch, workload, policy, churn
):
    expected, expected_checks, _, _ = replay(
        monkeypatch, FullStepEndMonitor, policy, workload, churn,
        drive=advance_through,
    )
    actual, checks, reuses, carried = replay(
        monkeypatch, InvariantMonitor, policy, workload, churn,
        drive=advance_through,
    )
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"
    if policy == "bucket":
        assert reuses == 0 and expected
    else:
        # Some step ends reuse a clean audit from an earlier step: the
        # reuse spans the steps one advance_to drives.
        assert 0 < carried <= reuses


@pytest.mark.parametrize(
    "drive", [Simulator.run, Simulator.drain], ids=lambda f: f.__name__
)
def test_clean_audit_carries_across_run_steps(monkeypatch, drive):
    _, _, reuses, carried = replay(
        monkeypatch, InvariantMonitor, "simty", "light", False, drive=drive
    )
    assert 0 < carried <= reuses


def gated_advance_run(monkeypatch, monitor_cls, policy, corrupt):
    """Drive churned light in :data:`STRIDE_MS` advances; corrupt once,
    between two ``advance_to`` calls, when the next step is sleep-only and
    the last audit was clean.  Returns (violations, check count, instant
    of the corrupted step)."""
    _fresh_ids(monkeypatch)
    monitor = monitor_cls(on_violation="record")
    simulator = Simulator(
        DEFAULT_REGISTRY.create_policy(policy), monitor=monitor
    )
    churned_light().apply(simulator)
    simulator.start()
    corrupted_at = None
    horizon = simulator.config.horizon
    for to in range(STRIDE_MS, horizon + STRIDE_MS, STRIDE_MS):
        if (
            corrupted_at is None
            and simulator.now >= CORRUPT_AFTER_MS
            and _upcoming(simulator) == {"sleep"}
            and monitor._clean
        ):
            corrupt(simulator)
            corrupted_at = simulator.next_event_time()
            assert corrupted_at <= to
        simulator.advance_to(to)
    simulator.finish()
    assert corrupted_at is not None, "no sleep-only step after an advance"
    return fields(monitor.violations), monitor.check_count, corrupted_at


@pytest.mark.parametrize("corrupt", STEP_CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("policy", ["simty", "native"])
def test_advance_entry_sees_a_corruption_made_between_advances(
    monkeypatch, policy, corrupt
):
    expected, expected_checks, at = gated_advance_run(
        monkeypatch, FullStepEndMonitor, policy, corrupt
    )
    actual, checks, _ = gated_advance_run(
        monkeypatch, InvariantMonitor, policy, corrupt
    )
    # Both report it at the end of the corrupted (sleep-only) step.
    for found in (expected, actual):
        assert min(v[1] for v in found if v[0] == ENTRY_ALGEBRA) == at
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"


# ---------------------------------------------------------------------------
# (d, continued) The clean audit across deliveries that reinsert nothing
# ---------------------------------------------------------------------------

#: The shipping member-id pass, before any test wraps it.
ANY_QUEUED = monitor_module._any_queued


def push_phone():
    """A busy, push-heavy handset over 3 h: the Table 3 heavy apps,
    background load, ~600 one-shot pushes an hour and an app-update wave,
    so most deliveries are one-shots that reinsert nothing."""
    spec = ScenarioSpec(
        name="push-phone",
        horizon=THREE_HOURS_MS,
        seed=1,
        sources=(
            SourceUse("table3-apps", kwargs={"set": "heavy", "phase_seed": 1}),
            SourceUse("background", kwargs={"seed": 1}),
            SourceUse("push-storm", kwargs={"rate_per_hour": 600, "seed": 1}),
            SourceUse(
                "churn",
                kwargs={
                    "at_ms": 5_400_000,
                    "pattern": "app-update-wave",
                    "spacing_ms": 30_000,
                },
            ),
        ),
    )
    return compile_scenario(spec)


def push_replay(monkeypatch, monitor_cls, policy, place=None):
    """Drive :func:`push_phone` monitored in :data:`STRIDE_MS` advances.

    With ``place``, once past :data:`CORRUPT_AFTER_MS` and right after the
    pop of an all-one-shot entry made while the last audit was clean,
    ``place(simulator, alarm)`` queues one of its delivered alarms again
    in place (it returns False when it cannot).  Returns (violations, check
    count, the member-id pass's results in order, instant of the
    corrupted step or None).
    """
    _fresh_ids(monkeypatch)
    found: List[bool] = []

    def passing(manager, alarm_ids):
        result = ANY_QUEUED(manager, alarm_ids)
        found.append(result)
        return result

    monkeypatch.setattr(monitor_module, "_any_queued", passing)
    monitor = monitor_cls(on_violation="record")
    simulator = Simulator(
        DEFAULT_REGISTRY.create_policy(policy), monitor=monitor
    )
    push_phone().apply(simulator)
    corrupted_at = []
    if place is not None:
        deliver = simulator._deliver_entry

        def delivering(entry, scheduled):
            deliver(entry, scheduled)
            if (
                not corrupted_at
                and simulator.now >= CORRUPT_AFTER_MS
                and monitor._clean
                and all(
                    alarm.repeat_kind is alarm_module.RepeatKind.ONE_SHOT
                    for alarm in entry.alarms
                )
                and place(simulator, entry.alarms[0])
            ):
                corrupted_at.append(simulator.now)

        simulator._deliver_entry = delivering
    advance_through(simulator)
    at = corrupted_at[0] if corrupted_at else None
    return fields(monitor.violations), monitor.check_count, found, at


def _requeue_in(queue, alarm) -> bool:
    """Append ``alarm`` to ``queue``'s latest entry, bypassing the queue."""
    entries = list(queue.entries())
    if not entries:
        return False
    entries[-1].alarms.append(alarm)
    return True


def leave_queued(simulator, alarm) -> bool:
    """A delivered alarm left queued in the queue it was popped from."""
    manager = simulator.manager
    return _requeue_in(
        manager.wakeup_queue if alarm.wakeup else manager.nonwakeup_queue, alarm
    )


def queue_in_other_queue(simulator, alarm) -> bool:
    """A delivered alarm also queued in the other queue."""
    manager = simulator.manager
    return _requeue_in(
        manager.nonwakeup_queue if alarm.wakeup else manager.wakeup_queue, alarm
    )


@pytest.mark.parametrize("policy", ["simty", "native", "bucket"])
def test_clean_audit_across_deliveries_replays_like_the_full_audit(
    monkeypatch, policy
):
    expected, expected_checks, _, _ = push_replay(
        monkeypatch, FullStepEndMonitor, policy
    )
    actual, checks, found, _ = push_replay(
        monkeypatch, InvariantMonitor, policy
    )
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"
    carries = found.count(False)
    if policy == "bucket":
        # Never clean, so never a member-id pass.
        assert not found and expected
    else:
        # The carry really fires: over a thousand step ends follow a
        # delivery that reinserted nothing and reuse the clean audit.
        assert not expected
        assert carries > 1_000


@pytest.mark.parametrize(
    "place", [leave_queued, queue_in_other_queue], ids=lambda f: f.__name__
)
@pytest.mark.parametrize("policy", ["simty", "native"])
def test_clean_audit_sees_a_delivered_alarm_still_queued(
    monkeypatch, policy, place
):
    expected, expected_checks, _, at = push_replay(
        monkeypatch, FullStepEndMonitor, policy, place
    )
    actual, checks, found, actual_at = push_replay(
        monkeypatch, InvariantMonitor, policy, place
    )
    assert at is not None and actual_at == at
    # Both flag it at the end of the step that popped it; the member-id
    # pass is what found it there.
    for got in (expected, actual):
        assert got and min(violation[1] for violation in got) == at
    assert True in found
    assert checks == expected_checks
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"violation {index} differs"
