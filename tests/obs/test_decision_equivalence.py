"""Every alignment policy has one decision path, observed or not.

The decision audit and the ``simty.*`` / ``native.*`` telemetry are derived
from a single explain pass that runs only when one of them is enabled; the
decision itself is always taken by the policy's one fast loop.  These tests
pin what that observation produces — the full-rate audit log and the
telemetry counters and histograms — on the canonical ``light`` and ``heavy``
workloads and on a small churned scenario that exercises
``AlarmManager.cancel`` re-anchoring, for all four paper-side policies.

The digests were taken from the implementation that kept a separate
instrumented copy of each search, so a mismatch here means the single
path decides or explains differently from the code it replaced.
SIMTY+DUR is the one exception on the counter side: it did not emit the
``simty.*`` counters before, so its counter digest was recorded when it
started to.
"""

import hashlib
import json

import pytest

from repro.core.native import NativePolicy
from repro.obs.audit import DecisionAudit
from repro.obs.telemetry import Telemetry
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.workloads.sources import ScenarioSpec, SourceUse

from ..conftest import make_alarm

POLICIES = ("simty", "simty+dur", "native", "bucket")

#: 20 synthetic apps, an app-update wave over 8 of them, then a
#: cancellation storm over 8 more: 16 mid-run cancels whose batch-mates
#: are re-anchored through the policy.
CHURNED = ScenarioSpec(
    name="churned",
    horizon=10_800_000,
    seed=3,
    sources=(
        SourceUse(source="synthetic", kwargs={"app_count": 20}),
        SourceUse(
            source="churn",
            id="wave",
            kwargs={
                "at_ms": 600_000,
                "pattern": "app-update-wave",
                "count": 8,
                "spacing_ms": 30_000,
            },
        ),
        SourceUse(
            source="churn",
            id="storm",
            kwargs={
                "at_ms": 1_800_000,
                "pattern": "cancellation-storm",
                "count": 8,
                "spread_ms": 120_000,
            },
        ),
    ),
)

WORKLOADS = {
    "light": RunSpec(workload="light", policy="simty"),
    "heavy": RunSpec(workload="heavy", policy="simty"),
    "churned": RunSpec(
        workload="scenario", policy="simty", workload_kwargs={"spec": CHURNED}
    ),
}

#: (workload, policy) -> (audit-log digest, counters+histograms digest).
#: SIMTY+DUR's counter digests are the only ones recorded after the
#: consolidation (see the module docstring).  The SIMTY, SIMTY+DUR and
#: NATIVE audit-log digests were re-recorded when an insert's
#: ``deferral_ms`` came to be read after the alarm joins its entry; the
#: logs differ from the earlier ones only in that field.
PINNED = {
    ("churned", "simty"): (
        "ad8cc96cd141879ec7428323ea86b06d4565aa7efc4f16dbf18cd4e7e51c3749",
        "fa98f13f508da74da8a5a589e884fcf004176c2355b6f6705f0978ed1588186c",
    ),
    ("churned", "simty+dur"): (
        "34196d0e162c6c5409b26362b73bff0e43ee0fb326991bb896934b25f7197e29",
        "fd9a2d39f994ce0c9b0da31a7522796f864ce71afa6cee3ed31e03b6131da011",
    ),
    ("churned", "native"): (
        "86d8cf4becd304832e79710432e8b6376fbdd01db6632c2a057380762fdafcc3",
        "72bc6eb572a667368f2fddf384af45ca6161a924cf24c3f63f1ae0af831e0be3",
    ),
    ("churned", "bucket"): (
        "6dd41c378ce94ac3b4122af3655d27d8b4dce3c5d3ad1bdbdbfc4ff27ddcc58c",
        "567d03c09442eb184d3214368932c8d86e219d9e853f6e4934195e2b4c4d0ed5",
    ),
    ("heavy", "simty"): (
        "8a2919da38f5b1f5f4debec112b31584dfd4d6256079a921f00c2125436a1bfb",
        "7d82ee45df0cbb79cf92b17b9c35a598eba38867cb23e453e2f976f7c54f0421",
    ),
    ("heavy", "simty+dur"): (
        "1f04490950c734eb50e85b036b924c7f756ba49d75b723f3005cd18fdbe6ab11",
        "c1b3de43f6dc95e72283c75a7eb067641835958d4e475a588744db3546d4fb66",
    ),
    ("heavy", "native"): (
        "56e7e353762bd811c289b9a3ce23f622f9add54f1bdd457530e94654164c353e",
        "4ab39df0991a65ad6b18676976875bd5a01deb8eee3c5576bace74eabc6a125f",
    ),
    ("heavy", "bucket"): (
        "b80ab376ad48c2ca881a0c9817eeff357cdd91978a786f81386a4e294a0306cc",
        "bdac9d6726d655d7f2a3b37c7ea6133662f90b08483a36872c7d90fd5181edf2",
    ),
    ("light", "simty"): (
        "bb2c31092ed13d360a784410394ae27922663eb9d22ea94b5462788d5df1a043",
        "8d9b51122a9d918cdbcecf85b1946a0eb96ee7fb767417bdda9f6cc30c8fad87",
    ),
    ("light", "simty+dur"): (
        "fe8a4d174349a5717f1210ea781c8829691b7ef1fa7ab08ee94d9caab5f4f40b",
        "dcaf8324176580044806cbdd0202368b7dab1d815fd0fe5c600946b1fe57ad81",
    ),
    ("light", "native"): (
        "58c94bc97c7867652c20d7ccb6607d6076010934f77e12db6c5ca066e94fe7ee",
        "b53069782182da87c2cf6fe2a5a080f4b2f5115a18265b233e5c4e49d952d716",
    ),
    ("light", "bucket"): (
        "8b8c0a4a1077bb1c268ebbf75385e3c28ce8cd2a150b799bf65cf0cb0165c570",
        "957ecf01a5f16ef4f06d8aae939b6cdb72df99ed3e64912dd7390c6144d27b9a",
    ),
}

ENGINE_SPANS = {
    "engine.run",
    "engine.dispatch.registration",
    "engine.dispatch.wakeup",
    "harness.build_workload",
    "harness.metrics",
    "manager.register",
}
CHURN_SPANS = {
    "engine.dispatch.cancellation",
    "engine.dispatch.reregistration",
    "manager.cancel",
}
#: Exact span-name sets per (workload, policy).  The SIMTY search is one
#: span around the fused loop; there is no separate selection span.
SPANS = {
    (workload, policy): ENGINE_SPANS
    | (CHURN_SPANS if workload == "churned" else set())
    | ({"engine.dispatch.nonwakeup"} if workload != "churned" else set())
    | ({"simty.search"} if policy.startswith("simty") else set())
    for workload in WORKLOADS
    for policy in POLICIES
}


def observe(workload, policy):
    """Run with telemetry and a full-rate audit; return (trace, audit)."""
    base = WORKLOADS[workload]
    spec = RunSpec(
        workload=base.workload,
        policy=policy,
        workload_kwargs=base.workload_kwargs,
    )
    audit = DecisionAudit(seed=0, sample_rate=1.0, capacity=1 << 16)
    result = execute_spec(spec, telemetry=Telemetry(), audit=audit)
    return result.trace, audit


def _renumber(records, field):
    """Map a process-global id field to its first-appearance rank."""
    ranks = {}
    for record in records:
        value = record[field]
        if value is not None:
            record[field] = ranks.setdefault(value, len(ranks))


def decision_log(records):
    """The audit JSONL with process-global alarm and entry ids renumbered."""
    rows = [record.to_dict() for record in records]
    _renumber(rows, "alarm_id")
    _renumber(rows, "chosen_entry")
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def counter_payload(summary):
    """Counters plus histogram (count, total) — the deterministic part."""
    return json.dumps(
        {
            "counters": summary.counters,
            "histograms": {
                name: [cell.count, cell.total]
                for name, cell in summary.histograms.items()
            },
        },
        sort_keys=True,
    )


def digests(workload, policy):
    trace, audit = observe(workload, policy)
    assert audit.decisions_seen == audit.decisions_sampled == len(trace.decisions)
    return (
        hashlib.sha256(decision_log(trace.decisions).encode()).hexdigest(),
        hashlib.sha256(counter_payload(trace.telemetry).encode()).hexdigest(),
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_observation_matches_pinned_digests(workload, policy):
    decisions, counters = digests(workload, policy)
    pinned_decisions, pinned_counters = PINNED[(workload, policy)]
    assert decisions == pinned_decisions
    assert counters == pinned_counters


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_span_names(workload, policy):
    trace, _ = observe(workload, policy)
    assert set(trace.telemetry.spans) == SPANS[(workload, policy)]


def test_churned_scenario_reanchors_through_the_policy():
    trace, _ = observe("churned", "simty")
    summary = trace.telemetry
    assert summary.counter("manager.cancel") == 16
    assert summary.counter("manager.reanchored") > 0


@pytest.mark.parametrize("policy", ("simty", "simty+dur", "native"))
@pytest.mark.parametrize("workload", ("light", "heavy"))
def test_no_insert_decision_reports_a_negative_deferral(workload, policy):
    trace, _ = observe(workload, policy)
    inserts = [d for d in trace.decisions if d.kind == "insert"]
    assert any(not d.new_entry for d in inserts)
    negative = [
        (d.seq, d.label, d.deferral_ms) for d in inserts if d.deferral_ms < 0
    ]
    assert negative == []


def test_native_insert_deferral_is_read_after_the_join():
    policy = NativePolicy()
    audit = DecisionAudit(seed=0, sample_rate=1.0)
    policy.bind_audit(audit)
    queue = policy.make_queue()
    a = make_alarm(nominal=3_000, window=2_000, label="a")
    b = make_alarm(nominal=2_500, window=2_000, label="b")
    c = make_alarm(nominal=3_500, window=2_000, label="c")
    for alarm in (a, b, c):
        entry = policy.insert(queue, alarm, 0)
    assert len(entry) == 3
    # b waits for a's window to open; c arrives after the intersection
    # [3000, 4500] opened, and moves the entry's delivery to its own
    # nominal time rather than reporting -500 ms.
    deferrals = {r.label: r.deferral_ms for r in audit.records()}
    assert deferrals == {"a": 0, "b": 500, "c": 0}
    assert entry.delivery_time(policy.grace_mode) == c.nominal_time


def test_native_rebatch_record():
    policy = NativePolicy()
    audit = DecisionAudit(seed=0, sample_rate=1.0)
    policy.bind_audit(audit)
    queue = policy.make_queue()
    a = make_alarm(nominal=1_000, window=2_000, label="a")
    b = make_alarm(nominal=2_500, window=2_000, label="b")
    c = make_alarm(nominal=2_600, window=2_000, label="c")
    for alarm in (a, b, c):
        policy.insert(queue, alarm, 0)
    b.nominal_time = 50_000
    entry = policy.reinsert(queue, b, 7)
    record = audit.records()[-1].to_dict()
    assert record.pop("alarm_id") == b.alarm_id
    assert record.pop("chosen_entry") == entry.entry_id
    assert record == {
        "seq": 3,
        "policy": "NATIVE",
        "kind": "rebatch",
        "time": 7,
        "label": "b",
        "app": "app",
        "wakeup": True,
        "perceptible": False,
        "nominal_time": 50_000,
        "scanned": 3,
        "applicable": 2,
        "rejections": [],
        "new_entry": True,
        "hw": None,
        "time_sim": None,
        "table1_rank": None,
        "deferral_ms": 0,
    }
