"""Decision-audit trail: deterministic sampling, ring bounds, and the
guarantee that arming the audit never perturbs anything a run digests.
"""

import json

import pytest

from repro.obs.audit import (
    NULL_AUDIT,
    DecisionAudit,
    DecisionRecord,
    NullDecisionAudit,
)
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.simulator.engine import SimulatorConfig
from repro.simulator.serialize import trace_to_dict

DIGEST = "deadbeefcafef00d" * 4


def _scrub_alarm_ids(payload):
    """Drop ``alarm_id`` fields: they come from a process-global counter,
    so two in-process runs never share them while everything observable
    (times, labels, energies) is identical."""
    if isinstance(payload, dict):
        return {
            key: _scrub_alarm_ids(value)
            for key, value in payload.items()
            if key != "alarm_id"
        }
    if isinstance(payload, list):
        return [_scrub_alarm_ids(item) for item in payload]
    return payload


def _trace_bytes(trace) -> str:
    return json.dumps(_scrub_alarm_ids(trace_to_dict(trace)), sort_keys=True)


def _record(seq: int) -> DecisionRecord:
    return DecisionRecord(
        seq=seq,
        policy="SIMTY",
        kind="insert",
        time=seq * 10,
        alarm_id=seq,
        label="a",
        app="a",
        wakeup=True,
        perceptible=False,
        nominal_time=seq * 10,
        scanned=3,
        applicable=1,
    )


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def test_sampling_is_a_pure_function_of_seed_and_index():
    first = DecisionAudit.for_digest(DIGEST, sample_rate=0.5)
    second = DecisionAudit.for_digest(DIGEST, sample_rate=0.5)
    draws = [first.should_sample() for _ in range(500)]
    assert draws == [second.should_sample() for _ in range(500)]
    # and the rate lands in the right ballpark
    assert 150 < sum(draws) < 350


def test_different_digests_sample_differently():
    first = DecisionAudit.for_digest(DIGEST, sample_rate=0.5)
    second = DecisionAudit.for_digest("0123456789abcdef" * 4, sample_rate=0.5)
    assert [first.should_sample() for _ in range(200)] != [
        second.should_sample() for _ in range(200)
    ]


def test_rate_one_samples_everything_rate_zero_nothing():
    everything = DecisionAudit(seed=7, sample_rate=1.0)
    nothing = DecisionAudit(seed=7, sample_rate=0.0)
    assert all(everything.should_sample() for _ in range(100))
    assert not any(nothing.should_sample() for _ in range(100))
    assert everything.decisions_seen == nothing.decisions_seen == 100


def test_clear_replays_the_same_sample_sequence():
    audit = DecisionAudit(seed=42, sample_rate=0.3)
    before = [audit.should_sample() for _ in range(100)]
    audit.clear()
    assert audit.decisions_seen == 0
    assert [audit.should_sample() for _ in range(100)] == before


def test_validation():
    with pytest.raises(ValueError):
        DecisionAudit(sample_rate=1.5)
    with pytest.raises(ValueError):
        DecisionAudit(sample_rate=-0.1)
    with pytest.raises(ValueError):
        DecisionAudit(capacity=0)


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------
def test_ring_keeps_the_newest_capacity_records():
    audit = DecisionAudit(seed=0, sample_rate=1.0, capacity=4)
    for seq in range(10):
        audit.should_sample()
        audit.append(_record(seq))
    kept = audit.records()
    assert [record.seq for record in kept] == [6, 7, 8, 9]
    assert audit.decisions_sampled == 10  # sampled counts all, ring caps


def test_record_round_trips_through_dict():
    record = DecisionRecord(
        seq=5,
        policy="SIMTY",
        kind="insert",
        time=100,
        alarm_id=9,
        label="sync",
        app="mail",
        wakeup=True,
        perceptible=False,
        nominal_time=90,
        scanned=4,
        applicable=2,
        rejections=(("time-low", 2),),
        chosen_entry=3,
        new_entry=False,
        hw="High",
        time_sim="medium",
        table1_rank=2,
        deferral_ms=350,
    )
    payload = json.loads(json.dumps(record.to_dict()))
    assert DecisionRecord.from_dict(payload) == record


def test_null_audit_is_inert():
    assert NULL_AUDIT.enabled is False
    assert isinstance(NULL_AUDIT, NullDecisionAudit)
    assert NULL_AUDIT.should_sample() is False
    NULL_AUDIT.append(_record(0))
    assert NULL_AUDIT.records() == []
    assert NULL_AUDIT.decisions_seen == 0


# ----------------------------------------------------------------------
# End-to-end: audit on a real run
# ----------------------------------------------------------------------
def _run(backend=None, audit=None):
    simulator = (
        SimulatorConfig(queue_backend=backend) if backend is not None else None
    )
    spec = RunSpec(workload="light", policy="simty", simulator=simulator)
    return execute_spec(spec, audit=audit), spec


def test_audit_rides_on_the_trace_outside_serialization():
    audit = DecisionAudit.for_digest(DIGEST, sample_rate=1.0, capacity=1 << 16)
    audited, _ = _run(audit=audit)
    plain, _ = _run()
    assert audited.trace.decisions
    assert audit.decisions_seen == audit.decisions_sampled > 0
    # Byte-identity: the serialized trace must not know the audit ran.
    assert _trace_bytes(audited.trace) == _trace_bytes(plain.trace)


def test_sampled_seqs_identical_across_queue_backends():
    results = {}
    for backend in ("list", "indexed"):
        audit = DecisionAudit.for_digest(DIGEST, sample_rate=0.25)
        result, _ = _run(backend=backend, audit=audit)
        results[backend] = (
            audit.decisions_seen,
            [record.seq for record in result.trace.decisions],
        )
    assert results["list"] == results["indexed"]
    assert results["list"][1]  # the 25% sample is non-empty


def test_every_decision_sampled_is_ordered_and_unique():
    audit = DecisionAudit.for_digest(DIGEST, sample_rate=1.0, capacity=1 << 16)
    result, _ = _run(audit=audit)
    # Every registration draws at least one decision (repeats draw more).
    assert audit.decisions_seen >= len(result.trace.registrations)
    seqs = [record.seq for record in result.trace.decisions]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    assert seqs[-1] == audit.decisions_seen - 1
