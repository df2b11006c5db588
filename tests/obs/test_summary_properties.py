"""Property tests for the summary algebra the streaming layer leans on.

``merge_summaries`` must be associative (shard trees reduce in any
shape) and commutative up to gauge last-writer (shards arrive in any
order); ``diff_summaries`` deltas must reassemble the final snapshot.
Histogram totals are integer milli-units, so the equalities are ``==``,
not approximate, for fractional observations too.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.summary import (
    EMPTY_SUMMARY,
    TelemetrySummary,
    diff_summaries,
    merge_summaries,
)
from repro.obs.telemetry import FakeClock, Telemetry

_NAMES = ("alpha.ops", "beta.ops", "gamma.depth")

_OP = st.one_of(
    st.tuples(
        st.just("count"),
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=100),
        st.sampled_from(("", "ok", "failed")),
    ),
    st.tuples(
        st.just("gauge"),
        st.sampled_from(_NAMES),
        st.integers(min_value=-50, max_value=50),
        st.just(""),
    ),
    st.tuples(
        st.just("observe"),
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=1_000),
        st.just(""),
    ),
    st.tuples(
        st.just("span"),
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=10),
        st.just(""),
    ),
)

OPS = st.lists(_OP, max_size=30)


def _apply(hub: Telemetry, ops) -> None:
    for kind, name, value, label in ops:
        if kind == "count":
            if label:
                hub.count(name, value=value, status=label)
            else:
                hub.count(name, value=value)
        elif kind == "gauge":
            hub.gauge(name, float(value))
        elif kind == "observe":
            hub.observe(name, float(value))
        else:
            with hub.span(name):
                pass


def _summary(ops) -> TelemetrySummary:
    hub = Telemetry(clock=FakeClock(auto_step_ns=1_000))
    _apply(hub, ops)
    return hub.summary()


def _int_view(summary: TelemetrySummary):
    """The exactly-mergeable integer core of a summary (gauge ``last``
    excluded: it is last-writer and deliberately order-dependent)."""
    return (
        summary.counters,
        {
            key: (
                cell.count, cell.total_milli, cell.min, cell.max,
                dict(cell.buckets),
            )
            for key, cell in summary.histograms.items()
        },
        {
            key: (cell.count, cell.total_ns, cell.min_ns, cell.max_ns)
            for key, cell in summary.spans.items()
        },
        {
            key: (cell.min, cell.max, cell.updates)
            for key, cell in summary.gauges.items()
        },
        summary.span_events,
        summary.dropped_events,
    )


@settings(max_examples=50)
@given(OPS, OPS, OPS)
def test_merge_is_associative(ops_a, ops_b, ops_c):
    a, b, c = _summary(ops_a), _summary(ops_b), _summary(ops_c)
    inputs = [part.to_dict() for part in (a, b, c)]
    left = merge_summaries((merge_summaries((a, b)), c))
    right = merge_summaries((a, merge_summaries((b, c))))
    assert left == right
    # A merge copies the cells it adopts: its inputs are left as they were.
    assert [part.to_dict() for part in (a, b, c)] == inputs


@settings(max_examples=50)
@given(OPS, OPS)
def test_merge_is_commutative_up_to_gauge_last(ops_a, ops_b):
    a, b = _summary(ops_a), _summary(ops_b)
    forward = merge_summaries((a, b))
    backward = merge_summaries((b, a))
    assert _int_view(forward) == _int_view(backward)


#: One device's fractional observations, e.g. ``round(random() * 10, 3)``.
_DEVICE = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.integers(min_value=0, max_value=10_000).map(lambda n: n / 1000),
    ),
    max_size=6,
)


@settings(max_examples=100)
@given(st.lists(_DEVICE, min_size=16, max_size=16))
def test_fractional_merge_is_independent_of_grouping(devices):
    """Per-device summaries merged in one group and in groups of two
    serialize to the same bytes, totals included."""
    summaries = []
    for observations in devices:
        hub = Telemetry(clock=FakeClock())
        for name, value in observations:
            hub.observe(name, value)
        summaries.append(hub.summary())
    flat = merge_summaries(summaries)
    grouped = summaries
    while len(grouped) > 1:
        grouped = [
            merge_summaries(grouped[index:index + 2])
            for index in range(0, len(grouped), 2)
        ]
    assert json.dumps(grouped[0].to_dict()) == json.dumps(flat.to_dict())


@settings(max_examples=50)
@given(OPS)
def test_empty_is_the_merge_identity(ops):
    summary = _summary(ops)
    assert merge_summaries((summary, EMPTY_SUMMARY)) == summary
    assert merge_summaries((EMPTY_SUMMARY, summary)) == summary


@settings(max_examples=50)
@given(OPS)
def test_summary_round_trips_through_dict(ops):
    summary = _summary(ops)
    assert TelemetrySummary.from_dict(summary.to_dict()) == summary


@settings(max_examples=50)
@given(st.lists(OPS, min_size=1, max_size=6))
def test_deltas_reassemble_the_final_snapshot(batches):
    hub = Telemetry(clock=FakeClock(auto_step_ns=1_000))
    previous = EMPTY_SUMMARY
    deltas = []
    for batch in batches:
        _apply(hub, batch)
        snapshot = hub.summary()
        deltas.append(diff_summaries(snapshot, previous))
        previous = snapshot
    reassembled = merge_summaries(deltas)

    # Deltas carry values, not cell existence: a counter cell created at
    # zero (observationally empty) is legitimately absent after a round
    # trip, so compare with zero cells dropped.
    def drop_zero_counters(view):
        counters, *rest = view
        return ({k: v for k, v in counters.items() if v != 0}, *rest)

    assert drop_zero_counters(_int_view(reassembled)) == drop_zero_counters(
        _int_view(previous)
    )
    # gauge last is carried by the most recent delta that touched it
    for key, cell in previous.gauges.items():
        assert reassembled.gauges[key].last == cell.last


@settings(max_examples=50)
@given(OPS, OPS)
def test_fork_summary_equals_parent_plus_children(ops_parent, ops_child):
    hub = Telemetry(clock=FakeClock(auto_step_ns=1_000))
    child = hub.fork("run-1")
    _apply(hub, ops_parent)
    _apply(child, ops_child)
    combined = hub.summary(include_children=True)
    parts = merge_summaries(
        (hub.summary(include_children=False), child.summary())
    )
    assert _int_view(combined) == _int_view(parts)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=8, max_size=8))
def test_span_nesting_survives_time_reversal(times):
    """A wall-clock step backwards (NTP, VM migration) must never corrupt
    span accounting: counts stay exact, negative durations stay finite
    integers, and the summary still merges and round-trips."""
    sequence = iter(times)
    last = times[-1]

    def clock() -> int:
        return next(sequence, last)

    hub = Telemetry(clock=clock)
    with hub.span("outer"):
        with hub.span("inner"):
            pass
        with hub.span("inner"):
            pass
    summary = hub.summary()
    assert summary.spans["outer"].count == 1
    assert summary.spans["inner"].count == 2
    inner = summary.spans["inner"]
    assert inner.min_ns <= inner.max_ns
    assert TelemetrySummary.from_dict(summary.to_dict()) == summary
    doubled = merge_summaries((summary, summary))
    assert doubled.spans["inner"].count == 4
    assert doubled.spans["inner"].total_ns == 2 * inner.total_ns
