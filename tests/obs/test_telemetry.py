"""Unit tests for the telemetry hub: spans, metrics, no-op contract."""

import pytest

from repro.obs.summary import merge_summaries
from repro.obs.telemetry import (
    COUNTER_MAX,
    NULL_TELEMETRY,
    FakeClock,
    Hist,
    NullTelemetry,
    SpanMismatchError,
    Telemetry,
    metric_key,
    split_metric,
)


# ----------------------------------------------------------------------
# Metric keys
# ----------------------------------------------------------------------
def test_metric_key_sorts_labels():
    assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
    assert metric_key("m", {}) == "m"


def test_split_metric_round_trips():
    key = metric_key("simty.applicable", {"hw": "high", "time": "low"})
    name, labels = split_metric(key)
    assert name == "simty.applicable"
    assert labels == {"hw": "high", "time": "low"}
    assert split_metric("plain") == ("plain", {})


# ----------------------------------------------------------------------
# Counters, gauges, histograms
# ----------------------------------------------------------------------
def test_counter_accumulates_per_label_set():
    tel = Telemetry(clock=FakeClock())
    tel.count("simty.applicable", hw="high", time="low")
    tel.count("simty.applicable", hw="high", time="low")
    tel.count("simty.applicable", hw="low", time="low", value=3)
    summary = tel.summary()
    assert summary.counter("simty.applicable") == 5
    cells = summary.counter_cells("simty.applicable")
    assert cells[(("hw", "high"), ("time", "low"))] == 2


def test_memoised_keys_keep_equal_values_of_other_types_apart():
    # 1 == True == 1.0, but each spells a different cell.
    tel = Telemetry(clock=FakeClock())
    for value in (1, True, 1.0, 1, "1"):
        tel.count("m", flag=value)
    tel.gauge("g", 2, a=1, b=True)
    tel.gauge("g", 3, b=True, a=1)
    tel.observe("h", 4, unhashable=[1])
    assert tel.counters == {"m{flag=1}": 3, "m{flag=True}": 1, "m{flag=1.0}": 1}
    assert list(tel.gauges) == ["g{a=1,b=True}"]
    assert tel.gauges["g{a=1,b=True}"].updates == 2
    assert list(tel.histograms) == ["h{unhashable=[1]}"]


def test_counter_saturates_at_int64_max():
    tel = Telemetry(clock=FakeClock())
    tel.count("big", value=COUNTER_MAX - 1)
    tel.count("big", value=10)
    assert tel.counters["big"] == COUNTER_MAX
    tel.count("big")
    assert tel.counters["big"] == COUNTER_MAX


def test_gauge_tracks_envelope():
    tel = Telemetry(clock=FakeClock())
    for value in (5, 2, 9, 4):
        tel.gauge("engine.queue_depth", value)
    cell = tel.summary().gauges["engine.queue_depth"]
    assert (cell.last, cell.min, cell.max, cell.updates) == (4, 2, 9, 4)


def test_histogram_buckets_and_mean():
    tel = Telemetry(clock=FakeClock())
    for value in (0, 1, 3, 9):
        tel.observe("simty.candidates_scanned", value)
    cell = tel.summary().histograms["simty.candidates_scanned"]
    assert cell.count == 4
    assert cell.total == 13
    assert cell.mean == pytest.approx(13 / 4)
    assert cell.min == 0 and cell.max == 9
    # Inclusive power-of-two upper bounds: 0 -> 1, 1 -> 1, 3 -> 4, 9 -> 16.
    assert dict(cell.buckets) == {1: 2, 4: 1, 16: 1}


@pytest.mark.parametrize(
    "value", [0, 0.5, 1, 1.001, 2, 2.5, 3, 4, 4.0001, 7.9, 8, 1023, 1024, 1025]
)
def test_histogram_bucket_is_the_smallest_power_of_two_at_least_the_value(value):
    hist = Hist()
    hist.observe(value)
    bound = 1
    while bound < value:
        bound <<= 1
    assert hist.buckets == {bound: 1}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_spans_nest_and_record_depth_with_fake_clock():
    clock = FakeClock(start_ns=0, auto_step_ns=1_000_000)  # 1 ms per tick
    tel = Telemetry(clock=clock)
    with tel.span("outer"):
        with tel.span("inner", alarm="a1"):
            pass
    assert tel.open_spans == 0
    by_name = {event.name: event for event in tel.events}
    assert by_name["inner"].depth == 1
    assert by_name["outer"].depth == 0
    assert by_name["inner"].args == (("alarm", "a1"),)
    # Ticks: outer begin=0, inner begin=1ms, inner end=2ms, outer end=3ms.
    assert by_name["inner"].duration_ms == pytest.approx(1.0)
    assert by_name["outer"].duration_ms == pytest.approx(3.0)
    assert tel.summary().span_total_ms("outer") == pytest.approx(3.0)


def test_span_events_are_built_on_read_and_extended_by_later_spans():
    tel = Telemetry(clock=FakeClock(auto_step_ns=1))
    tel.begin("first", z=1, a=2)
    tel.end("first")
    assert tel.summary().span_events == 1
    first = tel.events
    assert [(e.name, e.start_ns, e.end_ns, e.args) for e in first] == [
        ("first", 0, 1, (("a", 2), ("z", 1)))
    ]
    with tel.span("second", b=1, a=0):
        pass
    events = tel.events
    assert events[0] is first[0]
    assert [(e.name, e.start_ns, e.end_ns, e.depth, e.args) for e in events] == [
        ("first", 0, 1, 0, (("a", 2), ("z", 1))),
        ("second", 2, 3, 0, (("a", 0), ("b", 1))),
    ]
    assert tel.summary().span_events == 2


def test_end_without_begin_raises():
    tel = Telemetry(clock=FakeClock())
    with pytest.raises(SpanMismatchError):
        tel.end("never.opened")


def test_mismatched_end_raises_and_names_the_open_span():
    tel = Telemetry(clock=FakeClock())
    tel.begin("outer")
    tel.begin("inner")
    with pytest.raises(SpanMismatchError, match="inner"):
        tel.end("outer")


def test_event_cap_counts_drops_instead_of_growing():
    tel = Telemetry(clock=FakeClock(), max_events=2)
    for _ in range(5):
        with tel.span("tick"):
            pass
    assert len(tel.events) == 2
    assert tel.dropped_events == 3
    # Aggregates still see every span, only raw events are capped.
    assert tel.summary().spans["tick"].count == 5


# ----------------------------------------------------------------------
# Fork / merge
# ----------------------------------------------------------------------
def test_fork_children_merge_into_parent_summary():
    tel = Telemetry(clock=FakeClock(auto_step_ns=1000))
    child_a = tel.fork("run-a")
    child_b = tel.fork("run-b")
    child_a.count("cache.hit")
    child_b.count("cache.hit", value=2)
    with child_a.span("engine.run"):
        pass
    assert tel.summary(include_children=False).counter("cache.hit") == 0
    merged = tel.summary()
    assert merged.counter("cache.hit") == 3
    assert merged.spans["engine.run"].count == 1


def test_merge_summaries_widens_gauges_and_adds_histograms():
    a = Telemetry(clock=FakeClock())
    b = Telemetry(clock=FakeClock())
    a.gauge("depth", 3)
    b.gauge("depth", 7)
    a.observe("lat", 1)
    b.observe("lat", 5)
    merged = merge_summaries([a.summary(), b.summary()])
    assert merged.gauges["depth"].min == 3
    assert merged.gauges["depth"].max == 7
    assert merged.gauges["depth"].last == 7
    assert merged.histograms["lat"].count == 2


# ----------------------------------------------------------------------
# Summary round trip
# ----------------------------------------------------------------------
def test_summary_dict_round_trip():
    tel = Telemetry(clock=FakeClock(auto_step_ns=500))
    tel.count("c", hw="high")
    tel.gauge("g", 4.5)
    tel.observe("h", 12)
    with tel.span("s"):
        pass
    summary = tel.summary()
    restored = type(summary).from_dict(summary.to_dict())
    assert restored == summary
    assert bool(restored)


# ----------------------------------------------------------------------
# The no-op contract
# ----------------------------------------------------------------------
def test_null_telemetry_emits_exactly_nothing():
    tel = NULL_TELEMETRY
    assert isinstance(tel, NullTelemetry)
    assert tel.enabled is False
    tel.count("c", hw="high")
    tel.gauge("g", 1.0)
    tel.observe("h", 2.0)
    with tel.span("s", extra=1):
        pass
    tel.begin("manual")
    tel.end("anything")  # never raises: nothing is tracked
    assert tel.open_spans == 0
    assert tel.fork("child") is tel
    summary = tel.summary()
    assert not summary
    assert summary.counters == {}
    assert summary.gauges == {}
    assert summary.histograms == {}
    assert summary.spans == {}


def test_fake_clock_rejects_negative_time():
    with pytest.raises(ValueError):
        FakeClock(start_ns=-1)
    clock = FakeClock()
    with pytest.raises(ValueError):
        clock.advance(-5)


def test_max_events_must_be_non_negative():
    with pytest.raises(ValueError):
        Telemetry(max_events=-1)
