"""Exporter tests: JSONL, Chrome trace and Prometheus text output."""

import json

import pytest

from repro.obs.exporters import (
    chrome_trace_payload,
    jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.telemetry import FakeClock, Telemetry


@pytest.fixture
def hub():
    tel = Telemetry(clock=FakeClock(auto_step_ns=1_000_000))
    child = tel.fork("run-1")
    with tel.span("engine.run", policy="simty"):
        with tel.span("engine.dispatch.wakeup"):
            pass
    with child.span("engine.run"):
        pass
    tel.count("engine.events", type="wakeup", value=4)
    tel.gauge("engine.queue_depth", 7)
    tel.observe("simty.candidates_scanned", 12)
    return tel


def test_jsonl_every_line_is_valid_json(hub, tmp_path):
    lines = list(jsonl_lines(hub))
    records = [json.loads(line) for line in lines]
    kinds = {record["type"] for record in records}
    assert kinds == {"span", "counter", "gauge", "histogram"}
    spans = [r for r in records if r["type"] == "span"]
    assert {span["run"] for span in spans} == {"main", "run-1"}
    nested = next(r for r in spans if r["name"] == "engine.dispatch.wakeup")
    assert nested["depth"] == 1
    counter = next(r for r in records if r["type"] == "counter")
    assert counter["name"] == "engine.events"
    assert counter["labels"] == {"type": "wakeup"}
    assert counter["value"] == 4

    path = tmp_path / "events.jsonl"
    written = write_jsonl(hub, path)
    assert written == len(lines)
    assert path.read_text().count("\n") == written


def test_chrome_trace_loads_and_separates_child_lanes(hub, tmp_path):
    payload = chrome_trace_payload(hub)
    events = payload["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "X", "C"}
    names = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert names == {"main", "run-1"}
    main_tid = next(
        e["tid"]
        for e in events
        if e["ph"] == "M" and e["args"]["name"] == "main"
    )
    child_tid = next(
        e["tid"]
        for e in events
        if e["ph"] == "M" and e["args"]["name"] == "run-1"
    )
    assert main_tid != child_tid
    spans = [event for event in events if event["ph"] == "X"]
    assert all(event["dur"] >= 0 for event in spans)

    path = tmp_path / "trace.json"
    count = write_chrome_trace(hub, path)
    assert count == len(events)
    assert json.loads(path.read_text())["traceEvents"]


def test_prometheus_text_snapshot(hub):
    text = prometheus_text(hub)
    assert "# TYPE engine_events_total counter" in text
    assert 'engine_events_total{type="wakeup"} 4' in text
    assert "# TYPE engine_queue_depth gauge" in text
    assert "engine_queue_depth 7" in text
    assert "# TYPE simty_candidates_scanned histogram" in text
    assert 'simty_candidates_scanned_bucket{le="+Inf"} 1' in text
    assert "simty_candidates_scanned_sum 12" in text
    assert "simty_candidates_scanned_count 1" in text
    assert text.endswith("\n")


def test_prometheus_cumulative_buckets_are_monotonic():
    tel = Telemetry(clock=FakeClock())
    for value in (0, 1, 1, 3, 9, 40):
        tel.observe("lat", value)
    text = prometheus_text(tel)
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("lat_bucket{")
    ]
    assert counts == sorted(counts)
    assert counts[-1] == 6  # the +Inf bucket sees every observation


def test_prometheus_le_bound_holds_an_exact_power_of_two():
    # ``le`` means "less than or equal": 1 is counted under le="1" and 4
    # under le="4", not one bucket higher.
    tel = Telemetry(clock=FakeClock())
    tel.observe("lat", 1)
    tel.observe("lat", 4)
    text = prometheus_text(tel)
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="4"} 2' in text
    assert 'lat_bucket{le="+Inf"} 2' in text


def test_empty_hub_exports_cleanly(tmp_path):
    tel = Telemetry(clock=FakeClock())
    assert list(jsonl_lines(tel)) == []
    assert write_jsonl(tel, tmp_path / "empty.jsonl") == 0
    payload = chrome_trace_payload(tel)
    assert [e["ph"] for e in payload["traceEvents"]] == ["M"]
    text = prometheus_text(tel)
    assert "telemetry_span_events 0" in text


def test_prometheus_emits_help_lines_per_family():
    tel = Telemetry(clock=FakeClock())
    tel.count("engine.events", value=2, type="wakeup")
    tel.count("engine.events", value=1, type="delivery")
    tel.gauge("engine.queue_depth", 3)
    tel.observe("simty.scanned", 5)
    text = prometheus_text(tel)
    assert "# HELP engine_events_total Cumulative count of engine.events events." in text
    assert "# HELP engine_queue_depth Last observed value of engine.queue_depth." in text
    assert "# HELP simty_scanned Distribution of simty.scanned observations." in text
    # one HELP per family, even with several labelled cells
    assert text.count("# HELP engine_events_total ") == 1
    # HELP precedes TYPE, per the exposition format
    lines = text.splitlines()
    assert lines.index(
        "# HELP engine_events_total Cumulative count of engine.events events."
    ) + 1 == lines.index("# TYPE engine_events_total counter")


def test_prometheus_escapes_label_values():
    tel = Telemetry(clock=FakeClock())
    tel.count("parse.errors", value=1, path='C:\\tmp\\"logs"\nline')
    text = prometheus_text(tel)
    assert (
        'parse_errors_total{path="C:\\\\tmp\\\\\\"logs\\"\\nline"} 1' in text
    )
    # the raw control characters never leak into the exposition text
    payload = [line for line in text.splitlines() if "parse_errors_total{" in line]
    assert len(payload) == 1
    assert "\t" not in payload[0]


def test_prometheus_plain_label_values_are_untouched():
    tel = Telemetry(clock=FakeClock())
    tel.count("fleet.shards", value=4, status="completed")
    assert 'fleet_shards_total{status="completed"} 4' in prometheus_text(tel)
