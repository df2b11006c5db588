"""Streaming telemetry: delta export, spool/socket transport, and the
Collector's convergence guarantee — merged deltas reproduce the final
summary exactly for counters, bucket counts and span totals, even under
torn writes, duplicate lines and retried producers.
"""

import json
import urllib.request

from repro.obs.stream import (
    STREAM_SCHEMA,
    Collector,
    CollectorListener,
    MetricsEndpoint,
    SocketSink,
    SpoolSink,
    TelemetryStream,
    open_sink,
)
from repro.obs.summary import EMPTY_SUMMARY, diff_summaries, merge_summaries
from repro.obs.telemetry import Telemetry


class ManualClock:
    """A settable monotonic/wall clock for interval-gating tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _stream(hub, sink, source="worker-1", interval_s=1.0):
    clock = ManualClock()
    stream = TelemetryStream(
        hub,
        source=source,
        sink=sink,
        interval_s=interval_s,
        clock=clock,
        wall=clock,
    )
    return stream, clock


# ----------------------------------------------------------------------
# diff/merge delta algebra
# ----------------------------------------------------------------------
def test_deltas_reassemble_the_final_snapshot():
    hub = Telemetry()
    snapshots = []
    for round_no in range(5):
        hub.count("engine.deliveries", value=round_no + 1)
        hub.count("shard.devices", status="ok")
        hub.observe("wall_ms", float(round_no))
        with hub.span("engine.run"):
            pass
        snapshots.append(hub.summary())
    previous = EMPTY_SUMMARY
    deltas = []
    for snapshot in snapshots:
        deltas.append(diff_summaries(snapshot, previous))
        previous = snapshot
    merged = merge_summaries(deltas)
    final = snapshots[-1]
    assert merged.counters == final.counters
    assert {k: (v.count, v.total) for k, v in merged.histograms.items()} == {
        k: (v.count, v.total) for k, v in final.histograms.items()
    }
    assert {k: v.count for k, v in merged.spans.items()} == {
        k: v.count for k, v in final.spans.items()
    }


# ----------------------------------------------------------------------
# Spool round trip
# ----------------------------------------------------------------------
def test_spool_round_trip_converges_to_hub_summary(tmp_path):
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path))
    stream.begin(meta={"shard": 1})
    for tick in range(10):
        hub.count("engine.deliveries", value=3)
        hub.count("shard.devices", status="ok")
        hub.gauge("shard.progress", tick / 10.0)
        clock.now += 1.0
        stream.poll()
    stream.flush(final=True, meta={"sealed": True})
    stream.close()

    collector = Collector(spool_dir=tmp_path)
    applied = collector.scan()
    assert applied >= 3  # begin + at least one delta + final
    assert collector.all_final()
    rolling = collector.rolling()
    final = hub.summary()
    assert rolling.counters == final.counters
    assert rolling.gauges["shard.progress"].last == 0.9

    state = collector.sources()[0]
    assert state.source == "worker-1"
    assert state.meta["shard"] == 1 and state.meta["sealed"] is True
    assert state.final and state.resets == 0


def test_poll_is_interval_gated_and_skips_empty_deltas(tmp_path):
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path), interval_s=5.0)
    hub.count("engine.deliveries")
    assert stream.poll()  # first poll is due immediately
    assert not stream.poll()  # gated: interval not yet elapsed
    clock.now += 10.0
    assert not stream.poll()  # due, but the delta is empty
    hub.count("engine.deliveries")
    clock.now += 10.0
    assert stream.poll()


def test_begin_resets_a_retried_source(tmp_path):
    # Attempt 1 streams some progress, then dies without a final.
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path), source="shard-0001")
    stream.begin()
    hub.count("shard.devices", status="ok", value=7)
    clock.now += 2.0
    stream.poll()
    stream.close()  # no final marker: the attempt "crashed"

    # Attempt 2 starts over from zero on the same source name.
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path), source="shard-0001")
    stream.begin(meta={"attempt": 2})
    hub.count("shard.devices", status="ok", value=10)
    clock.now += 2.0
    stream.poll()
    stream.flush(final=True)
    stream.close()

    collector = Collector(spool_dir=tmp_path)
    collector.scan()
    # The dead attempt's 7 devices were discarded, not double-counted.
    assert collector.rolling().counter("shard.devices") == 10
    state = collector.sources()[0]
    assert state.resets == 1
    assert state.meta["attempt"] == 2


def test_torn_trailing_line_is_left_for_the_next_scan(tmp_path):
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path))
    stream.begin()
    hub.count("engine.deliveries", value=5)
    stream.flush()

    path = tmp_path / "worker-1.jsonl"
    whole = path.read_text()
    torn_at = len(whole) - 10
    path.write_text(whole[:torn_at])  # last line is torn mid-record

    collector = Collector(spool_dir=tmp_path)
    collector.scan()
    assert collector.rolling().counter("engine.deliveries") == 0
    assert collector.malformed == 0  # torn tail was not parsed at all

    path.write_text(whole)  # the producer finishes the write
    collector.scan()
    assert collector.rolling().counter("engine.deliveries") == 5


def test_duplicate_and_stale_lines_are_dropped():
    collector = Collector()
    line = json.dumps(
        {
            "schema": STREAM_SCHEMA,
            "kind": "delta",
            "source": "w",
            "seq": 3,
            "wall": 1.0,
            "summary": {"counters": {"engine.deliveries": 4}},
        }
    )
    begin = json.dumps(
        {
            "schema": STREAM_SCHEMA,
            "kind": "begin",
            "source": "w",
            "seq": 1,
            "wall": 1.0,
            "summary": {},
        }
    )
    assert collector.ingest_line(begin)
    assert collector.ingest_line(line)
    assert not collector.ingest_line(line)  # duplicate seq
    assert collector.rolling().counter("engine.deliveries") == 4
    assert collector.sources()[0].dropped == 1
    assert not collector.ingest_line("{not json")
    assert collector.malformed == 1


def test_histogram_cell_without_envelope_is_malformed():
    collector = Collector()

    def delta(seq, cell):
        return json.dumps(
            {
                "schema": STREAM_SCHEMA,
                "kind": "delta",
                "source": "w",
                "seq": seq,
                "wall": 1.0,
                "summary": {"histograms": {"lat": cell}},
            }
        )

    assert not collector.ingest_line(delta(1, {"count": 2, "total_milli": 5}))
    assert not collector.ingest_line(delta(2, {}))
    assert not collector.ingest_line(
        delta(3, {"count": 1, "total_milli": 5, "min": None, "max": None})
    )
    assert collector.malformed == 3
    assert "lat" not in collector.rolling().histograms


def test_spool_resume_defensively_isolates_a_torn_tail(tmp_path):
    # A dead incarnation left a torn, newline-less tail in the spool.
    path = tmp_path / "shard-0000.jsonl"
    path.write_text('{"schema": 1, "kind": "delta", "sou')

    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path), source="shard-0000")
    stream.begin()
    hub.count("shard.devices", value=2)
    stream.flush(final=True)
    stream.close()

    collector = Collector(spool_dir=tmp_path)
    collector.scan()
    # The torn tail corrupted only its own line; the new incarnation's
    # begin marker and deltas all parsed.
    assert collector.all_final()
    assert collector.rolling().counter("shard.devices") == 2
    assert collector.malformed == 1


# ----------------------------------------------------------------------
# Socket transport
# ----------------------------------------------------------------------
def test_socket_sink_feeds_a_collector_listener():
    collector = Collector()
    listener = CollectorListener(collector, "tcp://127.0.0.1:0")
    try:
        hub = Telemetry()
        sink = SocketSink(listener.address)
        stream, clock = _stream(hub, sink, source="svc")
        stream.begin()
        hub.count("service.requests", value=9)
        stream.flush(final=True)
        stream.close()

        import time

        deadline = time.time() + 5.0
        while time.time() < deadline and not collector.all_final():
            time.sleep(0.01)
        assert collector.all_final()
        assert collector.rolling().counter("service.requests") == 9
    finally:
        listener.close()


def test_socket_sink_drops_instead_of_raising():
    sink = SocketSink("tcp://127.0.0.1:1")  # nothing listens there
    sink.emit("w", "line")
    assert sink.dropped == 1
    sink.close()


def test_open_sink_dispatch(tmp_path):
    assert isinstance(open_sink(tmp_path / "spool"), SpoolSink)
    assert isinstance(open_sink("tcp://127.0.0.1:9"), SocketSink)


# ----------------------------------------------------------------------
# Render + HTTP surface
# ----------------------------------------------------------------------
def test_render_shows_sources_and_rolling_metrics(tmp_path):
    hub = Telemetry()
    stream, clock = _stream(hub, SpoolSink(tmp_path), source="shard-0000")
    stream.begin()
    hub.count("shard.devices", status="ok", value=4)
    hub.count("engine.deliveries", value=17)
    stream.flush(final=True)
    collector = Collector(spool_dir=tmp_path)
    collector.scan()
    screen = collector.render()
    assert "shard-0000" in screen
    assert "final" in screen
    assert "devices: 4" in screen
    assert "engine.deliveries" in screen


def test_metrics_endpoint_serves_the_render_callable():
    endpoint = MetricsEndpoint(lambda: "metric_a 1\n")
    try:
        body = urllib.request.urlopen(endpoint.url, timeout=5).read()
        assert body == b"metric_a 1\n"
    finally:
        endpoint.close()


def test_metrics_endpoint_survives_a_broken_render():
    def broken() -> str:
        raise RuntimeError("boom")

    endpoint = MetricsEndpoint(broken)
    try:
        import urllib.error

        try:
            urllib.request.urlopen(endpoint.url, timeout=5)
            raise AssertionError("expected a 500")
        except urllib.error.HTTPError as error:
            assert error.code == 500
    finally:
        endpoint.close()
