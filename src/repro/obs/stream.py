"""Streaming telemetry: delta export, collection, and live surfaces.

PR 4's telemetry is end-of-run: a hub accumulates for the whole run and
is reduced once, in :meth:`Simulator.finish`.  A 10k-device fleet run
or a live ``simty serve`` daemon is therefore a black box until it
finishes.  This module makes the hub *streamable*:

* :class:`TelemetryStream` periodically snapshots a live hub and emits
  the **delta** since its previous snapshot (via
  :func:`~repro.obs.summary.diff_summaries`) as one JSON line per poll
  — to a spool directory (:class:`SpoolSink`, one append-only
  ``<source>.jsonl`` per producer) or a TCP/Unix socket
  (:class:`SocketSink`).  Deltas are mergeable: replaying them through
  :func:`~repro.obs.summary.merge_summaries` reconstructs the final
  summary exactly for counters, bucket counts and span totals.
* :class:`Collector` incrementally folds deltas from many producers
  (fleet shard workers, pool workers, the service daemon) into a live
  rolling view with per-source seq/liveness/staleness tracking.  A
  ``begin`` marker resets its source, so a retried shard attempt
  re-streaming from zero never double-counts the dead attempt's
  partial deltas.
* :class:`CollectorListener` accepts socket producers;
  :class:`MetricsEndpoint` serves any render callable over HTTP for
  ``/metrics``-style scraping.  ``simty top`` is a loop over
  :meth:`Collector.scan` + :meth:`Collector.render`.

Everything here is observability-side: wall-clock timestamps are fine
(nothing in a stream line is ever digested), and every sink failure is
swallowed — a broken pipe must never take down a shard worker.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..durable import AppendLog
from .render import _table, render_counters, render_similarity_breakdown
from .summary import (
    EMPTY_SUMMARY,
    TelemetrySummary,
    diff_summaries,
    merge_summaries,
)

__all__ = [
    "Collector",
    "CollectorListener",
    "MetricsEndpoint",
    "SocketSink",
    "SourceState",
    "SpoolSink",
    "STREAM_SCHEMA",
    "TelemetryStream",
    "open_sink",
]

#: Version stamp on every stream line; bump on incompatible change.
STREAM_SCHEMA = 1

_SOURCE_SANITIZE = re.compile(r"[^A-Za-z0-9._-]+")


def _spool_name(source: str) -> str:
    return _SOURCE_SANITIZE.sub("_", source) or "anonymous"


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class SpoolSink:
    """Append stream lines to ``directory/<source>.jsonl``, one flush-only
    :class:`~repro.durable.AppendLog` per source, so a tailing
    :class:`Collector` sees every line promptly.

    Opening a source's file seals a torn tail left by a previous
    incarnation that died mid-write, so that fragment corrupts its own
    line, not our first one (the begin marker).
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._logs: Dict[str, AppendLog] = {}
        self.dropped = 0

    def emit(self, source: str, line: str) -> None:
        log = self._logs.get(source)
        if log is None:
            path = self.directory / f"{_spool_name(source)}.jsonl"
            log = self._logs[source] = AppendLog(path, fsync_every=0)
        try:
            log.append(line)
        except OSError:
            self.dropped += 1

    def close(self) -> None:
        for log in self._logs.values():
            log.close()
        self._logs.clear()


class SocketSink:
    """Ship stream lines over ``tcp://host:port`` or ``unix://path``.

    Connects lazily, reconnects on the next emit after a failure, and
    never raises: a collector outage costs dropped deltas (counted in
    :attr:`dropped`), not a crashed producer.
    """

    def __init__(self, address: str, timeout_s: float = 2.0) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.dropped = 0
        self._sock: Optional[socket.socket] = None
        if address.startswith("tcp://"):
            host, _, port = address[len("tcp://"):].rpartition(":")
            self._target: Tuple = (socket.AF_INET, (host or "127.0.0.1", int(port)))
        elif address.startswith("unix://"):
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
                raise ValueError("unix:// sinks unsupported on this platform")
            self._target = (socket.AF_UNIX, address[len("unix://"):])
        else:
            raise ValueError(
                f"sink address must be tcp://host:port or unix://path: {address}"
            )

    def _connect(self) -> Optional[socket.socket]:
        if self._sock is not None:
            return self._sock
        family, endpoint = self._target
        try:
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            sock.connect(endpoint)
            self._sock = sock
        except OSError:
            self._sock = None
        return self._sock

    def emit(self, source: str, line: str) -> None:
        sock = self._connect()
        if sock is None:
            self.dropped += 1
            return
        try:
            sock.sendall(line.encode("utf-8") + b"\n")
        except OSError:
            self.dropped += 1
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def open_sink(target):
    """``tcp://``/``unix://`` → :class:`SocketSink`; anything else is a
    spool directory path."""
    text = str(target)
    if text.startswith(("tcp://", "unix://")):
        return SocketSink(text)
    return SpoolSink(text)


# ----------------------------------------------------------------------
# Producer side
# ----------------------------------------------------------------------
class TelemetryStream:
    """Periodic delta exporter over one live telemetry hub.

    Call :meth:`begin` once (announces the source and resets any prior
    incarnation at the collector), :meth:`poll` from the producer's
    natural loop (cheap no-op until ``interval_s`` has elapsed), and
    :meth:`flush(final=True) <flush>` when the producer is done.
    """

    def __init__(
        self,
        hub,
        source: str,
        sink,
        interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.hub = hub
        self.source = source
        self.sink = sink
        self.interval_s = interval_s
        self._clock = clock
        self._wall = wall
        self._seq = 0
        self._last = EMPTY_SUMMARY
        self._next_due = clock()

    @property
    def seq(self) -> int:
        return self._seq

    def begin(self, meta: Optional[Dict] = None) -> None:
        self._emit("begin", EMPTY_SUMMARY, meta)

    def poll(self, force: bool = False) -> bool:
        """Emit the delta since the last emission, if the interval has
        elapsed (or ``force``).  Returns True when a line was sent."""
        now = self._clock()
        if not force and now < self._next_due:
            return False
        self._next_due = now + self.interval_s
        snapshot = self.hub.summary()
        delta = diff_summaries(snapshot, self._last)
        if not delta and not force:
            return False
        self._last = snapshot
        self._emit("delta", delta)
        return True

    def flush(self, final: bool = False, meta: Optional[Dict] = None) -> None:
        """Unconditionally emit the pending delta; ``final`` marks the
        source complete at the collector."""
        snapshot = self.hub.summary()
        delta = diff_summaries(snapshot, self._last)
        self._last = snapshot
        self._emit("final" if final else "delta", delta, meta)

    def close(self) -> None:
        self.sink.close()

    def _emit(self, kind: str, summary: TelemetrySummary, meta=None) -> None:
        self._seq += 1
        record = {
            "schema": STREAM_SCHEMA,
            "kind": kind,
            "source": self.source,
            "seq": self._seq,
            "wall": self._wall(),
            "summary": summary.to_dict(),
        }
        if meta:
            record["meta"] = meta
        self.sink.emit(self.source, json.dumps(record, sort_keys=True))


# ----------------------------------------------------------------------
# Collector side
# ----------------------------------------------------------------------
@dataclass
class SourceState:
    """One producer's rolling state at the collector."""

    source: str
    seq: int = 0
    summary: TelemetrySummary = EMPTY_SUMMARY
    final: bool = False
    #: Collector-local wall time of the last accepted line.
    last_seen: float = 0.0
    #: Producer-side wall time stamped on the last accepted line.
    last_wall: float = 0.0
    meta: Dict = field(default_factory=dict)
    #: How many times a ``begin`` marker reset this source.
    resets: int = 0
    #: Duplicate / out-of-order / unparsable lines dropped.
    dropped: int = 0


class Collector:
    """Incrementally merge stream lines from many producers.

    Feed it lines via :meth:`ingest_line` (socket listener) and/or give
    it a ``spool_dir`` to tail with :meth:`scan` (incremental: per-file
    offsets, torn trailing lines left for the next scan).  Thread-safe.
    """

    def __init__(
        self,
        spool_dir=None,
        stale_after_s: float = 5.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.stale_after_s = stale_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._sources: Dict[str, SourceState] = {}
        self._offsets: Dict[Path, int] = {}
        self.malformed = 0
        self._rate_mark: Optional[Tuple[float, int]] = None

    # -- ingestion -----------------------------------------------------
    def ingest_line(self, line: str) -> bool:
        """Parse and apply one stream line; True if it advanced state."""
        line = line.strip()
        if not line:
            return False
        try:
            record = json.loads(line)
            kind = record["kind"]
            source = record["source"]
            seq = int(record["seq"])
            summary = TelemetrySummary.from_dict(record.get("summary", {}))
        except (ValueError, KeyError, TypeError):
            with self._lock:
                self.malformed += 1
            return False
        now = self._clock()
        with self._lock:
            state = self._sources.get(source)
            if state is None:
                state = SourceState(source=source)
                self._sources[source] = state
            if kind == "begin":
                # A fresh incarnation (e.g. a retried shard attempt):
                # discard the dead attempt's partial deltas entirely.
                restarted = state.seq > 0
                self._sources[source] = state = SourceState(
                    source=source,
                    seq=seq,
                    resets=state.resets + (1 if restarted else 0),
                    meta=dict(record.get("meta", {})),
                )
            else:
                if seq <= state.seq:
                    state.dropped += 1
                    return False
                state.seq = seq
                state.summary = merge_summaries((state.summary, summary))
                if record.get("meta"):
                    state.meta.update(record["meta"])
                if kind == "final":
                    state.final = True
            state.last_seen = now
            state.last_wall = float(record.get("wall", 0.0))
        return True

    def scan(self) -> int:
        """Tail every ``*.jsonl`` in the spool dir; lines applied."""
        if self.spool_dir is None or not self.spool_dir.is_dir():
            return 0
        applied = 0
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            offset = self._offsets.get(path, 0)
            try:
                size = path.stat().st_size
                if size < offset:  # truncated/replaced: start over
                    offset = 0
                if size == offset:
                    continue
                with path.open("rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            complete, sep, _tail = chunk.rpartition(b"\n")
            if not sep:
                continue  # only a torn partial line so far
            self._offsets[path] = offset + len(complete) + 1
            for raw in complete.split(b"\n"):
                if self.ingest_line(raw.decode("utf-8", "replace")):
                    applied += 1
        return applied

    # -- views ---------------------------------------------------------
    def sources(self) -> List[SourceState]:
        with self._lock:
            return sorted(self._sources.values(), key=lambda s: s.source)

    def rolling(self) -> TelemetrySummary:
        """The cross-source merged rolling summary."""
        with self._lock:
            return merge_summaries(
                state.summary for state in self._sources.values()
            )

    def status(self, state: SourceState, now: Optional[float] = None) -> str:
        if state.final:
            return "final"
        now = self._clock() if now is None else now
        if now - state.last_seen > self.stale_after_s:
            return "stale"
        return "live"

    def all_final(self) -> bool:
        with self._lock:
            return bool(self._sources) and all(
                state.final for state in self._sources.values()
            )

    def render(self, decision_mix: bool = True) -> str:
        """The ``simty top`` screen: source table + rolling metrics."""
        now = self._clock()
        states = self.sources()
        rolling = self.rolling()
        devices = rolling.counter("shard.devices")
        rate = ""
        if self._rate_mark is not None:
            dt = now - self._rate_mark[0]
            if dt > 0:
                rate = f"  devices/s: {(devices - self._rate_mark[1]) / dt:.1f}"
        self._rate_mark = (now, devices)
        counts: Dict[str, int] = {"final": 0, "live": 0, "stale": 0}
        rows = []
        for state in states:
            status = self.status(state, now)
            counts[status] += 1
            rows.append(
                (
                    state.source,
                    status,
                    f"{max(0.0, now - state.last_seen):.1f}s",
                    str(state.seq),
                    str(state.resets),
                    str(state.summary.counter("shard.devices")),
                    str(state.summary.counter("engine.deliveries")),
                    str(state.summary.counter("monitor.violations")),
                )
            )
        header = (
            f"sources: {len(states)} "
            f"({counts['live']} live, {counts['stale']} stale, "
            f"{counts['final']} final)   devices: {devices}{rate}"
        )
        sections = [
            header,
            _table(
                (
                    "source",
                    "status",
                    "age",
                    "seq",
                    "resets",
                    "devices",
                    "deliveries",
                    "violations",
                ),
                rows,
            )
            if rows
            else "(no sources yet)",
        ]
        if decision_mix:
            sections += [
                "",
                "decision mix (applicable/selected per Table 1 cell):",
                render_similarity_breakdown(rolling),
            ]
        sections += ["", "rolling metrics:", render_counters(rolling)]
        return "\n".join(sections)


#: How long the listener's accept loop blocks before re-checking close.
_ACCEPT_POLL_S = 0.1


class CollectorListener:
    """TCP/Unix socket server feeding a :class:`Collector`.

    One daemon thread per connection, line-framed; binds on construction
    (``tcp://host:0`` picks an ephemeral port, see :attr:`address`).
    """

    def __init__(self, collector: Collector, address: str = "tcp://127.0.0.1:0"):
        self.collector = collector
        if address.startswith("tcp://"):
            host, _, port = address[len("tcp://"):].rpartition(":")
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind((host or "127.0.0.1", int(port)))
            bound = self._server.getsockname()
            self.address = f"tcp://{bound[0]}:{bound[1]}"
        elif address.startswith("unix://"):
            path = address[len("unix://"):]
            self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._server.bind(path)
            self.address = address
        else:
            raise ValueError(f"listener address must be tcp:// or unix://: {address}")
        self._server.listen()
        # Closing a socket does not wake a thread blocked in accept(), so
        # the loop polls: close() stops it, then releases the socket.
        self._server.settimeout(_ACCEPT_POLL_S)
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="collector-listener", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._drain, args=(conn,), daemon=True
            ).start()

    def _drain(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("r", encoding="utf-8", newline="\n") as stream:
                for line in stream:
                    self.collector.ingest_line(line)
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting and release the socket; idempotent."""
        if self._closing.is_set():
            return
        self._closing.set()
        self._thread.join()
        self._server.close()


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
def _metrics_server(
    address: Tuple[str, int], render: Callable[[], str]
):
    """A threading HTTP server answering ``GET /metrics`` with ``render()``.

    ``http.server`` is imported here, by the one class that serves HTTP,
    so a process that never opens an endpoint never loads it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "only /metrics is served here")
                return
            try:
                body = render().encode("utf-8")
            except Exception as exc:  # render must never kill the server
                self.send_response(500)
                self.end_headers()
                self.wfile.write(str(exc).encode("utf-8", "replace"))
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # silence stderr
            pass

    class MetricsServer(ThreadingHTTPServer):
        daemon_threads = True

    return MetricsServer(address, MetricsHandler)


class MetricsEndpoint:
    """Serve any render callable over HTTP at ``GET /metrics``.

    The one metrics server: ``simty serve --metrics-port`` points it at
    :meth:`AlarmService.render_metrics <repro.service.daemon.AlarmService.
    render_metrics>` (a snapshot taken under the service lock, so a
    scrape never observes a half-applied request), the fleet CLI at the
    Prometheus-rendered collector rolling view.  It binds and serves on
    construction; port 0 picks an ephemeral port (see :attr:`port`).
    ``close`` is idempotent.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = _metrics_server((host, port), render)
        self.host, self.port = self._server.server_address[:2]
        self._closed = False
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-endpoint",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "MetricsEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
