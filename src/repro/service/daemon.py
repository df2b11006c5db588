"""The alarm-service daemon: a live wrapper around the stepping core.

Where every other entry point in the repo is batch (``Simulator.run()``
drains a pre-declared spec), :class:`AlarmService` is *online*: it holds a
started engine, accepts ``register``/``cancel``/``reanchor`` requests
while the engine is mid-flight, and advances the engine as its injected
wall clock (:mod:`repro.simulator.clock`) moves — the role the paper's
SIMTY policy plays inside the OS alarm service it was built for.

Durability is event-sourced through :class:`~repro.service.journal.
ServiceJournal`: every accepted mutation is fsync'd with its effective
simulation time before the reply is sent, so a SIGKILL'd daemon resumes
by replaying the journal through a fresh deterministic engine
(:meth:`AlarmService.resume`) and produces the exact trace an
uninterrupted run would have.

Thread safety: every public entry point takes the service lock, so one
service instance can be shared by the socket transport's handler threads,
the background ticker and the ``/metrics`` scrape handler.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.units import THREE_HOURS_MS
from ..obs.exporters import prometheus_text
from ..obs.stream import SpoolSink, TelemetryStream
from ..obs.telemetry import Telemetry
from ..runner.registry import DEFAULT_REGISTRY
from ..simulator.clock import WALL_CLOCK_MODES, ManualWallClock, make_wall_clock
from ..simulator.engine import Simulator, SimulatorConfig
from ..simulator.monitor import ON_VIOLATION_MODES
from ..simulator.serialize import alarm_from_dict, alarm_to_dict
from ..simulator.trace import SimulationTrace
from .journal import SERVICE_JOURNAL_NAME, ServiceJournal
from .protocol import (
    MUTATION_OPS,
    ProtocolError,
    echo_req_id,
    error_reply,
    ok_reply,
    parse_line,
    validated_alarm_spec,
    validated_op,
    validated_req_id,
    validated_target,
    validated_time,
)

#: What a journal factory receives: the journal file path.
JournalFactory = Callable[[Path], ServiceJournal]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to boot (or resume) one daemon.

    ``monitor`` defaults to ``"record"`` — the live path runs with the
    invariant monitor armed, so a policy bug surfaces as structured
    violations in ``query`` replies instead of silently corrupt traffic.
    ``checkpoint_every_ms`` is the simulation-time distance between
    automatic journal watermarks (``None`` disables the automatic ones;
    explicit ``checkpoint`` ops always work).
    """

    policy: str = "simty"
    horizon: int = THREE_HOURS_MS
    queue_backend: Optional[str] = None
    monitor: Optional[str] = "record"
    clock: str = "manual"
    speed: float = 60.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every_ms: Optional[int] = 60_000
    #: Overload protection: at most this many requests admitted at once
    #: (in flight + queued on the service lock); the rest are shed with a
    #: structured ``overloaded`` error.  ``None`` disables admission
    #: control entirely.
    max_inflight: Optional[int] = None
    #: How long a request may wait for an admission slot before being
    #: shed (0.0 = shed immediately when the service is saturated).
    admission_timeout_s: float = 0.0
    #: The ``retry_after_ms`` hint carried by ``overloaded`` errors.
    retry_after_ms: int = 50
    #: Requests slower than this (wall ms, lock wait included) count into
    #: ``service.slow_requests``; ``None`` disables the accounting.
    slow_request_ms: Optional[float] = 1_000.0
    #: How many recent mutation ``req_id``s are remembered for replay
    #: dedupe (a retried mutation returns the original reply instead of
    #: being applied twice).
    dedupe_window: int = 1_024
    #: Spool directory for the live telemetry stream (one ``service``
    #: source a :class:`~repro.obs.stream.Collector` can tail alongside
    #: fleet shards); ``None`` disables streaming.
    stream_dir: Optional[str] = None
    stream_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.stream_interval_s <= 0:
            raise ValueError("stream_interval_s must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.clock not in WALL_CLOCK_MODES:
            raise ValueError(
                f"clock must be one of {WALL_CLOCK_MODES}, got {self.clock!r}"
            )
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.monitor is not None and self.monitor not in ON_VIOLATION_MODES:
            raise ValueError(
                f"monitor must be None or one of {ON_VIOLATION_MODES}"
            )
        if self.checkpoint_every_ms is not None and self.checkpoint_every_ms <= 0:
            raise ValueError("checkpoint_every_ms must be positive (or None)")
        if self.max_inflight is not None and self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive (or None)")
        if self.admission_timeout_s < 0:
            raise ValueError("admission_timeout_s must be non-negative")
        if self.retry_after_ms <= 0:
            raise ValueError("retry_after_ms must be positive")
        if self.slow_request_ms is not None and self.slow_request_ms <= 0:
            raise ValueError("slow_request_ms must be positive (or None)")
        if self.dedupe_window <= 0:
            raise ValueError("dedupe_window must be positive")


class AlarmService:
    """One live alarm service: engine, wall clock, journal, telemetry.

    Build a fresh daemon with the constructor (truncates any stale
    journal) or revive a crashed one with :meth:`resume` (replays the
    journal).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        journal_factory: Optional[JournalFactory] = None,
        _journal: Optional[ServiceJournal] = None,
        _resume: bool = False,
    ) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._lock = threading.RLock()
        policy = DEFAULT_REGISTRY.create_policy(self.config.policy)
        self.simulator = Simulator(
            policy,
            config=SimulatorConfig(
                horizon=self.config.horizon,
                monitor=self.config.monitor,
                queue_backend=self.config.queue_backend,
                live=True,
            ),
            telemetry=self.telemetry,
        )
        self._alarms: Dict[int, Any] = {}
        self._labels: Dict[str, int] = {}
        self._next_alarm_id = 1
        self._closed = False
        self._drained_trace: Optional[SimulationTrace] = None
        self._last_watermark = 0
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._recent_replies: "OrderedDict[str, Dict]" = OrderedDict()
        self._admission = (
            threading.BoundedSemaphore(self.config.max_inflight)
            if self.config.max_inflight is not None
            else None
        )
        self._inflight: Dict[int, Tuple[str, float]] = {}
        self._inflight_lock = threading.Lock()
        self._inflight_token = 0
        self.telemetry.gauge("service.degraded_mode", 0)

        if _journal is None and self.config.checkpoint_dir is not None:
            path = Path(self.config.checkpoint_dir) / SERVICE_JOURNAL_NAME
            factory = journal_factory or ServiceJournal
            _journal = factory(path)
            if not _resume:
                _journal.reset()
        self.journal = _journal

        self.simulator.start()
        if _resume:
            self._replay()
        elif self.journal is not None:
            self.journal.append(
                {
                    "kind": "config",
                    "policy": self.config.policy,
                    "horizon": self.config.horizon,
                    "queue_backend": self.config.queue_backend,
                    "monitor": self.config.monitor,
                }
            )
        self.wall = make_wall_clock(
            self.config.clock, self.config.speed, start_ms=self._last_watermark
        )
        self.stream: Optional[TelemetryStream] = None
        if self.config.stream_dir is not None:
            self.stream = TelemetryStream(
                self.telemetry,
                source="service",
                sink=SpoolSink(self.config.stream_dir),
                interval_s=self.config.stream_interval_s,
            )
            self.stream.begin(
                meta={"policy": self.config.policy, "resumed": _resume}
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        journal_factory: Optional[JournalFactory] = None,
    ) -> "AlarmService":
        """Revive a crashed daemon from its checkpoint journal.

        The journal's config header must match ``config`` — replaying a
        SIMTY journal through NATIVE would succeed into garbage.
        """
        config = config or ServiceConfig()
        if config.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")
        factory = journal_factory or ServiceJournal
        journal = factory(Path(config.checkpoint_dir) / SERVICE_JOURNAL_NAME)
        header = journal.config_entry()
        if header is None:
            raise ValueError(
                f"no config header in {journal.path}; nothing to resume"
            )
        for key in ("policy", "horizon", "queue_backend", "monitor"):
            if header.get(key) != getattr(config, key):
                raise ValueError(
                    f"journal was written by a daemon with {key}="
                    f"{header.get(key)!r}, cannot resume with "
                    f"{getattr(config, key)!r}"
                )
        return cls(config, telemetry, _journal=journal, _resume=True)

    def _replay(self) -> None:
        """Re-apply the journal **in entry order** — mutations at their
        recorded times, advancing at each watermark — so the
        deterministic engine reproduces the crashed daemon's state (and
        its whole trace) exactly.

        Order matters, not just timestamps.  A mutation journaled
        *after* a watermark at the same ``t`` was applied by the live
        daemon with the engine already settled at ``t``; feeding it to
        the engine *before* advancing would queue it as pending inside
        the advance, where it can change a dispatch decision due exactly
        at the boundary.  Interleaving exactly as journaled removes the
        ambiguity.

        Replay is deliberately *tolerant* of a hostile journal tail:

        * a **torn**, garbage or foreign line was already dropped by
          :meth:`ServiceJournal.load`; the count lands in
          ``service.replay_skipped{kind=line}``;
        * a **duplicated** line (torn-then-retried write, or the chaos
          layer's injected double write) is recognised by its ``seq``
          number and applied once;
        * a **phantom** entry — journaled but never applied, because the
          engine rejected the op after the WAL append, or the process
          died between append and apply with the reply never sent — is
          skipped if the engine rejects it again (the engine is
          deterministic, so it rejects the same entry the original
          process failed to apply).  A skipped register still consumes
          its alarm id, keeping id assignment identical to the crashed
          process's.
        """
        assert self.journal is not None
        if self.journal.skipped:
            self.telemetry.count(
                "service.replay_skipped", self.journal.skipped, kind="line"
            )
        seen_seq: set = set()
        for entry in self.journal.entries:
            seq = entry.get("seq")
            if isinstance(seq, int):
                if seq in seen_seq:
                    self.telemetry.count("service.replay_duplicates")
                    continue
                seen_seq.add(seq)
            kind = entry.get("kind")
            req_id = entry.get("req_id")
            if kind == "watermark":
                if entry["t"] > self.simulator.now:
                    self.simulator.advance_to(entry["t"])
            elif kind == "register":
                alarm = alarm_from_dict(entry["alarm"])
                self._next_alarm_id = max(self._next_alarm_id, alarm.alarm_id + 1)
                try:
                    self.simulator.add_alarm(alarm, entry["t"])
                except Exception:  # noqa: BLE001 - phantom entry, see docstring
                    self.telemetry.count("service.replay_skipped", kind=kind)
                    continue
                self._alarms[alarm.alarm_id] = alarm
                self._labels[alarm.label] = alarm.alarm_id
                if isinstance(req_id, str) and req_id:
                    self._remember_reply(
                        req_id,
                        {"alarm_id": alarm.alarm_id, "label": alarm.label,
                         "at": entry["t"]},
                    )
            elif kind == "cancel":
                try:
                    self.simulator.cancel_alarm(
                        self._alarms[entry["alarm_id"]], entry["t"]
                    )
                except Exception:  # noqa: BLE001 - phantom entry
                    self.telemetry.count("service.replay_skipped", kind=kind)
                    continue
                if isinstance(req_id, str) and req_id:
                    self._remember_reply(
                        req_id, {"alarm_id": entry["alarm_id"], "at": entry["t"]}
                    )
            elif kind == "reanchor":
                try:
                    self.simulator.reregister_alarm(
                        self._alarms[entry["alarm_id"]],
                        entry["t"],
                        nominal_offset=entry.get("nominal_offset"),
                    )
                except Exception:  # noqa: BLE001 - phantom entry
                    self.telemetry.count("service.replay_skipped", kind=kind)
                    continue
                if isinstance(req_id, str) and req_id:
                    self._remember_reply(
                        req_id,
                        {"alarm_id": entry["alarm_id"], "at": entry["t"],
                         "nominal_offset": entry.get("nominal_offset")},
                    )
        self._last_watermark = self.journal.last_watermark()
        if self._last_watermark > self.simulator.now:
            self.simulator.advance_to(self._last_watermark)
        self.telemetry.count("service.resumes")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Advance the engine to the wall clock's current position.

        Returns the number of dispatch iterations executed.  Called by
        transports before each request and by the background ticker for
        real/accelerated clocks.  Crossing ``checkpoint_every_ms`` of
        simulation time since the last watermark journals a new one.
        """
        with self._lock:
            if self._closed:
                return 0
            target = min(self.wall.now_ms(), self.config.horizon)
            if target <= self.simulator.now:
                return 0
            processed = self.simulator.advance_to(target)
            every = self.config.checkpoint_every_ms
            if (
                self.journal is not None
                and every is not None
                and self.simulator.now - self._last_watermark >= every
            ):
                self._watermark()
            self._observe_depth()
            if self.stream is not None:
                self.stream.poll()
            return processed

    def _watermark(self) -> float:
        """Journal "the engine reached t"; returns the fsync latency in ms.

        Without a journal, or in degraded mode, nothing is written: the
        latency is 0.0 and ``service.checkpoint_latency_ms`` observes
        nothing, so the histogram holds only real appends.  A watermark
        that fails to write flips the service into degraded (read-only)
        mode instead of crashing: the engine keeps serving reads, the
        previous watermark stays the resume point, and only durability
        (not correctness) is lost.
        """
        if self.journal is None or self._degraded:
            return 0.0
        started = time.perf_counter()
        try:
            self.journal.append({"kind": "watermark", "t": self.simulator.now})
        except OSError as error:
            self._enter_degraded(error)
        else:
            self._last_watermark = self.simulator.now
        latency_ms = (time.perf_counter() - started) * 1_000.0
        self.telemetry.observe("service.checkpoint_latency_ms", latency_ms)
        return latency_ms

    def _enter_degraded(self, error: OSError) -> None:
        """Drop to read-only serving after a journal write failure.

        Mutations must refuse rather than apply-without-journaling —
        an unjournaled mutation would silently vanish on resume, which
        is worse than a structured rejection the client can see.
        Degraded mode is sticky until the process is restarted against
        a writable journal.
        """
        self._degraded = True
        self._degraded_reason = f"{type(error).__name__}: {error}"
        self.telemetry.count("service.degraded_entries")
        self.telemetry.gauge("service.degraded_mode", 1)

    def _require_writable(self) -> None:
        if self._degraded:
            raise ProtocolError(
                "read-only",
                "the checkpoint journal is unwritable "
                f"({self._degraded_reason}); mutations are disabled, "
                "query/advance are still served",
            )

    def _journal_mutation(self, entry: Dict) -> None:
        """WAL discipline: the mutation is durable *before* it is applied
        (and before the reply is sent).  A failed append degrades to
        read-only and rejects the mutation — the engine is untouched, so
        the journal and the engine cannot disagree."""
        if self.journal is None:
            return
        try:
            self.journal.append(entry)
        except OSError as error:
            self._enter_degraded(error)
            self._require_writable()

    def _observe_depth(self) -> None:
        self.telemetry.gauge(
            "service.queue_depth", self.simulator.manager.pending_alarm_count()
        )
        self.telemetry.gauge(
            "service.pending_ops", self.simulator.pending_op_count
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> Dict:
        """Process one raw request line into one reply dict."""
        try:
            payload = parse_line(line)
        except ProtocolError as error:
            self._count_request("?", "rejected", error.code)
            return error_reply(None, error.code, error.message)
        return self.handle_request(payload)

    def handle_request(self, payload: Dict) -> Dict:
        request_id = payload.get("id")
        started = time.monotonic()
        raw_op = payload.get("op")
        op = raw_op if isinstance(raw_op, str) else "?"
        if not self._admit():
            self.telemetry.count("service.shed_requests", scope="admission")
            self._count_request(op, "shed", "overloaded")
            return echo_req_id(
                error_reply(
                    request_id,
                    "overloaded",
                    f"the service has {self.config.max_inflight} requests "
                    "in flight; retry after the hinted backoff",
                    retry_after_ms=self.config.retry_after_ms,
                ),
                payload,
            )
        token = self._track_inflight(op, started)
        try:
            try:
                with self._lock:
                    op = validated_op(payload)
                    req_id = validated_req_id(payload)
                    if self._closed:
                        raise ProtocolError(
                            "shutting-down", "the service is shutting down"
                        )
                    if req_id is not None and op in MUTATION_OPS:
                        cached = self._recent_replies.get(req_id)
                        if cached is not None:
                            self.telemetry.count(
                                "service.deduped_requests", op=op
                            )
                            self._count_request(op, "deduped")
                            return echo_req_id(
                                ok_reply(
                                    request_id, **dict(cached, duplicate=True)
                                ),
                                payload,
                            )
                    with self.telemetry.span("service.request", op=op):
                        result = self._dispatch(op, payload)
                    if req_id is not None and op in MUTATION_OPS:
                        self._remember_reply(req_id, result)
            except ProtocolError as error:
                self._count_request(op, "rejected", error.code)
                return echo_req_id(
                    error_reply(
                        request_id, error.code, error.message, **error.details
                    ),
                    payload,
                )
            except Exception as error:  # noqa: BLE001 - boundary: reply, don't die
                self._count_request(op, "rejected", "engine-error")
                return echo_req_id(
                    error_reply(
                        request_id,
                        "engine-error",
                        f"{type(error).__name__}: {error}",
                    ),
                    payload,
                )
            self._count_request(op, "accepted")
            return echo_req_id(ok_reply(request_id, **result), payload)
        finally:
            self._untrack_inflight(token, op, started)
            self._release()

    # -- admission control + slow-request accounting -------------------
    def _admit(self) -> bool:
        if self._admission is None:
            return True
        return self._admission.acquire(timeout=self.config.admission_timeout_s)

    def _release(self) -> None:
        if self._admission is not None:
            self._admission.release()

    def _track_inflight(self, op: str, started: float) -> int:
        with self._inflight_lock:
            self._inflight_token += 1
            token = self._inflight_token
            self._inflight[token] = (op, started)
        return token

    def _untrack_inflight(self, token: int, op: str, started: float) -> None:
        with self._inflight_lock:
            self._inflight.pop(token, None)
        threshold = self.config.slow_request_ms
        if threshold is not None:
            duration_ms = (time.monotonic() - started) * 1_000.0
            if duration_ms > threshold:
                self.telemetry.count(
                    "service.slow_requests", op=op, stage="completed"
                )

    def inflight_snapshot(self) -> List[Tuple[int, str, float]]:
        """(token, op, age_s) of every request currently being handled —
        what the slow-request watchdog scans.  Lock-free for the service
        lock: a watchdog must be able to observe a wedged service."""
        now = time.monotonic()
        with self._inflight_lock:
            return [
                (token, op, now - started)
                for token, (op, started) in self._inflight.items()
            ]

    def _remember_reply(self, req_id: str, result: Dict) -> None:
        self._recent_replies[req_id] = dict(result)
        self._recent_replies.move_to_end(req_id)
        while len(self._recent_replies) > self.config.dedupe_window:
            self._recent_replies.popitem(last=False)

    def _count_request(self, op: str, outcome: str, code: str = "") -> None:
        labels = {"op": op, "outcome": outcome}
        if code:
            labels["code"] = code
        self.telemetry.count("service.requests", **labels)

    def _dispatch(self, op: str, payload: Dict) -> Dict:
        handler = getattr(self, f"_op_{op}")
        return handler(payload)

    def _effective_time(self, payload: Dict) -> int:
        """The sim time an op takes effect: ``at`` or "now", never past.

        "Past" is judged against the *wall* clock, not the engine clock:
        dispatching an instant legitimately drags the engine a few ms
        beyond it (wake latency, task execution), and an op at the wall
        position is still current — the engine catches it up at the next
        step exactly as batch mode handles a pre-declared op behind a
        drifted clock.
        """
        now = min(self.wall.now_ms(), self.config.horizon)
        at = validated_time(
            payload, "at", horizon=self.config.horizon, default=min(
                now, self.config.horizon - 1
            )
        )
        if at < now:
            raise ProtocolError(
                "bad-time",
                f"at={at} is in the past; the service clock is at {now}",
            )
        return at

    def _journal_time(self, at: int) -> int:
        """The time a mutation will actually take effect in the engine.

        Dispatching an ``advance`` can drag the engine a little past the
        wall clock (wake latency, task execution); a mutation submitted
        at wall time ``at`` is then applied by the engine at its own
        ``now``.  The journal must record *that* time — replaying the
        requested time would queue the op before the overshoot and land
        it earlier than the live run did, breaking byte-identical
        resume.  (A recorded time at/past the horizon replays as a
        rejected phantom, which matches the live op never dispatching.)
        """
        return max(at, self.simulator.now)

    def _op_register(self, payload: Dict) -> Dict:
        spec = validated_alarm_spec(payload, self.config.horizon)
        at = self._effective_time(payload)
        self._require_writable()
        alarm_id = self._next_alarm_id
        alarm = alarm_from_dict(dict(spec, alarm_id=alarm_id))
        entry = {
            "kind": "register",
            "t": self._journal_time(at),
            "alarm": alarm_to_dict(alarm),
        }
        req_id = validated_req_id(payload)
        if req_id is not None:
            entry["req_id"] = req_id
        self._journal_mutation(entry)
        # The id is consumed once the entry is durable, even if the
        # engine rejects the alarm below — replay does the same, so a
        # resumed daemon assigns the exact same ids.
        self._next_alarm_id += 1
        self.simulator.add_alarm(alarm, at)
        self._alarms[alarm_id] = alarm
        self._labels[alarm.label] = alarm_id
        self._observe_depth()
        return {"alarm_id": alarm_id, "label": alarm.label, "at": at}

    def _resolve_target(self, payload: Dict) -> int:
        target = validated_target(payload)
        if "alarm_id" in target:
            alarm_id = target["alarm_id"]
            if alarm_id not in self._alarms:
                raise ProtocolError(
                    "unknown-alarm", f"no alarm with id {alarm_id}"
                )
            return alarm_id
        label = target["label"]
        if label not in self._labels:
            raise ProtocolError("unknown-alarm", f"no alarm labelled {label!r}")
        return self._labels[label]

    def _op_cancel(self, payload: Dict) -> Dict:
        alarm_id = self._resolve_target(payload)
        at = self._effective_time(payload)
        self._require_writable()
        entry = {"kind": "cancel", "t": self._journal_time(at),
                 "alarm_id": alarm_id}
        req_id = validated_req_id(payload)
        if req_id is not None:
            entry["req_id"] = req_id
        self._journal_mutation(entry)
        self.simulator.cancel_alarm(self._alarms[alarm_id], at)
        self._observe_depth()
        return {"alarm_id": alarm_id, "at": at}

    def _op_reanchor(self, payload: Dict) -> Dict:
        alarm_id = self._resolve_target(payload)
        at = self._effective_time(payload)
        offset = validated_time(payload, "nominal_offset", default=None)
        self._require_writable()
        entry = {"kind": "reanchor", "t": self._journal_time(at),
                 "alarm_id": alarm_id}
        if offset is not None:
            entry["nominal_offset"] = offset
        req_id = validated_req_id(payload)
        if req_id is not None:
            entry["req_id"] = req_id
        self._journal_mutation(entry)
        self.simulator.reregister_alarm(
            self._alarms[alarm_id], at, nominal_offset=offset
        )
        self._observe_depth()
        return {"alarm_id": alarm_id, "at": at, "nominal_offset": offset}

    def _op_query(self, payload: Dict) -> Dict:
        simulator = self.simulator
        monitor = simulator.monitor
        return {
            "policy": self.config.policy,
            "clock": self.config.clock,
            "sim_time_ms": simulator.now,
            "horizon_ms": self.config.horizon,
            "queue_depth": simulator.manager.pending_alarm_count(),
            "registered": len(self._alarms),
            "batches_delivered": len(simulator.trace.batches),
            "deliveries": simulator.trace.delivery_count(),
            "next_event_ms": simulator.next_event_time(),
            "violations": len(monitor.violations) if monitor is not None else None,
            "journal_entries": len(self.journal) if self.journal is not None else 0,
            "degraded": self._degraded,
            "degraded_reason": self._degraded_reason,
        }

    def _op_advance(self, payload: Dict) -> Dict:
        if not isinstance(self.wall, ManualWallClock):
            raise ProtocolError(
                "clock-mode",
                f"advance is only valid on a manual wall clock, not "
                f"{self.config.clock!r}",
            )
        to = validated_time(payload, "to", required=True)
        if to < self.wall.now_ms():
            raise ProtocolError(
                "bad-time",
                f"to={to} is behind the wall clock ({self.wall.now_ms()})",
            )
        self.wall.advance_to(to)
        # The lock is re-entrant, so ticking inside the request is safe.
        processed = self.tick()
        if self._last_watermark != self.simulator.now:
            # Unless tick() just journaled one here: one watermark per t.
            self._watermark()
        return {"sim_time_ms": self.simulator.now, "processed": processed}

    def _op_checkpoint(self, payload: Dict) -> Dict:
        latency_ms = self._watermark()
        return {
            "sim_time_ms": self.simulator.now,
            "latency_ms": latency_ms,
            "journal_entries": len(self.journal)
            if self.journal is not None
            else 0,
            "journal_path": str(self.journal.path)
            if self.journal is not None
            else None,
        }

    def _op_shutdown(self, payload: Dict) -> Dict:
        drain = bool(payload.get("drain", False))
        if drain:
            self._drained_trace = self.simulator.drain()
        self._watermark()
        self._close()
        return {
            "sim_time_ms": self.simulator.now,
            "drained": drain,
            "batches_delivered": len(self.simulator.trace.batches),
        }

    def shutdown_gracefully(self) -> Dict:
        """SIGTERM/SIGINT path: watermark, stop accepting, report.

        Taking the service lock first means every in-flight request
        drains (finishes and gets its reply) before the final watermark
        is cut; requests arriving afterwards see ``shutting-down``.
        Idempotent — a second signal is a no-op.
        """
        with self._lock:
            if self._closed:
                return {"sim_time_ms": self.simulator.now, "already": True}
            self._watermark()
            self._close()
            self.telemetry.count("service.graceful_shutdowns")
            if self.stream is not None:
                self.stream.flush(final=True)
                self.stream.close()
            return {
                "sim_time_ms": self.simulator.now,
                "watermark_ms": self._last_watermark,
                "already": False,
            }

    def _close(self) -> None:
        """Stop accepting requests and release the journal's handle."""
        self._closed = True
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    @property
    def trace(self) -> Optional[SimulationTrace]:
        """The sealed trace, once a draining shutdown ran."""
        return self._drained_trace

    def render_metrics(self) -> str:
        """A Prometheus text snapshot, taken under the service lock."""
        with self._lock:
            return prometheus_text(self.telemetry)
