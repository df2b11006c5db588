"""Fault injection for the alarm service: break it on purpose, on demand.

The resilience claims in :mod:`repro.service` are only claims until
something hostile exercises them.  This module is the hostile something,
with one seeded :class:`ChaosSpec` driving every injector so a torture
run is reproducible:

* :class:`FaultyJournal` — a :class:`~repro.service.journal.ServiceJournal`
  whose appends can stall (latency), silently double-write (the replay
  dedupe path), or fail fsync with ``OSError`` (the degraded read-only
  path); the module-level :func:`tear_tail` emulates a crash interrupting
  the final append (a torn half-line that resume must skip);
* :class:`FaultyTransport` — a line-aware TCP proxy between a client and
  the daemon that injects latency, swallows frames (drops), and cuts the
  connection mid-frame;
* :class:`FlakyTransport` — a deterministic client-side wrapper around a
  :class:`~repro.service.client.Transport` that fails scripted attempts
  *before* or *after* delivery (the "applied but unacknowledged" case
  that makes ``req_id`` dedupe necessary);
* :class:`SkewedWallClock` — a wall clock whose readings jitter by a
  bounded random skew while staying monotone.

Every injected fault counts into ``chaos.injected{kind=...}`` on the
owning telemetry hub, so a torture run can assert that the faults it
configured actually fired.

``simty serve --chaos "dup=0.2,fsync=0.01,skew=250,seed=7"`` applies the
journal + clock injectors inside a live daemon; the transport proxy runs
in front of a daemon (``scripts/chaos_smoke.py`` does both).
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from ..obs.telemetry import Telemetry
from ..simulator.clock import WallClock
from .client import Transport, TransportError
from .journal import ServiceJournal

#: Fault kinds the spec understands, with their spec-string keys.
CHAOS_KEYS = (
    "latency",      # latency=MS[:P] — transport frame delay
    "drop",         # drop=P        — swallow a transport frame
    "disconnect",   # disconnect=P  — cut the connection mid-frame
    "jlat",         # jlat=MS[:P]   — journal append delay
    "dup",          # dup=P         — duplicated journal write
    "fsync",        # fsync=P       — journal fsync failure (OSError)
    "skew",         # skew=MS       — wall-clock skew amplitude
    "seed",         # seed=N        — RNG seed for all of the above
)


@dataclass(frozen=True)
class ChaosSpec:
    """Probabilities and magnitudes for every injector, one seed."""

    latency_ms: float = 0.0
    latency_p: float = 0.0
    drop_p: float = 0.0
    disconnect_p: float = 0.0
    journal_latency_ms: float = 0.0
    journal_latency_p: float = 0.0
    dup_p: float = 0.0
    fsync_p: float = 0.0
    skew_ms: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "latency_p", "drop_p", "disconnect_p", "journal_latency_p",
            "dup_p", "fsync_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.latency_ms < 0 or self.journal_latency_ms < 0:
            raise ValueError("latency magnitudes must be non-negative")
        if self.skew_ms < 0:
            raise ValueError("skew_ms must be non-negative")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Build a spec from the CLI string form.

        Comma-separated ``key=value`` tokens; latency keys accept
        ``MS[:P]`` (probability defaults to 1.0 when only the magnitude
        is given).  Example::

            latency=5:0.2,drop=0.05,disconnect=0.02,dup=0.1,fsync=0.01,
            skew=250,seed=7
        """
        spec = cls()
        text = text.strip()
        if not text:
            return spec
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CHAOS_KEYS or not value:
                raise ValueError(
                    f"bad chaos token {token!r}; keys are {list(CHAOS_KEYS)} "
                    "and every token needs a value"
                )
            try:
                if key in ("latency", "jlat"):
                    magnitude, _, probability = value.partition(":")
                    ms = float(magnitude)
                    p = float(probability) if probability else 1.0
                    if key == "latency":
                        spec = replace(spec, latency_ms=ms, latency_p=p)
                    else:
                        spec = replace(
                            spec, journal_latency_ms=ms, journal_latency_p=p
                        )
                elif key == "skew":
                    spec = replace(spec, skew_ms=int(value))
                elif key == "seed":
                    spec = replace(spec, seed=int(value))
                else:
                    spec = replace(spec, **{f"{key}_p": float(value)})
            except ValueError as error:
                raise ValueError(f"bad chaos token {token!r}: {error}")
        return spec

    def describe(self) -> str:
        """The non-default knobs, for log lines."""
        default = ChaosSpec()
        parts = [
            f"{field.name}={getattr(self, field.name)}"
            for field in fields(self)
            if getattr(self, field.name) != getattr(default, field.name)
        ]
        return ", ".join(parts) or "no faults"


def parse_chaos_spec(text: str) -> ChaosSpec:
    return ChaosSpec.parse(text)


class _Injector:
    """Shared seeded-RNG + telemetry plumbing for every fault source."""

    def __init__(
        self,
        spec: ChaosSpec,
        telemetry: Optional[Telemetry],
        rng: Optional[random.Random],
    ) -> None:
        self.spec = spec
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.rng = rng if rng is not None else spec.rng()
        self._rng_lock = threading.Lock()

    def _roll(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        with self._rng_lock:
            return self.rng.random() < probability

    def _inject(self, kind: str) -> None:
        self.telemetry.count("chaos.injected", kind=kind)


# ----------------------------------------------------------------------
# Journal faults
# ----------------------------------------------------------------------
class FaultyJournal(ServiceJournal):
    """A service journal with injected disk faults.

    ``force_fsync_failures`` is a deterministic override for tests: set
    it and every subsequent append raises ``OSError`` regardless of the
    spec's probability (how the degraded-mode suite flips the disk from
    healthy to broken mid-run).
    """

    def __init__(
        self,
        path: Union[str, Path],
        spec: ChaosSpec,
        *,
        telemetry: Optional[Telemetry] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._chaos = _Injector(spec, telemetry, rng)
        self.force_fsync_failures = False
        super().__init__(path)

    def append(self, entry: dict) -> None:
        chaos = self._chaos
        if chaos._roll(chaos.spec.journal_latency_p):
            chaos._inject("journal-latency")
            time.sleep(chaos.spec.journal_latency_ms / 1_000.0)
        if self.force_fsync_failures or chaos._roll(chaos.spec.fsync_p):
            chaos._inject("journal-fsync")
            raise OSError("chaos: injected fsync failure")
        super().append(entry)
        if chaos._roll(chaos.spec.dup_p):
            chaos._inject("journal-dup")
            self._duplicate_last_line()

    def _duplicate_last_line(self) -> None:
        """Write the just-appended entry a second time, byte for byte.

        The duplicate goes straight to disk — the in-memory entry list
        stays truthful, exactly like a torn-then-retried write where the
        first copy did land.  Replay dedupes it by ``seq``.
        """
        self._log.append(json.dumps(self._entries[-1], sort_keys=True))


def tear_tail(path: Union[str, Path]) -> None:
    """Emulate a crash interrupting an append: a torn half-entry.

    Appends the first half of a plausible mutation line with no newline —
    the bytes a dying process would leave if the kernel flushed part of a
    write.  Resume must skip it and seal it off before the next append.
    """
    with Path(path).open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "register", "t": 9999999, "alarm": {"al')


# ----------------------------------------------------------------------
# Clock skew
# ----------------------------------------------------------------------
class SkewedWallClock(WallClock):
    """A wall clock whose readings wander by a bounded random skew.

    Each reading adds ``uniform(0, skew_ms)`` to the inner clock —
    jittery, like a clock being steered by NTP — but reported time never
    goes backwards (the engine's `advance_to` treats a stale target as a
    no-op, and monotonicity keeps "no scheduling in the past" coherent).
    """

    def __init__(
        self,
        inner: WallClock,
        spec: ChaosSpec,
        *,
        telemetry: Optional[Telemetry] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.inner = inner
        self._chaos = _Injector(spec, telemetry, rng)
        self._high_water = 0

    def now_ms(self) -> int:
        skew = 0
        if self._chaos.spec.skew_ms > 0:
            with self._chaos._rng_lock:
                skew = self._chaos.rng.randint(0, self._chaos.spec.skew_ms)
            if skew:
                self._chaos._inject("clock-skew")
        reading = self.inner.now_ms() + skew
        self._high_water = max(self._high_water, reading)
        return self._high_water

    def sleep_ms(self, duration_ms: float) -> None:
        self.inner.sleep_ms(duration_ms)


# ----------------------------------------------------------------------
# Transport faults
# ----------------------------------------------------------------------
#: How long the proxy's accept loop blocks before re-checking close.
_ACCEPT_POLL_S = 0.1


class FaultyTransport:
    """A line-aware TCP proxy injecting latency, drops and disconnects.

    Sits between any client and the daemon::

        proxy = FaultyTransport(daemon_address, spec).start()
        client = ServiceClient(TcpTransport(*proxy.address))

    Requests and replies are both subject to faults: a dropped *request*
    means the server never saw it (client deadline fires); a dropped
    *reply* means the server applied a mutation the client never heard
    about (the retry + ``req_id`` dedupe path); a mid-frame disconnect
    forwards half a line and cuts both directions.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        spec: ChaosSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[Telemetry] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.upstream = upstream
        self._chaos = _Injector(spec, telemetry, rng)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        # Closing a socket does not wake a thread blocked in accept(), so
        # the loop polls: close() stops it, then releases the socket.
        self._listener.settimeout(_ACCEPT_POLL_S)
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="simty-chaos-proxy", daemon=True
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    @property
    def telemetry(self) -> Telemetry:
        return self._chaos.telemetry

    def start(self) -> "FaultyTransport":
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting and release the socket; idempotent."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._thread.is_alive():
            self._thread.join()
        self._listener.close()

    def __enter__(self) -> "FaultyTransport":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                downstream, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                downstream.close()
                continue
            _Pipe(self._chaos, downstream, upstream).start()


class _Pipe:
    """Both directions of one proxied connection."""

    def __init__(
        self,
        chaos: _Injector,
        downstream: socket.socket,
        upstream: socket.socket,
    ) -> None:
        self._chaos = chaos
        self._downstream = downstream
        self._upstream = upstream
        self._dead = threading.Event()

    def start(self) -> None:
        for source, sink, direction in (
            (self._downstream, self._upstream, "request"),
            (self._upstream, self._downstream, "reply"),
        ):
            threading.Thread(
                target=self._pump,
                args=(source, sink, direction),
                name=f"simty-chaos-{direction}",
                daemon=True,
            ).start()

    def _kill(self) -> None:
        self._dead.set()
        for sock in (self._downstream, self._upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _pump(
        self, source: socket.socket, sink: socket.socket, direction: str
    ) -> None:
        chaos = self._chaos
        spec = chaos.spec
        for frame in self._frames(source):
            if self._dead.is_set():
                return
            if chaos._roll(spec.drop_p):
                chaos._inject(f"{direction}-drop")
                continue
            if chaos._roll(spec.disconnect_p):
                chaos._inject(f"{direction}-disconnect")
                try:
                    sink.sendall(frame[: max(1, len(frame) // 2)])
                except OSError:
                    pass
                self._kill()
                return
            if chaos._roll(spec.latency_p):
                chaos._inject(f"{direction}-latency")
                time.sleep(spec.latency_ms / 1_000.0)
            try:
                sink.sendall(frame)
            except OSError:
                self._kill()
                return
        self._kill()

    @staticmethod
    def _frames(sock: socket.socket) -> Iterable[bytes]:
        buffer = b""
        while True:
            try:
                chunk = sock.recv(65_536)
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                yield line + b"\n"


# ----------------------------------------------------------------------
# Client-side scripted faults
# ----------------------------------------------------------------------
class FlakyTransport(Transport):
    """Deterministically scripted client-transport faults for tests.

    ``plan`` is consumed one item per :meth:`roundtrip` call:

    * ``None`` — deliver normally;
    * ``"before"`` — raise :class:`TransportError` *without* delivering
      (the request was lost on the way out);
    * ``"after"`` — deliver the request, then raise as if the *reply*
      was lost — the server applied the op, the client doesn't know.

    A plan that runs out behaves as all-``None``.
    """

    def __init__(self, inner: Transport, plan: Iterable[Optional[str]]) -> None:
        self.inner = inner
        self._plan = iter(plan)
        self.delivered = 0

    def roundtrip(self, line: str, timeout_s: float) -> str:
        action = next(self._plan, None)
        if action == "before":
            raise TransportError("flaky: request lost before delivery")
        reply = self.inner.roundtrip(line, timeout_s)
        self.delivered += 1
        if action == "after":
            raise TransportError("flaky: reply lost after delivery")
        return reply

    def close(self) -> None:
        self.inner.close()
