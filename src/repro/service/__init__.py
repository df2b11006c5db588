"""Live alarm-service mode: a daemon on top of the stepping core.

The batch pipeline answers "what would this policy have done" after the
fact; this package runs the same engine *online*.  ``simty serve`` boots
an :class:`AlarmService` — a started :class:`~repro.simulator.engine.
Simulator` plus a wall clock, a crash/resume journal and a telemetry
hub — and exposes it through line-delimited JSON over stdio, TCP or a
Unix socket, with Prometheus metrics scrapeable over HTTP through
:class:`repro.obs.stream.MetricsEndpoint`.

Hardening layers (see ``docs/robustness.md``):

* :class:`ServiceClient` — a resilient client with per-request
  deadlines, bounded jittered retries, ``req_id`` mutation dedupe and a
  circuit breaker;
* overload protection — daemon-wide admission control plus bounded
  per-connection queues, both shedding with structured ``overloaded``
  errors, and a :class:`SlowRequestWatchdog`;
* graceful degradation — a daemon whose journal turns unwritable keeps
  serving reads and rejects mutations with ``read-only``;
* :mod:`repro.service.chaos` — seeded fault injection (transport and
  journal log) for torture-testing all of the above.

See ``docs/service.md`` for the protocol, clock modes and the
checkpoint/resume contract.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".chaos": (
            "ChaosSpec",
            "FaultyLog",
            "FaultyTransport",
            "FlakyTransport",
            "SkewedWallClock",
        ),
        ".client": (
            "BREAKER_CLOSED",
            "BREAKER_HALF_OPEN",
            "BREAKER_OPEN",
            "CircuitBreaker",
            "CircuitOpenError",
            "ClientError",
            "DeadlineExceeded",
            "LocalTransport",
            "PipeTransport",
            "ServerError",
            "ServiceClient",
            "TcpTransport",
            "Transport",
            "TransportError",
            "UnixTransport",
        ),
        ".daemon": ("AlarmService", "ServiceConfig"),
        ".journal": (
            "MUTATION_KINDS",
            "SERVICE_JOURNAL_NAME",
            "ServiceJournal",
        ),
        ".protocol": (
            "ERROR_CODES",
            "IDEMPOTENT_OPS",
            "MUTATION_OPS",
            "OPS",
            "ProtocolError",
            "echo_req_id",
            "error_reply",
            "format_reply",
            "ok_reply",
            "parse_line",
            "validated_alarm_spec",
            "validated_op",
            "validated_req_id",
            "validated_target",
            "validated_time",
        ),
        ".transport": (
            "DEFAULT_PER_CONNECTION_QUEUE",
            "SlowRequestWatchdog",
            "SocketServer",
            "Ticker",
            "request_once",
            "serve_stdio",
        ),
    },
)
