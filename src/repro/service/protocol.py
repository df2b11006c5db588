"""The alarm-service wire protocol: line-delimited JSON requests.

One request per line, one JSON object per request, one JSON reply per
request — the same shape over stdin/stdout, a TCP socket, or a Unix
socket.  Ops mirror the engine's app-facing surface:

``register``
    Register an alarm.  ``alarm`` carries the registration-time
    attributes (times in simulation milliseconds)::

        {"op": "register", "id": 1,
         "alarm": {"app": "mail", "nominal": 60000, "interval": 300000,
                   "kind": "static", "window": 0, "grace": 150000,
                   "wakeup": true, "hardware": ["wifi"], "task_ms": 120}}

``cancel`` / ``reanchor``
    Remove, or cancel-and-re-register, a previously registered alarm —
    addressed by the service-assigned ``alarm_id`` or by ``label``.
``query``
    Service status snapshot (sim time, queue depth, delivery counts).
``advance``
    Move a *manual* wall clock to ``to`` (rejected for real clocks).
``checkpoint``
    Force a journal watermark; replies with checkpoint latency.
``shutdown``
    Stop serving; ``{"drain": true}`` first runs the engine to the
    horizon and seals the trace.

Replies are ``{"id": <echo>, "ok": true, "result": {...}}`` or
``{"id": <echo>, "ok": false, "error": {"code": ..., "message": ...}}``.

Validation happens *here*, at the service boundary: negative, NaN,
non-integer or past-horizon times and malformed window/grace/interval
combinations are rejected with a structured error reply instead of
raising inside the engine (the same guards ``add_alarm``/``cancel_alarm``
apply, surfaced as data instead of tracebacks).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

from ..core.alarm import RepeatKind
from ..core.hardware import Component

#: Ops that mutate engine state: journaled (as the journal's
#: ``MUTATION_KINDS``, the same tuple), applied and deduped via ``req_id``.
MUTATION_OPS = ("register", "cancel", "reanchor")

#: Every op the service understands.
OPS = MUTATION_OPS + ("query", "advance", "checkpoint", "shutdown")

#: Error codes a rejection reply may carry.
ERROR_CODES = (
    "parse-error",   # the line is not a JSON object
    "unknown-op",    # op missing or not in OPS
    "bad-request",   # structurally invalid field
    "bad-time",      # negative / NaN / non-integer / backwards time
    "past-horizon",  # time at or beyond the service horizon
    "bad-interval",  # malformed window/grace/repeat combination
    "unknown-alarm", # cancel/reanchor target not registered
    "clock-mode",    # advance on a non-manual wall clock
    "shutting-down", # request after shutdown was accepted
    "engine-error",  # the engine rejected an op the gate let through
    "overloaded",    # load shed: queue full; error carries retry_after_ms
    "read-only",     # journal unwritable: mutations disabled, reads served
)

#: Ops safe to blindly retry: re-running an applied one changes nothing.
#: (``advance`` is idempotent because re-advancing to a reached wall
#: position is a no-op, not an error.)
IDEMPOTENT_OPS = ("query", "advance", "checkpoint")

#: Longest accepted client-generated request id.
MAX_REQ_ID_LENGTH = 128

_KIND_NAMES = {kind.value: kind for kind in RepeatKind}
_COMPONENT_NAMES = {component.value for component in Component}


class ProtocolError(Exception):
    """A rejected request: carries the structured error code + message.

    ``details`` rides along into the error object of the reply — the
    ``overloaded`` code uses it to carry a ``retry_after_ms`` hint.
    """

    def __init__(self, code: str, message: str, **details: Any) -> None:
        assert code in ERROR_CODES, code
        self.code = code
        self.message = message
        self.details = details
        super().__init__(f"[{code}] {message}")


def ok_reply(request_id: Any, **result: Any) -> Dict:
    return {"id": request_id, "ok": True, "result": result}


def error_reply(request_id: Any, code: str, message: str, **details: Any) -> Dict:
    error = {"code": code, "message": message}
    error.update(details)
    return {"id": request_id, "ok": False, "error": error}


def echo_req_id(reply: Dict, payload: Dict) -> Dict:
    """Copy a client-supplied ``req_id`` into the reply (errors included).

    Pipelined or shed replies can arrive out of stream order, so the
    echo is what lets a client correlate them.  Only plausible ids are
    echoed — a non-string ``req_id`` is already being rejected as
    ``bad-request`` and echoing garbage would just widen the blast.
    """
    req_id = payload.get("req_id")
    if isinstance(req_id, str) and req_id:
        reply["req_id"] = req_id
    return reply


def validated_req_id(payload: Dict) -> Optional[str]:
    """The optional client-generated request id: a short non-empty string."""
    req_id = payload.get("req_id")
    if req_id is None:
        return None
    if not isinstance(req_id, str) or not req_id:
        raise ProtocolError(
            "bad-request",
            f"req_id must be a non-empty string, got {type(req_id).__name__}",
        )
    if len(req_id) > MAX_REQ_ID_LENGTH:
        raise ProtocolError(
            "bad-request",
            f"req_id is longer than {MAX_REQ_ID_LENGTH} characters",
        )
    return req_id


def format_reply(reply: Dict) -> str:
    """One reply as one line (the transport appends the newline)."""
    return json.dumps(reply, sort_keys=True)


def parse_line(line: str) -> Dict:
    """Decode one request line into a payload dict, or raise."""
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ProtocolError("parse-error", f"not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "parse-error",
            f"a request must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def validated_op(payload: Dict) -> str:
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("unknown-op", "request has no 'op' string")
    if op not in OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r}; choose from {list(OPS)}"
        )
    return op


# ----------------------------------------------------------------------
# Field validators
# ----------------------------------------------------------------------
def _int_ms(value: Any, name: str) -> int:
    """A time/duration field: a finite non-negative integer of ms.

    Booleans, NaN/inf floats, fractional floats and strings are all
    rejected — these are exactly the inputs that would otherwise surface
    as arbitrary ``ValueError``/``TypeError`` deep inside the engine.
    """
    if isinstance(value, bool):
        raise ProtocolError("bad-time", f"{name} must be a number, got a bool")
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ProtocolError("bad-time", f"{name} must be finite, got {value!r}")
        if value != int(value):
            raise ProtocolError(
                "bad-time", f"{name} must be whole milliseconds, got {value!r}"
            )
        value = int(value)
    if not isinstance(value, int):
        raise ProtocolError(
            "bad-time", f"{name} must be an integer, got {type(value).__name__}"
        )
    if value < 0:
        raise ProtocolError("bad-time", f"{name} must be non-negative, got {value}")
    return value


def validated_time(
    payload: Dict,
    key: str,
    *,
    horizon: Optional[int] = None,
    default: Optional[int] = None,
    required: bool = False,
) -> Optional[int]:
    """Validate an optional/required sim-time field against the horizon."""
    if key not in payload or payload[key] is None:
        if required:
            raise ProtocolError("bad-request", f"missing required field {key!r}")
        return default
    value = _int_ms(payload[key], key)
    if horizon is not None and value >= horizon:
        raise ProtocolError(
            "past-horizon",
            f"{key}={value} is at or beyond the service horizon ({horizon})",
        )
    return value


def _bool_field(obj: Dict, key: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(
            "bad-request", f"{key} must be a boolean, got {type(value).__name__}"
        )
    return value


def validated_alarm_spec(payload: Dict, horizon: int) -> Dict:
    """Validate a ``register`` request's ``alarm`` object.

    Returns the normalized registration-time attributes in the
    :func:`repro.simulator.serialize.alarm_from_dict` shape, minus
    ``alarm_id`` (the service assigns ids).
    """
    alarm = payload.get("alarm")
    if not isinstance(alarm, dict):
        raise ProtocolError("bad-request", "register requires an 'alarm' object")
    app = alarm.get("app")
    if not isinstance(app, str) or not app:
        raise ProtocolError("bad-request", "alarm.app must be a non-empty string")
    label = alarm.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError("bad-request", "alarm.label must be a string")

    nominal = _int_ms(
        alarm.get("nominal", alarm.get("nominal_time")), "alarm.nominal"
    ) if ("nominal" in alarm or "nominal_time" in alarm) else None
    if nominal is None:
        raise ProtocolError("bad-request", "alarm.nominal is required")
    if nominal >= horizon:
        raise ProtocolError(
            "past-horizon",
            f"alarm.nominal={nominal} is at or beyond the service horizon "
            f"({horizon}); it would silently never fire",
        )

    interval = _int_ms(alarm.get("interval", 0), "alarm.interval")
    kind_name = alarm.get("kind", "static" if interval else "one_shot")
    if kind_name not in _KIND_NAMES:
        raise ProtocolError(
            "bad-request",
            f"alarm.kind must be one of {sorted(_KIND_NAMES)}, got {kind_name!r}",
        )
    if kind_name == "one_shot" and interval:
        raise ProtocolError(
            "bad-interval", "a one_shot alarm must not carry a repeat interval"
        )
    if kind_name != "one_shot" and interval == 0:
        raise ProtocolError(
            "bad-interval",
            f"a {kind_name} alarm needs a positive repeat interval",
        )

    window = _int_ms(alarm.get("window", 0), "alarm.window")
    grace = _int_ms(alarm.get("grace", window), "alarm.grace")
    if grace < window:
        raise ProtocolError(
            "bad-interval",
            f"grace interval ({grace}) cannot undercut the window ({window})",
        )
    if interval and grace >= interval:
        raise ProtocolError(
            "bad-interval",
            f"grace interval ({grace}) must be strictly smaller than the "
            f"repeat interval ({interval}); beta < 1 guarantees one delivery "
            "per period",
        )

    hardware = alarm.get("hardware", [])
    if not isinstance(hardware, list) or not all(
        isinstance(name, str) for name in hardware
    ):
        raise ProtocolError(
            "bad-request", "alarm.hardware must be a list of component names"
        )
    unknown = sorted(set(hardware) - _COMPONENT_NAMES)
    if unknown:
        raise ProtocolError(
            "bad-request",
            f"unknown hardware component(s) {unknown}; choose from "
            f"{sorted(_COMPONENT_NAMES)}",
        )

    task_ms = _int_ms(alarm.get("task_ms", 0), "alarm.task_ms")
    hold_ms = alarm.get("hold_ms")
    if hold_ms is not None:
        hold_ms = _int_ms(hold_ms, "alarm.hold_ms")
        if hold_ms < task_ms:
            raise ProtocolError(
                "bad-interval",
                f"hold_ms ({hold_ms}) cannot undercut task_ms ({task_ms})",
            )

    return {
        "app": app,
        "label": label,
        "nominal_time": nominal,
        "repeat_interval": interval,
        "repeat_kind": kind_name,
        "window_length": window,
        "grace_length": grace,
        "wakeup": _bool_field(alarm, "wakeup", True),
        "hardware": list(hardware),
        "hardware_known": _bool_field(alarm, "hardware_known", False),
        "task_duration": task_ms,
        "hold_duration": hold_ms,
    }


def validated_target(payload: Dict) -> Dict:
    """The cancel/reanchor target: ``alarm_id`` or ``label`` (exactly one)."""
    alarm_id = payload.get("alarm_id")
    label = payload.get("label")
    if alarm_id is None and label is None:
        raise ProtocolError(
            "bad-request", "cancel/reanchor needs an 'alarm_id' or a 'label'"
        )
    if alarm_id is not None:
        if isinstance(alarm_id, bool) or not isinstance(alarm_id, int):
            raise ProtocolError(
                "bad-request",
                f"alarm_id must be an integer, got {type(alarm_id).__name__}",
            )
        return {"alarm_id": alarm_id}
    if not isinstance(label, str) or not label:
        raise ProtocolError("bad-request", "label must be a non-empty string")
    return {"label": label}
