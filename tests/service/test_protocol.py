"""Service-boundary validation: malformed requests die at the gate.

Every rejection must be a *structured error reply* — correct code, the
request id echoed back, no exception escaping, and no engine state
mutated — because a live daemon's caller can't catch tracebacks.
"""

import json
import math

import pytest

from repro.service import (
    ERROR_CODES,
    MUTATION_KINDS,
    MUTATION_OPS,
    AlarmService,
    ProtocolError,
    ServiceConfig,
    echo_req_id,
    parse_line,
    validated_alarm_spec,
    validated_req_id,
)
from repro.service.protocol import MAX_REQ_ID_LENGTH

HORIZON = 3_600_000


@pytest.fixture()
def service():
    return AlarmService(ServiceConfig(horizon=HORIZON, clock="manual"))


def send(service, **payload):
    return service.handle_request(payload)


def spec(**overrides):
    alarm = {"app": "mail", "nominal": 60_000, "interval": 300_000,
             "grace": 150_000}
    alarm.update(overrides)
    return alarm


class TestLineParsing:
    def test_not_json(self, service):
        reply = service.handle_line("{nope")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "parse-error"

    def test_not_an_object(self, service):
        reply = service.handle_line("[1, 2, 3]")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "parse-error"

    def test_missing_op(self, service):
        reply = service.handle_line(json.dumps({"id": 9}))
        assert reply["error"]["code"] == "unknown-op"
        assert reply["id"] == 9

    def test_unknown_op(self, service):
        reply = send(service, op="launch", id=1)
        assert reply["error"]["code"] == "unknown-op"


class TestTimeValidation:
    @pytest.mark.parametrize(
        "bad", [-1, -60_000, float("nan"), float("inf"), float("-inf"),
                1.5, "soon", True, None]
    )
    def test_bad_nominal_is_rejected(self, service, bad):
        reply = send(service, op="register", id=1, alarm=spec(nominal=bad))
        assert reply["ok"] is False
        assert reply["error"]["code"] in ("bad-time", "bad-request")

    def test_whole_float_nominal_is_accepted(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(nominal=60_000.0))
        assert reply["ok"] is True

    def test_past_horizon_nominal(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(nominal=HORIZON))
        assert reply["error"]["code"] == "past-horizon"

    def test_past_horizon_at(self, service):
        reply = send(service, op="register", id=1, alarm=spec(),
                     at=HORIZON + 1)
        assert reply["error"]["code"] == "past-horizon"

    def test_at_behind_the_engine(self, service):
        assert send(service, op="advance", to=600_000)["ok"]
        reply = send(service, op="register", id=1, alarm=spec(nominal=900_000),
                     at=500_000)
        assert reply["error"]["code"] == "bad-time"

    def test_nan_advance_target(self, service):
        reply = send(service, op="advance", to=float("nan"))
        assert reply["error"]["code"] == "bad-time"

    def test_backwards_advance(self, service):
        assert send(service, op="advance", to=600_000)["ok"]
        reply = send(service, op="advance", to=300_000)
        assert reply["error"]["code"] == "bad-time"


class TestIntervalValidation:
    def test_one_shot_with_interval(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(kind="one_shot"))
        assert reply["error"]["code"] == "bad-interval"

    def test_repeating_without_interval(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(kind="static", interval=0, grace=0))
        assert reply["error"]["code"] == "bad-interval"

    def test_grace_below_window(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(window=200_000, grace=100_000))
        assert reply["error"]["code"] == "bad-interval"

    def test_grace_at_interval(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(grace=300_000))
        assert reply["error"]["code"] == "bad-interval"

    def test_hold_below_task(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(task_ms=500, hold_ms=100))
        assert reply["error"]["code"] == "bad-interval"

    def test_unknown_kind(self, service):
        reply = send(service, op="register", id=1, alarm=spec(kind="cron"))
        assert reply["error"]["code"] == "bad-request"


class TestStructuralValidation:
    def test_register_without_alarm(self, service):
        reply = send(service, op="register", id=1)
        assert reply["error"]["code"] == "bad-request"

    def test_empty_app(self, service):
        reply = send(service, op="register", id=1, alarm=spec(app=""))
        assert reply["error"]["code"] == "bad-request"

    def test_unknown_hardware(self, service):
        reply = send(service, op="register", id=1,
                     alarm=spec(hardware=["wifi", "flux-capacitor"]))
        assert reply["error"]["code"] == "bad-request"
        assert "flux-capacitor" in reply["error"]["message"]

    def test_non_boolean_wakeup(self, service):
        reply = send(service, op="register", id=1, alarm=spec(wakeup=1))
        assert reply["error"]["code"] == "bad-request"

    def test_cancel_without_target(self, service):
        reply = send(service, op="cancel", id=1)
        assert reply["error"]["code"] == "bad-request"

    def test_cancel_unknown_alarm(self, service):
        reply = send(service, op="cancel", id=1, alarm_id=42)
        assert reply["error"]["code"] == "unknown-alarm"

    def test_cancel_unknown_label(self, service):
        reply = send(service, op="cancel", id=1, label="ghost")
        assert reply["error"]["code"] == "unknown-alarm"

    def test_advance_on_real_clock(self):
        service = AlarmService(
            ServiceConfig(horizon=HORIZON, clock="accelerated", speed=1e6)
        )
        reply = send(service, op="advance", to=600_000)
        assert reply["error"]["code"] == "clock-mode"


class TestRejectionSemantics:
    def test_rejection_mutates_nothing(self, service):
        before = send(service, op="query")["result"]
        send(service, op="register", id=1, alarm=spec(nominal=-5))
        send(service, op="register", id=2, alarm=spec(grace=300_000))
        send(service, op="cancel", id=3, alarm_id=7)
        after = send(service, op="query")["result"]
        assert before == after
        assert after["registered"] == 0

    def test_rejections_are_counted(self, service):
        send(service, op="register", id=1, alarm=spec(nominal=-5))
        text = service.render_metrics()
        assert "service_requests" in text
        assert 'outcome="rejected"' in text
        assert 'code="bad-time"' in text

    def test_every_error_code_is_declared(self, service):
        # The codes the protocol promises are exactly the ones it raises.
        with pytest.raises(AssertionError):
            ProtocolError("not-a-code", "boom")
        for code in ERROR_CODES:
            ProtocolError(code, "fine")

    def test_reply_echoes_arbitrary_id(self, service):
        reply = send(service, op="query", id="req-0042")
        assert reply["id"] == "req-0042"
        assert reply["ok"] is True


class TestReqIdEcho:
    def test_req_id_is_echoed_on_success(self, service):
        reply = send(service, op="register", id=1, alarm=spec(),
                     req_id="c1-77")
        assert reply["ok"] is True
        assert reply["req_id"] == "c1-77"

    def test_req_id_is_echoed_on_errors(self, service):
        reply = send(service, op="cancel", id=1, alarm_id=99, req_id="c1-78")
        assert reply["ok"] is False
        assert reply["req_id"] == "c1-78"

    def test_req_id_is_echoed_on_unparseable_op(self, service):
        reply = send(service, op="launch", req_id="c1-79")
        assert reply["error"]["code"] == "unknown-op"
        assert reply["req_id"] == "c1-79"

    def test_absent_req_id_is_not_invented(self, service):
        reply = send(service, op="query", id=5)
        assert "req_id" not in reply

    @pytest.mark.parametrize("bad", [7, True, "", ["x"], {}])
    def test_malformed_req_id_is_rejected(self, service, bad):
        reply = send(service, op="register", id=1, alarm=spec(), req_id=bad)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_oversized_req_id_is_rejected(self, service):
        reply = send(service, op="register", id=1, alarm=spec(),
                     req_id="x" * (MAX_REQ_ID_LENGTH + 1))
        assert reply["error"]["code"] == "bad-request"

    def test_validated_req_id_helpers(self):
        assert validated_req_id({"req_id": "abc"}) == "abc"
        assert validated_req_id({}) is None
        with pytest.raises(ProtocolError):
            validated_req_id({"req_id": ""})
        echoed = echo_req_id({"ok": True}, {"req_id": "abc"})
        assert echoed["req_id"] == "abc"
        assert "req_id" not in echo_req_id({"ok": True}, {})


def test_journal_kinds_are_the_protocol_mutation_ops():
    assert MUTATION_KINDS is MUTATION_OPS


class TestMutationDedupe:
    def test_replayed_mutation_returns_the_original_reply(self, service):
        first = send(service, op="register", id=1, alarm=spec(),
                     req_id="dup-1")
        assert first["ok"], first
        replay = send(service, op="register", id=2, alarm=spec(),
                      req_id="dup-1")
        assert replay["ok"] is True
        assert replay["result"]["duplicate"] is True
        assert replay["result"]["alarm_id"] == first["result"]["alarm_id"]
        assert send(service, op="query")["result"]["registered"] == 1

    def test_distinct_req_ids_apply_separately(self, service):
        send(service, op="register", id=1, alarm=spec(), req_id="a-1")
        send(service, op="register", id=2, alarm=spec(), req_id="a-2")
        assert send(service, op="query")["result"]["registered"] == 2

    def test_idempotent_ops_are_not_deduped(self, service):
        one = send(service, op="query", req_id="q-1")
        two = send(service, op="query", req_id="q-1")
        assert one["ok"] and two["ok"]
        assert "duplicate" not in two["result"]

    def test_dedupe_window_is_bounded(self):
        service = AlarmService(
            ServiceConfig(horizon=HORIZON, clock="manual", dedupe_window=2)
        )
        for n in range(3):
            reply = send(service, op="register", id=n,
                         alarm=spec(), req_id=f"w-{n}")
            assert reply["ok"], reply
        # "w-0" was evicted: replaying it now applies a fresh mutation.
        replay = send(service, op="register", id=9, alarm=spec(),
                      req_id="w-0")
        assert replay["ok"] is True
        assert "duplicate" not in replay["result"]
        assert send(service, op="query")["result"]["registered"] == 4

    def test_dedupe_survives_a_crash(self, tmp_path):
        config = ServiceConfig(
            horizon=HORIZON, clock="manual", checkpoint_dir=str(tmp_path)
        )
        victim = AlarmService(config)
        first = send(victim, op="register", id=1, alarm=spec(),
                     req_id="crash-1")
        assert first["ok"]
        del victim  # the reply never reached the client

        survivor = AlarmService.resume(config)
        replay = send(survivor, op="register", id=2, alarm=spec(),
                      req_id="crash-1")
        assert replay["result"]["duplicate"] is True
        assert replay["result"]["alarm_id"] == first["result"]["alarm_id"]
        assert send(survivor, op="query")["result"]["registered"] == 1
