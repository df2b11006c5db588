"""Overload protection: admission control, connection-queue shedding,
degraded read-only mode and the slow-request watchdog."""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    AlarmService,
    ChaosSpec,
    FaultyLog,
    ServiceConfig,
    ServiceJournal,
    SlowRequestWatchdog,
    SocketServer,
)

ALARM = {"app": "mail", "label": "sync", "nominal": 60_000,
         "interval": 300_000, "grace": 150_000}


def counter(hub, name):
    return sum(
        value
        for key, value in hub.counters.items()
        if key == name or key.startswith(name + "{")
    )


class TestAdmissionControl:
    def test_excess_requests_are_shed_with_overloaded(self):
        service = AlarmService(
            ServiceConfig(clock="manual", max_inflight=1, retry_after_ms=75)
        )
        release = threading.Event()
        worker_reply = {}

        # Thread A takes the single admission slot, then parks on the
        # service lock (held here) — deterministically "in flight".
        service._lock.acquire()
        try:
            def occupied():
                worker_reply.update(
                    service.handle_request({"op": "query", "id": 1})
                )
                release.set()

            worker = threading.Thread(target=occupied, daemon=True)
            worker.start()
            deadline = time.monotonic() + 5.0
            while not service.inflight_snapshot():
                assert time.monotonic() < deadline, "worker never got admitted"
                time.sleep(0.005)

            shed = service.handle_request(
                {"op": "query", "id": 2, "req_id": "shed-probe"}
            )
        finally:
            service._lock.release()
        release.wait(timeout=5.0)

        assert shed["ok"] is False
        assert shed["error"]["code"] == "overloaded"
        assert shed["error"]["retry_after_ms"] == 75
        assert shed["req_id"] == "shed-probe"  # correlation survives the shed
        assert worker_reply["ok"] is True
        assert counter(service.telemetry, "service.shed_requests") == 1

    def test_slot_is_released_after_each_request(self):
        service = AlarmService(ServiceConfig(clock="manual", max_inflight=1))
        for _ in range(20):
            assert service.handle_request({"op": "query"})["ok"]
        assert counter(service.telemetry, "service.shed_requests") == 0


class TestConnectionQueueShedding:
    def test_pipelining_past_the_queue_bound_sheds(self):
        service = AlarmService(ServiceConfig(clock="manual"))
        with SocketServer(
            service, tcp=("127.0.0.1", 0), per_connection_queue=1
        ) as server:
            total = 12
            # Stall the worker on the service lock so the pipeline backs
            # up: queue bound 1 + the request the worker already holds —
            # everything else must be shed, not buffered.
            service._lock.acquire()
            try:
                conn = socket.create_connection(server.address, timeout=10)
                payload = b"".join(
                    json.dumps({"op": "query", "id": i}).encode() + b"\n"
                    for i in range(total)
                )
                conn.sendall(payload)
                deadline = time.monotonic() + 10.0
                while (
                    counter(service.telemetry, "service.shed_requests") == 0
                ):
                    assert time.monotonic() < deadline, "nothing was shed"
                    time.sleep(0.01)
            finally:
                service._lock.release()

            replies = []
            with conn.makefile("r", encoding="utf-8") as reader:
                for _ in range(total):
                    replies.append(json.loads(reader.readline()))
            conn.close()

        assert len(replies) == total
        shed = [r for r in replies if not r["ok"]]
        served = [r for r in replies if r["ok"]]
        assert shed and served
        for reply in shed:
            assert reply["error"]["code"] == "overloaded"
            assert reply["error"]["retry_after_ms"] > 0
        # Every pipelined request got exactly one reply, correlated by id.
        assert sorted(r["id"] for r in replies) == list(range(total))

    def test_queue_bound_must_be_positive(self):
        service = AlarmService(ServiceConfig(clock="manual"))
        with pytest.raises(ValueError):
            SocketServer(
                service, tcp=("127.0.0.1", 0), per_connection_queue=0
            )


class TestDegradedMode:
    def _service(self, tmp_path):
        return AlarmService(
            ServiceConfig(clock="manual", checkpoint_dir=str(tmp_path)),
            journal_factory=lambda path: ServiceJournal(
                path, FaultyLog(path, ChaosSpec())
            ),
        )

    def test_journal_failure_degrades_to_read_only(self, tmp_path):
        service = self._service(tmp_path)
        assert service.handle_request(
            {"op": "register", "alarm": dict(ALARM)}
        )["ok"]
        service.journal.log.force_fsync_failures = True

        rejected = service.handle_request(
            {"op": "register", "alarm": dict(ALARM, label="late")}
        )
        assert rejected["ok"] is False
        assert rejected["error"]["code"] == "read-only"
        assert service.degraded

        # Reads still work and advertise the degradation.
        query = service.handle_request({"op": "query"})
        assert query["ok"]
        assert query["result"]["degraded"] is True
        assert "fsync" in query["result"]["degraded_reason"]
        assert query["result"]["registered"] == 1  # the rejected one is not in

        # Time still moves: advance is served, the watermark is skipped.
        advanced = service.handle_request({"op": "advance", "to": 120_000})
        assert advanced["ok"]
        assert service.simulator.now >= 60_000

    def test_rejected_mutation_never_reaches_the_engine(self, tmp_path):
        service = self._service(tmp_path)
        service.journal.log.force_fsync_failures = True
        rejected = service.handle_request(
            {"op": "register", "alarm": dict(ALARM)}
        )
        assert rejected["error"]["code"] == "read-only"
        assert service.handle_request({"op": "query"})["result"]["registered"] == 0
        assert service.journal.mutations() == []

    def test_degraded_mode_is_sticky(self, tmp_path):
        service = self._service(tmp_path)
        service.journal.log.force_fsync_failures = True
        service.handle_request({"op": "register", "alarm": dict(ALARM)})
        service.journal.log.force_fsync_failures = False  # disk "recovers"
        # Still read-only: an unjournaled window cannot be ruled out, so
        # the operator must restart into a verified-writable journal.
        rejected = service.handle_request(
            {"op": "register", "alarm": dict(ALARM, label="again")}
        )
        assert rejected["error"]["code"] == "read-only"
        gauge = service.telemetry.gauges["service.degraded_mode"]
        assert gauge.last == 1


class TestSlowRequestWatchdog:
    def test_flags_a_stuck_request_exactly_once(self):
        service = AlarmService(ServiceConfig(clock="manual"))
        flagged = []
        watchdog = SlowRequestWatchdog(
            service,
            threshold_s=0.5,
            on_flag=lambda token, op, age: flagged.append((token, op, age)),
        )
        token = service._track_inflight("register", time.monotonic() - 3.0)
        assert watchdog.scan_once() == 1
        assert watchdog.scan_once() == 0  # already flagged
        assert flagged[0][1] == "register"
        assert flagged[0][2] >= 0.5
        assert (
            counter(service.telemetry, "service.slow_requests") == 1
        )
        service._untrack_inflight(token, "register", time.monotonic())
        assert watchdog.scan_once() == 0

    def test_fast_requests_are_not_flagged(self):
        service = AlarmService(ServiceConfig(clock="manual"))
        watchdog = SlowRequestWatchdog(service, threshold_s=30.0)
        token = service._track_inflight("query", time.monotonic())
        assert watchdog.scan_once() == 0
        service._untrack_inflight(token, "query", time.monotonic())

    def test_completed_slow_requests_count_separately(self):
        service = AlarmService(
            ServiceConfig(clock="manual", slow_request_ms=0.0001)
        )
        assert service.handle_request({"op": "query"})["ok"]
        key = 'service.slow_requests{op=query, stage=completed}'
        matches = [
            k for k in service.telemetry.counters
            if k.startswith("service.slow_requests") and "completed" in k
        ]
        assert matches, service.telemetry.counters.keys()

    def test_rejects_bad_parameters(self):
        service = AlarmService(ServiceConfig(clock="manual"))
        with pytest.raises(ValueError):
            SlowRequestWatchdog(service, threshold_s=0)
        with pytest.raises(ValueError):
            SlowRequestWatchdog(service, interval_s=0)
