"""AlarmService lifecycle: ops, clocks, transports, metrics, telemetry."""

import io
import json
import threading
import urllib.request

import pytest

from repro.obs.stream import MetricsEndpoint
from repro.service import (
    AlarmService,
    ChaosSpec,
    FaultyLog,
    ServiceConfig,
    ServiceJournal,
    SocketServer,
    Ticker,
    request_once,
    serve_stdio,
)

HORIZON = 3_600_000


def spec(**overrides):
    alarm = {"app": "mail", "nominal": 60_000, "interval": 300_000,
             "grace": 150_000}
    alarm.update(overrides)
    return alarm


def manual_service(**overrides) -> AlarmService:
    config = dict(horizon=HORIZON, clock="manual")
    config.update(overrides)
    return AlarmService(ServiceConfig(**config))


def send(service, **payload):
    return service.handle_request(payload)


class TestOps:
    def test_register_assigns_sequential_ids(self):
        service = manual_service()
        first = send(service, op="register", alarm=spec())
        second = send(service, op="register", alarm=spec(app="chat"))
        assert first["result"]["alarm_id"] == 1
        assert second["result"]["alarm_id"] == 2

    def test_deliveries_happen_as_time_advances(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        assert send(service, op="query")["result"]["deliveries"] == 0
        send(service, op="advance", to=1_000_000)
        assert send(service, op="query")["result"]["deliveries"] > 0

    def test_cancel_by_label_stops_deliveries(self):
        service = manual_service()
        send(service, op="register", alarm=spec(label="sync"))
        send(service, op="advance", to=500_000)
        count = send(service, op="query")["result"]["deliveries"]
        assert send(service, op="cancel", label="sync")["ok"]
        send(service, op="advance", to=2_000_000)
        assert send(service, op="query")["result"]["deliveries"] == count

    def test_reanchor_moves_the_schedule(self):
        service = manual_service()
        send(service, op="register", alarm=spec(label="sync"))
        send(service, op="advance", to=400_000)
        reply = send(service, op="reanchor", label="sync",
                     nominal_offset=120_000)
        assert reply["ok"], reply
        nxt = send(service, op="query")["result"]["next_event_ms"]
        assert nxt is not None and nxt >= 400_000

    def test_shutdown_without_drain_leaves_no_trace(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        reply = send(service, op="shutdown")
        assert reply["result"]["drained"] is False
        assert service.trace is None
        assert service.closed

    def test_shutdown_with_drain_seals_the_trace(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        reply = send(service, op="shutdown", drain=True)
        assert reply["result"]["drained"] is True
        assert service.trace is not None
        assert service.trace.delivery_count() > 0

    def test_requests_after_shutdown_are_rejected(self):
        service = manual_service()
        send(service, op="shutdown")
        reply = send(service, op="query")
        assert reply["error"]["code"] == "shutting-down"

    def test_mid_run_registration_at_current_time(self):
        service = manual_service()
        send(service, op="advance", to=600_000)
        reply = send(service, op="register",
                     alarm=spec(nominal=700_000))
        assert reply["ok"], reply
        assert reply["result"]["at"] == 600_000
        send(service, op="advance", to=1_500_000)
        assert send(service, op="query")["result"]["deliveries"] > 0


class TestClocks:
    def test_manual_clock_only_moves_on_advance(self):
        service = manual_service()
        assert service.tick() == 0
        assert send(service, op="query")["result"]["sim_time_ms"] == 0

    def test_accelerated_clock_moves_on_tick(self):
        service = AlarmService(
            ServiceConfig(horizon=HORIZON, clock="accelerated", speed=1e7)
        )
        send(service, op="register", alarm=spec())
        deadline = threading.Event()
        for _ in range(200):
            service.tick()
            if send(service, op="query")["result"]["sim_time_ms"] > 0:
                break
            deadline.wait(0.005)
        assert send(service, op="query")["result"]["sim_time_ms"] > 0

    def test_ticker_drives_an_accelerated_service(self):
        service = AlarmService(
            ServiceConfig(horizon=HORIZON, clock="accelerated", speed=1e7)
        )
        send(service, op="register", alarm=spec())
        with Ticker(service, interval_s=0.01):
            done = threading.Event()
            for _ in range(300):
                if send(service, op="query")["result"]["deliveries"] > 0:
                    break
                done.wait(0.01)
        assert send(service, op="query")["result"]["deliveries"] > 0


class TestStdioTransport:
    def test_request_reply_lockstep(self):
        service = manual_service()
        lines = [
            json.dumps({"id": 1, "op": "register", "alarm": spec()}),
            json.dumps({"id": 2, "op": "advance", "to": 1_000_000}),
            "",  # blank lines are skipped, not answered
            json.dumps({"id": 3, "op": "query"}),
            json.dumps({"id": 4, "op": "shutdown", "drain": True}),
            json.dumps({"id": 5, "op": "query"}),  # after shutdown: unread
        ]
        stdout = io.StringIO()
        handled = serve_stdio(service, iter(line + "\n" for line in lines), stdout)
        replies = [json.loads(row) for row in stdout.getvalue().splitlines()]
        assert handled == 4  # shutdown stops the loop; id 5 never served
        assert [reply["id"] for reply in replies] == [1, 2, 3, 4]
        assert all(reply["ok"] for reply in replies)
        assert replies[2]["result"]["deliveries"] > 0


class TestSocketTransport:
    def test_tcp_round_trip(self):
        service = manual_service()
        with SocketServer(service, tcp=("127.0.0.1", 0)) as server:
            address = server.address
            reply = json.loads(request_once(
                address,
                json.dumps({"id": 1, "op": "register", "alarm": spec()}),
            ))
            assert reply["ok"], reply
            reply = json.loads(request_once(
                address, json.dumps({"id": 2, "op": "advance", "to": 900_000})
            ))
            assert reply["ok"], reply
            reply = json.loads(request_once(
                address, json.dumps({"id": 3, "op": "query"})
            ))
            assert reply["result"]["deliveries"] > 0
            request_once(address, json.dumps({"id": 4, "op": "shutdown"}))
            assert server.wait(timeout=5.0)

    def test_unix_socket_round_trip(self, tmp_path):
        import socket

        service = manual_service()
        path = str(tmp_path / "simty.sock")
        with SocketServer(service, unix_path=path):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.connect(path)
                conn.sendall(
                    (json.dumps({"id": 1, "op": "query"}) + "\n").encode()
                )
                with conn.makefile("r") as reader:
                    reply = json.loads(reader.readline())
        assert reply["ok"] and reply["result"]["sim_time_ms"] == 0


class TestMetricsEndpoint:
    def test_scrape_exposes_service_series(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        send(service, op="advance", to=1_000_000)
        send(service, op="register", alarm=spec(nominal=-1))  # rejected
        with MetricsEndpoint(service.render_metrics) as metrics:
            host, port = metrics.host, metrics.port
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                text = response.read().decode()
        assert 'service_requests{code="bad-time"' in text or (
            'outcome="rejected"' in text
        )
        assert "service_queue_depth" in text
        assert "engine_events" in text

    def test_unknown_path_is_404(self):
        service = manual_service()
        with MetricsEndpoint(service.render_metrics) as metrics:
            host, port = metrics.host, metrics.port
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10
                )
            assert err.value.code == 404


class TestServiceTelemetry:
    def test_request_counters_split_by_outcome(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        send(service, op="register", alarm=spec(nominal=-1))
        send(service, op="cancel", alarm_id=99)
        text = service.render_metrics()
        assert 'op="register",outcome="accepted"' in text.replace(" ", "")
        assert 'outcome="rejected"' in text

    def test_checkpoint_latency_histogram(self, tmp_path):
        service = manual_service(checkpoint_dir=str(tmp_path))
        send(service, op="register", alarm=spec())
        send(service, op="checkpoint")
        text = service.render_metrics()
        assert "service_checkpoint_latency_ms" in text

    @pytest.mark.parametrize("case", ["no-journal", "degraded"])
    def test_checkpoint_latency_observed_only_for_written_watermarks(
        self, tmp_path, case
    ):
        def observations():
            cell = service.telemetry.histograms.get(
                "service.checkpoint_latency_ms"
            )
            return cell.count if cell is not None else 0

        if case == "no-journal":
            service = manual_service(checkpoint_every_ms=1_000)
            written = 0
        else:
            service = AlarmService(
                ServiceConfig(
                    horizon=HORIZON,
                    clock="manual",
                    checkpoint_dir=str(tmp_path),
                    checkpoint_every_ms=1_000,
                ),
                journal_factory=lambda path: ServiceJournal(
                    path, FaultyLog(path, ChaosSpec())
                ),
            )
            send(service, op="register", alarm=spec())
            service.journal.log.force_fsync_failures = True
            send(service, op="checkpoint")  # attempted: raises, degrades
            assert service.degraded
            written = 1
        assert observations() == written
        send(service, op="advance", to=600_000)  # ticks past the cadence
        reply = send(service, op="checkpoint")
        assert reply["ok"]
        assert observations() == written
        assert reply["result"]["latency_ms"] == 0.0
        assert set(reply["result"]) == {
            "sim_time_ms", "latency_ms", "journal_entries", "journal_path",
        }
        assert send(service, op="shutdown")["ok"]
        assert observations() == written

    def test_queue_depth_gauge_tracks_registrations(self):
        service = manual_service()
        send(service, op="register", alarm=spec())
        send(service, op="register", alarm=spec(app="chat"))
        # Accepted but not yet dispatched: backlog, not queue depth.
        assert "service_pending_ops 2" in service.render_metrics()
        send(service, op="advance", to=1_000)
        assert "service_queue_depth 2" in service.render_metrics()
        assert "service_pending_ops 0" in service.render_metrics()


class TestWatermarks:
    """Each advance journals one watermark, at the simulation time it
    reached (past ``to`` when a delivery's wake latency moved the clock)."""

    @staticmethod
    def watermarks(tmp_path):
        # Read back from disk: what a resume would replay.
        journal = ServiceJournal.at(tmp_path)
        return [
            entry["t"] for entry in journal.entries
            if entry["kind"] == "watermark"
        ]

    def test_one_watermark_per_advance(self, tmp_path):
        # Every stride crosses the 60 s cadence, so tick() journals one too.
        service = manual_service(checkpoint_dir=str(tmp_path))
        send(service, op="register", alarm=spec())
        reached = []
        for step in range(1, 11):
            reply = send(service, op="advance", to=120_000 * step)
            assert reply["ok"]
            reached.append(reply["result"]["sim_time_ms"])
        assert len(set(reached)) == 10
        assert self.watermarks(tmp_path) == reached

    def test_advance_shorter_than_the_cadence_still_journals(self, tmp_path):
        service = manual_service(
            checkpoint_dir=str(tmp_path), checkpoint_every_ms=600_000
        )
        send(service, op="register", alarm=spec())
        assert send(service, op="advance", to=30_000)["ok"]
        assert send(service, op="advance", to=45_000)["ok"]
        assert self.watermarks(tmp_path) == [30_000, 45_000]

    def test_explicit_checkpoint_always_writes(self, tmp_path):
        service = manual_service(checkpoint_dir=str(tmp_path))
        send(service, op="register", alarm=spec())
        assert send(service, op="advance", to=120_000)["ok"]
        before = self.watermarks(tmp_path)
        assert before[-1] == 120_000
        assert send(service, op="checkpoint")["ok"]
        assert send(service, op="checkpoint")["ok"]
        assert self.watermarks(tmp_path) == before + [120_000, 120_000]
