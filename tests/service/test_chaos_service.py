"""Chaos engineering: the fault injectors, and the daemon under them.

The acceptance bar from the robustness issue:

* ``>=5`` SIGKILL-style crash→resume cycles under injected journal
  faults (duplicated writes, torn tails) recover **byte-identical**
  merged traces with zero invariant-monitor violations;
* a :class:`ServiceClient` completes a churn workload against a daemon
  behind a transport proxy injecting ~10% faults, using bounded retries,
  with no hang and no duplicate mutation applied.
"""

import json
import socket

import pytest

from repro.obs.telemetry import Telemetry
from repro.service import (
    AlarmService,
    ChaosSpec,
    FaultyJournal,
    FaultyTransport,
    ServiceClient,
    ServiceConfig,
    ServiceJournal,
    SkewedWallClock,
    SocketServer,
    TcpTransport,
    parse_chaos_spec,
)
from repro.service.chaos import tear_tail
from repro.simulator import trace_to_dict
from repro.simulator.clock import ManualWallClock

HORIZON = 3_600_000
SPEC = dict(policy="simty", horizon=HORIZON, clock="manual")


def _alarm(i, nominal):
    return {
        "app": f"app{i}", "label": f"alarm-{i}", "nominal": nominal,
        "interval": 300_000, "grace": 120_000 + (i % 3) * 30_000,
    }


# A mixed mutation/advance stream long enough to crash five times into.
TORTURE_REQUESTS = [
    dict(op="register", alarm=_alarm(0, 60_000)),
    dict(op="register", alarm=_alarm(1, 90_000)),
    dict(op="advance", to=200_000),
    dict(op="register", alarm=_alarm(2, 260_000)),
    dict(op="advance", to=400_000),
    dict(op="cancel", label="alarm-1", at=410_000),
    dict(op="register", alarm=_alarm(3, 500_000)),
    dict(op="advance", to=700_000),
    dict(op="reanchor", label="alarm-0", at=710_000, nominal_offset=30_000),
    dict(op="register", alarm=_alarm(4, 800_000)),
    dict(op="advance", to=1_000_000),
    dict(op="register", alarm=_alarm(5, 1_100_000)),
    dict(op="cancel", label="alarm-2", at=1_050_000),
    dict(op="advance", to=1_400_000),
    dict(op="register", alarm=_alarm(6, 1_500_000)),
    dict(op="advance", to=1_900_000),
    dict(op="reanchor", label="alarm-4", at=1_910_000, nominal_offset=50_000),
    dict(op="advance", to=2_400_000),
]


def drive(service, requests):
    for payload in requests:
        reply = service.handle_request(dict(payload))
        assert reply["ok"], reply


def sealed(service):
    reply = service.handle_request({"op": "shutdown", "drain": True})
    assert reply["ok"], reply
    payload = trace_to_dict(service.trace)
    payload.pop("telemetry", None)
    return json.dumps(payload, sort_keys=True)


def counter(hub, name):
    return sum(
        value
        for key, value in hub.counters.items()
        if key == name or key.startswith(name + "{")
    )


class TestChaosSpec:
    def test_parses_the_full_token_set(self):
        spec = parse_chaos_spec(
            "latency=5:0.2,drop=0.05,disconnect=0.02,jlat=3:0.4,"
            "dup=0.1,fsync=0.01,skew=250,seed=7"
        )
        assert spec.latency_ms == 5.0 and spec.latency_p == 0.2
        assert spec.drop_p == 0.05 and spec.disconnect_p == 0.02
        assert spec.journal_latency_ms == 3.0
        assert spec.journal_latency_p == 0.4
        assert spec.dup_p == 0.1 and spec.fsync_p == 0.01
        assert spec.skew_ms == 250 and spec.seed == 7
        # Torn tails come from tear_tail() at a crash boundary, not a knob.
        with pytest.raises(ValueError):
            parse_chaos_spec("torn=0.5")

    def test_latency_probability_defaults_to_always(self):
        assert parse_chaos_spec("latency=5").latency_p == 1.0

    def test_empty_spec_is_all_quiet(self):
        assert parse_chaos_spec("") == ChaosSpec()

    @pytest.mark.parametrize(
        "bad", ["nonsense=1", "drop", "drop=", "drop=2.0", "seed=x"]
    )
    def test_rejects_malformed_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)

    def test_seeded_rng_is_reproducible(self):
        spec = parse_chaos_spec("drop=0.5,seed=42")
        a = [spec.rng().random() for _ in range(5)]
        b = [spec.rng().random() for _ in range(5)]
        assert a == b


class TestFaultyJournal:
    def test_duplicated_writes_land_twice_on_disk_once_in_memory(self, tmp_path):
        hub = Telemetry()
        journal = FaultyJournal(
            tmp_path / "j.jsonl", ChaosSpec(dup_p=1.0, seed=1), telemetry=hub
        )
        journal.append({"kind": "watermark", "t": 100})
        assert len(journal.entries) == 1
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert counter(hub, "chaos.injected") == 1

    def test_fsync_fault_raises_oserror(self, tmp_path):
        journal = FaultyJournal(
            tmp_path / "j.jsonl", ChaosSpec(fsync_p=1.0, seed=1)
        )
        with pytest.raises(OSError, match="chaos"):
            journal.append({"kind": "watermark", "t": 100})
        assert not (tmp_path / "j.jsonl").exists()

    def test_forced_fsync_failures_override_probability(self, tmp_path):
        journal = FaultyJournal(tmp_path / "j.jsonl", ChaosSpec())
        journal.append({"kind": "watermark", "t": 1})
        journal.force_fsync_failures = True
        with pytest.raises(OSError):
            journal.append({"kind": "watermark", "t": 2})

    def test_torn_tail_is_skipped_and_next_append_survives(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServiceJournal(path)
        journal.append({"kind": "watermark", "t": 100})
        tear_tail(path)

        reopened = ServiceJournal(path)
        assert len(reopened.entries) == 1  # garbage skipped
        reopened.append({"kind": "watermark", "t": 200})
        # The entry after the tear must not be glued onto the garbage.
        final = ServiceJournal(path)
        assert [e["t"] for e in final.entries] == [100, 200]


class TestSkewedWallClock:
    def test_readings_jitter_but_never_go_backwards(self):
        inner = ManualWallClock()
        clock = SkewedWallClock(inner, ChaosSpec(skew_ms=500, seed=3))
        readings = []
        for t in range(0, 10_000, 250):
            inner.advance_to(t)
            readings.append(clock.now_ms())
        assert readings == sorted(readings)
        for t, reading in zip(range(0, 10_000, 250), readings):
            assert reading >= t
        assert any(
            reading > t for t, reading in zip(range(0, 10_000, 250), readings)
        ), "skew never fired"

    def test_zero_skew_is_transparent(self):
        inner = ManualWallClock()
        clock = SkewedWallClock(inner, ChaosSpec())
        inner.advance_to(1_234)
        assert clock.now_ms() == 1_234


class TestCrashResumeTorture:
    """The headline acceptance test: five crash→resume cycles under
    injected journal faults, byte-identical recovery, zero violations."""

    CYCLES = 5

    def test_five_faulty_cycles_recover_byte_identical(self, tmp_path):
        baseline = AlarmService(ServiceConfig(**SPEC))
        drive(baseline, TORTURE_REQUESTS)
        reference = sealed(baseline)

        # Seed 3's early draws straddle 0.5, so every short cycle (each
        # resume restarts the seeded RNG) injects some-but-not-all dups.
        spec = ChaosSpec(dup_p=0.5, seed=3)
        hub = Telemetry()

        def factory(path):
            return FaultyJournal(path, spec, telemetry=hub)

        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        chunk = -(-len(TORTURE_REQUESTS) // (self.CYCLES + 1))  # ceil
        chunks = [
            TORTURE_REQUESTS[i:i + chunk]
            for i in range(0, len(TORTURE_REQUESTS), chunk)
        ]
        assert len(chunks) >= self.CYCLES + 1

        service = AlarmService(config, journal_factory=factory)
        journal_path = service.journal.path
        for index, requests in enumerate(chunks):
            if index > 0:
                service = AlarmService.resume(config, journal_factory=factory)
            drive(service, requests)
            if index < len(chunks) - 1:
                del service  # SIGKILL in miniature
                if index % 2 == 0:
                    tear_tail(journal_path)  # crash mid-append

        result = service.handle_request({"op": "query"})["result"]
        assert result["violations"] == 0
        assert sealed(service) == reference
        assert counter(hub, "chaos.injected") > 0, "no faults fired"

    def test_duplicated_journal_lines_are_replayed_once(self, tmp_path):
        spec = ChaosSpec(dup_p=1.0, seed=5)
        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        victim = AlarmService(
            config, journal_factory=lambda path: FaultyJournal(path, spec)
        )
        drive(victim, TORTURE_REQUESTS[:6])
        del victim

        survivor = AlarmService.resume(config)
        assert counter(survivor.telemetry, "service.replay_duplicates") > 0
        drive(survivor, TORTURE_REQUESTS[6:])

        baseline = AlarmService(ServiceConfig(**SPEC))
        drive(baseline, TORTURE_REQUESTS)
        assert sealed(survivor) == sealed(baseline)


def _refused(host, port):
    try:
        socket.create_connection((host, port), timeout=2).close()
    except OSError:
        return True
    return False


class TestFaultyTransportLifecycle:
    @pytest.fixture
    def upstream(self):
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen()
            yield server.getsockname()

    def test_close_stops_accepting(self, upstream):
        proxy = FaultyTransport(upstream, ChaosSpec()).start()
        host, port = proxy.address
        proxy.close()
        # A thread left blocked in accept() would take one more connection.
        assert not proxy._thread.is_alive()
        assert _refused(host, port)

    def test_close_is_idempotent_and_safe_before_start(self, upstream):
        proxy = FaultyTransport(upstream, ChaosSpec())
        proxy.close()
        proxy.close()
        assert not proxy._thread.is_alive()


class TestClientChurnThroughFaultyProxy:
    """A resilient client rides out a ~10% faulty transport: every op
    completes within its bounded retry budget and no mutation is
    applied twice."""

    def test_churn_completes_with_no_duplicate_mutations(self, tmp_path):
        service = AlarmService(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        spec = ChaosSpec(
            latency_ms=1.0, latency_p=0.2, drop_p=0.08, disconnect_p=0.04,
            seed=23,
        )
        registers = 0
        with SocketServer(service, tcp=("127.0.0.1", 0)) as server:
            with FaultyTransport(server.address, spec) as proxy:
                client = ServiceClient(
                    TcpTransport(*proxy.address),
                    deadline_s=15.0,
                    attempt_timeout_s=0.25,
                    max_retries=10,
                    backoff_base_s=0.01,
                    backoff_cap_s=0.1,
                    breaker_threshold=100,
                    client_id="churn",
                )
                wall = 0
                for i in range(12):
                    result = client.register(_alarm(i, 60_000 + i * 120_000))
                    assert result["alarm_id"] >= 1
                    registers += 1
                    if i % 3 == 2:
                        wall += 300_000
                        assert client.advance(wall)["sim_time_ms"] >= 0
                    if i % 4 == 3:
                        client.cancel(label=f"alarm-{i}", at=wall + 1_000)
                    assert client.query()["sim_time_ms"] >= 0
                final = client.query()
                client.close()
        telemetry = proxy.telemetry

        # Every register applied exactly once, despite drops/disconnects
        # forcing retries of the same req_id.
        assert final["registered"] == registers
        journal_registers = {
            entry["seq"]
            for entry in service.journal.mutations()
            if entry["kind"] == "register"
        }
        assert len(journal_registers) == registers
        assert counter(telemetry, "chaos.injected") > 0, "proxy injected nothing"
