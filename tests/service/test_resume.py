"""Crash/resume: a SIGKILL'd daemon resumes into the exact same run.

The journal is event-sourced over a deterministic engine, so resume is
replay: the merged trace of (run to t, crash, resume, run to horizon)
must equal the uninterrupted run *byte for byte* — not approximately.
Covered at two levels: in-process (drop the service object, no goodbye)
and out-of-process (SIGKILL a real ``simty serve`` daemon mid-stream).
The in-process tests close every journal they open, so they also run
under ``-X dev`` with unclosed files as errors.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.durable import damage_log
from repro.service import AlarmService, ServiceConfig, ServiceJournal
from repro.simulator import trace_to_dict
from repro.workloads import build_light, workload_request_lines

HORIZON = 3_600_000

SPEC = dict(policy="simty", horizon=HORIZON, clock="manual")

REQUESTS = [
    dict(op="register", alarm={"app": "mail", "label": "sync",
                               "nominal": 60_000, "interval": 300_000,
                               "grace": 150_000, "task_ms": 120}),
    dict(op="register", alarm={"app": "chat", "label": "ping",
                               "nominal": 90_000, "interval": 300_000,
                               "grace": 120_000}),
    dict(op="advance", to=600_000),
    dict(op="register", alarm={"app": "news", "label": "feed",
                               "nominal": 700_000, "interval": 600_000,
                               "grace": 200_000}),
    dict(op="advance", to=1_200_000),
    dict(op="reanchor", label="ping", at=1_250_000,
         nominal_offset=45_000),
    dict(op="cancel", label="sync", at=1_300_000),
    dict(op="advance", to=2_400_000),
]


#: An advance to 1,000 wakes for ``lead``, which drags the engine to 1,350
#: (wake latency plus its task); the three registers that follow are all
#: at or after the wall clock but behind the engine, out of ``at`` order.
GAP_REQUESTS = [
    dict(op="register", alarm={"app": "lead", "label": "lead",
                               "nominal": 1_000, "task_ms": 100}),
    dict(op="advance", to=1_000),
    *(
        dict(op="register", at=at,
             alarm={"app": f"gap{at}", "label": f"gap{at}",
                    "nominal": 60_000, "interval": 300_000,
                    "grace": 120_000})
        for at in (1_200, 1_100, 1_050)
    ),
    dict(op="advance", to=900_000),
]


def kill(service):
    """SIGKILL in miniature: no shutdown, no flush.  Only the journal's
    handle is closed, as the kernel closes a killed process's files."""
    service.journal.close()


def drive(service, requests):
    for payload in requests:
        reply = service.handle_request(dict(payload))
        assert reply["ok"], reply


def sealed(service):
    reply = service.handle_request({"op": "shutdown", "drain": True})
    assert reply["ok"], reply
    payload = trace_to_dict(service.trace)
    payload.pop("telemetry", None)  # wall-time spans; everything else binds
    return json.dumps(payload, sort_keys=True)


class TestInProcessResume:
    @pytest.mark.parametrize("crash_after", [2, 5, 8])
    def test_merged_trace_matches_uninterrupted(self, tmp_path, crash_after):
        baseline = AlarmService(ServiceConfig(**SPEC))
        drive(baseline, REQUESTS)
        reference = sealed(baseline)

        victim = AlarmService(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(victim, REQUESTS[:crash_after])
        kill(victim)

        survivor = AlarmService.resume(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(survivor, REQUESTS[crash_after:])
        assert sealed(survivor) == reference

    def test_resume_restores_alarm_ids_and_labels(self, tmp_path):
        victim = AlarmService(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(victim, REQUESTS[:4])
        kill(victim)

        survivor = AlarmService.resume(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        reply = survivor.handle_request(
            {"op": "register", "alarm": {"app": "late", "nominal": 900_000,
                                         "interval": 400_000,
                                         "grace": 100_000}}
        )
        assert reply["result"]["alarm_id"] == 4  # 3 restored, next is 4
        assert survivor.handle_request(
            {"op": "cancel", "label": "sync", "at": 700_000}
        )["ok"]
        kill(survivor)

    def test_resume_refuses_a_mismatched_config(self, tmp_path):
        victim = AlarmService(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(victim, REQUESTS[:2])
        kill(victim)
        with pytest.raises(ValueError, match="policy"):
            AlarmService.resume(
                ServiceConfig(
                    checkpoint_dir=str(tmp_path),
                    **dict(SPEC, policy="native"),
                )
            )

    def test_resume_without_a_journal_refuses(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            AlarmService.resume(
                ServiceConfig(checkpoint_dir=str(tmp_path / "empty"), **SPEC)
            )

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        victim = AlarmService(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(victim, REQUESTS[:5])
        kill(victim)
        damage_log(ServiceJournal.at(tmp_path).path, "tear")
        survivor = AlarmService.resume(
            ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        )
        drive(survivor, REQUESTS[5:])
        assert survivor.simulator.now >= 2_400_000
        kill(survivor)

    def test_one_tear_reads_as_one_skipped_line(self, tmp_path):
        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        victim = AlarmService(config)
        drive(victim, REQUESTS[:5])
        kill(victim)
        clean = AlarmService.resume(config)
        assert clean.journal.skipped == 0
        assert "service.replay_skipped{kind=line}" not in clean.telemetry.counters
        kill(clean)
        damage_log(ServiceJournal.at(tmp_path).path, "tear")
        survivor = AlarmService.resume(config)
        assert survivor.journal.skipped == 1
        assert survivor.telemetry.counters["service.replay_skipped{kind=line}"] == 1
        kill(survivor)

    def test_gap_registers_resume_into_the_same_trace(self, tmp_path):
        baseline = AlarmService(ServiceConfig(**SPEC))
        drive(baseline, GAP_REQUESTS)
        reference = sealed(baseline)

        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        victim = AlarmService(config)
        drive(victim, GAP_REQUESTS[:5])
        assert victim.simulator.now == 1_350  # the three were behind it
        kill(victim)
        survivor = AlarmService.resume(config)
        drive(survivor, GAP_REQUESTS[5:])
        assert sealed(survivor) == reference

    def test_retry_after_resume_gets_the_original_reply(self, tmp_path):
        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        victim = AlarmService(config)
        drive(victim, GAP_REQUESTS[:2])
        retried = dict(GAP_REQUESTS[2], id=7, req_id="gap-1")
        original = victim.handle_request(dict(retried))
        assert original["ok"], original
        kill(victim)  # the reply never reached the client

        survivor = AlarmService.resume(config)
        replay = survivor.handle_request(dict(retried))
        assert replay == dict(
            original, result=dict(original["result"], duplicate=True)
        )
        kill(survivor)

    def test_mutation_past_the_horizon_is_refused_unjournaled(self, tmp_path):
        # The wake at 3,599,990 drags the engine to 3,600,340: past the
        # horizon, while the wall clock is still 5 ms short of it.
        config = ServiceConfig(checkpoint_dir=str(tmp_path), **SPEC)
        service = AlarmService(config)
        drive(service, [
            dict(op="register", alarm={"app": "edge", "label": "edge",
                                       "nominal": HORIZON - 10,
                                       "task_ms": 100}),
            dict(op="advance", to=HORIZON - 5),
        ])
        assert service.simulator.now > HORIZON
        entries = len(service.journal)
        late = {"app": "late", "nominal": HORIZON - 1}
        for request in (
            {"op": "register", "alarm": late, "req_id": "edge-1"},
            {"op": "cancel", "label": "edge"},
            {"op": "reanchor", "label": "edge"},
        ):
            reply = service.handle_request(request)
            assert reply["error"]["code"] == "past-horizon", reply
        assert len(service.journal) == entries
        assert service._next_alarm_id == 2  # the refusal consumed no id
        assert service.handle_request({"op": "query"})["result"][
            "next_event_ms"] is None
        kill(service)

        survivor = AlarmService.resume(config)
        assert "service.replay_skipped{kind=register}" not in (
            survivor.telemetry.counters
        )
        assert survivor.handle_request(
            {"op": "register", "alarm": late, "req_id": "edge-1"}
        )["error"]["code"] == "past-horizon"
        kill(survivor)


class TestSubprocessCrash:
    def _serve(self, checkpoint_dir, horizon, resume=False):
        argv = [
            sys.executable, "-m", "repro.analysis.cli", "serve",
            "--policy", "simty", "--horizon", str(horizon),
            "--checkpoint-dir", str(checkpoint_dir),
            "--checkpoint-every", "60000",
        ]
        if resume:
            argv.append("--resume")
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )

    def test_resume_states_skipped_lines_on_stderr(self, tmp_path):
        argv = [
            sys.executable, "-m", "repro.analysis.cli", "serve",
            "--policy", "simty", "--horizon", str(HORIZON),
            "--clock", "manual", "--checkpoint-dir", str(tmp_path),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        requests = "".join(json.dumps(r) + "\n" for r in REQUESTS[:5])
        subprocess.run(
            argv, input=requests, capture_output=True, text=True, env=env,
            timeout=60, check=True,
        )
        damage_log(ServiceJournal.at(tmp_path).path, "tear")
        resumed = subprocess.run(
            argv + ["--resume"], input="", capture_output=True, text=True,
            env=env, timeout=60, check=True,
        )
        assert "1 skipped lines)" in resumed.stderr, resumed.stderr

    def test_sigkill_mid_stream_then_resume_matches(self, tmp_path):
        workload = build_light(None)
        lines = list(workload_request_lines(workload, checkpoint_every=5))
        cut = len(lines) // 2

        # Reference: the same stream served uninterrupted.
        reference_dir = tmp_path / "ref"
        process = self._serve(reference_dir, workload.horizon)
        for line in lines:
            process.stdin.write(line + "\n")
            process.stdin.flush()
            assert json.loads(process.stdout.readline())["ok"]
        process.wait(timeout=30)
        reference = ServiceJournal.at(reference_dir)

        # Victim: first half of the stream, then SIGKILL (no cleanup).
        crash_dir = tmp_path / "crash"
        victim = self._serve(crash_dir, workload.horizon)
        for line in lines[:cut]:
            victim.stdin.write(line + "\n")
            victim.stdin.flush()
            assert json.loads(victim.stdout.readline())["ok"]
        victim.kill()
        victim.wait(timeout=30)

        # Survivor: resume from the journal, serve the remainder.
        survivor = self._serve(crash_dir, workload.horizon, resume=True)
        for line in lines[cut:]:
            survivor.stdin.write(line + "\n")
            survivor.stdin.flush()
            reply = json.loads(survivor.stdout.readline())
            assert reply["ok"], reply
        survivor.wait(timeout=30)

        merged = ServiceJournal.at(crash_dir)
        # The journals record the daemon's accepted history: the merged
        # (crashed + resumed) mutation log must equal the uninterrupted
        # one, and both must have reached the horizon.
        assert merged.mutations() == reference.mutations()
        assert merged.last_watermark() == reference.last_watermark()
        assert reference.last_watermark() == workload.horizon
