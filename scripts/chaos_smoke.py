#!/usr/bin/env python3
"""Chaos smoke: kill/resume the daemon repeatedly under injected faults.

The CI-facing torture drill for the robustness layer (what `make
chaos-smoke` runs):

1. compute a *reference* journal by streaming a mutation workload through
   one uninterrupted daemon;
2. stream the same workload through a daemon started with
   ``--chaos "dup=...,jlat=..."`` (duplicated journal writes + append
   latency), SIGKILLing it mid-stream and resuming ``--cycles`` times
   (default 5), tearing the journal tail between cycles to emulate a
   crash mid-append — while the *client* rides through a fault-injecting
   TCP proxy (drops + disconnects) with bounded retries;
3. assert the merged journal's mutation history equals the reference
   exactly (the event-sourced state is byte-identical), that no mutation
   was applied twice despite the client retries, that every resume
   reported exactly the torn lines made so far as skipped, and that the
   final daemon reports zero invariant violations;
4. finish with SIGTERM and assert a graceful exit 0.

Daemon stderr lands in --log (default chaos-smoke.log) and the journal
in --journal-dir, so CI can upload both as artifacts when it fails.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.service import (  # noqa: E402
    ChaosSpec,
    FaultyTransport,
    ServiceClient,
    ServiceJournal,
    TcpTransport,
)
from repro.durable import damage_log  # noqa: E402

HORIZON = 3_600_000
JOURNAL_CHAOS = "dup=0.3,jlat=2:0.3,seed=9"
PROXY_CHAOS = ChaosSpec(drop_p=0.08, disconnect_p=0.04, seed=17)


def workload(total):
    """A deterministic register/cancel/advance stream.

    Nominals stay ahead of the advancing wall so a fault-free run is
    violation-free — any violation the torture run reports is then
    attributable to the fault injection, not the workload.
    """
    requests = []
    wall = 0
    for index in range(total):
        requests.append({"op": "register", "alarm": {
            "app": f"app{index % 5}", "label": f"alarm-{index}",
            "nominal": wall + 120_000 + (index * 91_003) % 600_000,
            "interval": 600_000, "grace": 200_000,
        }})
        if index % 4 == 3:
            wall += 150_000
            requests.append({"op": "advance", "to": wall})
        if index % 5 == 4:
            requests.append({"op": "cancel", "label": f"alarm-{index}",
                             "at": wall + 1_000})
    return requests


def start_daemon(checkpoint_dir, log_handle, *, chaos=None, resume=False):
    log_handle.flush()
    offset = Path(log_handle.name).stat().st_size
    command = [
        sys.executable, "-m", "repro.analysis.cli", "serve",
        "--policy", "simty", "--horizon", str(HORIZON),
        "--clock", "manual",
        "--tcp", "127.0.0.1:0",
        "--checkpoint-dir", str(checkpoint_dir),
    ]
    if chaos:
        command += ["--chaos", chaos]
    if resume:
        command.append("--resume")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=log_handle, env=env
    )
    log_path = Path(log_handle.name)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        text = log_path.read_text(encoding="utf-8")[offset:]
        match = re.search(r"tcp://([\d.]+):(\d+)", text)
        if match:
            return process, (match.group(1), int(match.group(2)))
        if process.poll() is not None:
            raise SystemExit(
                f"daemon died at startup (rc={process.returncode}):\n{text}"
            )
        time.sleep(0.05)
    process.kill()
    raise SystemExit("daemon never announced its TCP address; see the log")


def make_client(proxy, cycle):
    # A distinct client_id per cycle: the daemon's dedupe window survives
    # crashes, so a restarted client reusing old req_ids would have its
    # fresh mutations swallowed as replays of the previous life's.
    return ServiceClient(
        TcpTransport(*proxy.address),
        deadline_s=20.0,
        attempt_timeout_s=0.3,
        max_retries=12,
        backoff_base_s=0.01,
        backoff_cap_s=0.2,
        breaker_threshold=200,
        client_id=f"chaos-smoke-c{cycle}",
    )


def stream(client, requests):
    for payload in requests:
        reply = client.request(dict(payload))
        assert reply["ok"], reply


def injected(proxy):
    return sum(
        value
        for key, value in proxy.telemetry.counters.items()
        if key.startswith("chaos.injected")
    )


def run_reference(requests, base_dir, log_handle):
    checkpoint_dir = base_dir / "reference"
    process, address = start_daemon(checkpoint_dir, log_handle)
    client = ServiceClient(TcpTransport(*address), client_id="reference")
    stream(client, requests)
    baseline = client.query()
    assert baseline["violations"] == 0, baseline
    assert client.shutdown()["drained"] is False
    client.close()
    assert process.wait(timeout=30) == 0
    return ServiceJournal.at(checkpoint_dir).mutations()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=5,
                        help="kill/resume cycles to run (default 5)")
    parser.add_argument("--requests", type=int, default=48,
                        help="mutation workload size")
    parser.add_argument("--log", default="chaos-smoke.log",
                        help="daemon stderr log (uploaded as a CI artifact)")
    parser.add_argument("--journal-dir", default=None,
                        help="keep journals here instead of a temp dir")
    args = parser.parse_args()

    requests = workload(args.requests)
    chunk = -(-len(requests) // (args.cycles + 1))
    chunks = [requests[i:i + chunk] for i in range(0, len(requests), chunk)]

    log_path = Path(args.log)
    with tempfile.TemporaryDirectory() as tmp, \
            log_path.open("w", encoding="utf-8") as log_handle:
        base_dir = Path(args.journal_dir) if args.journal_dir else Path(tmp)
        base_dir.mkdir(parents=True, exist_ok=True)

        reference = run_reference(requests, base_dir, log_handle)
        print(f"reference run: {len(reference)} journaled mutations")

        checkpoint_dir = base_dir / "torture"
        journal_path = ServiceJournal.at(checkpoint_dir).path
        process = None
        faults = 0
        tears = 0
        expected_skips = []  # torn lines each resume must report
        for index, piece in enumerate(chunks):
            if index > 0:
                expected_skips.append(tears)
            process, address = start_daemon(
                checkpoint_dir, log_handle,
                chaos=JOURNAL_CHAOS, resume=index > 0,
            )
            with FaultyTransport(address, PROXY_CHAOS) as proxy:
                client = make_client(proxy, index)
                stream(client, piece)
                if index == len(chunks) - 1:
                    final = client.query()
                client.close()
                faults += injected(proxy)
            if index < len(chunks) - 1:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30)
                if index % 2 == 0:
                    damage_log(journal_path, "tear")  # crash mid-append
                    tears += 1
                print(f"cycle {index + 1}/{len(chunks) - 1}: "
                      f"SIGKILL after {len(piece)} requests, resuming")

        # The chaos journal holds injected duplicate lines on disk; a
        # resume dedupes them by seq, so compare the seq-deduped history.
        # A client retry applied twice would get a *fresh* seq and show
        # up here as an extra entry the reference does not have.  seq and
        # req_id are per-run identifiers, not state — strip them.
        def history(mutations):
            seen, out = set(), []
            for entry in mutations:
                if entry["seq"] in seen:
                    continue
                seen.add(entry["seq"])
                out.append({
                    k: v for k, v in entry.items()
                    if k not in ("seq", "req_id")
                })
            return out

        merged = history(ServiceJournal.at(checkpoint_dir).mutations())
        assert merged == history(reference), (
            "merged journal diverged from the uninterrupted reference"
        )
        assert final["violations"] == 0, final
        skips = [
            int(count) for count in re.findall(
                r"(\d+) skipped lines", log_path.read_text(encoding="utf-8")
            )
        ]
        assert skips == expected_skips, (skips, expected_skips)
        assert faults > 0, "the proxy injected no faults; chaos is miswired"
        assert final["registered"] == sum(
            1 for r in requests if r["op"] == "register"
        ), final
        print(f"torture: {len(chunks) - 1} kill/resume cycles, "
              f"{len(merged)} unique mutations, history identical, "
              f"0 violations")

        process.send_signal(signal.SIGTERM)
        rc = process.wait(timeout=30)
        assert rc == 0, f"daemon exited {rc} after SIGTERM"
        print(f"graceful SIGTERM exit 0; log at {log_path}")


if __name__ == "__main__":
    main()
