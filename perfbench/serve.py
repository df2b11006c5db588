"""One served-phone replay: boot ``simty serve``, replay, drain, verify.

The daemon runs in its own process with its defaults (manual clock,
SIMTY, monitor ``record``, telemetry on), an fsync'd checkpoint journal
and a TCP listener on an ephemeral port.  One :class:`ServiceClient` over
one :class:`TcpTransport` sends the generated requests one at a time and
times each reply (a closed loop with one client).  The replay ends with
a draining shutdown, after which the daemon writes its sealed trace.

For a traced replay the daemon is started through ``serve_launcher.py``,
which installs the layer spans inside the daemon process.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.metrics.wakeups import wakeup_breakdown
from repro.power.accounting import account
from repro.power.profiles import NEXUS5
from repro.service.client import ClientError, ServiceClient, TcpTransport
from repro.service.protocol import MUTATION_OPS
from repro.simulator.serialize import trace_from_dict

from hostspeed import SpeedMeter
from proc import wait_exit
from stats import canonical_trace, fingerprint

HERE = Path(__file__).resolve().parent
LISTENING = "listening on tcp://"
#: Give up on a replay after this many consecutive failed requests (the
#: daemon is gone); the remaining requests count as failed.
MAX_CONSECUTIVE_FAILURES = 20
BOOT_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


def _pump(stream, lines: "queue.Queue[Optional[str]]") -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


class Daemon:
    """A ``simty serve`` subprocess listening on an ephemeral TCP port."""

    def __init__(self, root: Path, work: Path, traced: bool) -> None:
        self.trace_path = work / "trace.json"
        self.layers_path = work / "layers.json"
        serve_args = [
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--checkpoint-dir",
            str(work / "journal"),
            "--save-trace",
            str(self.trace_path),
        ]
        if traced:
            command = [
                sys.executable,
                str(HERE / "serve_launcher.py"),
                "--layers-out",
                str(self.layers_path),
                "--",
                *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._pump = threading.Thread(
            target=_pump, args=(self.proc.stderr, self._lines), daemon=True
        )
        self._pump.start()
        try:
            self.address = _await_address(self._lines, self.log)
        except BaseException:
            self.stop(kill=True)
            raise
        self.boot_s = time.perf_counter() - spawned

    def stop(self, kill: bool = False) -> Tuple[int, float]:
        """Wait for the daemon to exit (killing it first with ``kill``);
        returns its exit code and peak RSS in MiB."""
        if kill:
            self.proc.kill()
        code, rss_mb = wait_exit(self.proc, EXIT_TIMEOUT_S)
        self._pump.join(timeout=EXIT_TIMEOUT_S)
        self.proc.stderr.close()
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.log.append(line.rstrip("\n"))
        return code, rss_mb


def boot_only(root: Path, scratch: Path) -> float:
    """Boot a daemon, stop it again; returns the boot time in seconds."""
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        daemon = Daemon(root, Path(workdir), traced=False)
        client = ServiceClient(TcpTransport(*daemon.address))
        try:
            client.shutdown(drain=False)
        finally:
            client.close()
            daemon.stop()
        return daemon.boot_s


def run_serve_unit(
    requests: List[Dict], root: Path, scratch: Path, traced: bool,
    meter: Optional[SpeedMeter] = None,
) -> Dict:
    """Boot a daemon, replay ``requests`` through it (host-speed slices
    from ``meter`` between requests) and check its trace."""
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        daemon = Daemon(root, Path(workdir), traced)
        try:
            replay = _replay(requests, daemon.address, meter)
        except BaseException:
            daemon.stop(kill=True)
            raise
        code, rss_mb = daemon.stop()
        unit = dict(replay, boot_s=daemon.boot_s, rss_mb=rss_mb)
        problems = []
        if code != 0:
            problems.append(f"daemon exited with {code}: {' | '.join(daemon.log[-5:])}")
        if daemon.trace_path.exists():
            payload = json.loads(daemon.trace_path.read_text(encoding="utf-8"))
            trace = trace_from_dict(payload)
            unit["fingerprint"] = fingerprint(canonical_trace(payload))
            unit["deliveries"] = trace.delivery_count()
            unit["sim_wakeups"] = wakeup_breakdown(trace).cpu.delivered
            unit["sim_energy_j"] = account(trace, NEXUS5).total_mj / 1000.0
            if trace.violations:
                problems.append(f"{len(trace.violations)} monitor violations")
        else:
            problems.append("the daemon wrote no trace")
            unit.update(fingerprint=None, deliveries=0, sim_wakeups=0, sim_energy_j=0.0)
        if traced:
            if daemon.layers_path.exists():
                unit["daemon_layers"] = json.loads(
                    daemon.layers_path.read_text(encoding="utf-8")
                )
            else:
                problems.append("the traced daemon wrote no layer report")
        if problems:
            unit["failed"] = min(unit["attempted"], unit["failed"] + 1)
            unit["problem"] = "; ".join(problems)
        return unit


def _await_address(
    lines: "queue.Queue[Optional[str]]", log: List[str]
) -> Tuple[str, int]:
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"daemon did not listen within {BOOT_TIMEOUT_S} s")
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            continue
        if line is None:
            raise RuntimeError("daemon exited before listening: " + " | ".join(log[-5:]))
        log.append(line.rstrip("\n"))
        if LISTENING in line:
            host, _, port = line.split(LISTENING, 1)[1].strip().rpartition(":")
            return host, int(port)


def _replay(
    requests: List[Dict], address: Tuple[str, int], meter: Optional[SpeedMeter]
) -> Dict:
    """Send every request in order; time each one at the client.

    With a ``meter``, a host-speed slice may precede a request (outside
    its timing) and every sample keeps the meter's speed ratio.
    """
    client = ServiceClient(TcpTransport(*address))
    samples: Dict[str, List[float]] = {"latency": [], "mutation": [], "advance": []}
    ratios: Dict[str, List[float]] = {kind: [] for kind in samples}

    def keep(kind: str, elapsed: float) -> None:
        samples[kind].append(elapsed)
        ratios[kind].append(meter.ratio if meter is not None else 1.0)

    failed = 0
    consecutive = 0
    client_s = 0.0
    clock = time.perf_counter
    started = clock()
    try:
        for index, payload in enumerate(requests):
            if meter is not None:
                meter.tick()
            sent = clock()
            try:
                reply = client.request(payload)
            except ClientError:
                failed += 1
                consecutive += 1
                if consecutive >= MAX_CONSECUTIVE_FAILURES:
                    failed += len(requests) - index - 1
                    break
                continue
            elapsed = clock() - sent
            client_s += elapsed
            keep("latency", elapsed)
            consecutive = 0
            if not reply.get("ok"):
                failed += 1
            op = payload["op"]
            if op in MUTATION_OPS:
                keep("mutation", elapsed)
            elif op == "advance":
                keep("advance", elapsed)
        wall = clock() - started
    finally:
        client.close()
    retries = client.telemetry.summary().counter("service.client.retries")
    return {
        "wall_s": wall,
        "client_s": client_s,
        "attempted": len(requests),
        "failed": min(len(requests), failed + retries),
        "requests": len(requests) - failed,
        "devices": 1,
        "latency_s": samples["latency"],
        "mutation_s": samples["mutation"],
        "advance_s": samples["advance"],
        "ratios": ratios,
    }
