"""The client's Unix-socket and pipe transports against a real daemon.

Each test boots ``python -m repro serve`` in a subprocess, then registers
an alarm, advances, queries and ends with a draining shutdown through
:class:`ServiceClient`, over the transport that daemon mode serves.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.service import PipeTransport, ServiceClient, UnixTransport

ROOT = Path(__file__).resolve().parents[2]
HORIZON = 3_600_000
ALARM = {"app": "mail", "label": "sync", "nominal": 60_000,
         "interval": 300_000, "grace": 120_000}


def spawn_serve(*extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--horizon", str(HORIZON), *extra],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        text=True,
    )


def round_trip(client):
    """Register, advance, query, drain; returns the drain's result."""
    assert client.register(dict(ALARM))["alarm_id"] == 1
    assert client.advance(600_000)["sim_time_ms"] == 600_000
    state = client.query()
    assert state["registered"] == 1
    assert state["sim_time_ms"] == 600_000
    return client.shutdown(drain=True)


def test_unix_transport_round_trip(tmp_path):
    path = str(tmp_path / "simty.sock")
    process = spawn_serve("--unix-socket", path)
    try:
        for line in process.stderr:
            if line.startswith("listening on unix://"):
                break
        else:
            raise AssertionError("daemon exited before listening")
        with ServiceClient(UnixTransport(path)) as client:
            drained = round_trip(client)
        assert drained["drained"] is True
        assert process.wait(timeout=60) == 0
    finally:
        process.kill()
        process.wait(timeout=30)
        for stream in (process.stdin, process.stdout, process.stderr):
            stream.close()


def test_pipe_transport_round_trip():
    process = spawn_serve()
    try:
        client = ServiceClient(PipeTransport(process.stdin, process.stdout))
        drained = round_trip(client)
        assert drained["drained"] is True
        process.stdin.close()
        assert process.wait(timeout=60) == 0
        assert "served 4 request(s)" in process.stderr.read()
    finally:
        process.kill()
        process.wait(timeout=30)
        for stream in (process.stdout, process.stderr):
            stream.close()
