"""Golden pin of what an enabled telemetry hub reports and exports.

Two runs on a :class:`FakeClock` that steps 1 ns per read: the heavy
workload under SIMTY, and a live replay of the light workload through
:class:`AlarmService`.  For each, ``telemetry_golden.json`` holds the
full ``summary().to_dict()``, the number of retained spans, and the
SHA-256 of the Chrome-trace document (``json.dumps`` in insertion order,
so span args must come out in the same order) and of the JSONL export.

The fake clock makes every span timestamp a count of clock reads, so the
pin also fails when a span reads the clock a different number of times
or in a different order, or when a metric key is spelled differently.
Re-record only for an intended change of what the hub reports::

    PYTHONPATH=src python tests/obs/test_telemetry_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.simty import SimtyPolicy
from repro.obs.exporters import chrome_trace_payload, jsonl_lines
from repro.obs.telemetry import FakeClock, Telemetry
from repro.service.daemon import AlarmService, ServiceConfig
from repro.simulator.engine import Simulator
from repro.workloads.requests import workload_requests
from repro.workloads.scenarios import build_heavy, build_light

PIN_PATH = Path(__file__).with_name("telemetry_golden.json")

def _hub() -> Telemetry:
    return Telemetry(clock=FakeClock(auto_step_ns=1))


def heavy_simty() -> Telemetry:
    hub = _hub()
    workload = build_heavy()
    simulator = Simulator(SimtyPolicy(), telemetry=hub)
    workload.apply(simulator)
    simulator.run()
    return hub


def service_replay() -> Telemetry:
    # No watermarks and no slow-request accounting: both observe wall
    # time.  The replay stops before the closing shutdown.
    hub = _hub()
    service = AlarmService(
        ServiceConfig(checkpoint_every_ms=None, slow_request_ms=None),
        telemetry=hub,
    )
    for payload in workload_requests(build_light(), drain=False):
        if payload["op"] == "shutdown":
            break
        reply = service.handle_request(payload)
        assert reply["ok"], reply
    return hub


CASES = {"heavy-simty": heavy_simty, "service-light": service_replay}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden(hub: Telemetry) -> dict:
    return {
        "summary": hub.summary().to_dict(),
        "spans": len(hub.events),
        "chrome_trace_sha256": _sha256(json.dumps(chrome_trace_payload(hub))),
        "jsonl_sha256": _sha256("\n".join(jsonl_lines(hub))),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_hub_reports_and_exports_match_the_pin(case):
    pinned = json.loads(PIN_PATH.read_text(encoding="utf-8"))[case]
    # Through a JSON round trip, as the pin was stored.
    actual = json.loads(json.dumps(golden(CASES[case]())))
    assert actual["summary"] == pinned["summary"]
    assert actual["spans"] == pinned["spans"]
    assert actual["chrome_trace_sha256"] == pinned["chrome_trace_sha256"]
    assert actual["jsonl_sha256"] == pinned["jsonl_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_telemetry_golden.py --record")
    pins = {case: golden(build()) for case, build in sorted(CASES.items())}
    PIN_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
