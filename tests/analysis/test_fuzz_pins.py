"""Pinned traces and findings of the fuzz pipeline over a 400-case corpus.

``fuzz_trace_pins.json`` holds, for seeds 0-199 of ``generate_case`` and
of ``generate_scenario_case``, each policy's SHA-256 over its serialized
trace and the case's set of failure kinds.  The pins were recorded with
the separate raw-alarm and scenario-composition runners that preceded the
single ``_run_policy``.  Every policy × backend × driver run must still
hash to its policy's pin, so lowering both case kinds to a ``Workload``
changed no byte of any trace and no finding of any case.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.fuzz import (
    BACKEND_AXIS,
    DRIVER_AXIS,
    POLICY_NAMES,
    _run_policy,
    generate_case,
    generate_scenario_case,
    run_case,
)

PINS = json.loads(
    (Path(__file__).parent / "fuzz_trace_pins.json").read_text()
)
GENERATORS = {"raw": generate_case, "scenario": generate_scenario_case}
SEEDS = 200
BLOCK = 25


@pytest.mark.parametrize("start", range(0, SEEDS, BLOCK))
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_traces_and_findings_match_pins(kind, start):
    mismatches = []
    for seed in range(start, start + BLOCK):
        key = f"{kind}:{seed}"
        pin = PINS[key]
        case = GENERATORS[kind](seed)
        kinds = sorted({failure.kind for failure in run_case(case).failures})
        if kinds != pin["failures"]:
            mismatches.append((key, "failures", kinds))
        for policy in POLICY_NAMES:
            for backend in BACKEND_AXIS:
                for driver in DRIVER_AXIS:
                    outcome = _run_policy(
                        case, policy, queue_backend=backend, driver=driver
                    )
                    digest = (
                        hashlib.sha256(outcome.trace_json.encode()).hexdigest()
                        if outcome.trace_json is not None
                        else outcome.error
                    )
                    if digest != pin[policy]:
                        mismatches.append((key, policy, backend, driver))
    assert not mismatches, mismatches
