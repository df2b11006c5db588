"""Compiled scenario configs replay the legacy builders byte-for-byte.

The light and heavy configs are checked against the SHA-256 digests of
the pre-registry construction's signatures, under the default and a
non-default :class:`ScenarioConfig` (``scenario_signature_golden.json``,
recorded while that construction still existed): same registration
times, same labels, same alarm parameters, in the same order.  The
diurnal and synthetic generators are compared with their live builders.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.diurnal import DiurnalConfig, build_diurnal
from repro.workloads.scenarios import ScenarioConfig
from repro.workloads.sources import (
    canonical_diurnal,
    canonical_scenario,
    compile_scenario,
)
from repro.workloads.synthetic import SyntheticConfig, generate

GOLDEN = json.loads(
    (Path(__file__).parent / "scenario_signature_golden.json").read_text()
)


def signature(workload):
    """An alarm-id-free fingerprint (ids come from a process-global counter)."""
    return [
        (
            registration.time,
            registration.alarm.label,
            registration.alarm.app,
            registration.alarm.nominal_time,
            registration.alarm.repeat_interval,
            registration.alarm.window_length,
            registration.alarm.grace_length,
            registration.alarm.repeat_kind,
            registration.alarm.wakeup,
            tuple(sorted(component.name for component in registration.alarm.hardware)),
            registration.alarm.task_duration,
        )
        for registration in workload.registrations
    ]


def signature_digest(workload):
    """SHA-256 of :func:`signature` as JSON (repeat kinds by value)."""
    rows = [[*row[:7], row[7].value, *row[8:]] for row in signature(workload)]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def check_against_golden(name, config_name):
    config = ScenarioConfig(**GOLDEN["configs"][config_name])
    pinned = GOLDEN["signatures"][name][config_name]
    compiled = compile_scenario(canonical_scenario(name, config))
    assert compiled.name == name
    assert compiled.horizon == pinned["horizon"]
    assert len(compiled.registrations) == pinned["registrations"]
    assert signature_digest(compiled) == pinned["sha256"]


class TestCanonicalEquivalence:
    @pytest.mark.parametrize("name", ["light", "heavy"])
    def test_default_config(self, name):
        check_against_golden(name, "default")

    @pytest.mark.parametrize("name", ["light", "heavy"])
    def test_non_default_config(self, name):
        check_against_golden(name, "non-default")

    def test_synthetic_matches_generator(self):
        legacy = generate(SyntheticConfig(), seed=5)
        compiled = compile_scenario(canonical_scenario("synthetic"), seed=5)
        assert signature(compiled) == signature(legacy)

    @pytest.mark.parametrize("heavy", [False, True])
    def test_diurnal_matches_builder(self, heavy):
        config = DiurnalConfig()
        legacy_workload, legacy_events = build_diurnal(config, heavy=heavy)
        compiled = compile_scenario(canonical_diurnal(config, heavy=heavy))
        assert signature(compiled) == signature(legacy_workload)
        assert [
            (event.time, event.hold_ms) for event in compiled.externals
        ] == [(event.time, event.hold_ms) for event in legacy_events]

    def test_diurnal_canonical_names(self):
        for name, heavy in (("diurnal-light", False), ("diurnal-heavy", True)):
            compiled = compile_scenario(canonical_scenario(name))
            legacy_workload, legacy_events = build_diurnal(
                DiurnalConfig(), heavy=heavy
            )
            assert signature(compiled) == signature(legacy_workload)
            assert len(compiled.externals) == len(legacy_events)
