#!/usr/bin/env python3
"""Scenario smoke: the README's byte-identity claim, proven end to end.

The CI-facing acceptance drill for the scenario source registry (what
``make scenario-smoke`` runs):

1. every canonical scenario config (``light``, ``heavy``, ``synthetic``,
   ``diurnal-light``, ``diurnal-heavy``) compiles to the same
   alarm-by-alarm fingerprint — times, labels, parameters, order — as
   the legacy builder it replaced, including external wake events.
   ``light`` and ``heavy`` are checked against the signature digests
   pinned in ``tests/workloads/scenario_signature_golden.json`` (default
   and non-default config), the others against their live builders;
2. every example config in ``examples/scenarios/`` loads with total
   validation, compiles, and survives every fuzz detector: both
   policies run crash-free with the invariant monitor armed, and the
   serialized traces are byte-identical across queue backends and
   engine drivers;
3. a deliberately broken config is rejected with *all* of its problems
   reported at once, each with a did-you-mean suggestion.

``.toml`` examples are skipped when ``tomllib`` is unavailable
(Python < 3.11); the JSON examples keep the drill meaningful on the
3.10 CI leg.

Run:  PYTHONPATH=src python scripts/scenario_smoke.py
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.analysis.fuzz import ScenarioCase, run_case  # noqa: E402
from repro.workloads.diurnal import DiurnalConfig, build_diurnal  # noqa: E402
from repro.workloads.scenarios import ScenarioConfig  # noqa: E402
from repro.workloads.sources import (  # noqa: E402
    CANONICAL_SCENARIOS,
    ScenarioConfigError,
    canonical_scenario,
    compile_scenario,
    load_scenario,
    scenario_from_dict,
)
from repro.workloads.synthetic import SyntheticConfig, generate  # noqa: E402

try:
    import tomllib  # noqa: F401
except ModuleNotFoundError:
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples" / "scenarios"
GOLDEN = ROOT / "tests" / "workloads" / "scenario_signature_golden.json"

#: name -> () -> (legacy workload, legacy external events or None), for
#: the canonical scenarios whose legacy builder still exists.
LEGACY_BUILDERS = {
    "synthetic": lambda: (generate(SyntheticConfig(), seed=5), None),
    "diurnal-light": lambda: build_diurnal(DiurnalConfig(), heavy=False),
    "diurnal-heavy": lambda: build_diurnal(DiurnalConfig(), heavy=True),
}
#: Seeds the canonical compile must use to hit the legacy output.
CANONICAL_SEEDS = {"synthetic": 5}

BROKEN_CONFIG = {
    "scenario": {"name": "broken"},
    "source": [
        {"use": "calender"},  # sic
        {"use": "background", "oneshots_per_hr": 1},  # sic
    ],
}


def log_line(log, message):
    stamp = time.strftime("%H:%M:%S")
    line = f"[{stamp}] {message}"
    print(line, flush=True)
    log.write(line + "\n")
    log.flush()


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
            tuple(
                sorted(component.name for component in registration.alarm.hardware)
            ),
            registration.alarm.task_duration,
        )
        for registration in workload.registrations
    ]


def signature_digest(workload):
    """SHA-256 of :func:`signature` as JSON (repeat kinds by value)."""
    rows = [[*row[:7], row[7].value, *row[8:]] for row in signature(workload)]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def check_pinned_signatures(log):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, pins in sorted(golden["signatures"].items()):
        for config_name, pinned in sorted(pins.items()):
            config = ScenarioConfig(**golden["configs"][config_name])
            compiled = compile_scenario(canonical_scenario(name, config))
            if signature_digest(compiled) != pinned["sha256"]:
                log_line(log, f"FAIL: canonical '{name}' ({config_name} "
                              f"config) diverges from its pinned signature")
                return False
            log_line(log, f"canonical '{name}' ({config_name} config): "
                          f"{len(compiled.registrations)} registrations "
                          f"match the pinned signature digest")
    return True


def check_canonical_equivalence(log):
    if not check_pinned_signatures(log):
        return False
    for name in sorted(LEGACY_BUILDERS):
        legacy, legacy_events = LEGACY_BUILDERS[name]()
        compiled = compile_scenario(
            CANONICAL_SCENARIOS[name](), seed=CANONICAL_SEEDS.get(name)
        )
        if signature(compiled) != signature(legacy):
            log_line(log, f"FAIL: canonical '{name}' diverges from the "
                          f"legacy builder")
            return False
        if legacy_events is not None:
            compiled_events = [
                (event.time, event.hold_ms) for event in compiled.externals
            ]
            expected = [
                (event.time, event.hold_ms) for event in legacy_events
            ]
            if compiled_events != expected:
                log_line(log, f"FAIL: canonical '{name}' external events "
                              f"diverge from the legacy builder")
                return False
        log_line(log, f"canonical '{name}': {len(compiled.registrations)} "
                      f"registrations byte-identical to the legacy builder")
    return True


def check_examples(log):
    configs = sorted(EXAMPLES.iterdir())
    ran = 0
    for path in configs:
        if path.suffix == ".toml" and tomllib is None:
            log_line(log, f"skip {path.name}: tomllib unavailable on "
                          f"Python {sys.version_info.major}."
                          f"{sys.version_info.minor}")
            continue
        started = time.perf_counter()
        spec = load_scenario(path)  # raises on any validation problem
        outcome = run_case(ScenarioCase(seed=0, spec=spec))
        if not outcome.ok:
            log_line(log, f"FAIL: {path.name} tripped "
                          f"{len(outcome.failures)} detector(s):")
            for failure in outcome.failures:
                log_line(log, f"  [{failure.kind}] {failure.detail}")
            return False
        wakes = {
            policy: result.wake_count
            for policy, result in outcome.outcomes.items()
        }
        log_line(log, f"{path.name}: {len(spec.sources)} sources, "
                      f"{len(compile_scenario(spec).registrations)} "
                      f"registrations, "
                      f"wakes {wakes}, every detector clean "
                      f"({time.perf_counter() - started:.1f}s)")
        ran += 1
    if ran == 0:
        log_line(log, "FAIL: no example configs were runnable")
        return False
    return True


def check_broken_rejected(log):
    spec = scenario_from_dict(BROKEN_CONFIG, where="scenario-smoke-broken")
    try:
        problems = spec.validate()
    except ScenarioConfigError as error:
        problems = error.problems
    if len(problems) != 2 or not all("did you mean" in p for p in problems):
        log_line(log, f"FAIL: broken config produced {problems!r}, expected "
                      f"two problems with did-you-mean suggestions")
        return False
    log_line(log, "broken config rejected with both problems + did-you-mean")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--log", default="scenario-smoke.log",
                        help="smoke log (uploaded as a CI artifact)")
    args = parser.parse_args()

    with open(args.log, "w", encoding="utf-8") as log:
        if not check_canonical_equivalence(log):
            return 1
        if not check_examples(log):
            return 1
        if not check_broken_rejected(log):
            return 1
        log_line(log, "scenario smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
