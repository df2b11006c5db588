"""Compiled scenarios are deterministic across every execution axis.

The same :class:`ScenarioSpec` must produce byte-identical traces across
queue backends (list / indexed), across the batch and stepping drivers,
and across fleet shard decompositions — and the shipped example configs
must survive every fuzz detector.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.fuzz import (
    CaseOutcome,
    Failure,
    ScenarioCase,
    generate_scenario_case,
    render_scenario_case,
    run_case,
    shrink_case,
)
from repro.fleet import FleetConfig, make_population, run_fleet
from repro.runner import RunSpec, run_spec
from repro.simulator.engine import SimulatorConfig
from repro.simulator.serialize import trace_to_dict
from repro.workloads.sources import (
    ScenarioSpec,
    SourceUse,
    load_scenario,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def _example_paths():
    paths = sorted(EXAMPLES.iterdir())
    try:
        import tomllib  # noqa: F401
    except ImportError:
        paths = [path for path in paths if path.suffix == ".json"]
    return paths


def mixed_spec() -> ScenarioSpec:
    """A composition crossing legacy and new sources (small horizon)."""
    return ScenarioSpec(
        name="mixed",
        horizon=900_000,
        seed=13,
        sources=(
            SourceUse(source="synthetic", kwargs={"app_count": 6}),
            SourceUse(source="calendar", kwargs={"times": ("00:03", "00:11")}),
            SourceUse(
                source="network-gated", kwargs={"sessions_per_hour": 8.0}
            ),
            SourceUse(source="external-wakes", kwargs={"rate_per_hour": 6.0}),
        ),
    )


def canonical_trace_json(trace) -> str:
    """Serialized trace with alarm ids renumbered by first appearance."""
    payload = trace_to_dict(trace)
    mapping = {}

    def remap(alarm_id):
        if alarm_id is None:
            return None
        return mapping.setdefault(alarm_id, len(mapping) + 1)

    for record in payload["registrations"]:
        record["alarm_id"] = remap(record["alarm_id"])
    for batch in payload["batches"]:
        for alarm in batch["alarms"]:
            alarm["alarm_id"] = remap(alarm["alarm_id"])
        for task in batch["tasks"]:
            task["alarm_id"] = remap(task["alarm_id"])
    for violation in payload["violations"]:
        violation["alarm_id"] = remap(violation["alarm_id"])
    return json.dumps(payload, sort_keys=True)


class TestBackendEquivalence:
    @pytest.mark.parametrize("policy", ["native", "simty"])
    def test_trace_identical_across_backends(self, policy):
        spec = mixed_spec()
        traces = {}
        for backend in ("list", "indexed"):
            record = run_spec(
                RunSpec(
                    workload="scenario",
                    policy=policy,
                    workload_kwargs={"spec": spec},
                    simulator=SimulatorConfig(queue_backend=backend),
                )
            )
            traces[backend] = canonical_trace_json(record.result.trace)
        assert traces["list"] == traces["indexed"]

    def test_rebuild_is_byte_identical(self):
        spec = mixed_spec()
        jsons = [
            canonical_trace_json(
                run_spec(
                    RunSpec(
                        workload="scenario",
                        policy="simty",
                        workload_kwargs={"spec": spec},
                    )
                ).result.trace
            )
            for _ in range(2)
        ]
        assert jsons[0] == jsons[1]


class TestExampleConfigs:
    @pytest.mark.parametrize(
        "path", _example_paths(), ids=lambda path: path.name
    )
    def test_example_survives_every_detector(self, path):
        """Crash, invariant, backend and stepping detectors, all clean."""
        outcome = run_case(ScenarioCase(seed=0, spec=load_scenario(path)))
        assert outcome.ok, [failure.detail for failure in outcome.failures]


class TestFuzzScenarioAxis:
    def test_generated_compositions_are_deterministic(self):
        for seed in range(5):
            assert generate_scenario_case(seed) == generate_scenario_case(seed)

    def test_seeded_compositions_clean(self):
        dirty = []
        for seed in range(8):
            outcome = run_case(generate_scenario_case(seed))
            if not outcome.ok:
                dirty.append(
                    (seed, [failure.detail for failure in outcome.failures])
                )
        assert not dirty, dirty

    def test_shrink_drops_innocent_sources(self):
        case = generate_scenario_case(1)
        spec = ScenarioSpec(
            name="shrink-me",
            horizon=600_000,
            sources=(
                SourceUse(source="external-wakes", id="a"),
                SourceUse(source="push-storm", id="guilty"),
                SourceUse(source="calendar", id="b"),
            ),
        )
        case = ScenarioCase(seed=1, spec=spec)

        def fake_run(candidate):
            guilty = any(
                use.source == "push-storm" for use in candidate.spec.sources
            )
            failures = (
                [Failure(kind="invariant", detail="synthetic")] if guilty else []
            )
            return CaseOutcome(case=candidate, outcomes={}, failures=failures)

        shrunk = shrink_case(case, frozenset({"invariant"}), run=fake_run)
        assert [use.source for use in shrunk.spec.sources] == ["push-storm"]

    def test_reproducer_is_valid_python(self):
        case = generate_scenario_case(2)
        text = render_scenario_case(case)
        compile(text, "<reproducer>", "exec")
        assert "scenario_from_dict" in text
        assert "run_case(case)" in text


class TestFleetShardDeterminism:
    def test_shard_slices_enumerate_identically(self):
        population = make_population(8, archetypes="scenario", seed=3)
        straight = [device.digest for device in population.devices()]
        sliced = [
            device.digest for device in population.devices(0, 3)
        ] + [device.digest for device in population.devices(3, 8)]
        assert straight == sliced
        assert straight[5] == population.device(5).digest

    def test_report_identical_for_1_and_8_shards(self):
        payloads = {}
        for shards in (1, 8):
            population = make_population(8, archetypes="scenario", seed=3)
            report = run_fleet(
                population, FleetConfig(shards=shards, workers=0)
            )
            assert report.completed == 8
            assert not report.shard_stats.get("failed")
            payloads[shards] = json.dumps(
                report.deterministic_payload(), sort_keys=True
            )
        assert payloads[1] == payloads[8]
