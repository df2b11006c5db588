"""The scenario source registry: schemas, validation and the compiler."""

import json
import warnings

import pytest

from repro.workloads.scenarios import BackgroundLoad
from repro.workloads.sources import (
    CANONICAL_SCENARIOS,
    ScenarioConfigError,
    ScenarioSource,
    ScenarioSpec,
    SourceBuild,
    SourceUse,
    UnknownSourceError,
    canonical_scenario,
    compile_scenario,
    get_source,
    load_scenario,
    register_source,
    scenario_from_dict,
    scenario_to_dict,
    source_names,
    unregister_source,
)

EXPECTED_SOURCES = {
    "background",
    "calendar",
    "churn",
    "external-wakes",
    "fault",
    "interactive-sessions",
    "network-gated",
    "push-storm",
    "synthetic",
    "table3-apps",
    "trace-replay",
}


def signature(workload):
    """An alarm-id-free fingerprint of a built workload."""
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


class TestRegistry:
    def test_stock_sources_registered(self):
        assert EXPECTED_SOURCES <= set(source_names())

    def test_unknown_source_suggests(self):
        with pytest.raises(UnknownSourceError, match="did you mean 'calendar'"):
            get_source("calender")

    def test_register_and_unregister_custom_source(self):
        from dataclasses import dataclass

        class SilenceSource(ScenarioSource):
            name = "test-silence"
            description = "Contributes nothing (test double)"

            @dataclass(frozen=True)
            class Config:
                pass

            def build(self, ctx):
                return SourceBuild()

        register_source(SilenceSource)
        try:
            spec = ScenarioSpec(
                name="quiet", sources=(SourceUse(source="test-silence"),)
            )
            workload = compile_scenario(spec)
            assert workload.registrations == []
        finally:
            unregister_source("test-silence")
        assert "test-silence" not in source_names()


class TestSchemas:
    @pytest.mark.parametrize("name", sorted(EXPECTED_SOURCES))
    def test_source_is_self_describing(self, name):
        source = get_source(name)
        assert source.description
        fields = source.schema()
        assert fields, f"source {name!r} declares no config fields"
        for field in fields:
            rendered = field.render()
            assert field.name in rendered
            assert field.type_name in rendered

    def test_required_field_marked(self):
        fields = {field.name: field for field in get_source("churn").schema()}
        assert fields["at_ms"].required
        assert not fields["pattern"].required
        assert "required" in fields["at_ms"].render()

    def test_unknown_key_gets_did_you_mean(self):
        problems = get_source("background").validate_kwargs(
            {"oneshots_per_hr": 30.0}
        )
        assert len(problems) == 1
        assert "did you mean 'oneshots_per_hour'" in problems[0]

    def test_type_mismatch_reported(self):
        problems = get_source("background").validate_kwargs(
            {"oneshots_per_hour": "lots"}
        )
        assert problems
        assert "oneshots_per_hour" in problems[0]

    def test_int_accepted_where_float_declared(self):
        assert get_source("background").validate_kwargs(
            {"oneshots_per_hour": 30}
        ) == []

    def test_calendar_rejects_bad_time_of_day(self):
        problems = get_source("calendar").validate_kwargs({"times": ["25:99"]})
        assert any("25:99" in problem for problem in problems)

    def test_trace_replay_needs_exactly_one_input(self):
        source = get_source("trace-replay")
        assert source.validate_kwargs({})
        assert source.validate_kwargs(
            {"path": "log.json", "events": [["a", 1, 0, 10]]}
        )
        assert source.validate_kwargs({"events": [["a", 1, 0, 10]]}) == []


class TestSpec:
    def test_duplicate_ids_rejected(self):
        spec = ScenarioSpec(
            sources=(
                SourceUse(source="background"),
                SourceUse(source="background"),
            )
        )
        assert any("duplicate" in problem for problem in spec.validate())

    def test_distinct_ids_accepted(self):
        spec = ScenarioSpec(
            sources=(
                SourceUse(source="background", id="hum-a"),
                SourceUse(source="background", id="hum-b"),
            )
        )
        assert spec.validate() == []

    def test_override_dotted_key(self):
        base = canonical_scenario("light")
        bumped = base.override({"table3-apps.install_window_ms": 1})
        kwargs = {
            use.id: dict(use.kwargs) for use in bumped.sources
        }
        assert kwargs["table3-apps"]["install_window_ms"] == 1
        assert base.digest() != bumped.digest()

    def test_override_unknown_key_errors(self):
        with pytest.raises(ScenarioConfigError, match="did you mean"):
            canonical_scenario("light").override(
                {"table3-apps.instal_window_ms": 1}
            )

    def test_dict_round_trip_preserves_digest(self):
        for name, factory in CANONICAL_SCENARIOS.items():
            spec = factory()
            round_tripped = scenario_from_dict(scenario_to_dict(spec))
            assert round_tripped.digest() == spec.digest(), name

    def test_json_round_trip_preserves_digest(self):
        spec = canonical_scenario("heavy")
        payload = json.loads(json.dumps(scenario_to_dict(spec)))
        assert scenario_from_dict(payload).digest() == spec.digest()

    def test_unknown_canonical_name_suggests(self):
        with pytest.raises(ScenarioConfigError, match="did you mean 'light'"):
            canonical_scenario("lite")


class TestCompile:
    def test_compile_is_deterministic(self):
        spec = ScenarioSpec(
            name="det",
            horizon=600_000,
            seed=5,
            sources=(
                SourceUse(source="synthetic", kwargs={"app_count": 6}),
                SourceUse(source="push-storm", kwargs={"rate_per_hour": 30.0}),
                SourceUse(source="calendar", kwargs={"times": ("00:05",)}),
            ),
        )
        assert signature(compile_scenario(spec)) == signature(
            compile_scenario(spec)
        )

    def test_registrations_sorted_by_time(self):
        workload = compile_scenario(canonical_scenario("heavy"))
        times = [registration.time for registration in workload.registrations]
        assert times == sorted(times)

    def test_invalid_spec_collects_all_problems(self):
        spec = ScenarioSpec(
            sources=(
                SourceUse(source="calender"),
                SourceUse(source="background", kwargs={"oneshots_per_hr": 1}),
            )
        )
        with pytest.raises(ScenarioConfigError) as excinfo:
            compile_scenario(spec)
        assert len(excinfo.value.problems) == 2

    def test_fault_on_missing_app_is_config_error(self):
        spec = ScenarioSpec(
            horizon=600_000,
            sources=(
                SourceUse(source="synthetic", kwargs={"app_count": 2}),
                SourceUse(source="fault", kwargs={"app": "ghost"}),
            ),
        )
        with pytest.raises(ScenarioConfigError):
            compile_scenario(spec)

    def test_new_sources_build_from_config(self):
        spec = scenario_from_dict(
            {
                "scenario": {"name": "new", "horizon_ms": 600_000, "seed": 2},
                "source": [
                    {"use": "calendar", "times": ["00:02", "00:07"]},
                    {"use": "network-gated", "sessions_per_hour": 12.0},
                    {
                        "use": "trace-replay",
                        "events": [["mail", 120_000, 30_000, 500]],
                    },
                ],
            }
        )
        workload = compile_scenario(spec)
        labels = [r.alarm.label for r in workload.registrations]
        assert any(label.startswith("calendar@") for label in labels)
        assert any(label.startswith("netsync:") for label in labels)
        assert any(label.startswith("mail") for label in labels)
        assert workload.externals, "network sessions contribute external wakes"

    def test_trace_replay_clips_to_horizon(self):
        """A recorded log longer than the scenario replays only its prefix.

        The engine refuses registrations at or beyond the horizon, so
        out-of-horizon occurrences must be dropped, not forwarded
        (found by the fuzz scenario axis)."""
        spec = ScenarioSpec(
            name="clip",
            horizon=300_000,
            sources=(
                SourceUse(
                    source="trace-replay",
                    kwargs={
                        "events": (
                            ("mail", 120_000, 30_000, 500),
                            ("mail", 300_000, 0, 500),  # registers at horizon
                            ("mail", 350_112, 60_000, 100),
                        ),
                        "lead_ms": 0,
                    },
                ),
            ),
        )
        workload = compile_scenario(spec)
        assert len(workload.registrations) == 1
        assert all(r.time < 300_000 for r in workload.registrations)

    def test_churn_clips_directives_to_horizon(self):
        """Storm spread past the horizon drops those directives, not crash.

        Also found by the fuzz scenario axis: a seeded spread offset can
        land a cancellation at/after the horizon, which the engine
        refuses outright."""
        spec = ScenarioSpec(
            name="late-churn",
            horizon=300_000,
            sources=(
                SourceUse(source="synthetic", kwargs={"app_count": 4}),
                SourceUse(
                    source="churn",
                    kwargs={
                        "at_ms": 290_000,
                        "pattern": "cancellation-storm",
                        "spread_ms": 40_000,
                        "seed": 7,
                    },
                ),
            ),
        )
        workload = compile_scenario(spec)
        assert all(d.time < 300_000 for d in workload.directives)


class TestLoadScenario:
    def test_json_file_loads(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(scenario_to_dict(canonical_scenario("light")))
        )
        assert load_scenario(path).digest() == canonical_scenario("light").digest()

    def test_toml_file_loads(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "s.toml"
        path.write_text(
            "[scenario]\nname = 'tiny'\nhorizon_ms = 600000\n\n"
            "[[source]]\nuse = 'background'\noneshots_per_hour = 6.0\n"
        )
        spec = load_scenario(path)
        assert spec.name == "tiny"
        assert compile_scenario(spec).registrations

    def test_invalid_file_reports_every_problem(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "scenario": {"name": "broken"},
                    "source": [
                        {"use": "calender"},
                        {"use": "background", "oneshots_per_hr": 1},
                    ],
                }
            )
        )
        with pytest.raises(ScenarioConfigError) as excinfo:
            load_scenario(path)
        assert len(excinfo.value.problems) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioConfigError, match="not found"):
            load_scenario(tmp_path / "absent.toml")


class TestBackgroundDeprecation:
    def test_plain_dataclass_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load = BackgroundLoad(oneshots_per_hour=1.0)
        assert load.oneshots_per_hour == 1.0
