"""The differential fuzz harness: generation, detection, shrinking."""

import inspect

import pytest

from repro.analysis.fuzz import (
    BACKEND_AXIS,
    POLICY_NAMES,
    AlarmSpec,
    ChurnOp,
    ExternalSpec,
    FuzzCase,
    ScenarioCase,
    _run_policy,
    fuzz,
    generate_case,
    generate_scenario_case,
    render_case,
    run_case,
    shrink_case,
)
from repro.workloads.churn import CancelAt, ReRegisterAt
from repro.workloads.sources import ScenarioSpec, SourceUse


def simple_case(**overrides):
    base = dict(
        seed=0,
        horizon=300_000,
        alarms=(
            AlarmSpec(
                label="a0", nominal=30_000, interval=60_000, kind="static",
                grace=48_000,
            ),
        ),
    )
    base.update(overrides)
    return FuzzCase(**base)


class TestGeneration:
    def test_deterministic_per_seed(self):
        assert generate_case(17) == generate_case(17)

    def test_seeds_explore_distinct_cases(self):
        cases = {
            (case.horizon, case.alarms, case.churn, case.externals)
            for case in (generate_case(seed) for seed in range(20))
        }
        assert len(cases) > 1

    def test_generated_specs_build_valid_alarms(self):
        for seed in range(50):
            case = generate_case(seed)
            labels = set()
            for spec in case.alarms:
                alarm = spec.build()  # must not raise
                assert alarm.grace_length >= alarm.window_length
                labels.add(spec.label)
            for op in case.churn:
                assert op.target in labels
            for external in case.externals:
                assert 0 <= external.time < case.horizon


class TestEligibility:
    def test_pure_case_is_oracle_eligible(self):
        assert simple_case().oracle_eligible()
        assert simple_case().differential_eligible()

    def test_churn_disables_both(self):
        case = simple_case(
            churn=(ChurnOp(op="cancel", time=10_000, target="a0"),)
        )
        assert not case.oracle_eligible()
        assert not case.differential_eligible()

    def test_hold_disables_oracle_only(self):
        case = simple_case(
            alarms=(
                AlarmSpec(
                    label="a0", nominal=30_000, interval=60_000,
                    kind="static", grace=48_000, hold_ms=2_000,
                ),
            )
        )
        assert not case.oracle_eligible()
        assert case.differential_eligible()

    def test_dynamic_disables_oracle_only(self):
        case = simple_case(
            alarms=(
                AlarmSpec(
                    label="a0", nominal=30_000, interval=60_000,
                    kind="dynamic", grace=48_000,
                ),
            )
        )
        assert not case.oracle_eligible()
        assert case.differential_eligible()

    def test_scenario_cases_skip_oracle_and_differential(self):
        case = generate_scenario_case(0)
        assert not case.oracle_eligible()
        assert not case.differential_eligible()


class TestWorkload:
    def test_raw_case_lowers_to_registrations_directives_externals(self):
        case = simple_case(
            alarms=(
                AlarmSpec(label="a0", nominal=30_000),
                AlarmSpec(label="a1", nominal=40_000),
            ),
            churn=(
                ChurnOp(op="cancel", time=10_000, target="a0"),
                ChurnOp(
                    op="reregister", time=20_000, target="a1",
                    nominal_offset=5_000,
                ),
            ),
            externals=(ExternalSpec(time=50_000, hold_ms=500),),
        )
        workload = case.workload()
        assert workload.horizon == case.horizon
        assert [(r.time, r.alarm.alarm_id, r.alarm.label)
                for r in workload.registrations] == [
            (0, 1, "a0"), (0, 2, "a1"),
        ]
        assert workload.directives == [
            CancelAt(time=10_000, label="a0"),
            ReRegisterAt(time=20_000, label="a1", nominal_offset=5_000),
        ]
        assert [(e.time, e.hold_ms) for e in workload.externals] == [
            (50_000, 500)
        ]
        # Fresh alarms on every call: workloads are single-use.
        assert case.workload().alarms()[0] is not workload.alarms()[0]

    def test_scenario_case_renumbers_compiled_alarms(self):
        workload = generate_scenario_case(3).workload()
        assert [r.alarm.alarm_id for r in workload.registrations] == list(
            range(1, len(workload.registrations) + 1)
        )


class TestRunCase:
    def test_trivial_case_is_clean(self):
        outcome = run_case(simple_case())
        assert outcome.ok, [f.detail for f in outcome.failures]
        assert set(outcome.outcomes) == set(POLICY_NAMES)
        native, simty = (
            outcome.outcomes["native"], outcome.outcomes["simty"]
        )
        assert native.delivered == simty.delivered
        assert native.violations == [] and simty.violations == []

    def test_crash_surfaces_as_failure(self):
        case = simple_case(
            churn=(ChurnOp(op="detonate", time=10_000, target="a0"),)
        )
        outcome = run_case(case)
        assert not outcome.ok
        assert {f.kind for f in outcome.failures} == {"crash"}

    def test_scenario_compile_error_is_a_crash_finding(self):
        spec = ScenarioSpec(
            name="typo", horizon=60_000,
            sources=(SourceUse("calender", id="x"),),
        )
        outcome = run_case(ScenarioCase(seed=0, spec=spec))
        assert {f.kind for f in outcome.failures} == {"crash"}
        assert "did you mean 'calendar'" in outcome.failures[0].detail


class TestBackendAxis:
    def test_list_oracle_is_the_reference(self):
        assert BACKEND_AXIS[0] == "list"
        assert BACKEND_AXIS[1:]
        assert "list" not in BACKEND_AXIS[1:]

    def test_reference_runs_use_the_list_oracle(self):
        # The reference run omits queue_backend; it must not follow the
        # package default, or the axis would compare a backend with itself.
        parameter = inspect.signature(_run_policy).parameters["queue_backend"]
        assert parameter.default == "list"


class TestShrinking:
    def test_crash_case_shrinks_to_minimum(self):
        case = FuzzCase(
            seed=99,
            horizon=300_000,
            alarms=(
                AlarmSpec(label="a0", nominal=30_000, interval=60_000,
                          kind="static", grace=48_000),
                AlarmSpec(label="a1", nominal=10_000, interval=90_000,
                          kind="static", grace=72_000),
                AlarmSpec(label="a2", nominal=5_000),
            ),
            churn=(
                ChurnOp(op="reregister", time=100_000, target="a1"),
                ChurnOp(op="detonate", time=10_000, target="a0"),
            ),
            externals=(ExternalSpec(time=20_000, hold_ms=500),),
        )
        shrunk = shrink_case(case, frozenset({"crash"}))
        assert len(shrunk.alarms) == 1
        assert len(shrunk.churn) == 1
        assert shrunk.churn[0].op == "detonate"
        assert shrunk.externals == ()
        assert not run_case(shrunk).ok  # still reproduces

    def test_shrink_never_drops_last_alarm(self):
        case = simple_case(
            churn=(ChurnOp(op="detonate", time=10_000, target="a0"),)
        )
        shrunk = shrink_case(case, frozenset({"crash"}))
        assert shrunk.alarms  # a case without alarms is not a reproducer


class TestRendering:
    def test_rendered_reproducer_is_executable(self):
        code = render_case(simple_case())
        namespace = {}
        exec(compile(code, "<reproducer>", "exec"), namespace)
        namespace["test_fuzz_regression_seed_0"]()  # clean case: must pass

    def test_rendered_reproducer_fails_on_bad_case(self):
        case = simple_case(
            churn=(ChurnOp(op="detonate", time=10_000, target="a0"),)
        )
        code = render_case(case)
        namespace = {}
        exec(compile(code, "<reproducer>", "exec"), namespace)
        with pytest.raises(AssertionError):
            namespace["test_fuzz_regression_seed_0"]()


class TestCampaign:
    def test_smoke_campaign_is_clean(self):
        # A bounded slice of the CI campaign: every detector quiet.
        report = fuzz(seed=0, budget_s=20.0, max_cases=60)
        assert report.cases_run == 60
        assert report.ok, report.format()
        assert report.violation_total == 0
        assert report.oracle_divergences == 0
        assert report.differential_divergences == 0
        assert report.crashes == 0
        assert "all cases clean" in report.format()

    def test_zero_budget_runs_nothing(self):
        report = fuzz(seed=0, budget_s=0.0)
        assert report.cases_run == 0

    def test_case_budget_respected(self):
        report = fuzz(seed=0, budget_s=60.0, max_cases=3)
        assert report.cases_run == 3
