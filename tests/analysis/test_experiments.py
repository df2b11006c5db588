"""Experiment runner."""

import pytest

from repro.analysis.experiments import (
    run_experiment,
    run_pair,
    run_workload,
)
from repro.core.similarity import TwoLevelHardware
from repro.core.simty import SimtyPolicy
from repro.runner import DEFAULT_REGISTRY
from repro.simulator.engine import SimulatorConfig
from repro.workloads.scenarios import ScenarioConfig
from repro.workloads.synthetic import SyntheticConfig, generate


def small_config():
    """A short-horizon scenario so runner tests stay fast."""
    return ScenarioConfig(horizon=900_000)


class TestRunExperiment:
    def test_registries_complete(self):
        assert set(DEFAULT_REGISTRY.policy_names()) == {
            "native",
            "simty",
            "exact",
            "simty+dur",
            "bucket",
        }
        assert set(DEFAULT_REGISTRY.workload_names()) == {
            "light",
            "heavy",
            "synthetic",
            "scenario",
        }

    def test_registry_views_are_live(self):
        DEFAULT_REGISTRY.register_policy("noop-test", lambda: None)
        try:
            assert "noop-test" in DEFAULT_REGISTRY.policy_names()
        finally:
            DEFAULT_REGISTRY.unregister_policy("noop-test")
        assert "noop-test" not in DEFAULT_REGISTRY.policy_names()

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_experiment("midweight", "simty")

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            run_experiment("light", "doze")

    def test_result_fields_populated(self):
        result = run_experiment("light", "simty", small_config())
        assert result.workload_name == "light"
        assert result.policy_name == "simty"
        assert result.trace.delivery_count() > 0
        assert result.energy.total_mj > 0
        assert len(result.major_labels) == 12

    def test_policy_factory_override(self):
        result = run_experiment(
            "light",
            "simty-2lv",
            small_config(),
            policy_factory=lambda: SimtyPolicy(
                hardware_classifier=TwoLevelHardware()
            ),
        )
        assert result.policy_name == "simty-2lv"

    def test_horizon_follows_workload(self):
        result = run_experiment("light", "exact", small_config())
        assert result.trace.horizon == 900_000

    def test_simulator_config_parameters_respected(self):
        result = run_experiment(
            "light",
            "exact",
            small_config(),
            simulator_config=SimulatorConfig(wake_latency_ms=0, tail_ms=0),
        )
        assert result.trace.horizon == 900_000


class TestRunPair:
    def test_pair_structure(self):
        pair = run_pair("light", scenario_config=small_config())
        assert pair.baseline.policy_name == "native"
        assert pair.improved.policy_name == "simty"
        assert pair.comparison.total_savings > 0

    def test_simty_never_wakes_more(self):
        pair = run_pair("light", scenario_config=small_config())
        assert (
            pair.improved.wakeups.cpu.delivered
            <= pair.baseline.wakeups.cpu.delivered
        )


class TestRunWorkload:
    def test_synthetic_workload(self):
        workload = generate(SyntheticConfig(app_count=8, horizon=600_000))
        result = run_workload(workload, SimtyPolicy())
        assert result.workload_name.startswith("synthetic-8")
        assert result.trace.delivery_count() > 0

    def test_reruns_require_fresh_workload(self):
        workload = generate(SyntheticConfig(app_count=4, horizon=600_000))
        run_workload(workload, SimtyPolicy())
        # Alarms are mutated by the first run; the metrics of a second run
        # over the same objects would be wrong, so the library treats
        # workloads as single-use by convention (fresh builds are cheap).
        rebuilt = generate(SyntheticConfig(app_count=4, horizon=600_000))
        result = run_workload(rebuilt, SimtyPolicy())
        assert result.trace.delivery_count() > 0
