"""A finished run is freed by reference counting alone.

Nothing a run builds points back at its :class:`Simulator` (an alarm
records its claim as a bare token), so the run's object graph — the
simulator, its queues, monitor, trace and alarms — holds no reference
cycle.  When its last reference drops it is freed at once, without
waiting for the cyclic collector.  These tests run with the collector
disabled and assert that ``gc.collect()`` then finds nothing: a fleet of
thousands of devices would otherwise hand all of them to the collector.
"""

import gc
import weakref

import pytest

import repro.runner.executor
from repro.fleet import FleetConfig, make_population, run_fleet
from repro.runner import RunSpec
from repro.runner.executor import execute_spec
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.workloads.scenarios import ScenarioConfig

WORKLOADS = ("light", "heavy", "synthetic")
POLICIES = ("simty", "simty+dur", "native", "bucket")
HORIZON = 1_800_000
RECORDING = SimulatorConfig(horizon=HORIZON, monitor="record")


@pytest.fixture
def collector_off():
    """Collect what earlier code left, then keep the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Weakrefs to every Simulator the run harness builds."""
    refs = []

    class Tracked(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(repro.runner.executor, "Simulator", Tracked)
    return refs


def spec(workload, policy):
    return RunSpec(
        workload=workload,
        policy=policy,
        scenario=ScenarioConfig(horizon=HORIZON),
        simulator=RECORDING,
        seed=3,
    )


@pytest.mark.parametrize("archetypes", ("micro", "standard", "scenario"))
def test_a_fleet_leaves_no_cyclic_garbage(
    archetypes, tmp_path, collector_off, simulators
):
    population = make_population(40, archetypes=archetypes, seed=0)
    config = FleetConfig(shards=2, workers=0)
    report = run_fleet(population, config, fleet_dir=tmp_path)
    assert report.completed == population.size
    assert len(simulators) == population.size
    assert [ref for ref in simulators if ref() is not None] == []
    assert gc.collect() == 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_spec_run_leaves_no_cyclic_garbage(
    workload, policy, collector_off, simulators
):
    result = execute_spec(spec(workload, policy))
    assert result.trace.delivery_count() > 0
    assert len(simulators) == 1
    del result
    assert simulators[0]() is None
    assert gc.collect() == 0

