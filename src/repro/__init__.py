"""SIMTY — similarity-based wakeup management for mobile systems in
connected standby.

A full reproduction of Kao, Cheng and Hsiu, *Similarity-Based Wakeup
Management for Mobile Systems in Connected Standby*, DAC 2016.

The library layers as follows (each importable on its own):

* :mod:`repro.core` — the alarm model, similarity classification and the
  alignment policies (NATIVE, SIMTY, EXACT, duration-aware SIMTY);
* :mod:`repro.simulator` — a discrete-event alarm-manager/device simulator
  standing in for the instrumented Android framework;
* :mod:`repro.power` — calibrated energy accounting and battery projection;
* :mod:`repro.workloads` — the Table 3 app catalog, the paper's light/heavy
  scenarios, a synthetic generator and trace replay;
* :mod:`repro.metrics` — delivery delay, wakeup breakdown, energy,
  fairness (the Sec. 3.2.2 periodicity guarantees are checked online by the
  invariant monitor, ``SimulatorConfig(monitor="record")``);
* :mod:`repro.runner` — the run harness: :class:`RunSpec` descriptions,
  the policy/workload registry, the parallel executor (:func:`run_many`)
  and the content-addressed result cache;
* :mod:`repro.analysis` — experiment matrix, figures/tables and the
  ``simty`` CLI;
* :mod:`repro.obs` — runtime observability: the :class:`Telemetry` hub
  (spans, counters, gauges, histograms), plain-data summaries, and JSONL /
  Chrome-trace / Prometheus exporters (see docs/observability.md).

Quickstart::

    from repro import run_pair

    pair = run_pair("light")
    print(f"SIMTY saves {pair.comparison.total_savings:.0%} energy and "
          f"extends standby by {pair.comparison.standby_extension:.0%}")
"""

from ._lazy import lazy_surface

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".analysis.experiments": (
            "ExperimentResult",
            "PairResult",
            "run_experiment",
            "run_pair",
            "run_paper_matrix",
            "run_workload",
        ),
        ".core": (
            "Alarm",
            "AlarmQueue",
            "Component",
            "DurationAwareSimtyPolicy",
            "ExactPolicy",
            "HardwareSet",
            "Interval",
            "NativePolicy",
            "QueueEntry",
            "RepeatKind",
            "SimtyPolicy",
            "Violation",
            "ViolationSummary",
        ),
        ".obs": (
            "NULL_TELEMETRY",
            "FakeClock",
            "Telemetry",
            "TelemetrySummary",
            "merge_summaries",
            "render_telemetry",
        ),
        ".power": ("NEXUS5", "PowerModel", "account"),
        ".runner": (
            "ResultCache",
            "RunJournal",
            "RunRecord",
            "RunSpec",
            "RunStatus",
            "register_policy",
            "register_workload",
            "run_many",
            "run_spec",
        ),
        ".simulator": (
            "InvariantMonitor",
            "InvariantViolationError",
            "SimulationTrace",
            "Simulator",
            "SimulatorConfig",
            "simulate",
        ),
        ".workloads": (
            "ScenarioConfig",
            "Workload",
            "build_heavy",
            "build_light",
        ),
    },
)
__all__.append("__version__")
