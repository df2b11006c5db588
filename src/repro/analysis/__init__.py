"""Experiment running, figure/table generation, sweeps and the CLI."""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".experiments": (
            "ExperimentResult",
            "PairResult",
            "run_experiment",
            "run_pair",
            "run_paper_matrix",
            "run_workload",
        ),
        ".export": ("export_paper_results", "paper_results"),
        ".fuzz": (
            "FuzzCase",
            "FuzzReport",
            "ScenarioCase",
            "fuzz",
            "generate_case",
            "generate_scenario_case",
            "render_case",
            "render_scenario_case",
            "run_case",
            "shrink_case",
        ),
        ".figures": (
            "TABLE4_COMPONENTS",
            "fig2_motivating",
            "fig3_energy",
            "fig4_delay",
            "standby_summary",
            "table4_wakeups",
        ),
        ".replication": (
            "MetricStats",
            "ReplicatedPair",
            "replicate_matrix",
            "replicate_pair",
        ),
        ".timeline": ("render_timeline",),
        ".tradeoff": ("TradeoffPoint", "pareto_front", "tradeoff_frontier"),
        ".validation": ("CheckResult", "render_validation", "run_validation"),
        ".report": (
            "format_table",
            "render_all",
            "render_fig2",
            "render_fig3",
            "render_fig4",
            "render_summary",
            "render_table4",
        ),
        ".sweep": (
            "beta_sweep",
            "bucket_sweep",
            "classifier_sweep",
            "duration_sweep",
            "scale_sweep",
            "sensitivity_sweep",
        ),
    },
)
