"""The unified run harness: specs, registries, caching and supervised execution.

One layer, five pieces (see docs/architecture.md, "Run harness" and
docs/robustness.md):

* :class:`RunSpec` — a frozen, hashable, digestible description of one run;
* :class:`Registry` / :data:`DEFAULT_REGISTRY` — pluggable name → factory
  maps for policies and workloads (``register_policy`` /
  ``register_workload``);
* :class:`ResultCache` — content-addressed in-memory + on-disk result
  store keyed by spec digests, with quarantine of corrupt entries;
* :func:`run_spec` / :func:`run_many` — cache-aware execution, with a
  process-pool fan-out and deterministic result ordering; ``run_many`` is
  supervised (per-run :class:`RunStatus`, ``timeout_s``, ``retries``,
  ``on_error="keep_going"``);
* :class:`RunJournal` — the checkpoint journal that lets an interrupted
  sweep resume from where it died.

Every entry point accepts a ``telemetry`` hub (see :mod:`repro.obs`):
cache traffic, worker utilization and per-run engine/policy timings are
recorded when one is passed, and per-run summaries ride on
``record.telemetry``.
"""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".cache": ("CacheStats", "ResultCache"),
        ".executor": ("execute_spec", "run_built", "run_many", "run_spec"),
        ".journal": ("RunJournal",),
        ".record": (
            "ExperimentResult",
            "RunRecord",
            "RunStatus",
            "failure_table",
            "summary_table",
        ),
        ".registry": (
            "DEFAULT_REGISTRY",
            "Registry",
            "UnknownNameError",
            "register_policy",
            "register_workload",
        ),
        ".spec": ("RunSpec",),
        ".supervision": (
            "SpecExecutionError",
            "SpecTimeoutError",
            "backoff_delay",
        ),
    },
)
