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

from .cache import CacheStats, ResultCache
from .executor import execute_spec, run_built, run_many, run_spec
from .journal import RunJournal
from .record import (
    ExperimentResult,
    RunRecord,
    RunStatus,
    failure_table,
    summary_table,
)
from .registry import (
    DEFAULT_REGISTRY,
    Registry,
    UnknownNameError,
    register_policy,
    register_workload,
)
from .spec import RunSpec
from .supervision import SpecExecutionError, SpecTimeoutError, backoff_delay

__all__ = [
    "CacheStats",
    "ResultCache",
    "execute_spec",
    "run_built",
    "run_many",
    "run_spec",
    "ExperimentResult",
    "RunRecord",
    "RunStatus",
    "RunJournal",
    "summary_table",
    "failure_table",
    "DEFAULT_REGISTRY",
    "Registry",
    "UnknownNameError",
    "register_policy",
    "register_workload",
    "RunSpec",
    "SpecExecutionError",
    "SpecTimeoutError",
    "backoff_delay",
]
