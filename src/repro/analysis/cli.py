"""Command-line front end.

Installed as the ``simty`` console script::

    simty paper                      # reproduce Figs. 2-4 + Table 4
    simty run --workload light --policy simty --dump-events
    simty compare --workload heavy
    simty sweep --kind beta

All output is plain text, matching the layouts in the paper.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

# The parser reads only these constant modules; each command imports
# what it runs when it runs (docs/architecture.md, "What each entry point
# imports").
from ..core.backend import BACKEND_NAMES
from ..runner.registry import DEFAULT_REGISTRY
from ..simulator.clock import WALL_CLOCK_MODES
from ..simulator.monitor import ON_VIOLATION_MODES
from ..workloads.requests import DEFAULT_ADVANCE_EVERY_MS

if TYPE_CHECKING:
    from ..obs.telemetry import Telemetry
    from ..runner.cache import ResultCache
    from ..workloads.scenarios import ScenarioConfig

#: ``simty sweep --kind`` choices; each runs ``analysis.sweep.<kind>_sweep``.
_SWEEP_KINDS = ("beta", "classifier", "scale", "duration", "bucket", "sensitivity")

#: ``simty fleet --archetypes`` choices: the keys of
#: ``fleet.population.ARCHETYPE_SETS`` (tests/test_import_budget.py holds
#: them equal), named here because that module imports every scenario
#: source, which ``serve`` never needs.
_ARCHETYPE_SET_NAMES = ("micro", "scenario", "standard")


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=DEFAULT_REGISTRY.workload_names(),
        default="light",
        help="evaluation scenario (Sec. 4.1)",
    )


def _add_policy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", choices=DEFAULT_REGISTRY.policy_names(), default="simty"
    )


def _add_beta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, default=None)


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help=(
            "declarative scenario config (TOML/JSON) to run instead of a "
            "named --workload; list sources with `simty scenarios`"
        ),
    )


def _load_scenario_spec(path: str):
    """Load a scenario config file, turning problems into a clean exit."""
    from ..workloads.sources import ScenarioConfigError, load_scenario

    try:
        return load_scenario(path)
    except ScenarioConfigError as error:
        raise SystemExit(
            f"--scenario {path}: {len(error.problems)} problem(s)\n"
            + error.format()
        )
    except OSError as error:
        raise SystemExit(f"--scenario: {error}")


def _resolve_workload(args: argparse.Namespace):
    """The (workload name, workload kwargs) pair a command should run.

    ``--scenario PATH`` overrides ``--workload``: the compiled spec rides
    into the harness through the ``"scenario"`` registry builder.
    """
    path = getattr(args, "scenario", None)
    if path is None:
        return args.workload, {}
    return "scenario", {"spec": _load_scenario_spec(path)}


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--queue-backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "scheduling-kernel queue backend (default: the policy's own, "
            "i.e. 'indexed', which keeps the alignment hot path sub-linear); "
            "'list' is the full-scan reference and makes the same decisions"
        ),
    )


def _simulator_config(args: argparse.Namespace):
    """A SimulatorConfig override, or None when every knob is default."""
    from ..simulator.engine import SimulatorConfig

    backend = getattr(args, "queue_backend", None)
    if backend is None:
        return None
    return SimulatorConfig(queue_backend=backend)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simty",
        description=(
            "Similarity-based wakeup management (DAC'16) — simulation and "
            "paper-reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    paper = sub.add_parser("paper", help="reproduce every figure and table")
    _add_beta_arg(paper)
    paper.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all artifact data as JSON",
    )
    _add_backend_arg(paper)
    _add_harness_args(paper)
    _add_telemetry_args(paper)

    run = sub.add_parser("run", help="run one policy on one workload")
    _add_workload_arg(run)
    _add_scenario_arg(run)
    _add_backend_arg(run)
    _add_policy_arg(run)
    _add_beta_arg(run)
    _add_telemetry_args(run)
    run.add_argument(
        "--dump-events",
        action="store_true",
        help="print the chronological event log",
    )
    run.add_argument(
        "--timeline",
        action="store_true",
        help="print an ASCII timeline of the run",
    )
    run.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the run's trace as JSON for later `simty inspect`",
    )
    run.add_argument(
        "--blame",
        action="store_true",
        help="print per-app energy attribution",
    )

    compare = sub.add_parser("compare", help="NATIVE vs SIMTY on one workload")
    _add_workload_arg(compare)
    _add_scenario_arg(compare)
    _add_backend_arg(compare)
    _add_beta_arg(compare)
    compare.add_argument(
        "--baseline", choices=DEFAULT_REGISTRY.policy_names(), default="native"
    )
    compare.add_argument(
        "--improved", choices=DEFAULT_REGISTRY.policy_names(), default="simty"
    )
    _add_telemetry_args(compare)

    profile = sub.add_parser(
        "profile",
        help=(
            "run one fully instrumented simulation: per-phase timings, the "
            "SIMTY similarity-class decision breakdown, and trace exports"
        ),
    )
    _add_workload_arg(profile)
    _add_backend_arg(profile)
    _add_policy_arg(profile)
    _add_beta_arg(profile)
    profile.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    profile.add_argument(
        "--jsonl-out",
        metavar="PATH",
        default=None,
        help="write the raw telemetry event log as JSON lines",
    )
    profile.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help="write a Prometheus-style text snapshot of every metric",
    )

    inspect = sub.add_parser(
        "inspect", help="analyse a trace saved with `run --save-trace`"
    )
    inspect.add_argument("trace", help="path to a saved trace JSON")
    inspect.add_argument("--timeline", action="store_true")
    inspect.add_argument(
        "--telemetry",
        action="store_true",
        help="print the telemetry summary embedded in the trace, if any",
    )

    sub.add_parser("validate", help="run installation self-checks")

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help=(
            "differential-fuzz NATIVE vs SIMTY with the invariant monitor "
            "armed; failures are shrunk to ready-to-paste test cases"
        ),
    )
    fuzz_cmd.add_argument(
        "--budget",
        type=_positive_float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget for the campaign (default 60)",
    )
    fuzz_cmd.add_argument(
        "--cases",
        type=_positive_int,
        default=1_000,
        metavar="N",
        help="maximum number of generated cases (default 1000)",
    )
    fuzz_cmd.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=0,
        help="base seed; case i is generated from seed+i",
    )
    fuzz_cmd.add_argument(
        "--scenario-fraction",
        type=float,
        default=None,
        metavar="P",
        help=(
            "fraction of cases that fuzz scenario compositions instead of "
            "raw alarm populations (default 0.25; 0 disables the axis)"
        ),
    )
    fuzz_cmd.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help=(
            "instead of a campaign, vet this one scenario config against "
            "every detector (crash, invariants, backend/stepping equality)"
        ),
    )

    sweep = sub.add_parser("sweep", help="ablations and scaling studies")
    sweep.add_argument(
        "--kind",
        choices=_SWEEP_KINDS,
        default="beta",
    )
    _add_workload_arg(sweep)
    _add_scenario_arg(sweep)
    _add_backend_arg(sweep)
    _add_harness_args(sweep)
    _add_telemetry_args(sweep)

    scenarios_cmd = sub.add_parser(
        "scenarios",
        help=(
            "list the registered scenario sources and their config "
            "schemas; --check validates a config file, --canonical "
            "exports a built-in workload as a starting-point config"
        ),
    )
    scenarios_cmd.add_argument(
        "--source",
        metavar="NAME",
        default=None,
        help="show only this source's schema",
    )
    scenarios_cmd.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help=(
            "validate a scenario config file; every problem is reported "
            "(with did-you-mean suggestions) and the exit code is non-zero"
        ),
    )
    scenarios_cmd.add_argument(
        "--canonical",
        metavar="NAME",
        default=None,
        help=(
            "print a canonical scenario (e.g. 'light', 'diurnal-heavy') "
            "as a JSON config to edit from"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run a live alarm-service daemon: line-delimited JSON requests "
            "over stdio / TCP / Unix socket, with crash/resume checkpoints "
            "and a scrapeable /metrics endpoint (docs/service.md)"
        ),
    )
    _add_policy_arg(serve)
    _add_backend_arg(serve)
    serve.add_argument(
        "--horizon",
        type=_positive_int,
        default=None,
        metavar="MS",
        help="service horizon in simulated ms (default: 3 h, the paper's)",
    )
    serve.add_argument(
        "--clock",
        choices=WALL_CLOCK_MODES,
        default="manual",
        help=(
            "wall clock driving the engine: 'manual' (advance ops only), "
            "'real' (1 ms/ms) or 'accelerated' (--speed sim-ms per wall-ms)"
        ),
    )
    serve.add_argument(
        "--speed",
        type=_positive_float,
        default=60.0,
        metavar="X",
        help="accelerated-clock factor (default 60: 1 s wall = 1 min sim)",
    )
    serve.add_argument(
        "--monitor",
        choices=("off",) + ON_VIOLATION_MODES,
        default="record",
        help="invariant monitor mode on the live path (default: record)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="directory for the crash/resume journal (off when omitted)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=60_000,
        metavar="MS",
        help="simulated ms between automatic journal watermarks",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint journal instead of starting fresh",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="also serve the protocol on a TCP socket (port 0 = ephemeral)",
    )
    serve.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="also serve the protocol on a Unix socket",
    )
    serve.add_argument(
        "--metrics-port",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help="serve Prometheus text at http://127.0.0.1:PORT/metrics",
    )
    serve.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="after a draining shutdown, write the sealed trace as JSON",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "admission control: at most N requests in flight across all "
            "connections; excess is shed with an 'overloaded' error "
            "(default: unbounded)"
        ),
    )
    serve.add_argument(
        "--slow-request-ms",
        type=float,
        default=1_000.0,
        metavar="MS",
        help=(
            "flag requests slower than MS wall ms into telemetry and run "
            "the in-flight watchdog at the same threshold (<=0 disables; "
            "default 1000)"
        ),
    )
    serve.add_argument(
        "--stream",
        metavar="DIR",
        default=None,
        help=(
            "spool live telemetry deltas into DIR for `simty top --stream DIR`"
        ),
    )
    serve.add_argument(
        "--stream-interval",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="minimum wall seconds between streamed deltas (default 0.5)",
    )
    serve.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help=(
            "inject faults for torture testing: comma-separated key=value "
            "tokens, e.g. 'dup=0.2,fsync=0.01,jlat=5:0.5,skew=250,seed=7' "
            "(journal + clock faults apply in-process; run a chaos proxy "
            "for transport faults — see docs/robustness.md)"
        ),
    )

    top = sub.add_parser(
        "top",
        help=(
            "live terminal view over a telemetry stream spool: tail the "
            "deltas that `simty fleet --stream` / `simty serve --stream` "
            "emit and render a rolling fleet-wide summary"
        ),
    )
    top.add_argument(
        "--stream",
        metavar="DIR",
        required=True,
        help="spool directory the producers stream into",
    )
    top.add_argument(
        "--interval",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between refreshes (default 1)",
    )
    top.add_argument(
        "--stale-after",
        type=_positive_float,
        default=5.0,
        metavar="SECONDS",
        help="mark a source stale after this many silent seconds (default 5)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit",
    )
    top.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="exit after N frames (default: run until every source is final)",
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "reconstruct why alarms woke (or didn't wake) the device: re-run "
            "one workload with the decision audit armed and print each "
            "alignment decision's Table-1 selection path"
        ),
    )
    _add_workload_arg(explain)
    _add_backend_arg(explain)
    _add_policy_arg(explain)
    _add_beta_arg(explain)
    explain.add_argument(
        "--alarm",
        type=_nonnegative_int,
        default=None,
        metavar="ID",
        help="focus on one alarm: its sampled decisions and its deliveries",
    )
    explain.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        metavar="P",
        help="audit sampling probability in [0,1] (default 1: every decision)",
    )
    explain.add_argument(
        "--capacity",
        type=_positive_int,
        default=65_536,
        metavar="N",
        help="decision ring size; older decisions are evicted (default 65536)",
    )
    explain.add_argument(
        "--limit",
        type=_nonnegative_int,
        default=20,
        metavar="N",
        help="rows in the most-deferred decision table (0 = all; default 20)",
    )
    explain.add_argument(
        "--decisions-out",
        metavar="PATH",
        default=None,
        help="also write every sampled decision as JSON lines",
    )

    fleet = sub.add_parser(
        "fleet",
        help=(
            "simulate a sharded device population with resumable shards, "
            "poison-device quarantine and constant-memory aggregation"
        ),
    )
    fleet.add_argument(
        "--devices",
        type=_positive_int,
        default=1000,
        metavar="N",
        help="population size",
    )
    fleet.add_argument(
        "--archetypes",
        choices=_ARCHETYPE_SET_NAMES,
        default="standard",
        help="device archetype mix",
    )
    fleet.add_argument("--seed", type=int, default=0, help="population seed")
    fleet.add_argument(
        "--shards",
        type=_positive_int,
        default=8,
        metavar="N",
        help="deterministic contiguous shards the population splits into",
    )
    fleet.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="shard worker processes (0 = run shards in-process)",
    )
    fleet.add_argument(
        "--fleet-dir",
        metavar="PATH",
        default=None,
        help="directory for shard journals (required for --resume)",
    )
    fleet.add_argument(
        "--resume",
        action="store_true",
        help="trust sealed shard journals in --fleet-dir; re-run the rest",
    )
    fleet.add_argument(
        "--quarantine-dir",
        metavar="PATH",
        default=None,
        help="where poison-device reproducers land (default: fleet-dir/quarantine)",
    )
    fleet.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the full fleet report as JSON",
    )
    fleet.add_argument(
        "--device-retries",
        type=_nonnegative_int,
        default=1,
        metavar="N",
        help="retries per device before quarantine",
    )
    fleet.add_argument(
        "--device-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for one device attempt",
    )
    fleet.add_argument(
        "--shard-retries",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="re-runs of a crashed or straggling shard before it is FAILED",
    )
    fleet.add_argument(
        "--coverage-threshold",
        type=float,
        default=0.95,
        metavar="FRACTION",
        help="completed-device fraction below which percentiles are withheld",
    )
    fleet.add_argument(
        "--stream",
        metavar="DIR",
        default=None,
        help=(
            "spool live per-shard telemetry deltas into DIR; watch them with "
            "`simty top --stream DIR` while the fleet runs"
        ),
    )
    fleet.add_argument(
        "--stream-interval",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="minimum wall seconds between streamed deltas (default 0.5)",
    )
    fleet.add_argument(
        "--metrics-port",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help=(
            "serve a Prometheus view of the merged live telemetry at "
            "http://127.0.0.1:PORT/metrics (requires --stream; 0 = ephemeral)"
        ),
    )
    _add_telemetry_args(fleet)

    requests_cmd = sub.add_parser(
        "requests",
        help=(
            "compile a workload into the JSONL request stream `simty serve` "
            "accepts (registrations + churn + advance ops + drain)"
        ),
    )
    _add_workload_arg(requests_cmd)
    _add_scenario_arg(requests_cmd)
    _add_beta_arg(requests_cmd)
    requests_cmd.add_argument(
        "--advance-every",
        type=_positive_int,
        default=DEFAULT_ADVANCE_EVERY_MS,
        metavar="MS",
        help="spacing of interleaved advance ops (simulated ms)",
    )
    requests_cmd.add_argument(
        "--checkpoint-every-ops",
        type=_positive_int,
        default=None,
        metavar="N",
        help="insert an explicit checkpoint op after every N mutations",
    )
    requests_cmd.add_argument(
        "--no-drain",
        action="store_true",
        help="end with a non-draining shutdown (leave the horizon unreached)",
    )
    requests_cmd.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the stream to a file instead of stdout",
    )
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_harness_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="simulate the run grid over N worker processes",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the harness run records (digests, wall time, cache hits)"
            " and, when any run failed, a failure-summary table"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="content-addressed on-disk result cache shared across invocations",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="supervise each simulation attempt with this wall-clock budget",
    )
    parser.add_argument(
        "--retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="re-execute a failed or timed-out run up to N extra times",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "quarantine failed runs as FAILED/TIMEOUT records instead of"
            " aborting the whole batch"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep from the cache dir's checkpoint"
            " journal (requires --cache-dir); only digests the journal"
            " recorded as completed are trusted to the cache"
        ),
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument the run(s) and print a telemetry summary",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write a Chrome trace_event JSON of the instrumented run(s);"
            " implies --telemetry"
        ),
    )


def _telemetry_hub(args: argparse.Namespace) -> Optional[Telemetry]:
    """The run's hub, or ``None`` (= zero-cost no-op instrumentation)."""
    from ..obs.telemetry import Telemetry

    if getattr(args, "trace_out", None):
        args.telemetry = True
    return Telemetry() if getattr(args, "telemetry", False) else None


def _finish_telemetry(
    args: argparse.Namespace, hub: Optional[Telemetry]
) -> None:
    """Print the summary and write the Chrome trace, if instrumented."""
    if hub is None:
        return
    from ..obs.exporters import write_chrome_trace
    from ..obs.render import render_telemetry

    print()
    print(render_telemetry(hub.summary()))
    if args.trace_out:
        count = write_chrome_trace(hub, args.trace_out)
        print(f"\nchrome trace ({count} events) written to {args.trace_out}")


def _scenario_config(beta: Optional[float]) -> Optional[ScenarioConfig]:
    if beta is None:
        return None
    from ..workloads.scenarios import ScenarioConfig

    return ScenarioConfig(beta=beta)


@contextmanager
def _harness(args: argparse.Namespace) -> Iterator[dict]:
    """The ``run_many`` kwargs of a ``paper`` or ``sweep`` invocation.

    The checkpoint journal behind ``--cache-dir`` holds an append handle,
    so it is closed when the command's runs are done.
    """
    from ..runner.cache import ResultCache
    from ..runner.journal import RunJournal

    if args.resume and args.cache_dir is None:
        raise SystemExit("--resume requires --cache-dir (the journal lives there)")
    cache = ResultCache(disk_dir=args.cache_dir)
    hub = _telemetry_hub(args)
    if hub is not None:
        cache.bind_telemetry(hub)
    checkpoint = (
        RunJournal.at(args.cache_dir) if args.cache_dir is not None else None
    )
    try:
        yield dict(
            cache=cache,
            max_workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            on_error="keep_going" if args.keep_going else "raise",
            checkpoint=checkpoint,
            resume=args.resume,
            telemetry=hub,
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()


def _print_stats(cache: ResultCache) -> None:
    from ..runner.record import failure_table, summary_table

    print()
    print(summary_table(cache.records))
    failures = failure_table(cache.records)
    if failures:
        print()
        print("failed runs (quarantined by the supervisor):")
        print(failures)
    print(f"cache: {cache.stats}")


def _command_paper(args: argparse.Namespace) -> int:
    from .experiments import run_paper_matrix
    from .report import render_all

    scenario_config = _scenario_config(args.beta)
    with _harness(args) as harness:
        matrix = run_paper_matrix(
            scenario_config=scenario_config,
            simulator_config=_simulator_config(args),
            **harness,
        )
    if len(matrix) < 2:
        missing = sorted({"light", "heavy"} - set(matrix))
        print(
            f"warning: dropped workload(s) {missing} — a half pair renders "
            "nothing; see --stats for the captured failures"
        )
    print(render_all(matrix))
    if args.json:
        from .export import export_paper_results

        export_paper_results(args.json, matrix, scenario_config)
        print(f"\nartifact data written to {args.json}")
    if args.stats:
        _print_stats(harness["cache"])
    _finish_telemetry(args, harness["telemetry"])
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from ..power.attribution import attribution_table
    from ..power.profiles import NEXUS5
    from ..simulator.events import event_log
    from ..simulator.serialize import save_trace
    from .experiments import run_experiment
    from .timeline import render_timeline

    hub = _telemetry_hub(args)
    workload, workload_kwargs = _resolve_workload(args)
    result = run_experiment(
        workload,
        args.policy,
        _scenario_config(args.beta),
        simulator_config=_simulator_config(args),
        telemetry=hub,
        workload_kwargs=workload_kwargs,
    )
    print(
        f"{result.policy_name.upper()} on {result.workload_name}: "
        f"{result.wakeups.cpu.delivered} wakeups, "
        f"{result.energy.total_mj / 1000.0:.0f} J total "
        f"({result.energy.awake_mj / 1000.0:.0f} J awake), "
        f"imperceptible delay {result.delays.imperceptible.mean:.4f}"
    )
    if args.timeline:
        print()
        print(render_timeline(result.trace))
    if args.blame:
        print()
        for share in attribution_table(result.trace, NEXUS5):
            print(
                f"  {share.app:<20s} {share.total_mj / 1000.0:8.1f} J"
            )
    if args.save_trace:
        save_trace(result.trace, args.save_trace)
        print(f"trace written to {args.save_trace}")
    if args.dump_events:
        for event in event_log(result.trace):
            print(event.format())
    _finish_telemetry(args, hub)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from .experiments import run_pair
    from .report import render_fig3, render_fig4, render_summary, render_table4

    hub = _telemetry_hub(args)
    workload, workload_kwargs = _resolve_workload(args)
    pair = run_pair(
        workload,
        baseline_policy=args.baseline,
        improved_policy=args.improved,
        scenario_config=_scenario_config(args.beta),
        simulator_config=_simulator_config(args),
        telemetry=hub,
        workload_kwargs=workload_kwargs,
    )
    matrix = {workload: pair}
    print(render_fig3(matrix))
    print()
    print(render_fig4(matrix))
    print()
    print(render_table4(matrix))
    print()
    print(render_summary(matrix))
    _finish_telemetry(args, hub)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from ..obs.exporters import prometheus_text, write_chrome_trace, write_jsonl
    from ..obs.render import render_telemetry
    from ..obs.telemetry import Telemetry
    from ..runner.executor import run_spec
    from ..runner.spec import RunSpec

    hub = Telemetry()
    spec = RunSpec(
        workload=args.workload,
        policy=args.policy,
        scenario=_scenario_config(args.beta),
        simulator=_simulator_config(args),
    )
    record = run_spec(spec, telemetry=hub)
    result = record.result
    print(
        f"{result.policy_name.upper()} on {result.workload_name}: "
        f"{result.wakeups.cpu.delivered} wakeups, "
        f"{result.energy.total_mj / 1000.0:.0f} J total, "
        f"simulated in {record.wall_time_s * 1000.0:.1f} ms"
    )
    print()
    print(render_telemetry(hub.summary()))
    if args.trace_out:
        count = write_chrome_trace(hub, args.trace_out)
        print(f"\nchrome trace ({count} events) written to {args.trace_out}")
    if args.jsonl_out:
        count = write_jsonl(hub, args.jsonl_out)
        print(f"telemetry event log ({count} lines) written to {args.jsonl_out}")
    if args.prom_out:
        from pathlib import Path

        Path(args.prom_out).write_text(prometheus_text(hub))
        print(f"prometheus snapshot written to {args.prom_out}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from . import sweep
    from .report import format_table

    workload, workload_kwargs = _resolve_workload(args)
    if args.kind == "scale":
        if args.scenario is not None:
            raise SystemExit(
                "--scenario is not supported with --kind scale (that sweep "
                "generates its own synthetic workloads of growing size)"
            )
        grid = {}
    else:
        grid = dict(workload=workload, workload_kwargs=workload_kwargs)
    with _harness(args) as harness:
        rows = getattr(sweep, f"{args.kind}_sweep")(
            simulator_config=_simulator_config(args), **grid, **harness
        )
    if not rows:
        print("no results")
        return 1
    headers = list(rows[0].keys())
    body = [
        [
            "-"
            if value is None
            else f"{value:.4f}"
            if isinstance(value, float)
            else str(value)
            for value in row.values()
        ]
        for row in rows
    ]
    print(format_table(headers, body))
    if args.stats:
        _print_stats(harness["cache"])
    _finish_telemetry(args, harness["telemetry"])
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from .validation import render_validation, run_validation

    results = run_validation()
    print(render_validation(results))
    return 0 if all(result.passed for result in results) else 1


def _command_fuzz(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        from .fuzz import ScenarioCase, run_case

        spec = _load_scenario_spec(args.scenario)
        outcome = run_case(ScenarioCase(seed=args.seed, spec=spec))
        if outcome.ok:
            print(
                f"{args.scenario}: ok — scenario {spec.name!r} "
                f"({len(spec.sources)} source(s)) survived every detector "
                "(crash, invariants, backend and stepping equality)"
            )
            return 0
        print(f"{args.scenario}: {len(outcome.failures)} detector(s) fired")
        for failure in outcome.failures:
            print(f"  [{failure.kind}] {failure.detail}")
        return 1

    from .fuzz import fuzz

    extra = {}
    if args.scenario_fraction is not None:
        extra["scenario_fraction"] = args.scenario_fraction
    report = fuzz(
        seed=args.seed, budget_s=args.budget, max_cases=args.cases, **extra
    )
    print(report.format())
    return 0 if report.ok else 1


def _command_inspect(args: argparse.Namespace) -> int:
    from ..metrics.delay import delay_report
    from ..metrics.wakeups import wakeup_breakdown
    from ..obs.render import render_telemetry
    from ..power.accounting import account
    from ..power.attribution import attribution_table
    from ..power.profiles import NEXUS5
    from ..simulator.serialize import load_trace
    from .timeline import render_timeline

    trace = load_trace(args.trace)
    breakdown = account(trace, NEXUS5)
    delays = delay_report(trace)
    wakeups = wakeup_breakdown(trace)
    print(
        f"{trace.policy_name} trace over {trace.horizon / 3_600_000.0:.2f} h: "
        f"{wakeups.cpu.delivered} wakeups, "
        f"{trace.delivery_count()} deliveries, "
        f"{breakdown.total_mj / 1000.0:.0f} J total, "
        f"imperceptible delay {delays.imperceptible.mean:.4f}"
    )
    for share in attribution_table(trace, NEXUS5):
        print(f"  {share.app:<20s} {share.total_mj / 1000.0:8.1f} J")
    if args.timeline:
        print()
        print(render_timeline(trace))
    if args.telemetry:
        print()
        if trace.telemetry is not None:
            print(render_telemetry(trace.telemetry))
        else:
            print(
                "(no telemetry in this trace — record one with "
                "`simty run --telemetry --save-trace ...`)"
            )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from ..core.units import THREE_HOURS_MS
    from ..obs.stream import MetricsEndpoint
    from ..obs.telemetry import Telemetry
    from ..service import (
        AlarmService,
        ServiceConfig,
        ServiceJournal,
        SlowRequestWatchdog,
        SocketServer,
        Ticker,
        serve_stdio,
    )
    from ..simulator.serialize import save_trace

    chaos_spec = None
    if args.chaos is not None:
        from ..service.chaos import ChaosSpec, FaultyLog, SkewedWallClock

        try:
            chaos_spec = ChaosSpec.parse(args.chaos)
        except ValueError as error:
            raise SystemExit(f"--chaos: {error}")

    slow_ms = args.slow_request_ms if args.slow_request_ms > 0 else None
    config = ServiceConfig(
        policy=args.policy,
        horizon=args.horizon if args.horizon is not None else THREE_HOURS_MS,
        queue_backend=args.queue_backend,
        monitor=None if args.monitor == "off" else args.monitor,
        clock=args.clock,
        speed=args.speed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_ms=args.checkpoint_every,
        max_inflight=args.max_inflight,
        slow_request_ms=slow_ms,
        stream_dir=args.stream,
        stream_interval_s=args.stream_interval,
    )
    if args.stream is not None:
        print(
            f"streaming telemetry deltas to {args.stream} "
            f"(watch with `simty top --stream {args.stream}`)",
            file=sys.stderr,
        )

    telemetry = Telemetry()
    journal_factory = None
    if chaos_spec is not None:
        print(f"chaos armed: {chaos_spec.describe()}", file=sys.stderr)

        def journal_factory(path, _spec=chaos_spec, _hub=telemetry):
            return ServiceJournal(path, FaultyLog(path, _spec, telemetry=_hub))

    if args.resume:
        if args.checkpoint_dir is None:
            raise SystemExit("--resume requires --checkpoint-dir")
        service = AlarmService.resume(
            config, telemetry, journal_factory=journal_factory
        )
        print(
            f"resumed {config.policy.upper()} at sim t={service.simulator.now} ms "
            f"({len(service.journal)} journal entries, "
            f"{service.journal.skipped} skipped lines)",
            file=sys.stderr,
        )
    else:
        service = AlarmService(
            config, telemetry, journal_factory=journal_factory
        )
        print(
            f"serving {config.policy.upper()} to horizon "
            f"{config.horizon} ms on a {config.clock} clock",
            file=sys.stderr,
        )

    if (
        chaos_spec is not None
        and chaos_spec.skew_ms > 0
        and config.clock != "manual"
    ):
        service.wall = SkewedWallClock(
            service.wall, chaos_spec, telemetry=service.telemetry
        )

    def _graceful_exit(signum: int, frame: object) -> None:
        info = service.shutdown_gracefully()
        name = signal.Signals(signum).name
        if info["already"]:
            print(f"{name}: already shut down", file=sys.stderr)
        else:
            print(
                f"{name}: graceful shutdown, final watermark at "
                f"{info['watermark_ms']} ms",
                file=sys.stderr,
            )
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _graceful_exit)
    signal.signal(signal.SIGINT, _graceful_exit)

    metrics = None
    if args.metrics_port is not None:
        metrics = MetricsEndpoint(service.render_metrics, port=args.metrics_port)
        print(f"metrics at {metrics.url}", file=sys.stderr)

    ticker = None
    if config.clock != "manual":
        ticker = Ticker(service).start()

    watchdog = None
    if slow_ms is not None:
        watchdog = SlowRequestWatchdog(
            service, threshold_s=max(slow_ms / 1_000.0, 0.1)
        ).start()

    socket_server = None
    try:
        if args.tcp is not None or args.unix_socket is not None:
            if args.tcp is not None:
                host, _, port_text = args.tcp.rpartition(":")
                socket_server = SocketServer(
                    service, tcp=(host or "127.0.0.1", int(port_text))
                ).start()
                bound_host, bound_port = socket_server.address
                print(
                    f"listening on tcp://{bound_host}:{bound_port}",
                    file=sys.stderr,
                )
            else:
                socket_server = SocketServer(
                    service, unix_path=args.unix_socket
                ).start()
                print(f"listening on unix://{args.unix_socket}", file=sys.stderr)
            socket_server.wait()
        else:
            handled = serve_stdio(service, sys.stdin, sys.stdout)
            print(f"served {handled} request(s)", file=sys.stderr)
    finally:
        if watchdog is not None:
            watchdog.stop()
        if ticker is not None:
            ticker.stop()
        if socket_server is not None:
            socket_server.close()
        if metrics is not None:
            metrics.close()
    if args.save_trace:
        if service.trace is None:
            print(
                "no sealed trace (shutdown was not a drain); nothing saved",
                file=sys.stderr,
            )
        else:
            save_trace(service.trace, args.save_trace)
            print(f"trace written to {args.save_trace}", file=sys.stderr)
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    from ..fleet.executor import FleetConfig, run_fleet
    from ..fleet.population import make_population
    from ..obs.exporters import prometheus_text

    if args.resume and args.fleet_dir is None:
        print("--resume requires --fleet-dir (journals live there)", file=sys.stderr)
        return 2
    if args.metrics_port is not None and args.stream is None:
        print("--metrics-port requires --stream (it serves the live view)",
              file=sys.stderr)
        return 2
    population = make_population(
        args.devices, archetypes=args.archetypes, seed=args.seed
    )
    config = FleetConfig(
        shards=args.shards,
        workers=args.workers,
        device_retries=args.device_retries,
        device_timeout_s=args.device_timeout,
        shard_retries=args.shard_retries,
        coverage_threshold=args.coverage_threshold,
        quarantine_dir=args.quarantine_dir,
        stream_dir=args.stream,
        stream_interval_s=args.stream_interval,
    )
    hub = _telemetry_hub(args)
    endpoint = None
    if args.metrics_port is not None:
        from ..obs.stream import Collector, MetricsEndpoint

        collector = Collector(spool_dir=args.stream)

        def _render_metrics() -> str:
            collector.scan()
            return prometheus_text(collector.rolling())

        endpoint = MetricsEndpoint(_render_metrics, port=args.metrics_port)
        print(f"metrics at {endpoint.url}", file=sys.stderr)
    if args.stream is not None:
        print(
            f"streaming shard telemetry to {args.stream} "
            f"(watch with `simty top --stream {args.stream}`)",
            file=sys.stderr,
        )
    try:
        report = run_fleet(
            population,
            config,
            fleet_dir=args.fleet_dir,
            resume=args.resume,
            telemetry=hub,
        )
    finally:
        if endpoint is not None:
            endpoint.close()
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.report}")
    _finish_telemetry(args, hub)
    # A fleet with FAILED shards delivered a partial result; say so in the
    # exit code too, so CI and scripts cannot mistake it for a clean run.
    return 1 if report.shard_stats.get("failed") else 0


def _command_top(args: argparse.Namespace) -> int:
    import time as time_module

    from ..obs.stream import Collector

    collector = Collector(spool_dir=args.stream, stale_after_s=args.stale_after)
    limit = 1 if args.once else args.iterations
    frames = 0
    while True:
        collector.scan()
        if limit is None and sys.stdout.isatty():
            # Live mode on a terminal: repaint in place like top(1).
            print("\x1b[2J\x1b[H", end="")
        print(collector.render())
        frames += 1
        if collector.all_final():
            print("\nall sources final.")
            return 0
        if limit is not None and frames >= limit:
            return 0
        sys.stdout.flush()
        time_module.sleep(args.interval)


def _command_explain(args: argparse.Namespace) -> int:
    from ..obs.audit import DecisionAudit
    from ..obs.render import render_decisions, render_wake_table
    from ..runner.executor import execute_spec
    from ..runner.spec import RunSpec

    if not 0.0 <= args.sample_rate <= 1.0:
        raise SystemExit("--sample-rate must be in [0, 1]")
    spec = RunSpec(
        workload=args.workload,
        policy=args.policy,
        scenario=_scenario_config(args.beta),
        simulator=_simulator_config(args),
    )
    # Seeding the sampler from the run digest keeps the sampled decision
    # set reproducible: the same spec always explains the same decisions.
    audit = DecisionAudit.for_digest(
        spec.digest(), sample_rate=args.sample_rate, capacity=args.capacity
    )
    result = execute_spec(spec, audit=audit)
    trace = result.trace
    decisions = list(trace.decisions)
    print(
        f"{trace.policy_name} on {args.workload}: "
        f"{audit.decisions_seen} alignment decisions, "
        f"{audit.decisions_sampled} sampled, ring holds {len(decisions)}"
    )
    if args.decisions_out:
        with open(args.decisions_out, "w", encoding="utf-8") as handle:
            for record in decisions:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")
        print(f"decision log written to {args.decisions_out}")
    if args.alarm is None:
        print()
        print(render_wake_table(trace))
        deferred = sorted(
            (d for d in decisions if d.deferral_ms > 0),
            key=lambda d: d.deferral_ms,
            reverse=True,
        )
        if deferred:
            print()
            print("most-deferred decisions (largest first):")
            print(render_decisions(deferred, limit=args.limit))
        else:
            print()
            print("no sampled decision deferred an alarm.")
        return 0
    mine = [d for d in decisions if d.alarm_id == args.alarm]
    deliveries = [
        record
        for record in trace.deliveries()
        if record.alarm_id == args.alarm
    ]
    if not mine and not deliveries:
        print(f"\nno sampled decision or delivery mentions alarm {args.alarm}")
        return 1
    for record in mine:
        print()
        print(
            f"decision seq {record.seq} at t={record.time} ms "
            f"({record.policy} {record.kind}):"
        )
        print(
            f"  alarm {record.alarm_id} {record.label!r} app={record.app} "
            f"wakeup={record.wakeup} perceptible={record.perceptible} "
            f"nominal t={record.nominal_time} ms"
        )
        print(
            f"  scanned {record.scanned} candidate entr"
            f"{'y' if record.scanned == 1 else 'ies'}, "
            f"{record.applicable} applicable"
        )
        for reason, count in record.rejections:
            print(f"    rejected {count} ({reason})")
        if record.new_entry:
            print("  -> no applicable entry won; a new entry was created")
        else:
            detail = ""
            if record.hw is not None:
                rank = (
                    f", Table-1 rank {record.table1_rank}"
                    if record.table1_rank is not None
                    else ""
                )
                detail = f" (hw={record.hw}, time={record.time_sim}{rank})"
            print(
                f"  -> joined entry #{record.chosen_entry}{detail}; "
                f"deferral {record.deferral_ms:+d} ms"
            )
    for record in deliveries:
        print()
        print(
            f"delivery: nominal t={record.nominal_time} ms -> delivered "
            f"t={record.delivered_at} ms "
            f"({record.delivered_at - record.nominal_time:+d} ms, "
            f"batch #{record.batch_index})"
        )
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    from ..workloads.sources import (
        CANONICAL_SCENARIOS,
        ScenarioConfigError,
        get_source,
        load_scenario,
        scenario_to_dict,
        source_names,
    )
    from ..workloads.sources.base import suggest

    if args.check is not None:
        try:
            spec = load_scenario(args.check)
        except ScenarioConfigError as error:
            print(f"{args.check}: {len(error.problems)} problem(s)")
            print(error.format())
            return 1
        except OSError as error:
            print(f"{args.check}: {error}")
            return 1
        print(
            f"{args.check}: ok — scenario {spec.name!r}, "
            f"{len(spec.sources)} source(s), horizon {spec.horizon} ms"
        )
        for use in spec.sources:
            keys = ", ".join(key for key, _ in use.kwargs) or "defaults"
            print(f"  {use.id}: {use.source} ({keys})")
        return 0

    if args.canonical is not None:
        try:
            factory = CANONICAL_SCENARIOS[args.canonical]
        except KeyError:
            print(
                f"no canonical scenario named {args.canonical!r}"
                f"{suggest(args.canonical, sorted(CANONICAL_SCENARIOS))}; "
                f"choose from {sorted(CANONICAL_SCENARIOS)}",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(scenario_to_dict(factory()), indent=2, sort_keys=True))
        return 0

    names = source_names()
    if args.source is not None:
        if args.source not in names:
            print(
                f"unknown source {args.source!r}"
                f"{suggest(args.source, names)}; choose from {names}",
                file=sys.stderr,
            )
            return 1
        names = [args.source]
    else:
        print(
            f"{len(names)} scenario sources — compose them in a TOML/JSON "
            "config and run it with `simty run --scenario PATH` "
            "(docs/scenarios.md):"
        )
        print()
    for name in names:
        source = get_source(name)
        print(f"{name} — {source.description}")
        for field in source.schema():
            print(f"  {field.render()}")
        print()
    if args.source is None:
        canon = ", ".join(sorted(CANONICAL_SCENARIOS))
        print(f"canonical scenarios (export with --canonical NAME): {canon}")
    return 0


def _command_requests(args: argparse.Namespace) -> int:
    from ..workloads.requests import workload_request_lines

    workload_name, workload_kwargs = _resolve_workload(args)
    builder = DEFAULT_REGISTRY.workload_builder(workload_name)
    workload = builder(_scenario_config(args.beta), **workload_kwargs)
    lines = workload_request_lines(
        workload,
        advance_every_ms=args.advance_every,
        drain=not args.no_drain,
        checkpoint_every=args.checkpoint_every_ops,
    )
    if args.out:
        count = 0
        with open(args.out, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
                count += 1
        print(f"{count} request(s) written to {args.out}", file=sys.stderr)
    else:
        for line in lines:
            print(line)
    return 0


_COMMANDS = {
    "paper": _command_paper,
    "inspect": _command_inspect,
    "validate": _command_validate,
    "fuzz": _command_fuzz,
    "run": _command_run,
    "compare": _command_compare,
    "profile": _command_profile,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "requests": _command_requests,
    "scenarios": _command_scenarios,
    "fleet": _command_fleet,
    "top": _command_top,
    "explain": _command_explain,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
