"""Supervised execution: fault isolation, timeouts, and retries.

The plain executor lets any worker exception propagate out of the batch —
one poisoned spec kills an entire sweep.  This module wraps each attempt so
the batch front end (:func:`repro.runner.executor.run_many`) can degrade
gracefully instead:

* every attempt runs through :func:`attempt_spec`, which captures the
  exception object, its type name and a formatted traceback rather than
  letting it unwind the batch;
* :func:`run_supervised_serial` runs every attempt on the caller's
  thread, retries with exponential backoff plus jitter, and gives each
  attempt the deadline ``time.monotonic() + timeout_s``, which the
  simulator's watchdog enforces
  (:class:`~repro.simulator.engine.SimulationStalled`).  An attempt that
  ends after its deadline is ``TIMEOUT`` whatever it returned.  Nothing
  bounds a workload compile here: a build that hangs is ``TIMEOUT`` only
  once it returns and the first step runs;
* :func:`run_forked` is the one process supervisor, shared by
  :func:`run_supervised_pool` and the fleet's shard scheduler: one forked
  child per attempt, at most ``workers`` alive, each under a hard
  deadline from its own start (a child past it is killed, compile
  included), and a child that exits without a result charged to itself
  alone.

Outcomes come back as :class:`Outcome` values keyed by input index; the
executor converts them into :class:`~repro.runner.record.RunRecord`\\ s and
decides — per its ``on_error`` mode — whether to raise or keep going.
"""

from __future__ import annotations

import functools
import pickle
import random
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .record import ExperimentResult, RunStatus
from .spec import RunSpec

#: Base delay of the serial path's exponential backoff, in seconds.
DEFAULT_BACKOFF_BASE_S = 0.05

#: Upper bound on any single backoff sleep, in seconds.
DEFAULT_BACKOFF_CAP_S = 2.0


class SpecExecutionError(RuntimeError):
    """A spec failed every supervised attempt (pool path, ``on_error="raise"``)."""

    def __init__(self, spec: RunSpec, digest: str, error_type: str, message: str, attempts: int):
        self.spec = spec
        self.digest = digest
        self.error_type = error_type
        self.attempts = attempts
        super().__init__(
            f"spec {digest[:12]} ({spec.workload}/{spec.display_name()}) failed "
            f"after {attempts} attempt(s): {error_type}: {message}"
        )


class SpecTimeoutError(RuntimeError):
    """A spec exceeded ``timeout_s`` on every attempt (``on_error="raise"``)."""

    def __init__(self, spec: RunSpec, digest: str, timeout_s: float, attempts: int):
        self.spec = spec
        self.digest = digest
        self.timeout_s = timeout_s
        self.attempts = attempts
        super().__init__(
            f"spec {digest[:12]} ({spec.workload}/{spec.display_name()}) exceeded "
            f"timeout_s={timeout_s} on {attempts} attempt(s)"
        )


@dataclass
class Outcome:
    """Terminal outcome of supervising one unique spec."""

    status: RunStatus
    result: Optional[ExperimentResult]
    wall_time_s: float
    attempts: int
    error: Optional[BaseException] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status.is_ok


def backoff_delay(
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> float:
    """Exponential backoff with jitter: ``base * 2^(attempt-1)``, capped.

    The jitter draws the final delay uniformly from [half, full] of the
    exponential step, so colliding retriers (e.g. two processes sharing a
    cache dir) decorrelate.
    """
    if attempt < 1:
        raise ValueError("attempt numbers start at 1")
    step = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    rng = rng if rng is not None else random
    return step * (0.5 + 0.5 * rng.random())


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a stringified stand-in.

    Worker outcomes cross a process boundary; an exception holding an
    unpicklable payload must not take the whole result down with it.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def attempt_spec(
    spec: RunSpec, registry=None, telemetry=None, deadline=None
) -> Tuple:
    """Execute one attempt, capturing any exception instead of raising.

    Returns ``("ok", result, wall_s)`` or
    ``("error", exception, type_name, traceback_str, wall_s)``.  The
    exception is the original object, so an in-process caller can
    re-raise it; :func:`_attempt_pool` makes it picklable for the trip
    back from a worker.  ``deadline`` (a ``time.monotonic()`` instant)
    reaches the engine watchdog.
    """
    from .executor import execute_spec  # local import to avoid a cycle

    started = time.perf_counter()
    try:
        result = execute_spec(spec, registry, telemetry=telemetry, deadline=deadline)
    except Exception as exc:  # noqa: BLE001 — supervision must isolate everything
        wall = time.perf_counter() - started
        return (
            "error",
            exc,
            type(exc).__name__,
            traceback_module.format_exc(),
            wall,
        )
    return ("ok", result, time.perf_counter() - started)


def _attempt_pool(
    enable_telemetry: bool, task: Tuple[int, RunSpec, int]
) -> Tuple:
    """Child entry point of the pool path (default registry only).

    Live hubs do not cross process boundaries, so an instrumented batch
    ships only a *flag*; the child builds a fresh hub whose summary rides
    back on ``result.trace.telemetry`` (plain, picklable data).
    """
    from ..obs.telemetry import Telemetry  # local import: child side only

    telemetry = Telemetry() if enable_telemetry else None
    payload = attempt_spec(task[1], None, telemetry)
    if payload[0] == "error":
        payload = ("error", _portable_exception(payload[1])) + payload[2:]
    return payload


def _outcome_from_payload(payload: Tuple, attempts: int) -> Outcome:
    if payload[0] == "ok":
        _, result, wall = payload
        status = RunStatus.OK if attempts == 1 else RunStatus.RETRIED_OK
        return Outcome(status=status, result=result, wall_time_s=wall, attempts=attempts)
    _, exc, type_name, tb, wall = payload
    return Outcome(
        status=RunStatus.FAILED,
        result=None,
        wall_time_s=wall,
        attempts=attempts,
        error=exc,
        error_type=type_name,
        error_message=str(exc),
        traceback=tb,
    )


def _timeout_outcome(
    timeout_s: Optional[float], wall_time_s: float, attempts: int
) -> Outcome:
    """A ``TIMEOUT`` whose ``wall_time_s`` is how long the last attempt ran."""
    return Outcome(
        status=RunStatus.TIMEOUT,
        result=None,
        wall_time_s=wall_time_s,
        attempts=attempts,
        error_type="TimeoutError",
        error_message=f"attempt exceeded timeout_s={timeout_s}",
    )


def run_supervised_serial(
    spec: RunSpec,
    registry=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    telemetry=None,
) -> Outcome:
    """Supervise one spec on the caller's thread: timeout, retries,
    backoff+jitter."""
    attempts = 0
    while True:
        attempts += 1
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        payload = attempt_spec(spec, registry, telemetry, deadline)
        timed_out = deadline is not None and time.monotonic() > deadline
        if payload[0] == "ok" and not timed_out:
            return _outcome_from_payload(payload, attempts)
        if attempts > retries:
            if timed_out:
                return _timeout_outcome(timeout_s, payload[-1], attempts)
            return _outcome_from_payload(payload, attempts)
        time.sleep(backoff_delay(attempts, backoff_base_s, backoff_cap_s))


def _forked_attempt(target: Callable, task, conn) -> None:
    """Child entry: run ``target(task)`` and send what it returns."""
    try:
        conn.send(target(task))
    finally:
        conn.close()


def _receive(reader) -> Any:
    """The child's result, or ``None`` if it sent none (or a torn one)."""
    try:
        return reader.recv() if reader.poll() else None
    except Exception:  # noqa: BLE001 — EOF, a torn message, bad pickle
        return None


def run_forked(
    tasks: deque,
    workers: int,
    target: Callable,
    finish: Callable[..., None],
    bound: Callable[[], Optional[float]] = lambda: None,
) -> None:
    """Run each task of ``tasks`` in its own forked child, ``workers`` at once.

    The child sends ``target(task)`` back over a pipe.  Each attempt ends
    in one call ``finish(task, payload, exitcode, wall_s, killed)``
    (``payload`` is ``None`` if the child sent nothing), which may append
    retries to ``tasks``.  ``bound()``, read on every wake, is the
    per-attempt deadline in seconds from the attempt's own start
    (``None``: none); a child past it is killed.  The parent waits on the
    pipes and the children's sentinels until the nearest deadline, and
    reads a result before joining its child, since a pickled trace
    outgrows the pipe buffer.  No child outlives the call.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    running: Dict[Any, Tuple] = {}  # reader -> (process, task, started)
    try:
        while tasks or running:
            while tasks and len(running) < workers:
                task = tasks.popleft()
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_forked_attempt,
                    args=(target, task, writer),
                    daemon=True,
                )
                process.start()
                writer.close()
                running[reader] = (process, task, time.monotonic())
            limit = bound()
            timeout = None
            if limit is not None:
                nearest = min(started for _, _, started in running.values())
                timeout = max(0.0, nearest + limit - time.monotonic())
            sentinels = {
                process.sentinel: reader
                for reader, (process, _, _) in running.items()
            }
            ready = wait(list(running) + list(sentinels), timeout)
            done = {sentinels.get(handle, handle) for handle in ready}
            now = time.monotonic()
            for reader, (process, task, started) in list(running.items()):
                killed = reader not in done
                if killed and (limit is None or now - started < limit):
                    continue
                del running[reader]
                if killed:
                    process.kill()
                payload = None if killed else _receive(reader)
                reader.close()
                process.join()
                wall_s = time.monotonic() - started
                finish(task, payload, process.exitcode, wall_s, killed)
    finally:
        for process, _, _ in running.values():
            process.kill()
        for reader, (process, _, _) in running.items():
            process.join()
            reader.close()


def run_supervised_pool(
    pending: Sequence[Tuple[int, RunSpec]],
    max_workers: int,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    enable_telemetry: bool = False,
) -> Dict[int, Outcome]:
    """Supervise a batch over :func:`run_forked`; outcomes keyed by index.

    ``timeout_s`` is a hard deadline from each attempt's start: a killed
    attempt is a ``TIMEOUT`` of the time it ran.  A child that exits
    without a result (``os._exit``, the OOM killer) is ``FAILED`` with its
    exit code.  Failed attempts are retried at once, without backoff.
    """
    # Every attempt forks from this process: import the scenario compiler
    # the stock builders load on first use here, once, not in each child.
    from ..workloads.sources import canon  # noqa: F401

    outcomes: Dict[int, Outcome] = {}
    tasks = deque((index, spec, 1) for index, spec in pending)

    def finish(task, payload, exitcode, wall_s, killed) -> None:
        index, spec, attempt = task
        if killed:
            outcome = _timeout_outcome(timeout_s, wall_s, attempt)
        else:
            if payload is None:
                exc = RuntimeError(
                    f"worker process exited with code {exitcode} "
                    "before returning a result"
                )
                payload = ("error", exc, type(exc).__name__, None, wall_s)
            outcome = _outcome_from_payload(payload, attempt)
        if outcome.ok or attempt > retries:
            outcomes[index] = outcome
        else:
            tasks.append((index, spec, attempt + 1))

    run_forked(
        tasks,
        max_workers,
        functools.partial(_attempt_pool, enable_telemetry),
        finish,
        lambda: timeout_s,
    )
    return outcomes
