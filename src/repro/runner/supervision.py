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
* :func:`run_supervised_pool` supervises a ``ProcessPoolExecutor``:
  per-future timeouts, resubmission of failed attempts on a fresh pool,
  and recovery from a killed worker (``BrokenProcessPool``) by tearing the
  broken pool down and rescheduling every interrupted spec.  The
  per-future wait and the pool teardown bound a compile too.

Outcomes come back as :class:`Outcome` values keyed by input index; the
executor converts them into :class:`~repro.runner.record.RunRecord`\\ s and
decides — per its ``on_error`` mode — whether to raise or keep going.
"""

from __future__ import annotations

import pickle
import random
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


def _attempt_pool(spec: RunSpec, enable_telemetry: bool = False) -> Tuple:
    """Pool worker entry point (default registry only).

    Live hubs do not cross process boundaries, so an instrumented batch
    ships only a *flag*; the worker builds a fresh hub whose summary rides
    back on ``result.trace.telemetry`` (plain, picklable data).
    """
    from ..obs.telemetry import Telemetry  # local import: worker side only

    telemetry = Telemetry() if enable_telemetry else None
    payload = attempt_spec(spec, None, telemetry)
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


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for hung or dead workers.

    Reaches into ``_processes`` (stable across CPython 3.9–3.13) so a
    worker stuck in a timed-out simulation cannot block interpreter exit.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


def run_supervised_pool(
    pending: Sequence[Tuple[int, RunSpec]],
    max_workers: int,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    enable_telemetry: bool = False,
) -> Dict[int, Outcome]:
    """Supervise a batch over a process pool; outcomes keyed by index.

    Each round submits every still-pending spec to one pool.  A future
    that times out or fails is resubmitted on the next round (on a fresh
    pool) until its attempts exceed ``retries``.

    A worker death (``BrokenProcessPool`` — e.g. ``os._exit`` or the OOM
    killer) poisons every future still in flight, and the culprit is
    indistinguishable from the innocents it took down.  A broken round
    therefore charges *nobody*: every interrupted spec is requeued with
    its attempt count unchanged, and the supervisor drops into isolation
    mode — one spec per pool per round — for the rest of the batch.  In
    isolation a breakage has exactly one possible culprit, which is then
    charged the attempt; innocents complete on their own pools.  This
    converges because isolated rounds always either resolve their spec or
    grow its attempt count.

    Timeouts are enforced while *collecting* futures in submission order,
    so a spec may in practice get longer than ``timeout_s`` of wall time
    while earlier futures are being awaited — the bound is per-wait, not a
    hard kill.  A timed-out round tears its pool down (terminating the
    stuck workers) before the next round starts.  A ``TIMEOUT`` records
    the time from its round's submission until the wait gave up.
    """
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeoutError

    outcomes: Dict[int, Outcome] = {}
    queue: List[Tuple[int, RunSpec, int]] = [
        (index, spec, 1) for index, spec in pending
    ]
    isolate = False
    while queue:
        if isolate:
            round_items, queue = [queue[0]], queue[1:]
        else:
            round_items, queue = queue, []
        pool = ProcessPoolExecutor(max_workers=max_workers)
        submitted = time.monotonic()
        futures = [
            (
                pool.submit(_attempt_pool, spec, enable_telemetry),
                index,
                spec,
                attempt,
            )
            for index, spec, attempt in round_items
        ]
        broken = False
        timed_out = False
        for future, index, spec, attempt in futures:
            try:
                if broken and not future.done():
                    raise BrokenExecutor("process pool died mid-batch")
                payload = future.result(timeout=None if broken else timeout_s)
            except FutureTimeoutError:
                timed_out = True
                future.cancel()
                if attempt > retries:
                    outcomes[index] = _timeout_outcome(
                        timeout_s, time.monotonic() - submitted, attempt
                    )
                else:
                    queue.append((index, spec, attempt + 1))
                continue
            except BrokenExecutor as exc:
                broken = True
                culpable = len(round_items) == 1  # isolated: no one else to blame
                if culpable and attempt > retries:
                    outcomes[index] = Outcome(
                        status=RunStatus.FAILED,
                        result=None,
                        wall_time_s=0.0,
                        attempts=attempt,
                        error=_portable_exception(exc),
                        error_type=type(exc).__name__,
                        error_message=str(exc) or "worker process died",
                    )
                else:
                    queue.append(
                        (index, spec, attempt + 1 if culpable else attempt)
                    )
                continue
            outcome = _outcome_from_payload(payload, attempt)
            if outcome.ok or attempt > retries:
                outcomes[index] = outcome
            else:
                queue.append((index, spec, attempt + 1))
        if broken:
            isolate = True
        if broken or timed_out:
            _terminate_pool(pool)
        else:
            pool.shutdown()
    return outcomes
