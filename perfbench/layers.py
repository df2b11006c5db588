"""Per-layer spans, installed from outside the program.

The benchmark never edits ``src/``.  Instead it wraps public callables of
each layer (a policy's ``insert``, ``Simulator.step``, ``ResultCache.put``
and so on) with timing wrappers for the length of one traced unit, then
puts the originals back.  Each wrapper is a span: its *self time* is its
duration minus the time covered by spans it directly encloses, so the self
times of all spans plus the residual outside every span add up to the wall
time of the traced unit.

Two kinds of wrapper exist:

* ``span`` wrappers time a call and charge its self time to a layer
  metric, optionally counting the call under a count metric;
* ``count`` wrappers only add a number derived from the call (such as the
  length of a candidate list) and take no time of their own, so the time
  stays with the enclosing span.

A module-level function is replaced in every loaded ``repro`` module that
holds a reference to it (``from .accounting import account`` copies the
name into the importer), so a call through any alias is seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import SpeedMeter

#: Span layers: (metric, callables as ``module:qualname``, count metric).
#: A ``+`` after a method also covers every loaded subclass that defines
#: the method itself.
SPAN_LAYERS: Tuple[Tuple[str, Tuple[str, ...], Optional[str]], ...] = (
    (
        "core.insert_s",
        (
            "repro.core.policy:AlignmentPolicy.insert+",
            "repro.core.policy:AlignmentPolicy.reinsert+",
        ),
        "core.inserts",
    ),
    ("simulator.step_s", ("repro.simulator.engine:Simulator.step",), "simulator.steps"),
    (
        "simulator.monitor_s",
        (
            "repro.simulator.monitor:InvariantMonitor.on_register",
            "repro.simulator.monitor:InvariantMonitor.on_cancel",
            "repro.simulator.monitor:InvariantMonitor.on_delivery",
            "repro.simulator.monitor:InvariantMonitor.on_reinsert",
            "repro.simulator.monitor:InvariantMonitor.on_step_end",
            "repro.simulator.monitor:InvariantMonitor.on_run_end",
        ),
        "simulator.monitor_calls",
    ),
    ("power.account_s", ("repro.power.accounting:account",), None),
    (
        "metrics.report_s",
        (
            "repro.metrics.delay:delay_report",
            "repro.metrics.wakeups:wakeup_breakdown",
        ),
        None,
    ),
    (
        "workloads.compile_s",
        (
            "repro.runner.registry:Registry.build_workload",
            "repro.workloads.sources.spec:compile_scenario",
        ),
        None,
    ),
    ("runner.digest_s", ("repro.runner.spec:RunSpec.digest",), "runner.digest_calls"),
    ("runner.cache_put_s", ("repro.runner.cache:ResultCache.put",), None),
    ("runner.supervision_s", ("repro.runner.supervision:run_supervised_serial",), None),
    ("service.handle_s", ("repro.service.daemon:AlarmService.handle_line",), None),
    (
        "service.protocol_s",
        (
            "repro.service.protocol:parse_line",
            "repro.service.protocol:format_reply",
        ),
        None,
    ),
    (
        "service.journal_append_s",
        ("repro.service.journal:ServiceJournal.append",),
        "service.journal_appends",
    ),
    (
        "fleet.journal_s",
        (
            "repro.fleet.executor:ShardJournal.begin",
            "repro.fleet.executor:ShardJournal.device",
            "repro.fleet.executor:ShardJournal.seal",
        ),
        None,
    ),
    (
        "fleet.reduce_s",
        (
            "repro.fleet.reduce:ShardSummary.observe",
            "repro.fleet.reduce:DeviceSummary.from_record",
        ),
        None,
    ),
)


def _candidates(args: tuple, result: Any) -> int:
    return len(result)


def _deliveries(args: tuple, result: Any) -> int:
    return result.delivery_count()


#: Count-only wrappers: (metric, callables, amount(args, result), skip_if).
#: ``finish`` is idempotent, so a call on an already finished simulator
#: (``skip_if`` attribute true before the call) is not counted again.
COUNT_LAYERS: Tuple[
    Tuple[str, Tuple[str, ...], Callable[[tuple, Any], int], Optional[str]], ...
] = (
    (
        "core.candidates_scanned",
        (
            "repro.core.queue:AlarmQueue.grace_candidates",
            "repro.core.queue:AlarmQueue.window_candidates",
        ),
        _candidates,
        None,
    ),
    (
        "simulator.deliveries",
        ("repro.simulator.engine:Simulator.finish",),
        _deliveries,
        "finished",
    ),
)

#: Modules imported before wrapping, so every policy subclass and every
#: module that copied a wrapped function's name is already loaded.
PRELOAD: Tuple[str, ...] = (
    "repro.runner.registry",
    "repro.runner.executor",
    "repro.fleet.executor",
    "repro.service.daemon",
    "repro.service.transport",
    "repro.analysis.cli",
)

#: Every span metric, in report order.
SPAN_METRICS: Tuple[str, ...] = tuple(name for name, _, _ in SPAN_LAYERS)
#: Every count metric, in report order.
COUNT_METRICS: Tuple[str, ...] = tuple(
    [count for _, _, count in SPAN_LAYERS if count is not None]
    + [name for name, _, _, _ in COUNT_LAYERS]
)


class Tracer:
    """Span stacks (one per thread) and the totals they feed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Inclusive time of outermost spans only (self times sum to it).
        self.covered_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, metric: str, amount: int) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + amount

    def span(self, layer: str, fn: Callable, count: Optional[str] = None) -> Callable:
        """Wrap ``fn`` as a span charged to ``layer``."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # frame = [layer, time covered by direct children]
            frame = [layer, 0.0]
            outer_same = bool(stack) and stack[-1][0] == layer
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                with tracer._lock:
                    tracer.self_s[layer] = (
                        tracer.self_s.get(layer, 0.0) + elapsed - frame[1]
                    )
                    if count is not None and not outer_same:
                        tracer.counts[count] = tracer.counts.get(count, 0) + 1
                    if stack:
                        stack[-1][1] += elapsed
                    else:
                        tracer.covered_s += elapsed

        return wrapper

    def counter(
        self,
        metric: str,
        fn: Callable,
        amount: Callable[[tuple, Any], int],
        skip_if: Optional[str] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call adds ``amount(args, result)`` to
        ``metric``; with ``skip_if``, calls on an object whose attribute of
        that name is already true are not counted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            skip = skip_if is not None and bool(getattr(args[0], skip_if))
            result = fn(*args, **kwargs)
            if not skip:
                tracer.add(metric, amount(args, result))
            return result

        return wrapper

    def report(self) -> Dict[str, float]:
        """Self time per span metric and every count (zeros included)."""
        out: Dict[str, float] = {name: self.self_s.get(name, 0.0) for name in SPAN_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out


# ----------------------------------------------------------------------
# Install / restore
# ----------------------------------------------------------------------
@dataclass
class _Patch:
    owner: Any
    name: str
    original: Any


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.append(current)
        pending.extend(current.__subclasses__())
    return seen


def _resolve(target: str) -> List[Tuple[Any, str]]:
    """(owner, attribute) pairs that ``target`` names.

    ``module:Class.method`` names one class attribute; a trailing ``+``
    adds every loaded subclass that defines the method itself.
    ``module:function`` names the function in its module and in every
    loaded ``repro`` module that imported it.
    """
    module_name, _, qualname = target.partition(":")
    include_subclasses = qualname.endswith("+")
    qualname = qualname.rstrip("+")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, _, attribute = qualname.partition(".")
        cls = getattr(module, class_name)
        owners = _subclasses(cls) if include_subclasses else [cls]
        return [(owner, attribute) for owner in owners if attribute in vars(owner)]
    function = getattr(module, qualname)
    pairs = []
    for name, loaded in sorted(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(loaded).items()):
            if value is function:
                pairs.append((loaded, attribute))
    return pairs


def _preload() -> None:
    for name in PRELOAD:
        importlib.import_module(name)


def _wrap_descriptor(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    return wrap(raw)


class Installation:
    """The wrappers one :func:`install` put in place; ``restore`` undoes
    them in reverse order, so every owner gets back the exact object it
    held before."""

    def __init__(self) -> None:
        self.patches: List[_Patch] = []

    def patch(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[name]
        self.patches.append(_Patch(owner, name, raw))
        setattr(owner, name, _wrap_descriptor(raw, wrap))

    def restore(self) -> None:
        while self.patches:
            patch = self.patches.pop()
            setattr(patch.owner, patch.name, patch.original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def install(
    tracer: Tracer,
    spans: Sequence[Tuple[str, Tuple[str, ...], Optional[str]]] = SPAN_LAYERS,
) -> Installation:
    """Wrap every listed callable; returns the handle that restores them."""
    _preload()
    installation = Installation()
    try:
        for metric, target, amount, skip_if in COUNT_LAYERS:
            for name in target:
                for owner, attribute in _resolve(name):
                    installation.patch(
                        owner,
                        attribute,
                        lambda fn, m=metric, a=amount, s=skip_if: tracer.counter(
                            m, fn, a, skip_if=s
                        ),
                    )
        for layer, target, count in spans:
            for name in target:
                for owner, attribute in _resolve(name):
                    installation.patch(
                        owner,
                        attribute,
                        lambda fn, l=layer, c=count: tracer.span(l, fn, count=c),
                    )
    except BaseException:
        installation.restore()
        raise
    return installation


# ----------------------------------------------------------------------
# Latency probes (untraced runs of the in-process workloads)
# ----------------------------------------------------------------------
#: Operations whose caller-side latency the in-process workloads report:
#: every change the engine makes to the alarm queues through the policy,
#: and one engine step.
PROBE_TARGETS: Dict[str, Tuple[str, ...]] = {
    "mutation": (
        "repro.simulator.alarm_manager:AlarmManager.register",
        "repro.simulator.alarm_manager:AlarmManager.cancel",
        "repro.simulator.alarm_manager:AlarmManager.reinsert",
    ),
    "advance": ("repro.simulator.engine:Simulator.step",),
}


class Probe:
    """Per-call latency samples (seconds) for a few named operations.

    With ``policy``, only calls on an engine or alarm manager running that
    policy (by ``policy.name``) are kept: a SIMTY insert costs about ten
    times a NATIVE one, so a percentile over both lands in the gap between
    them and swings with their mix.

    ``meter`` takes its host-speed slices before engine steps, and every
    sample is kept with the meter's speed ratio at that call.
    """

    def __init__(
        self,
        policy: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        meter: Optional[SpeedMeter] = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.meter = meter if meter is not None else SpeedMeter()
        self.samples: Dict[str, List[float]] = {op: [] for op in PROBE_TARGETS}
        #: The meter's speed ratio when each sample was taken.
        self.ratios: Dict[str, List[float]] = {op: [] for op in PROBE_TARGETS}

    def timed(self, op: str, fn: Callable) -> Callable:
        sink = self.samples[op].append
        ratio_sink = self.ratios[op].append
        clock = self.clock
        policy = self.policy
        meter = self.meter
        # An engine step is never inside another probed call, so the time
        # before it is outside every timed call: the meter slices there.
        tick = meter.tick if op == "advance" else None

        @functools.wraps(fn)
        def wrapper(owner, *args, **kwargs):
            if tick is not None:
                tick()
            started = clock()
            try:
                return fn(owner, *args, **kwargs)
            finally:
                elapsed = clock() - started
                if policy is None or owner.policy.name == policy:
                    sink(elapsed)
                    ratio_sink(meter.ratio)

        return wrapper

    def install(self) -> Installation:
        _preload()
        # A first slice before the unit, so calls made before the first
        # engine step have a host speed too.
        self.meter.tick()
        installation = Installation()
        try:
            for op, targets in PROBE_TARGETS.items():
                for name in targets:
                    for owner, attribute in _resolve(name):
                        installation.patch(
                            owner, attribute, lambda fn, o=op: self.timed(o, fn)
                        )
        except BaseException:
            installation.restore()
            raise
        return installation
