"""The telemetry hub: counters, gauges, histograms and nested spans.

Everything the repo reported before this layer existed was computed
*post-hoc* over a finished :class:`~repro.simulator.trace.SimulationTrace`.
The :class:`Telemetry` hub instead observes the system *while* it runs —
which decision points the SIMTY policy visited, how deep the alarm queues
were, where the engine's wall time went — without changing any simulation
outcome.

Design rules:

* **Zero-cost when disabled.**  Instrumented code holds a hub reference
  that defaults to :data:`NULL_TELEMETRY`, whose methods do nothing.
  Per-dispatch code calls the hub unconditionally; only work that is
  expensive to compute (a policy's explain pass, a queue-depth gauge) is
  gated on the hub's ``enabled`` flag.  The overhead benchmark
  (``benchmarks/test_bench_telemetry_overhead.py``) enforces this stays
  under 5% of a frozen ungated step on the heavy workload.

* **Injected time source.**  Span arithmetic never calls
  ``time.perf_counter()`` directly; the hub is constructed with a
  monotonic nanosecond clock (default ``time.perf_counter_ns``) and tests
  inject a :class:`FakeClock` for fully deterministic durations.

* **Plain-data summaries.**  A live hub keeps each completed span as a
  plain tuple and builds the :class:`SpanEvent` records the
  Chrome-trace/JSONL exporters read only when :attr:`Telemetry.events`
  is first read; :meth:`Telemetry.summary` reduces the hub to a
  picklable, JSON-able :class:`~repro.obs.summary.TelemetrySummary` that
  can ride on a trace across a process boundary, without building them.

Metric names use dotted lowercase (``engine.queue_depth``); labels are
encoded into the metric key as ``name{k=v,...}`` with sorted keys, so a
label set is exactly one counter cell (the SIMTY Table 1 breakdown is the
canonical use: ``simty.applicable{hw=high,time=medium}``).  A hub
memoises the key of every labelled cell it stores, so a hot call site
formats its key once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "COUNTER_MAX",
    "FakeClock",
    "Hist",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SpanEvent",
    "SpanMismatchError",
    "Telemetry",
    "metric_key",
    "split_metric",
]

#: Counters saturate here instead of growing without bound: every exporter
#: (Chrome trace args, Prometheus text) assumes values fit an int64, and a
#: pathological horizon must degrade to a pinned counter, not a wrong one.
COUNTER_MAX = 2**63 - 1

#: Default cap on retained span events; beyond it the hub counts drops
#: instead of growing without bound on pathological horizons.
DEFAULT_MAX_EVENTS = 250_000


class SpanMismatchError(RuntimeError):
    """A span was exited out of order (or with nothing open).

    Spans are strictly nested: ``end(name)`` must match the most recent
    un-ended ``begin``.  Raising immediately turns an instrumentation bug
    into a loud failure instead of silently garbled timings.
    """


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical storage key for a metric cell: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key`: ``name{k=v}`` → ``(name, {k: v})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest[:-1].split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


class FakeClock:
    """Deterministic nanosecond time source for telemetry tests.

    Calling the clock returns the current fake time and then advances it
    by ``auto_step_ns`` (so consecutive spans get distinct, predictable
    timestamps even without explicit :meth:`advance` calls).
    """

    def __init__(self, start_ns: int = 0, auto_step_ns: int = 0) -> None:
        if start_ns < 0 or auto_step_ns < 0:
            raise ValueError("fake time never runs backwards")
        self._now = start_ns
        self._auto_step = auto_step_ns

    def __call__(self) -> int:
        now = self._now
        self._now += self._auto_step
        return now

    def advance(self, delta_ns: int) -> None:
        if delta_ns < 0:
            raise ValueError("fake time never runs backwards")
        self._now += delta_ns


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named, timed, possibly nested unit of work."""

    name: str
    start_ns: int
    end_ns: int
    depth: int
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


class _Span:
    """Context-manager handle produced by :meth:`Telemetry.span`."""

    __slots__ = ("_hub", "_name", "_args")

    def __init__(self, hub: "Telemetry", name: str, args: Dict[str, object]):
        self._hub = hub
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        hub = self._hub
        hub._stack.append((self._name, hub._clock(), self._args))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._hub.end(self._name)
        return False


class _GaugeCell:
    __slots__ = ("last", "min", "max", "updates")

    def __init__(self, value: float) -> None:
        self.last = value
        self.min = value
        self.max = value
        self.updates = 1

    def update(self, value: float) -> None:
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1


#: Histogram totals accumulate in integer milli-units.  Float addition is
#: not associative, and merged summaries (shards=1 vs shards=8, clean vs
#: resumed fleets, stream deltas) must not depend on how they were
#: grouped — integer sums make every grouping exactly equal.
TOTAL_SCALE = 1000


class Hist:
    """A mergeable power-of-two histogram over non-negative values.

    A value goes in the bucket of the smallest power of two ≥ it (at
    least 1), so a bucket bound is an inclusive upper bound, as the
    Prometheus ``le`` label reads it.  ``total_milli`` is the sum of
    observations in milli-units (see :data:`TOTAL_SCALE`); ``buckets``
    maps a bucket's upper bound (2**k) to its observation count.
    """

    __slots__ = ("count", "total_milli", "min", "max", "buckets")

    def __init__(
        self,
        count: int = 0,
        total_milli: int = 0,
        min: Optional[float] = None,
        max: Optional[float] = None,
        buckets: Optional[Dict[int, int]] = None,
    ) -> None:
        self.count = count
        self.total_milli = total_milli
        self.min = min
        self.max = max
        self.buckets: Dict[int, int] = {} if buckets is None else buckets

    def _fields(self) -> Tuple:
        return (self.count, self.total_milli, self.min, self.max, self.buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hist):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"Hist(count={self.count}, total_milli={self.total_milli}, "
            f"min={self.min}, max={self.max}, buckets={self.buckets})"
        )

    def observe(self, value: float) -> None:
        value = float(value)
        if not value > 0.0:  # negatives (and NaN) count as 0
            value = 0.0
        self.count += 1
        self.total_milli += round(value * TOTAL_SCALE)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bound = 1 << (ceil(value) - 1).bit_length() if value > 1.0 else 1
        buckets = self.buckets
        buckets[bound] = buckets.get(bound, 0) + 1

    def merge(self, other: "Hist") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total_milli += other.total_milli
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)
        for bound, n in other.buckets.items():
            self.buckets[bound] = self.buckets.get(bound, 0) + n

    def diff(self, base: "Hist") -> "Hist":
        """The histogram that, merged onto ``base``, gives this one.

        Counts, totals and buckets subtract; min and max are this one's,
        because an envelope cannot be subtracted (merging widens it, so
        replaying diffs in order still ends at this envelope).
        """
        buckets = {}
        for bound, n in self.buckets.items():
            n -= base.buckets.get(bound, 0)
            if n:
                buckets[bound] = n
        return Hist(
            self.count - base.count,
            self.total_milli - base.total_milli,
            self.min,
            self.max,
            buckets,
        )

    def copy(self) -> "Hist":
        return Hist(
            self.count, self.total_milli, self.min, self.max, dict(self.buckets)
        )

    @property
    def total(self) -> float:
        return self.total_milli / TOTAL_SCALE

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> Optional[float]:
        """Estimate a percentile as the covering bucket's upper bound.

        Power-of-two buckets cannot resolve a value inside a bucket, so the
        estimate is the bucket's upper bound clamped to the observed max —
        pessimistic by construction.  Returns ``None`` when empty.
        """
        if self.count == 0:
            return None
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        needed = quantile * self.count
        running = 0
        for bound, n in sorted(self.buckets.items()):
            running += n
            if running >= needed:
                return min(float(bound), self.max)
        return self.max

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total_milli": self.total_milli,
            "min": self.min,
            "max": self.max,
            "buckets": [[bound, n] for bound, n in sorted(self.buckets.items())],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Hist":
        """Rebuild a histogram; a cell written with a float ``total``
        (before totals were integer milli-units) is read too."""
        total_milli = payload.get("total_milli")
        if total_milli is None:
            total_milli = round(float(payload.get("total", 0.0)) * TOTAL_SCALE)
        hist = cls(
            count=int(payload["count"]),
            total_milli=int(total_milli),
            min=payload["min"],
            max=payload["max"],
            buckets={
                int(bound): int(n) for bound, n in payload.get("buckets", [])
            },
        )
        if hist.count and (hist.min is None or hist.max is None):
            raise ValueError("a non-empty histogram needs its min and max")
        return hist


class _SpanCell:
    __slots__ = ("count", "total_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def record(self, duration_ns: int) -> None:
        self.count += 1
        self.total_ns += duration_ns
        if self.min_ns is None or duration_ns < self.min_ns:
            self.min_ns = duration_ns
        if self.max_ns is None or duration_ns > self.max_ns:
            self.max_ns = duration_ns


class Telemetry:
    """A live telemetry hub collecting metrics and spans for one scope.

    A hub is cheap; the harness forks one child per run
    (:meth:`fork`) so per-run summaries stay separable while exporters can
    still walk the whole tree for a single flamegraph.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], int]] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_events < 0:
            raise ValueError("max_events must be non-negative")
        self._clock = clock if clock is not None else time.perf_counter_ns
        self.max_events = max_events
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, _GaugeCell] = {}
        self.histograms: Dict[str, Hist] = {}
        self.span_stats: Dict[str, _SpanCell] = {}
        self.dropped_events = 0
        self.children: List[Tuple[str, "Telemetry"]] = []
        #: Open spans: ``(name, start_ns, args)``.
        self._stack: List[Tuple[str, int, Dict[str, object]]] = []
        #: Completed spans, ``(name, start_ns, end_ns, depth, args)``; the
        #: first ``len(self._events)`` of them are built already.
        self._spans: List[Tuple[str, int, int, int, Dict[str, object]]] = []
        self._events: List[SpanEvent] = []
        #: ``(name, *label items, *label types)`` -> :func:`metric_key`.
        #: The types keep ``1`` and ``True``, which compare equal, apart.
        self._keys: Dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _key(self, name: str, labels: Dict[str, object]) -> str:
        """:func:`metric_key`, memoised per label spelling."""
        try:
            memo = (name, *labels.items(), *map(type, labels.values()))
            key = self._keys.get(memo)
        except TypeError:  # an unhashable label value
            return metric_key(name, labels)
        if key is None:
            key = self._keys[memo] = metric_key(name, labels)
        return key

    def count(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to a (monotonic) counter cell."""
        key = self._key(name, labels) if labels else name
        current = self.counters.get(key, 0)
        self.counters[key] = min(COUNTER_MAX, current + value)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge cell, tracking last/min/max across updates."""
        key = self._key(name, labels) if labels else name
        cell = self.gauges.get(key)
        if cell is None:
            self.gauges[key] = _GaugeCell(value)
        else:
            cell.update(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into a histogram cell."""
        key = self._key(name, labels) if labels else name
        cell = self.histograms.get(key)
        if cell is None:
            cell = self.histograms[key] = Hist()
        cell.observe(value)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **args: object) -> _Span:
        """Context manager timing a named, nested unit of work."""
        return _Span(self, name, args)

    def begin(self, name: str, **args: object) -> None:
        """Open a span manually (prefer :meth:`span` where possible)."""
        self._stack.append((name, self._clock(), args))

    def end(self, name: str) -> None:
        """Close the innermost open span; it must be ``name``."""
        if not self._stack:
            raise SpanMismatchError(
                f"end({name!r}) with no span open"
            )
        open_name, start_ns, args = self._stack[-1]
        if open_name != name:
            raise SpanMismatchError(
                f"end({name!r}) while {open_name!r} is the innermost open "
                "span; spans must close in LIFO order"
            )
        self._stack.pop()
        end_ns = self._clock()
        depth = len(self._stack)
        cell = self.span_stats.get(name)
        if cell is None:
            cell = self.span_stats[name] = _SpanCell()
        cell.record(end_ns - start_ns)
        if len(self._spans) < self.max_events:
            self._spans.append((name, start_ns, end_ns, depth, args))
        else:
            self.dropped_events += 1

    @property
    def events(self) -> List[SpanEvent]:
        """The retained completed spans, in completion order.

        Built on first read (args sorted by name) and extended by later
        reads, so a run that is summarised but never exported builds none.
        """
        built = self._events
        if len(built) < len(self._spans):
            built.extend(
                SpanEvent(name, start_ns, end_ns, depth, tuple(sorted(args.items())))
                for name, start_ns, end_ns, depth, args in self._spans[len(built):]
            )
        return built

    @property
    def span_count(self) -> int:
        """How many completed spans the hub retains."""
        return len(self._spans)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def fork(self, name: str) -> "Telemetry":
        """Create a child hub sharing this hub's clock and event budget.

        The harness forks one child per run; exporters walk
        ``children`` to lay every run on one timeline, while each child
        summarizes independently for its :class:`RunRecord`.
        """
        child = Telemetry(clock=self._clock, max_events=self.max_events)
        self.children.append((name, child))
        return child

    def summary(self, include_children: bool = True):
        """Reduce to a plain-data :class:`~repro.obs.summary.TelemetrySummary`."""
        from .summary import summarize

        return summarize(self, include_children=include_children)


class _NullSpan:
    """Reusable no-op span handle."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled hub: every operation is a no-op, nothing is stored.

    Instrumented code defaults to this, so simulation paths pay (at most)
    an attribute load and a boolean check when telemetry is off.  The
    no-op contract — *emits exactly nothing* — is tested directly.
    """

    enabled = False

    __slots__ = ()

    def count(self, name: str, value: int = 1, **labels: object) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def span(self, name: str, **args: object) -> _NullSpan:
        return _NULL_SPAN

    def begin(self, name: str, **args: object) -> None:
        pass

    def end(self, name: str) -> None:
        pass

    @property
    def open_spans(self) -> int:
        return 0

    def fork(self, name: str) -> "NullTelemetry":
        return self

    def summary(self, include_children: bool = True):
        from .summary import EMPTY_SUMMARY

        return EMPTY_SUMMARY


#: Shared disabled hub; instrumented modules use it as their default.
NULL_TELEMETRY = NullTelemetry()
