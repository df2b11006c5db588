"""Small pure helpers: percentiles with a sample floor, per-call medians
over repeats, fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
import re
from statistics import median
from typing import Any, Dict, List, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail is one or two unlucky calls.
MIN_BEYOND = 10


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` sorted samples lie strictly after the
    nearest-rank ``quantile`` sample."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    return count - max(1, math.ceil(quantile * count))


def percentile(samples: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile; refused below :data:`MIN_BEYOND` samples
    beyond it."""
    beyond = samples_beyond(len(samples), quantile)
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{quantile * 100:g} of {len(samples)} samples has {beyond} "
            f"beyond it; need at least {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]


def repeat_medians(repeats: Sequence[Sequence[float]]) -> List[float]:
    """The median of each call's samples over repeats of the same work.

    Every repeat of a unit makes the same calls in the same order, so the
    i-th sample of each repeat times the same call.  Its median over the
    repeats drops the repeats that a busy host slowed at that moment,
    while a call that is slow in every repeat stays slow: percentiles of
    the result describe the program's calls, not the host's bad seconds.
    """
    if not repeats:
        return []
    lengths = {len(samples) for samples in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats made different numbers of calls: {sorted(lengths)}")
    return [median(column) for column in zip(*repeats)]


# ----------------------------------------------------------------------
# Fingerprints of simulated output
# ----------------------------------------------------------------------
_ENTRY_COUNTER = re.compile(r"entry #\d+")


def canonical_trace(payload: Dict) -> Dict:
    """A ``trace_to_dict`` view with run-to-run noise removed.

    Alarm ids come from a process-global counter, so they are renumbered
    in order of first appearance; monitor messages quoting a queue entry
    number get the same treatment.  The telemetry summary holds host
    timings and is dropped.
    """
    ids: Dict[Any, int] = {}

    def walk(value: Any) -> Any:
        if isinstance(value, dict):
            out = {}
            for key, item in value.items():
                if key == "telemetry":
                    continue
                if key == "alarm_id" and item is not None:
                    out[key] = ids.setdefault(item, len(ids))
                else:
                    out[key] = walk(item)
            return out
        if isinstance(value, list):
            return [walk(item) for item in value]
        if isinstance(value, str):
            return _ENTRY_COUNTER.sub("entry #N", value)
        return value

    return walk(payload)


def fingerprint(payload: Any) -> str:
    """sha256 over the canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_fingerprints(
    observed: List[str], expected: Any
) -> Dict[str, Any]:
    """Compare a run's unit fingerprints with the stored one (if any).

    Every unit of a run has the same inputs, so all its fingerprints must
    agree with each other and with ``expected`` when one is stored.
    Returns the mismatch count (each mismatching unit is one failure) and
    the fingerprint the run settled on.
    """
    if not observed:
        return {"mismatches": 0, "fingerprint": None, "stored": expected is not None}
    reference = expected if expected is not None else observed[0]
    mismatches = sum(1 for value in observed if value != reference)
    return {
        "mismatches": mismatches,
        "fingerprint": observed[0],
        "stored": expected is not None,
    }
