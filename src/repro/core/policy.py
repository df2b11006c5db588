"""Alignment-policy interface.

A policy decides, for each alarm being inserted (or reinserted after a
repeating delivery), which queue entry the alarm joins.  Policies are pure
queue transformations — they know nothing about energy or devices — so they
can be unit-tested in isolation and benchmarked for insertion cost (P1).

Both Android's NATIVE policy and SIMTY are applied to wakeup and non-wakeup
alarms *separately* (Sec. 2.1, 3.2.1); the alarm manager owns one queue per
class and calls the same policy object on each.

Every policy carries a ``queue_backend`` selection (default: the
``"indexed"`` backend) that :meth:`make_queue` threads into the
queues it creates; the simulator can override it per run through
``SimulatorConfig.queue_backend``.  Backend choice never changes a policy
decision — only the cost of reaching it (see :mod:`repro.core.backend`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..obs.audit import NULL_AUDIT
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .alarm import Alarm
from .backend import BACKEND_NAMES, DEFAULT_BACKEND
from .entry import QueueEntry
from .queue import AlarmQueue


class AlignmentPolicy(ABC):
    """Strategy deciding where a new alarm lands in the queue."""

    #: Short name used in reports ("NATIVE", "SIMTY", ...).
    name: str = "abstract"

    #: Whether queues under this policy compute entry delivery times with
    #: the grace rule for imperceptible entries (True only for SIMTY).
    grace_mode: bool = False

    #: Telemetry hub for instrumented policies (class-level null default so
    #: policies constructed outside a Simulator stay zero-cost).
    telemetry: Telemetry = NULL_TELEMETRY

    #: Decision-audit recorder (class-level null default, same zero-cost
    #: contract as ``telemetry``).  When enabled, each insert/rebatch
    #: decision draws exactly one sample from its digest-seeded LCG.
    audit = NULL_AUDIT

    #: Queue-backend selection for queues this policy creates.  A class
    #: attribute so subclasses that define their own ``__init__`` without
    #: chaining to ``super()`` still get the default.
    queue_backend: str = DEFAULT_BACKEND

    def __init__(self, queue_backend: Optional[str] = None) -> None:
        if queue_backend is not None:
            if queue_backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown queue backend {queue_backend!r}; choose from "
                    f"{list(BACKEND_NAMES)}"
                )
            self.queue_backend = queue_backend

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach the run's telemetry hub (the Simulator calls this)."""
        self.telemetry = telemetry

    def bind_audit(self, audit) -> None:
        """Attach the run's decision-audit recorder (Simulator calls this)."""
        self.audit = audit

    def make_queue(self, backend: Optional[str] = None) -> AlarmQueue:
        """Create a queue configured for this policy's delivery-time rule.

        ``backend`` overrides the policy's own ``queue_backend`` selection
        (the alarm manager passes the simulator config's choice through).
        """
        return AlarmQueue(
            grace_mode=self.grace_mode,
            backend=backend if backend is not None else self.queue_backend,
        )

    @abstractmethod
    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        """Place ``alarm`` into ``queue`` and return the entry it joined.

        Implementations must first remove any stale instance of the same
        alarm (matched by id) already in the queue.
        """

    def reinsert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        """Re-queue a repeating alarm immediately after its delivery.

        The default simply delegates to :meth:`insert`; NATIVE overrides
        this to trigger its realignment behaviour when a stale instance is
        still queued (Sec. 2.1).
        """
        return self.insert(queue, alarm, now)

    def _place_in_new_entry(
        self, queue: AlarmQueue, alarm: Alarm
    ) -> QueueEntry:
        entry = QueueEntry([alarm])
        queue.add_entry(entry)
        return entry

    def _place_in_entry(
        self, queue: AlarmQueue, entry: QueueEntry, alarm: Alarm
    ) -> QueueEntry:
        queue.add_to_entry(entry, alarm)
        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
