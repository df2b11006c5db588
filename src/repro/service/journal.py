"""The service journal: crash/resume persistence for the live daemon.

The daemon's durable state is an *event-sourced* log on a
:class:`repro.durable.AppendLog` fsync'd per line, the same crash
discipline as every other JSONL writer: one held handle, a torn tail
sealed on open, and the parent directory fsync'd when the file is created
or reset — an fsync'd file whose directory entry was never made durable
is as lost as an unwritten one.  Because
the engine is deterministic, the journal does not need to snapshot queue
internals: the daemon applies every mutation entry through one apply
path, right after journaling it live and again on replay, so replaying
the entries through a fresh engine reproduces the exact engine + queue +
policy state — and the exact trace — of the crashed process.

Entry kinds (one JSON object per line):

``config``
    Written once at daemon birth: policy, horizon, queue backend,
    monitor mode.  Resume refuses a journal whose config does not match —
    replaying SIMTY requests through NATIVE would "succeed" into garbage.
``register`` / ``cancel`` / ``reanchor``
    One accepted mutation, with its *effective* simulation time
    ``t = max(at, engine now)`` (the ``at`` its reply carries), its
    ``req_id`` when the request had one, and (for register) the full
    registration-time alarm attributes from
    :func:`repro.simulator.serialize.alarm_to_dict`.  A mutation whose
    effective time is at or past the horizon is refused
    (``past-horizon``) and never written.
``watermark``
    "The engine had advanced to ``t``": written by checkpoints, by
    ``advance`` ops and periodically by the ticker.  Resume replays the
    mutations and advances the fresh engine to the last watermark.

A crash mid-write corrupts at most the final line, which :meth:`load`
skips.  Every appended entry also carries a monotone ``seq`` number, so
a replay can drop *duplicated* lines (a torn-then-retried write, or an
injected double write from the chaos layer) instead of applying a
mutation twice.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..durable import AppendLog, read_jsonl
from .protocol import MUTATION_OPS

#: File name used when a journal is derived from a checkpoint directory.
SERVICE_JOURNAL_NAME = "service.journal.jsonl"

#: Entry kinds that mutate engine state and are replayed on resume: the
#: protocol's mutation ops, one entry kind per op.
MUTATION_KINDS = MUTATION_OPS


class ServiceJournal:
    """Append-only, fsync'd log of the daemon's accepted mutations.

    ``log`` is the :class:`~repro.durable.AppendLog` it writes through
    (an fsync-per-line log at ``path`` by default); the chaos layer
    passes a :class:`~repro.service.chaos.FaultyLog` here.
    """

    def __init__(
        self, path: Union[str, Path], log: Optional[AppendLog] = None
    ) -> None:
        self.path = Path(path)
        self.log = log if log is not None else AppendLog(self.path, fsync_every=1)
        if self.log.path != self.path:
            raise ValueError(f"log {self.log.path} is not at {self.path}")
        self._entries: List[Dict] = []
        self._next_seq = 0
        #: Lines the last :meth:`load` dropped: torn, garbage or foreign.
        self.skipped = 0
        self.load()

    @classmethod
    def at(cls, checkpoint_dir: Union[str, Path]) -> "ServiceJournal":
        return cls(Path(checkpoint_dir) / SERVICE_JOURNAL_NAME)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def load(self) -> None:
        """(Re)read the journal from disk, skipping (and counting in
        :attr:`skipped`) torn or foreign lines.

        The log is closed first, so the next :meth:`append` reopens it and
        seals a torn tail onto its own line instead of gluing an entry
        onto the garbage.
        """
        self.log.close()
        self._entries.clear()
        self._next_seq = 0
        entries, self.skipped = read_jsonl(self.path)
        for entry in entries:
            if not isinstance(entry.get("kind"), str):
                self.skipped += 1  # foreign line
                continue
            seq = entry.get("seq")
            if isinstance(seq, int):
                self._next_seq = max(self._next_seq, seq + 1)
            self._entries.append(entry)

    def append(self, entry: Dict) -> None:
        """Durably append one entry (fsync before returning).

        Stamps a monotone ``seq`` number (unless the entry already has
        one) so replay can recognise duplicated lines.
        """
        if "seq" not in entry:
            entry = dict(entry, seq=self._next_seq)
        self.log.append(json.dumps(entry, sort_keys=True))
        self._next_seq = max(self._next_seq, int(entry["seq"]) + 1)
        self._entries.append(entry)

    def reset(self) -> None:
        """Start a fresh journal (non-resume daemon birth)."""
        self._entries.clear()
        self._next_seq = 0
        self.log.reset()

    def close(self) -> None:
        """Release the held append handle (a later append reopens it)."""
        self.log.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def entries(self) -> List[Dict]:
        return list(self._entries)

    def config_entry(self) -> Optional[Dict]:
        for entry in self._entries:
            if entry.get("kind") == "config":
                return entry
        return None

    def mutations(self) -> List[Dict]:
        return [
            entry
            for entry in self._entries
            if entry.get("kind") in MUTATION_KINDS
        ]

    def last_watermark(self) -> int:
        """The furthest simulation time the journal proves was reached."""
        watermark = 0
        for entry in self._entries:
            if entry.get("kind") == "watermark":
                watermark = max(watermark, int(entry.get("t", 0)))
        return watermark

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceJournal({str(self.path)!r}, entries={len(self._entries)})"
