"""Checkpointed sweeps: an append-only journal of completed run digests.

A long sweep that dies mid-batch (power loss, OOM kill, ctrl-C) leaves the
on-disk :class:`~repro.runner.cache.ResultCache` in an ambiguous state: a
``<digest>.pkl`` may exist for a run whose completion was never observed by
the sweep.  The journal removes the ambiguity.  ``run_many`` appends one
JSON line per *completed* digest — after the result is committed to the
cache — so on ``--resume`` only journaled digests are trusted to the cache
and everything else is re-executed, however the previous invocation died.

The journal is an :class:`~repro.durable.AppendLog` fsync'd per line: a
crash mid-write corrupts at most the final line, which :meth:`RunJournal.load`
skips and the next append seals onto its own line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import FrozenSet, Union

from ..durable import AppendLog, read_jsonl
from .record import RunStatus

#: File name used when a journal is derived from a cache directory.
JOURNAL_NAME = "journal.jsonl"


class RunJournal:
    """Append-only record of terminally-resolved run digests.

    ``completed()`` exposes only digests that finished with an ok status;
    failed and timed-out digests are journaled too (for post-mortems) but
    are re-executed on resume.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path, fsync_every=1)
        self._completed: set = set()
        self._seen: set = set()
        self.load()

    @classmethod
    def at(cls, cache_dir: Union[str, Path]) -> "RunJournal":
        """The journal living alongside a cache directory's entries."""
        return cls(Path(cache_dir) / JOURNAL_NAME)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def load(self) -> None:
        """(Re)read the journal from disk, skipping torn or foreign lines.

        The log is closed first, so the next :meth:`record` reopens it
        and seals a torn tail written since.
        """
        self._log.close()
        self._completed.clear()
        self._seen.clear()
        for entry in read_jsonl(self.path)[0]:
            try:
                digest = entry["digest"]
                status = RunStatus(entry.get("status", "ok"))
            except (ValueError, KeyError, TypeError):
                continue  # not a completion
            self._seen.add(digest)
            if status.is_ok:
                self._completed.add(digest)

    def record(self, digest: str, status: RunStatus = RunStatus.OK) -> None:
        """Append one completion; idempotent for already-journaled digests."""
        if digest in self._completed:
            return
        entry = {"digest": digest, "status": status.value}
        self._log.append(json.dumps(entry, sort_keys=True))
        self._seen.add(digest)
        if status.is_ok:
            self._completed.add(digest)

    def reset(self) -> None:
        """Start a fresh journal (used by non-resume invocations)."""
        self._completed.clear()
        self._seen.clear()
        self._log.reset()

    def close(self) -> None:
        """Release the held append handle (a later record reopens it)."""
        self._log.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def completed(self) -> FrozenSet[str]:
        return frozenset(self._completed)

    def __contains__(self, digest: str) -> bool:
        return digest in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunJournal({str(self.path)!r}, completed={len(self._completed)})"

