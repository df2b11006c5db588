"""Checkpointed sweeps: an append-only journal of completed run digests.

A long sweep that dies mid-batch (power loss, OOM kill, ctrl-C) leaves the
on-disk :class:`~repro.runner.cache.ResultCache` in an ambiguous state: a
``<digest>.pkl`` may exist for a run whose completion was never observed by
the sweep.  The journal removes the ambiguity.  ``run_many`` appends one
JSON line per *completed* digest — after the result is committed to the
cache — so on ``--resume`` only journaled digests are trusted to the cache
and everything else is re-executed, however the previous invocation died.

The journal is deliberately append-only and line-oriented: a crash mid-write
corrupts at most the final line, which :meth:`RunJournal.load` skips.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import FrozenSet, Optional, Union

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
        """(Re)read the journal from disk, skipping torn trailing lines
        (and remembering a missing final newline for :meth:`record`)."""
        self._completed.clear()
        self._seen.clear()
        self._needs_newline = False
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                # Only the last line can lack one: a torn tail.
                self._needs_newline = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    digest = entry["digest"]
                    status = RunStatus(entry.get("status", "ok"))
                except (ValueError, KeyError, TypeError):
                    continue  # torn or foreign line; not a completion
                self._seen.add(digest)
                if status.is_ok:
                    self._completed.add(digest)

    def record(self, digest: str, status: RunStatus = RunStatus.OK) -> None:
        """Append one completion; idempotent for already-journaled digests."""
        if digest in self._completed:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"digest": digest, "status": status.value}
        with self.path.open("a", encoding="utf-8") as handle:
            if self._needs_newline:
                handle.write("\n")  # seal a torn tail onto its own line
                self._needs_newline = False
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._seen.add(digest)
        if status.is_ok:
            self._completed.add(digest)

    def reset(self) -> None:
        """Start a fresh journal (used by non-resume invocations)."""
        self._completed.clear()
        self._seen.clear()
        self._needs_newline = False
        if self.path.exists():
            self.path.unlink()

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


def journal_for(
    cache_dir: Optional[Union[str, Path]]
) -> Optional[RunJournal]:
    """A journal for ``cache_dir``, or None when no directory is configured."""
    if cache_dir is None:
        return None
    return RunJournal.at(cache_dir)
