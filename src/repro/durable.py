"""One durable append-log behind every JSONL writer.

The sweep checkpoint (:class:`~repro.runner.journal.RunJournal`), the
daemon's journal (:class:`~repro.service.journal.ServiceJournal`), the
fleet's shard journals (:class:`~repro.fleet.executor.ShardJournal`) and
the telemetry spool (:class:`~repro.obs.stream.SpoolSink`) all keep
line-oriented logs that a crash may cut mid-write.  They share one crash
discipline, implemented once here:

* :class:`AppendLog` holds one append handle, opened on first use.
  Opening seals a torn tail: if the file does not end in ``\\n``, a
  newline is written first, so the next entry starts on its own line
  instead of being glued onto the dead process's fragment.  Creating the
  file fsyncs its parent directory, so the file's *name* is as durable as
  its bytes.
* Every line is written unbuffered.  ``fsync_every=N`` fsyncs every N lines
  and whenever the caller asks (``sync=True``); ``fsync_every=0`` makes a
  flush-only log that fsyncs neither the file nor its directory (the
  telemetry spool, which a crash may lose without harm).
* A failed append closes the handle before re-raising, so the next
  append reopens the file and seals whatever the failure left behind.
* :func:`read_jsonl` is the tolerant reader: a crash corrupts at most the
  final line, and garbage, blank or non-object lines are skipped.  It
  returns how many lines it skipped (blank ones aside) beside the
  entries, so a resume can say what it dropped.
* :func:`damage_log` is the one way tests and smokes damage a log on
  disk (a torn tail, a truncation, garbage, a lost file), to exercise
  the two promises above.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple, Union


def _fsync_dir(directory: Path) -> None:
    """Make ``directory``'s entries durable (best effort).

    Some filesystems refuse to fsync a directory fd; the upgrade is then
    simply unavailable, never a crash.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class AppendLog:
    """An append-only line log with one held handle and an fsync policy."""

    def __init__(self, path: Union[str, Path], fsync_every: int = 1) -> None:
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._handle: Optional[BinaryIO] = None
        self._unsynced = 0

    def _open(self) -> BinaryIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        handle = self.path.open("a+b", buffering=0)
        try:
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")  # seal a torn tail onto its own line
        except OSError:
            handle.close()
            raise
        if created and self.fsync_every:
            _fsync_dir(self.path.parent)
        self._handle = handle
        return handle

    def append(self, line: str, sync: bool = False) -> None:
        """Write ``line`` plus a newline; fsync per the log's policy."""
        try:
            handle = self._handle or self._open()
            data = line.encode("utf-8") + b"\n"
            if handle.write(data) != len(data):
                raise OSError(f"short write to {self.path}")
            self._unsynced += 1
            if self.fsync_every and (sync or self._unsynced >= self.fsync_every):
                os.fsync(handle.fileno())
                self._unsynced = 0
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        """Release the handle; idempotent.  The next append reopens.

        Appends are unbuffered, so closing has nothing left to write; a
        failing close is ignored rather than masking an append's error.
        """
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def reset(self) -> None:
        """Close and delete the log (the next append starts a new file)."""
        self.close()
        self._unsynced = 0
        try:
            self.path.unlink()
        except FileNotFoundError:
            return
        if self.fsync_every:
            _fsync_dir(self.path.parent)


def read_jsonl(path: Union[str, Path]) -> Tuple[List[Dict], int]:
    """Every JSON object line of ``path``, and how many lines were skipped.

    A torn, garbage or non-object line is skipped and counted; a blank
    line is neither.  A missing or unreadable file reads as ``([], 0)``;
    undecodable bytes are replaced, so a corrupted log parses as garbage
    lines rather than crashing a resume scan.
    """
    entries: List[Dict] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if isinstance(entry, dict):
                    entries.append(entry)
                else:
                    skipped += 1
    except OSError:
        return [], 0
    return entries, skipped


#: The ways :func:`damage_log` can damage a log.
DAMAGE_MODES = ("tear", "truncate", "garbage", "delete")


def damage_log(path: Union[str, Path], mode: str) -> None:
    """Damage the log at ``path`` on disk, as a crash or a bad disk would.

    * ``"tear"`` appends the first half of a plausible mutation line with
      no newline: a crash cut the final append short.  The reader skips
      it; the next append seals it onto its own line.
    * ``"truncate"`` cuts the last 40 bytes, mid final line.
    * ``"garbage"`` overwrites the whole file with non-JSON bytes.
    * ``"delete"`` removes the file.
    """
    path = Path(path)
    if mode == "tear":
        with path.open("ab") as handle:
            handle.write(b'{"kind": "register", "t": 9999999, "alarm": {"al')
    elif mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) - 40)])
    elif mode == "garbage":
        path.write_bytes(b"\x00\xffnot json at all\x1f" * 8)
    elif mode == "delete":
        path.unlink()
    else:
        raise ValueError(
            f"unknown damage mode {mode!r}; modes are {list(DAMAGE_MODES)}"
        )
