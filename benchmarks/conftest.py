"""Shared benchmark fixtures.

Every paper-artifact bench times the full experiment with pytest-benchmark
and then prints the regenerated rows (uncaptured, so they appear in the
bench log) next to the paper's published values for eyeball comparison.
The CI-gated benches write their ``BENCH_*.json`` reports at the repo root
through :func:`write_report`, which keeps every earlier run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def emit(capsys):
    """Print through pytest's capture so bench tables reach the terminal."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _emit


def _git_revision() -> Optional[str]:
    """HEAD's commit from the files under ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes, as
    ``perfbench/run.py`` stamps its runs (first 16 hex digits)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="session")
def write_report():
    """Write a ``BENCH_*.json`` report, keeping the runs before it.

    The new payload goes at the top level, stamped with the git revision
    checked out when it ran and a digest of the ``src/`` tree it ran
    (which tells an uncommitted tree from its parent); the report it
    replaces (minus its own ``history``) is appended to ``history``,
    oldest first.
    """

    def _write(path: Path, payload: dict) -> None:
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            previous = None
        history = []
        if isinstance(previous, dict):
            history = previous.pop("history", [])
            history.append(previous)
        report = {
            **payload,
            "git_revision": _git_revision(),
            "source_digest": _source_digest(),
            "history": history,
        }
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    return _write
