"""What each entry point imports (docs/architecture.md).

Every package re-exports its names lazily (``repro/_lazy.py``), heavy
edges are imported by their only callers, and each CLI command imports
what it runs.  These checks run in fresh interpreters, so nothing this
test process has already imported can hide an import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.fleet",
    "repro.metrics",
    "repro.obs",
    "repro.power",
    "repro.runner",
    "repro.service",
    "repro.simulator",
    "repro.workloads",
)

#: What a simulation path must never pay for.
NOT_ON_THE_RUN_PATH = (
    "repro.analysis",
    "repro.service",
    "http.server",
    "concurrent.futures",
    "multiprocessing",
)

#: What the ``serve`` command must never pay for.
NOT_ON_THE_SERVE_PATH = tuple(
    f"repro.analysis.{name}"
    for name in ("experiments", "fuzz", "figures", "sweep", "replication", "export")
) + ("repro.fleet.executor",)


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def loaded_after(module: str) -> list:
    return fresh(
        """
        import json, sys
        before = set(sys.modules)
        __import__(sys.argv[1])
        print(json.dumps(sorted(set(sys.modules) - before)))
        """,
        module,
    )


def under(modules, prefixes):
    return [m for m in modules if m in prefixes or m.startswith(tuple(p + "." for p in prefixes))]


def test_import_repro_loads_only_the_lazy_helper():
    loaded = loaded_after("repro")
    assert [m for m in loaded if m.startswith("repro")] == ["repro", "repro._lazy"]


@pytest.mark.parametrize("module", ["repro.fleet.executor", "repro.runner.executor"])
def test_run_paths_skip_analysis_service_and_pools(module):
    assert under(loaded_after(module), NOT_ON_THE_RUN_PATH) == []


def test_serve_boots_lean_and_serves_without_importing(tmp_path):
    """Boot ``simty serve`` over TCP, replay a workload, drain, save.

    The request path is imported before ``listening``; a replay that
    registers, cancels, advances, checkpoints and drains adds no module.
    """
    from repro.workloads.requests import workload_request_lines
    from repro.workloads.scenarios import ScenarioConfig, build_light

    requests = tmp_path / "requests.jsonl"
    lines = workload_request_lines(
        build_light(ScenarioConfig(horizon=1_800_000)),
        advance_every_ms=300_000,
        checkpoint_every=20,
    )
    requests.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = fresh(
        """
        import json, socket, sys, threading
        from repro.analysis import cli
        from repro.service.transport import SocketServer

        requests, work = sys.argv[1], sys.argv[2]
        seen = {}
        start = SocketServer.start

        def replay(address):
            with socket.create_connection(address) as conn:
                stream = conn.makefile("rw", encoding="utf-8")
                for line in open(requests, encoding="utf-8"):
                    stream.write(line)
                    stream.flush()
                    seen.setdefault("replies", []).append(json.loads(stream.readline()))

        def started(self):
            server = start(self)
            seen["boot"] = sorted(sys.modules)
            address = self.address
            threading.Thread(target=replay, args=(address,), daemon=True).start()
            return server

        SocketServer.start = started
        code = cli.main([
            "serve", "--tcp", "127.0.0.1:0",
            "--checkpoint-dir", work + "/journal",
            "--save-trace", work + "/trace.json",
        ])
        print(json.dumps({
            "code": code,
            "boot": seen["boot"],
            "after": sorted(sys.modules),
            "errors": [r for r in seen["replies"] if not r.get("ok")],
        }))
        """,
        str(requests),
        str(tmp_path),
    )
    assert report["code"] == 0
    assert report["errors"] == []
    assert (tmp_path / "trace.json").exists()
    assert under(report["boot"], NOT_ON_THE_SERVE_PATH) == []
    new = sorted(set(report["after"]) - set(report["boot"]))
    assert [m for m in new if m.startswith("repro")] == []


def test_every_module_imports_on_its_own():
    names = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).replace(".__init__", "")
        for path in (SRC / "repro").rglob("*.py")
    )
    failures = fresh(
        """
        import importlib, json, sys, traceback

        failures = {}
        for name in sys.argv[1:]:
            for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception:
                failures[name] = traceback.format_exc(limit=3)
        print(json.dumps(failures))
        """,
        *names,
    )
    assert len(names) > 100
    assert failures == {}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    import importlib

    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_an_export_outranks_its_same_named_submodule():
    # ``repro.analysis.fuzz`` is the campaign function, also after the
    # ``repro.analysis.fuzz`` module has been imported first.
    result = fresh(
        """
        import json
        import repro.analysis.fuzz
        from repro.analysis import fuzz
        print(json.dumps(callable(fuzz) and fuzz.__module__))
        """
    )
    assert result == "repro.analysis.fuzz"


def test_the_parser_offers_every_archetype_set():
    from repro.analysis.cli import _ARCHETYPE_SET_NAMES
    from repro.fleet.population import ARCHETYPE_SETS

    assert list(_ARCHETYPE_SET_NAMES) == sorted(ARCHETYPE_SETS)
