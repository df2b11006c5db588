"""Run ``simty serve`` with the benchmark's layer spans installed.

Usage (from the repository root)::

    python perfbench/serve_launcher.py --layers-out layers.json -- serve --tcp 127.0.0.1:0

The spans go in once the TCP listener has started, so daemon boot is not
counted, and come out when the daemon's command returns.  The self time
of every layer, the counts and the time covered by outermost spans are
then written to ``--layers-out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: serve_launcher.py --layers-out PATH -- <simty args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--layers-out", required=True)
    args = parser.parse_args(argv[:split])

    from repro.analysis import cli
    from repro.service.transport import SocketServer

    tracer = layers.Tracer()
    installed = []
    original_start = SocketServer.start

    def start_then_trace(self):
        started = original_start(self)
        if not installed:
            installed.append(layers.install(tracer))
        return started

    SocketServer.start = start_then_trace
    try:
        code = cli.main(argv[split + 1 :])
    finally:
        for installation in installed:
            installation.restore()
        SocketServer.start = original_start
        report = {"layers": tracer.report(), "covered_s": tracer.covered_s}
        Path(args.layers_out).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
