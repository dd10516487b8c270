"""``repro-study serve`` with the service layers traced.

    python -m benchmarks.e2e.traced_serve TRACE_DIR [serve options...]

Installs the :data:`~benchmarks.e2e.layers.SERVE_LAYERS` wrappers, then
runs the ordinary ``serve`` command in this process.  When the server
drains (SIGTERM), its spans go to ``TRACE_DIR/trace.ndjson`` and its
per-name totals and counters to ``TRACE_DIR/server.json``; the pool
worker flushes its own totals there as it goes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import main as repro_main

from .layers import SERVE_LAYERS
from .trace import Tracer


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])
    tracer = Tracer(trace_dir)
    with tracer.installed(SERVE_LAYERS):
        status = repro_main(["serve", *argv[1:]])
    tracer.write_spans(trace_dir / "trace.ndjson")
    (trace_dir / "server.json").write_text(json.dumps({
        "spans": tracer.totals(),
        "counters": dict(tracer.counters),
    }))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
