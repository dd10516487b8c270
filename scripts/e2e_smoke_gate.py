#!/usr/bin/env python
"""Fail on a gross slowdown in an end-to-end smoke run (the ci.sh gate).

    python3 benchmarks/e2e/run.py --all --smoke --record run.ndjson
    python scripts/e2e_smoke_gate.py run.ndjson

For every workload in the committed smoke record (:data:`RECORD`, untraced
``--all --smoke`` runs of the code as committed), the gate compares the
run's ``cpu_ms_per_item`` with the median of the recorded runs.  The
benchmark already adjusts that metric by its machine-speed probe.  Exit
status 1 when a recorded workload is missing from the run, or when its
value is at least :data:`SLOWDOWN` times the recorded median.

The factor is wide on purpose: a smoke run measures each workload for
about a second, so only a gross slowdown shows reliably.  Anything finer
is for ``python -m benchmarks.e2e.compare`` over full runs.  Regenerate
the record with ten or more smoke runs when a change moves these costs
on purpose.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: untraced ``--all --smoke`` runs of the code as committed
RECORD = REPO / "reports" / "e2e_smoke_record.ndjson"
#: a workload fails at this multiple of its recorded median
SLOWDOWN = 2.0
METRIC = "cpu_ms_per_item"


def _values(path: Path) -> dict[str, list[float]]:
    """Each workload's metric values, in file order, from untraced runs."""
    values: dict[str, list[float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not record["trace"]:
            values.setdefault(record["workload"], []).append(
                record["metrics"][METRIC]["value"]
            )
    return values


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: e2e_smoke_gate.py RUN.ndjson", file=sys.stderr)
        return 2
    run = _values(Path(args[0]))
    failed = False
    for workload, recorded in sorted(_values(RECORD).items()):
        median = statistics.median(recorded)
        if workload not in run:
            print(f"FAIL {workload}: missing from the run")
            failed = True
            continue
        for value in run[workload]:
            ratio = value / median
            slow = ratio >= SLOWDOWN
            failed = failed or slow
            print(
                f"{'FAIL' if slow else 'ok  '} {workload}: {METRIC}"
                f" {value:.3f} ms, {ratio:.2f}x the recorded median"
                f" {median:.3f} ms of {len(recorded)} runs"
                f" (fails at {SLOWDOWN:g}x)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
