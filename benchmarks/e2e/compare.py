"""Compare two sets of benchmark runs, workload by workload.

    python -m benchmarks.e2e.compare PARENT.ndjson CHANGE.ndjson

Each file holds run records, one JSON object per line, as ``run.py
--record FILE`` appends them.  Untraced records are compared; traced ones
are skipped.  Runs pair up per workload in file order (the parent's i-th
run with the change's i-th), so run the two sides alternately, flipping
which goes first, and every pair shares the machine's conditions.

For each workload and end-to-end metric the report gives each side's
median and quartiles, the change's share of pair wins (ties count for
neither side), and one verdict, with the bound read from
``BENCHMARK.json``:

* **unresolved** — either side's interquartile distance is wider than
  the bound (as a share of its median), unless every run of the change
  beats every run of the parent;
* **regressed** — the change's median is worse than the parent's by more
  than the bound;
* **improved** — at least :data:`MIN_PAIRS` pairs were run, the change
  wins at least 9 in 10 of them, and the medians differ by more than
  the parent's interquartile distance;
* **no change** — anything else.

A metric whose values are, in every run of both sets, a fixed multiple
or reciprocal of an earlier metric's (a study's latencies are wall ms per
page, 1000 / ``throughput_per_s``) gets no verdict of its own: it would
only repeat the earlier one.

A workload whose change runs fail more operations than the parent's is
marked regressed whatever its timings say.  Exit status 1 when anything
regressed.
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

from .metrics import BENCHMARK_JSON
from .stats import quartiles

#: fewer pairs cannot show a gain: two sets of 5 runs of one commit win
#: 5/5 by chance once in 32 tries
MIN_PAIRS = 10


@dataclass(frozen=True, slots=True)
class Comparison:
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    #: signed improvement of the change's median, as a share of the parent's
    gain: float
    verdict: str


def _better(value: float, base: float, better: str) -> bool:
    return value > base if better == "higher" else value < base


def compare(parent: list[float], change: list[float], *, better: str,
            bound: float) -> Comparison:
    """The verdict for one workload x metric (see module docstring)."""
    a = quartiles(parent)
    b = quartiles(change)
    gain = (b[1] - a[1]) / a[1]
    if better == "lower":
        gain = -gain
    pairs = list(zip(parent, change))
    wins = sum(1 for base, value in pairs if _better(value, base, better))
    spread = max((a[2] - a[0]) / a[1], (b[2] - b[0]) / b[1])
    every_run_better = all(
        _better(value, base, better) for value in change for base in parent
    )
    if spread > bound and not every_run_better:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "regressed"
    elif (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > 0
          and abs(b[1] - a[1]) > a[2] - a[0]):
        verdict = "improved"
    else:
        verdict = "no change"
    return Comparison(a, b, wins, len(pairs), gain, verdict)


def derived(values: list[float], earlier: dict[str, list[float]]) -> str | None:
    """How ``values`` follow from an earlier metric's, if they do in every run.

    Returns ``"k × name"`` or ``"k / name"``, or None.
    """
    for name, base in earlier.items():
        if 0 in base:
            continue
        for op, combine in (("×", operator.truediv), ("/", operator.mul)):
            k = [combine(value, other) for value, other in zip(values, base)]
            if all(math.isclose(x, k[0], rel_tol=1e-9) for x in k):
                return f"{k[0]:.6g} {op} {name}"
    return None


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records of one file, grouped by workload in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def render(parent_path: Path, change_path: Path, benchmark: dict) -> tuple[str, bool]:
    parent = load_runs(parent_path)
    change = load_runs(change_path)
    lines = [f"parent: {parent_path}   change: {change_path}"]
    regressed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in parent or workload not in change:
            lines.append(f"\n{workload}: missing from "
                         f"{'parent' if workload not in parent else 'change'}")
            continue
        a_runs, b_runs = parent[workload], change[workload]
        lines.append(f"\n{workload}: {len(a_runs)} parent runs,"
                     f" {len(b_runs)} change runs")
        seen: dict[str, list[float]] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_values = [run["metrics"][name]["value"] for run in a_runs]
            b_values = [run["metrics"][name]["value"] for run in b_runs]
            source = derived(a_values + b_values, seen)
            if source is not None:
                lines.append(f"  {name:<17} {'derived':<10} = {source} in every"
                             " run; no verdict of its own")
                continue
            seen[name] = a_values + b_values
            result = compare(a_values, b_values, better=metric["better"],
                             bound=metric["bound"])
            regressed |= result.verdict == "regressed"
            a, b = result.parent, result.change
            lines.append(
                f"  {name:<17} {result.verdict:<10}"
                f" median {a[1]:.4g} -> {b[1]:.4g} {metric['unit']}"
                f" ({result.gain:+.1%} of the parent's {a[1]:.4g},"
                f" {metric['better']} is better, bound {metric['bound']:.0%})"
                f"; quartiles {a[0]:.4g}..{a[2]:.4g} vs {b[0]:.4g}..{b[2]:.4g}"
                f"; change won {result.wins}/{result.pairs} pairs"
            )
        failed_a = sum(run["failed"] for run in a_runs)
        failed_b = sum(run["failed"] for run in b_runs)
        attempted_b = sum(run["attempted"] for run in b_runs)
        verdict = "regressed" if failed_b > failed_a else "no change"
        regressed |= verdict == "regressed"
        lines.append(f"  {'failed':<17} {verdict:<10} {failed_a} -> {failed_b}"
                     f" of {attempted_b} attempted by the change")
    return "\n".join(lines), regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description="compare two sets of run records against BENCHMARK.json",
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    text, regressed = render(args.parent, args.change,
                             json.loads(args.benchmark.read_text()))
    print(text)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
