"""Run one benchmark workload and print every metric, then the result line.

    python3 benchmarks/e2e/run.py --workload study-full --seed 11
    PYTHONPATH=src python -m benchmarks.e2e.run --workload serve-mix --trace
    python3 benchmarks/e2e/run.py --all --smoke

Options:

* ``--workload NAME`` (one of ``study-full``, ``study-parallel``,
  ``study-incremental``, ``serve-mix``) or ``--all``, which runs every
  workload, each in a fresh process;
* ``--seed N`` makes every input (default 11; 11 and 23 are pinned by
  ``expected.json``); ``--seconds S`` is the measured time (default 10);
* ``--trace`` (or ``--trace 1``) prints the per-layer metrics instead of
  the end-to-end ones;
* ``--smoke`` shrinks every size so all four workloads finish in seconds;
* ``--record FILE`` appends the run's record to an NDJSON file, the
  input of ``python -m benchmarks.e2e.compare``.

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 only when the outputs were correct.  Everything a run writes
lands under ``.bench_work/`` in the checkout and is removed afterwards,
except the traced run's span dump.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__" and not __package__:
    # run as a file: import the package from the checkout root instead of
    # putting this directory (whose trace.py shadows the stdlib's) first
    _root = Path(__file__).resolve().parents[2]
    sys.path[0] = str(_root)
    sys.path.insert(1, str(_root / "src"))
    from benchmarks.e2e.run import main

    sys.exit(main())

import argparse
import json
import os
import shutil
import subprocess
import tempfile

from .workloads import DEFAULT_SEED, FULL, ROOT, SMOKE, WORK_DIR


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="end-to-end benchmark of repro-study run and serve",
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=FULL.names())
    which.add_argument("--all", action="store_true",
                       help="every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default 10, smoke 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up, 1 s default measure")
    parser.add_argument("--record", type=Path, default=None,
                        help="append the run record to this NDJSON file")
    parser.add_argument("--expected", type=Path, default=None,
                        help="oracle file (default: expected.json beside"
                        " this script)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 10.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    profile = SMOKE if args.smoke else FULL
    for name in profile.names():
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.record is not None:
            cmd += ["--record", str(args.record.resolve())]
        if args.expected is not None:
            cmd += ["--expected", str(args.expected.resolve())]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.all:
        return _run_all(args)

    import repro

    from . import oracle, serve, study

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"repro is imported from {repro.__file__}, not from this"
                 f" checkout's {ROOT / 'src'}")
    profile = SMOKE if args.smoke else FULL
    seconds = args.seconds
    expected = oracle.load(args.expected or oracle.EXPECTED_PATH)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # anything the program puts in a temp dir stays inside the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    tempfile.tempdir = None
    try:
        if args.workload == profile.serve.name:
            result = serve.run(profile.serve, args.seed, seconds,
                               trace=bool(args.trace), setups=profile.setups,
                               expected=expected, work=work)
        else:
            spec = next(s for s in profile.studies if s.name == args.workload)
            result = study.run(spec, args.seed, seconds,
                               trace=bool(args.trace), setups=profile.setups,
                               expected=expected, work=work)
    finally:
        trace_dir = work / "trace"
        if (trace_dir / "trace.ndjson").exists():
            kept = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.parent.mkdir(parents=True, exist_ok=True)
            trace_dir.rename(kept)
        shutil.rmtree(work, ignore_errors=True)

    summary = result.summary()
    declared = result.declared()
    print(f"{result.workload} seed={result.seed}"
          f" {'traced' if result.trace else 'untraced'}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6}"
              f" ({declared[name]['better']} is better)")
    for note in result.notes:
        print(f"  note: {note}")
    for problem in result.problems:
        print(f"  INCORRECT: {problem}")
    print(f"  attempted={summary['attempted']} failed={summary['failed']}"
          f" correct={summary['correct']}")
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({"workload": result.workload,
                                  "seed": result.seed,
                                  "trace": result.trace, **summary}) + "\n")
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
