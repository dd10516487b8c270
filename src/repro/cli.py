"""Command-line interface: run the study and print every table/figure.

Usage::

    repro-study run [--domains N] [--pages N] [--seed N] [--force]
                    [--incremental] [--near-hamming N] [--years Y,Y,...]
                    [--overlap F]
    repro-study check FILE.html
    repro-study fix FILE.html
    repro-study report [--domains N] ...
    repro-study replay MANIFEST.json [--workers N] [--workdir DIR]
    repro-study lint [PATH] [--format text|json] [--fail-on warning|error]
    repro-study fuzz [--seed N] [--iterations N] [--oracle NAME ...]
                     [--no-minimize] [--save DIR] [--replay DIR]
    repro-study serve [--host H] [--port N] [--workers N] [--cache-size N]
                      [--queue-limit N] [--deadline SECONDS] [--procs N]
                      [--shared-cache] [--batch-window N]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Checker, DecodeFailure, autofix

# The study, analysis and staticcheck modules are imported inside the
# commands that use them: the study driver loads numpy and scipy, which
# `serve`, `check`, `fix` and `lint` would otherwise pay for at start-up.
if TYPE_CHECKING:
    from .study import StudyConfig


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domains", type=int, default=None,
                        help="number of study domains (default: 150*REPRO_SCALE)")
    parser.add_argument("--pages", type=int, default=6,
                        help="max pages per domain (paper: 100)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--force", action="store_true",
                        help="re-run even if cached results exist")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for the pipeline run")
    parser.add_argument(
        "--incremental", action="store_true",
        help="route the run through the cross-snapshot dedup ingest "
        "(repro.incremental): unchanged bodies carry findings forward",
    )
    parser.add_argument(
        "--near-hamming", type=int, default=None, metavar="N",
        help="also carry near-duplicate bodies within N simhash bits "
        "(implies --incremental; trades bit-exactness for more skips)",
    )
    parser.add_argument(
        "--years", default=None, metavar="Y,Y,...",
        help="restrict the study to these calendar years "
        "(default: all paper years 2015-2022)",
    )
    parser.add_argument(
        "--overlap", type=float, default=0.0, metavar="F",
        help="fraction of pages per domain that stay byte-identical "
        "across snapshots (synthetic-corpus knob, default 0.0)",
    )


def _config(args: argparse.Namespace) -> StudyConfig:
    from .study import StudyConfig

    years = None
    if args.years:
        years = tuple(int(part) for part in args.years.split(","))
    if args.domains is None:
        base = StudyConfig.scaled()
        return StudyConfig(
            num_domains=base.num_domains, max_pages=args.pages,
            seed=args.seed, years=years, overlap_fraction=args.overlap,
        )
    return StudyConfig(
        num_domains=args.domains, max_pages=args.pages, seed=args.seed,
        years=years, overlap_fraction=args.overlap,
    )


def _run_from_args(args: argparse.Namespace):
    from .study import run_study

    return run_study(
        _config(args),
        force=args.force,
        workers=args.workers,
        incremental=args.incremental or args.near_hamming is not None,
        near_hamming=args.near_hamming,
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .analysis import render_table2

    study = _run_from_args(args)
    print(f"study complete: archive={study.archive_dir} db={study.db_path}")
    if study.manifest_path is not None and study.manifest_path.exists():
        print(f"run manifest: {study.manifest_path}")
    print(render_table2(study.table2()))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis import (
        render_autofix,
        render_element_usage,
        render_figure8,
        render_group_trends,
        render_mitigations,
        render_table2,
        render_trend,
    )
    from .analysis.longitudinal import APPENDIX_FIGURES

    study = _run_from_args(args)
    print(render_table2(study.table2()))
    print(render_figure8(study.figure8()))
    print(render_trend(study.figure9(), "Figure 9: Domains with >=1 violation"))
    print(render_group_trends(study.figure10()))
    trends = study.violation_trends()
    for figure, ids in APPENDIX_FIGURES.items():
        for violation_id in ids:
            print(render_trend(trends[violation_id], figure))
    print(render_autofix(study.autofix_estimate()))
    print(render_mitigations(study.mitigations()))
    print(render_element_usage(study.element_usage()))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a recorded run manifest and verify result digests.

    Exit status: 0 when every compared digest matches, 1 on mismatch,
    2 when the manifest itself is unreadable or malformed.
    """
    from .incremental import ManifestFormatError, replay_manifest

    try:
        report = replay_manifest(
            args.manifest, workdir=args.workdir, workers=args.workers
        )
    except ManifestFormatError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    for key in sorted(report.replayed):
        print(f"replayed {key}: {report.replayed[key]}")
    if report.ok:
        compared = ", ".join(report.compared)
        print(f"replay OK: {compared} digest(s) bit-identical to the manifest")
        return 0
    for mismatch in report.mismatches:
        print(f"MISMATCH: {mismatch}", file=sys.stderr)
    return 1


def cmd_dynamic(args: argparse.Namespace) -> int:
    """Section 5.1 pre-study over synthesized dynamic fragments."""
    from .analysis import (
        render_dynamic,
        render_generalization,
        run_dynamic_prestudy,
        run_generalization_study,
    )

    prestudy = run_dynamic_prestudy(
        num_domains=args.domains or 120, fragments_per_domain=args.fragments
    )
    print(render_dynamic(prestudy))
    print(render_generalization(run_generalization_study(
        num_domains=(args.domains or 120) // 2
    )))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    data = Path(args.file).read_bytes()
    report = Checker().check_bytes(data, url=args.file)
    if isinstance(report, DecodeFailure):
        declared = report.declared_encoding or "none"
        print(
            f"not UTF-8-decodable (declared encoding: {declared}) — "
            "the paper's framework filters such documents out",
            file=sys.stderr,
        )
        return 2
    if not report.findings:
        print("no violations found")
        return 0
    for finding in report.findings:
        location = f"@{finding.offset}" if finding.offset >= 0 else ""
        print(f"{finding.violation}{location}: {finding.message}")
        if finding.evidence:
            print(f"    {finding.evidence}")
    print(f"{len(report.findings)} finding(s), "
          f"{len(report.violated)} violation type(s)")
    return 1


def cmd_fix(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    result = autofix(text)
    sys.stdout.write(result.fixed)
    print(
        f"\n--- repaired {len(result.repaired)} finding(s); "
        f"{len(result.remaining)} need manual work", file=sys.stderr,
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the staticcheck pass suite over the repo's own source.

    With no PATH, lints the installed ``repro`` package — the repo
    machine-checks itself (tier-1 via tests/staticcheck/test_self_lint.py).
    """
    from dataclasses import replace

    from .staticcheck import (
        Severity,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )
    from .staticcheck.reporter import render_stats, stale_baseline_findings

    if args.path is not None:
        root = Path(args.path)
        if not root.is_dir():
            print(f"lint: {args.path} is not a directory", file=sys.stderr)
            return 2
        label = args.path
    else:
        root = Path(__file__).resolve().parent
        label = "src/repro"
    result = run_lint(root, root_label=label)
    if args.check_baseline:
        baseline_path = Path(args.check_baseline)
        if not baseline_path.is_file():
            print(
                f"lint: baseline file {args.check_baseline} not found",
                file=sys.stderr,
            )
            return 2
        stale = stale_baseline_findings(
            result,
            baseline_path.read_text(encoding="utf-8"),
            args.check_baseline,
        )
        if stale:
            result = replace(
                result,
                findings=tuple(
                    sorted(
                        result.findings + tuple(stale),
                        key=lambda finding: finding.sort_key,
                    )
                ),
            )
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
        if args.stats:
            print(render_stats(result))
    if args.baseline:
        write_baseline(result, Path(args.baseline), root_label=label)
        print(f"baseline written to {args.baseline}", file=sys.stderr)
    return result.exit_code(Severity.parse(args.fail_on))


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the deterministic differential-fuzzing harness.

    Exit status 1 when any finding bucket is non-empty (so CI can gate on
    a clean smoke run), 0 otherwise.  ``--replay`` instead re-runs a
    saved corpus directory through the current oracles.
    """
    from .fuzz import (
        CorpusEntry,
        CorpusFormatError,
        FuzzConfig,
        load_corpus,
        render_report,
        replay_entry,
        run_fuzz,
        save_entry,
    )
    from .fuzz.harness import DEFAULT_ORACLES

    if args.replay is not None:
        try:
            entries = load_corpus(args.replay)
        except CorpusFormatError as exc:
            print(f"fuzz: {exc}", file=sys.stderr)
            return 2
        if not entries:
            print(f"fuzz: no corpus entries under {args.replay}", file=sys.stderr)
            return 2
        failures = 0
        for entry in entries:
            try:
                replay_entry(entry)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                failures += 1
                print(f"REGRESSION {entry.source}: {exc}")
            else:
                print(f"ok {entry.source}")
        print(f"{len(entries)} corpus entries, {failures} regression(s)")
        return 1 if failures else 0

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        oracles=tuple(args.oracle) if args.oracle else DEFAULT_ORACLES,
        minimize=not args.no_minimize,
    )
    try:
        report = run_fuzz(config)
    except ValueError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    print(render_report(report))
    if args.save and report.findings:
        for finding in report.findings:
            entry = CorpusEntry(
                oracle=finding.bucket.oracle,
                data=finding.minimized,
                bucket=(
                    finding.bucket.oracle,
                    finding.bucket.kind,
                    finding.bucket.frame,
                ),
                note=finding.message,
                origin=f"fuzz seed={config.seed} iteration={finding.iteration}",
            )
            path = save_entry(args.save, entry)
            print(f"saved {path}", file=sys.stderr)
    return 1 if report.findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the checker-as-a-service HTTP front end (repro.service).

    Binds, prints one ``repro.service listening on HOST:PORT`` line on
    stdout (port 0 selects an ephemeral port — scripted callers parse
    that line), then serves until SIGINT/SIGTERM, draining in-flight
    requests before exiting 0.
    """
    from .service import ServiceConfig, run_service

    config = ServiceConfig(
        workers=args.workers,
        cache_size=args.cache_size,
        max_body=args.max_body,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        batch_window=args.batch_window,
        cache_backend="shared" if args.shared_cache else "local",
    )
    return run_service(
        config, host=args.host, port=args.port,
        access_log=not args.no_access_log, procs=args.procs,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the parser-substrate benchmarks, optionally writing a snapshot."""
    from .bench import BenchConfig, render_snapshot, run_benchmarks, write_snapshot

    config = BenchConfig(
        repeat=1 if args.quick else args.repeat,
        number=1 if args.quick else args.number,
        rules=not args.no_rules,
        label=args.label,
    )
    snapshot = run_benchmarks(config)
    print(render_snapshot(snapshot))
    if args.output:
        write_snapshot(snapshot, Path(args.output))
        print(f"snapshot written to {args.output}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="HTML specification violation study (IMC 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the full pipeline")
    _add_scale_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    report_parser = sub.add_parser("report", help="print every table/figure")
    _add_scale_args(report_parser)
    report_parser.set_defaults(func=cmd_report)

    replay_parser = sub.add_parser(
        "replay",
        help="re-execute a repro-manifest/1 run and verify result digests",
    )
    replay_parser.add_argument("manifest", help="path to the manifest JSON")
    replay_parser.add_argument(
        "--workers", type=int, default=None,
        help="override the recorded worker count (bit-identity across "
        "worker counts is part of what replay proves)",
    )
    replay_parser.add_argument(
        "--workdir", default=None,
        help="scratch directory for the replay DB (default: a tempdir)",
    )
    replay_parser.set_defaults(func=cmd_replay)

    dynamic_parser = sub.add_parser(
        "dynamic", help="run the section 5.1/5.2 side studies"
    )
    dynamic_parser.add_argument("--domains", type=int, default=None)
    dynamic_parser.add_argument("--fragments", type=int, default=15)
    dynamic_parser.set_defaults(func=cmd_dynamic)

    check_parser = sub.add_parser("check", help="check one HTML file")
    check_parser.add_argument("file")
    check_parser.set_defaults(func=cmd_check)

    fix_parser = sub.add_parser("fix", help="auto-repair one HTML file")
    fix_parser.add_argument("file")
    fix_parser.set_defaults(func=cmd_fix)

    lint_parser = sub.add_parser(
        "lint", help="static-analyse the repo's own source (staticcheck)"
    )
    lint_parser.add_argument(
        "path", nargs="?", default=None,
        help="tree to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    lint_parser.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="minimum severity that makes the exit status non-zero",
    )
    lint_parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="also write the drift-diffable baseline report to FILE",
    )
    lint_parser.add_argument(
        "--check-baseline", metavar="FILE", default=None,
        help="fail on stale entries in FILE that no longer fire "
        "(the committed baseline can only shrink)",
    )
    lint_parser.add_argument(
        "--stats", action="store_true",
        help="print per-pass runtime, finding counts and pass metrics",
    )
    lint_parser.set_defaults(func=cmd_lint)

    fuzz_parser = sub.add_parser(
        "fuzz", help="run the deterministic differential-fuzzing harness"
    )
    fuzz_parser.add_argument("--seed", type=int, default=1)
    fuzz_parser.add_argument("--iterations", type=int, default=1000)
    fuzz_parser.add_argument(
        "--oracle", action="append", metavar="NAME", default=None,
        help="run only this oracle (repeatable; default: all)",
    )
    fuzz_parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip greedy minimization of failing inputs",
    )
    fuzz_parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="write minimized findings as corpus entries under DIR",
    )
    fuzz_parser.add_argument(
        "--replay", metavar="DIR", default=None,
        help="replay a saved corpus directory instead of fuzzing",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    serve_parser = sub.add_parser(
        "serve", help="run the checker as an HTTP service (repro.service)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8645,
        help="listening port; 0 binds an ephemeral port (default 8645)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for parse/check/fix work (default 1)",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="content-hash LRU entries; 0 disables caching (default 1024)",
    )
    serve_parser.add_argument(
        "--max-body", type=int, default=2 * 1024 * 1024,
        help="request body limit in bytes (default 2 MiB)",
    )
    serve_parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="max admitted CPU requests before answering 429 (default 64)",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=30.0,
        help="per-request wall-clock budget in seconds (default 30)",
    )
    serve_parser.add_argument(
        "--no-access-log", action="store_true",
        help="suppress the JSON access log on stderr",
    )
    serve_parser.add_argument(
        "--batch-window", type=int, default=8,
        help="max /check-batch lines in flight at once (default 8)",
    )
    serve_parser.add_argument(
        "--procs", type=int, default=1,
        help="pre-forked acceptor processes sharing one listening socket "
        "(default 1: single process)",
    )
    serve_parser.add_argument(
        "--shared-cache", action="store_true",
        help="use the cross-process shared result cache (one hit set "
        "across all --procs acceptors)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    bench_parser = sub.add_parser(
        "bench", help="run parser benchmarks and write a BENCH_*.json snapshot"
    )
    bench_parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the machine-readable snapshot here",
    )
    bench_parser.add_argument(
        "--repeat", type=int, default=5,
        help="timing rounds; the minimum wins (default 5)",
    )
    bench_parser.add_argument(
        "--number", type=int, default=20,
        help="inner iterations per round (default 20)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="single iteration of everything (CI smoke)",
    )
    bench_parser.add_argument(
        "--no-rules", action="store_true",
        help="skip the per-rule cost measurements",
    )
    bench_parser.add_argument(
        "--label", default="",
        help="provenance label stored in the snapshot",
    )
    bench_parser.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe: not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
