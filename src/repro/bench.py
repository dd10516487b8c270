"""Benchmark regression tracking: machine-readable perf snapshots.

The paper's crawl rate ("nearly a thousand pages per minute from one IP",
section 3.3) makes per-page parse cost the study's throughput floor, so
the repo records its perf trajectory as data, not folklore: ``repro-study
bench`` runs the parser-substrate benchmarks and writes a ``BENCH_*.json``
snapshot (tokens/sec, chars/sec, pages/sec per case, plus per-rule check
costs).  Committed snapshots under ``reports/`` give every perf PR a
before/after table (see EXPERIMENTS.md); the CI bench-smoke stage runs one
quick iteration so a syntactically-broken benchmark fails the build, not
the next perf investigation.

Timing uses best-of-``repeat`` over ``number`` inner iterations (the
``timeit`` discipline: the *minimum* is the least-noise estimate of the
true cost; means smear scheduler jitter into the signal).  Snapshots
deliberately contain no wall-clock timestamp — two runs of the same code
should produce comparable files; label provenance with ``--label``.

The fixture pages mirror ``benchmarks/bench_parser.py``: a clean template
page, a violation-injected dirty page (the states the paper's violations
exercise), a PLAINTEXT-heavy page and a script-data-escape-heavy page
(the content models the bytes scanner chunks), and a large many-section
document.  Only :mod:`repro` absolute imports here, so the module
also runs against an older checkout for before/after numbers (copy the
file outside ``src/`` first — running it by path would put ``src/repro``
on ``sys.path`` and shadow the stdlib ``html`` package)::

    cp src/repro/bench.py /tmp/bench_snapshot.py
    PYTHONPATH=old/src python /tmp/bench_snapshot.py --output before.json
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.core import Checker
from repro.html import parse
from repro.html.bytes_tokenizer import BytesTokenizer

SCHEMA = "repro-bench/1"

#: injected violations for the dirty fixture (matches bench_parser.py)
DIRTY_INJECTORS = ("FB2", "DM3", "HF4", "HF_CASCADE", "DE3_2")


# ------------------------------------------------------------------ fixtures


def clean_page() -> str:
    return build_page(
        "bench.example", "/", random.Random(7), use_svg=True
    ).render()


def dirty_page() -> str:
    draft = build_page("bench.example", "/", random.Random(7))
    for name in DIRTY_INJECTORS:
        INJECTORS[name].apply(draft, random.Random(8))
    return draft.render()


def plaintext_page() -> str:
    """A page ending in a large PLAINTEXT block (pure text-run scanning)."""
    body = "".join(
        f"line {i}: plain text with <angle brackets> &amp; ampersands\n"
        for i in range(120)
    )
    return (
        "<!DOCTYPE html><html><head><title>pt</title></head>"
        f"<body><p>intro</p><plaintext>{body}"
    )


def script_escape_page() -> str:
    """A page dominated by script-data escaped/double-escaped content."""
    chunk = (
        "<script><!--\n"
        "  var a = 1 < 2, b = {};\n"
        "  document.write('<script>inner()<\\/script>');\n"
        "  // dashes -- inside -- comment-like text\n"
        "--></script>\n"
    )
    return (
        "<!DOCTYPE html><html><head><title>esc</title></head><body>"
        + chunk * 40
        + "</body></html>"
    )


def large_page() -> str:
    sections = "".join(
        f"<section><h2>S{i}</h2><p>paragraph {i} with <a href='/l{i}'>links"
        f"</a> &amp; entities</p></section>"
        for i in range(300)
    )
    return (
        "<!DOCTYPE html><html><head><title>big</title></head>"
        f"<body>{sections}</body></html>"
    )


#: case name -> (kind, fixture); tokenizer_bytes cases measure the
#: decode-free scan over the fixture's UTF-8 encoding (what every parse
#: runs: raw payload in, lazy text out), parse cases a str caller's full
#: ``parse(text)``: encode, scan and tree construction
CASES: dict[str, tuple[str, Callable[[], str]]] = {
    "tokenizer_bytes_clean": ("tokenize_bytes", clean_page),
    "tokenizer_bytes_dirty": ("tokenize_bytes", dirty_page),
    "tokenizer_bytes_large": ("tokenize_bytes", large_page),
    "tokenizer_bytes_plaintext": ("tokenize_bytes", plaintext_page),
    "tokenizer_bytes_script_escape": ("tokenize_bytes", script_escape_page),
    "parse_clean": ("parse", clean_page),
    "parse_dirty": ("parse", dirty_page),
    "parse_large": ("parse", large_page),
}


# -------------------------------------------------------------------- timing


def best_seconds(func: Callable[[], object], *, repeat: int, number: int) -> float:
    """Minimum per-call seconds over ``repeat`` rounds of ``number`` calls."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        for _ in range(max(1, number)):
            func()
        elapsed = (time.perf_counter() - start) / max(1, number)
        if elapsed < best:
            best = elapsed
    return best


def _bytes_token_count(data: bytes) -> int:
    """Drain the bytes tokenizer without touching lazy text (the tree
    builder's hot loop reads tag names, not every character run)."""
    return sum(1 for _token in BytesTokenizer(data))


@dataclass(slots=True)
class BenchConfig:
    repeat: int = 5
    number: int = 20
    rules: bool = True
    pipeline: bool = True
    label: str = ""
    #: shrink the multi-snapshot incremental case for CI smoke runs
    quick: bool = False


# ------------------------------------------------- miniature pipeline case

#: miniature end-to-end corpus: small enough for the CI smoke, large
#: enough that every stage (CDX query, WARC fetch, check, SQLite store)
#: registers nonzero time
PIPELINE_BENCH_DOMAINS = 8
PIPELINE_BENCH_MAX_PAGES = 2
PIPELINE_BENCH_SEED = 11


def _staged_pipeline_run(root, domains) -> tuple[dict, int]:
    """One sequential end-to-end pass with per-stage timing.

    Mirrors ``benchmarks/bench_pipeline_throughput.py``'s attribution
    split: metadata/index time vs WARC fetch vs check vs store (store
    includes the per-snapshot commit), so the smoke snapshot carries the
    same per-stage fields the committed before/after pairs report.
    """
    from repro.commoncrawl import CommonCrawlClient
    from repro.pipeline import Storage
    from repro.pipeline.checker_stage import check_page
    from repro.pipeline.crawler import fetch_pages
    from repro.pipeline.metadata import collect_metadata

    stages = {"index": 0.0, "fetch": 0.0, "check": 0.0, "store": 0.0}
    # DOM-free streaming checks, with taint fallback to the materialized
    # walk on reordered pages — what the production pipeline runs
    checker = Checker()
    pages_stored = 0
    client = CommonCrawlClient(root)
    with Storage(":memory:") as storage:
        domain_ids = {
            name: storage.add_domain(name, rank) for name, rank in domains
        }
        for collection in client.collections():
            snapshot_row_id = storage.add_snapshot(collection.id, collection.year)
            for name, _rank in domains:
                started = time.perf_counter()
                metadata = collect_metadata(
                    client, collection.id, name,
                    max_pages=PIPELINE_BENCH_MAX_PAGES,
                )
                stages["index"] += time.perf_counter() - started

                started = time.perf_counter()
                pages = list(fetch_pages(client, metadata))
                stages["fetch"] += time.perf_counter() - started

                started = time.perf_counter()
                checked = [check_page(page, checker) for page in pages]
                stages["check"] += time.perf_counter() - started

                started = time.perf_counter()
                if metadata.found:
                    analyzed = 0
                    for page, result in zip(pages, checked):
                        page_row_id = storage.add_page(
                            snapshot_row_id, domain_ids[name], page.url,
                            utf8=result.utf8,
                            checked=result.report is not None,
                            declared_encoding=result.declared_encoding,
                        )
                        if result.report is not None:
                            analyzed += 1
                            if result.report.counts:
                                storage.add_findings(
                                    page_row_id, dict(result.report.counts)
                                )
                    storage.set_domain_status(
                        snapshot_row_id, domain_ids[name], found=True,
                        analyzed=analyzed > 0, pages=analyzed,
                    )
                    pages_stored += len(pages)
                else:
                    storage.set_domain_status(
                        snapshot_row_id, domain_ids[name],
                        found=False, analyzed=False, pages=0,
                    )
                stages["store"] += time.perf_counter() - started
            started = time.perf_counter()
            storage.commit()
            stages["store"] += time.perf_counter() - started
    closer = getattr(client, "close", None)
    if closer is not None:
        closer()
    # fraction of checked pages whose stream parse tainted and fell back
    # to the DOM walk
    checked_pages = checker.pages_checked
    materialized = (
        checker.stream_fallbacks / checked_pages if checked_pages else 0.0
    )
    return stages, pages_stored, materialized


def run_pipeline_case(config: BenchConfig) -> dict:
    """Best-of-``repeat`` miniature end-to-end pipeline measurement."""
    import tempfile

    from repro.commoncrawl import ArchiveBuilder, CorpusConfig, CorpusPlanner

    corpus = CorpusConfig(
        num_domains=PIPELINE_BENCH_DOMAINS,
        max_pages=PIPELINE_BENCH_MAX_PAGES,
        seed=PIPELINE_BENCH_SEED,
        years=(2022,),
    )
    plan = CorpusPlanner(corpus).plan()
    domains = [(name, rank) for name, rank in plan.domains]
    best_stages: dict | None = None
    best_total = float("inf")
    pages = 0
    materialized = 0.0
    with tempfile.TemporaryDirectory() as root:
        ArchiveBuilder(root).build(plan)
        for _ in range(max(1, config.repeat)):
            stages, pages, materialized = _staged_pipeline_run(root, domains)
            total = sum(stages.values())
            if total < best_total:
                best_total = total
                best_stages = stages
    assert best_stages is not None
    return {
        "domains": len(domains),
        "pages": pages,
        "best_seconds": best_total,
        "pages_per_second": pages / best_total if best_total else 0.0,
        "stages": best_stages,
        # stream taint rate: what fraction of pages still walked a
        # materialized DOM
        "dom_materialized_ratio": materialized,
    }


# ----------------------------------- incremental dedup pipeline case

#: multi-snapshot corpus for the dedup-ingest case: enough yearly
#: snapshots that carry-forward dominates, a controlled fraction of
#: byte-identical pages per domain-year (the knob EXPERIMENTS.md sweeps)
INCREMENTAL_BENCH_DOMAINS = 8
INCREMENTAL_BENCH_MAX_PAGES = 20
INCREMENTAL_BENCH_OVERLAP = 0.9
INCREMENTAL_BENCH_SEED = 11


def run_incremental_case(config: BenchConfig) -> dict:
    """Full path vs dedup ingest on a multi-snapshot overlap corpus.

    Both paths run through :func:`repro.incremental.execute_study_run`
    (the timing compared is the runner's own ``total``, excluding archive
    digesting), so the reported speedup is exactly what ``repro-study run
    --incremental`` buys.  ``aggregate_parity`` asserts the dedup path's
    canonical aggregate dump is byte-identical to the full path's — a
    speedup that changed results would be a bug, not a win.
    """
    import tempfile

    from repro.commoncrawl import ArchiveBuilder, CorpusConfig, CorpusPlanner
    from repro.commoncrawl import calibration as cal
    from repro.incremental import DedupConfig, execute_study_run

    years = cal.YEARS[-3:] if config.quick else cal.YEARS
    max_pages = (
        PIPELINE_BENCH_MAX_PAGES if config.quick else INCREMENTAL_BENCH_MAX_PAGES
    )
    corpus = CorpusConfig(
        num_domains=4 if config.quick else INCREMENTAL_BENCH_DOMAINS,
        max_pages=max_pages,
        seed=INCREMENTAL_BENCH_SEED,
        years=years,
        overlap_fraction=INCREMENTAL_BENCH_OVERLAP,
    )
    plan = CorpusPlanner(corpus).plan()
    domains = [(name, rank) for name, rank in plan.domains]
    best = {"full": float("inf"), "incremental": float("inf")}
    digests: dict[str, str] = {}
    counters: dict = {}
    pages = 0
    with tempfile.TemporaryDirectory() as root:
        ArchiveBuilder(root).build(plan)
        for _ in range(max(1, config.repeat)):
            for mode, dedup in (("full", None), ("incremental", DedupConfig())):
                manifest, _stats = execute_study_run(
                    archive_root=root,
                    db_path=":memory:",
                    domains=domains,
                    max_pages=max_pages,
                    seed=INCREMENTAL_BENCH_SEED,
                    dedup=dedup,
                )
                seconds = manifest["timings"]["total"]
                if seconds < best[mode]:
                    best[mode] = seconds
                digests[mode] = manifest["results"]["aggregate_sha256"]
                if mode == "full":
                    pages = manifest["results"]["pages_checked"]
                else:
                    counters = manifest["dedup_counters"] or {}
    return {
        "domains": len(domains),
        "snapshots": len(years),
        "overlap_fraction": INCREMENTAL_BENCH_OVERLAP,
        "pages": pages,
        "full_seconds": best["full"],
        "incremental_seconds": best["incremental"],
        "speedup": (
            best["full"] / best["incremental"] if best["incremental"] else 0.0
        ),
        "aggregate_parity": digests["full"] == digests["incremental"],
        "dedup": counters,
    }


def run_benchmarks(config: BenchConfig) -> dict:
    """Run every case (and per-rule costs) and return the snapshot dict."""
    snapshot: dict = {
        "schema": SCHEMA,
        "label": config.label,
        "config": {"repeat": config.repeat, "number": config.number},
        "cases": {},
        "rules": {},
    }
    for name, (kind, fixture) in CASES.items():
        text = fixture()
        decoded_ratio = None
        if kind == "tokenize_bytes":
            data = text.encode("utf-8")
            tokens = _bytes_token_count(data)
            seconds = best_seconds(
                lambda d=data: _bytes_token_count(d),
                repeat=config.repeat, number=config.number,
            )
            # fraction of payload bytes the drain actually decoded: the
            # laziness headline (1.0 would mean the decode-free scan is
            # decoding everything anyway)
            probe = BytesTokenizer(data)
            for _token in probe:
                pass
            decoded_ratio = (
                probe.decoded_bytes / probe.input_bytes
                if probe.input_bytes else 0.0
            )
        else:
            tokens = _bytes_token_count(text.encode("utf-8"))
            seconds = best_seconds(
                lambda t=text: parse(t),
                repeat=config.repeat, number=config.number,
            )
            # stage attribution for perf work: draining the bytes scanner
            # over the encoded fixture (the scan ``parse`` runs) bounds the
            # scan cost from below, so the difference is what tree
            # construction (plus token plumbing) adds on top
            tokenize_seconds = best_seconds(
                lambda t=text: _bytes_token_count(t.encode("utf-8")),
                repeat=config.repeat, number=config.number,
            )
            tree_build_seconds = max(0.0, seconds - tokenize_seconds)
        snapshot["cases"][name] = {
            "kind": kind,
            "chars": len(text),
            "tokens": tokens,
            "best_seconds": seconds,
            "chars_per_second": len(text) / seconds if seconds else 0.0,
            "tokens_per_second": tokens / seconds if seconds else 0.0,
            "pages_per_second": 1.0 / seconds if seconds else 0.0,
        }
        if kind == "parse":
            snapshot["cases"][name]["tokenize_seconds"] = tokenize_seconds
            snapshot["cases"][name]["tree_build_seconds"] = tree_build_seconds
        if decoded_ratio is not None:
            snapshot["cases"][name]["bytes_decoded_ratio"] = decoded_ratio
    if config.rules:
        result = parse(dirty_page())
        for rule in Checker().rules:
            seconds = best_seconds(
                lambda r=rule: r.check(result),
                repeat=config.repeat, number=config.number,
            )
            snapshot["rules"][rule.id] = {"best_seconds": seconds}
    if config.pipeline:
        snapshot["pipeline"] = run_pipeline_case(config)
        try:
            snapshot["pipeline"]["dedup"] = run_incremental_case(config)
        except ImportError:
            pass  # pre-incremental checkout (before/after baseline runs)
    return snapshot


def render_snapshot(snapshot: dict) -> str:
    """Human-readable table of one snapshot."""
    lines = ["repro-study bench"]
    if snapshot.get("label"):
        lines[0] += f" [{snapshot['label']}]"
    lines.append("=" * len(lines[0]))
    lines.append(
        f"{'case':<24} {'ms/op':>9} {'Mchars/s':>9} "
        f"{'ktokens/s':>10} {'pages/s':>9}"
    )
    for name, case in snapshot["cases"].items():
        line = (
            f"{name:<24} {case['best_seconds'] * 1e3:>9.3f} "
            f"{case['chars_per_second'] / 1e6:>9.2f} "
            f"{case['tokens_per_second'] / 1e3:>10.1f} "
            f"{case['pages_per_second']:>9.1f}"
        )
        if "bytes_decoded_ratio" in case:
            line += f"  decoded {case['bytes_decoded_ratio']:.1%}"
        if "tree_build_seconds" in case:
            line += (
                f"  tok {case['tokenize_seconds'] * 1e3:.2f}ms"
                f" + tree {case['tree_build_seconds'] * 1e3:.2f}ms"
            )
        lines.append(line)
    if snapshot.get("pipeline"):
        pipeline = snapshot["pipeline"]
        stage_text = ", ".join(
            f"{stage} {seconds * 1e3:.1f}ms"
            for stage, seconds in pipeline["stages"].items()
        )
        lines.append(
            f"pipeline e2e: {pipeline['pages']} pages over "
            f"{pipeline['domains']} domains in "
            f"{pipeline['best_seconds'] * 1e3:.1f}ms "
            f"({pipeline['pages_per_second']:.0f} pages/s; {stage_text}; "
            f"DOM materialized on "
            f"{pipeline.get('dom_materialized_ratio', 1.0):.0%} of pages)"
        )
        dedup = pipeline.get("dedup")
        if dedup:
            counters = dedup["dedup"]
            lines.append(
                f"pipeline incremental: {dedup['snapshots']} snapshots x "
                f"{dedup['domains']} domains @ "
                f"{dedup['overlap_fraction']:.0%} overlap: full "
                f"{dedup['full_seconds'] * 1e3:.1f}ms -> incremental "
                f"{dedup['incremental_seconds'] * 1e3:.1f}ms "
                f"({dedup['speedup']:.1f}x; carried "
                f"{counters.get('carried', 0)}/{counters.get('pages', 0)} "
                f"pages; parity={dedup['aggregate_parity']})"
            )
    if snapshot["rules"]:
        total = sum(r["best_seconds"] for r in snapshot["rules"].values())
        slowest = sorted(
            snapshot["rules"].items(),
            key=lambda item: item[1]["best_seconds"],
            reverse=True,
        )[:5]
        lines.append(
            f"rule checks on parse_dirty: {len(snapshot['rules'])} rules, "
            f"{total * 1e3:.3f} ms total; slowest: "
            + ", ".join(
                f"{rule_id} {r['best_seconds'] * 1e6:.0f}us"
                for rule_id, r in slowest
            )
        )
    return "\n".join(lines)


def write_snapshot(snapshot: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="parser-substrate benchmarks with JSON snapshot output"
    )
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the BENCH_*.json snapshot here")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing rounds; the minimum wins (default 5)")
    parser.add_argument("--number", type=int, default=20,
                        help="inner iterations per round (default 20)")
    parser.add_argument("--quick", action="store_true",
                        help="single iteration of everything (CI smoke)")
    parser.add_argument("--no-rules", action="store_true",
                        help="skip the per-rule cost measurements")
    parser.add_argument("--no-pipeline", action="store_true",
                        help="skip the miniature end-to-end pipeline case")
    parser.add_argument("--label", default="",
                        help="provenance label stored in the snapshot")
    args = parser.parse_args(argv)
    config = BenchConfig(
        repeat=1 if args.quick else args.repeat,
        number=1 if args.quick else args.number,
        rules=not args.no_rules,
        pipeline=not args.no_pipeline,
        label=args.label,
        quick=args.quick,
    )
    snapshot = run_benchmarks(config)
    print(render_snapshot(snapshot))
    if args.output:
        write_snapshot(snapshot, Path(args.output))
        print(f"snapshot written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
