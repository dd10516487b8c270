"""Parser micro-benchmarks: machine-readable perf snapshots.

The paper's crawl rate ("nearly a thousand pages per minute from one IP",
section 3.3) makes per-page parse cost the study's throughput floor.
``repro-study bench`` times the parser substrate on fixed fixture pages
and writes a ``BENCH_*.json`` snapshot: tokens/sec, chars/sec and
pages/sec per case, plus per-rule check costs.  Its ``parse_*`` cases
are the only split of a parse into bytes scan and tree construction; the
paths production runs (``repro-study run`` and ``serve``) are measured
end to end by ``benchmarks/e2e``.  The CI bench-smoke stage runs one
quick iteration so a broken benchmark fails the build, not the next perf
investigation.

Timing uses best-of-``repeat`` over ``number`` inner iterations (the
``timeit`` discipline: the *minimum* is the least-noise estimate of the
true cost; means smear scheduler jitter into the signal).  Snapshots
deliberately contain no wall-clock timestamp — two runs of the same code
should produce comparable files; label provenance with ``--label``.

The fixture pages are a clean template page, a violation-injected dirty
page (the states the paper's violations exercise), a PLAINTEXT-heavy page
and a script-data-escape-heavy page (the content models the bytes scanner
chunks), and a large many-section document.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .commoncrawl.templates import INJECTORS, build_page
from .core import Checker
from .html import parse
from .html.bytes_tokenizer import BytesTokenizer

SCHEMA = "repro-bench/1"

#: injected violations for the dirty fixture
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
    label: str = ""


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

