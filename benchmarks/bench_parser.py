"""Parser substrate micro-benchmarks: tokenizer and tree builder
throughput on representative documents (the per-page cost floor of the
whole study)."""
from __future__ import annotations

import random

import pytest

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.html import parse
from repro.html.bytes_tokenizer import BytesTokenizer


@pytest.fixture(scope="module")
def clean_page() -> str:
    return build_page("bench.example", "/", random.Random(7), use_svg=True).render()


@pytest.fixture(scope="module")
def dirty_page() -> str:
    draft = build_page("bench.example", "/", random.Random(7))
    for name in ("FB2", "DM3", "HF4", "HF_CASCADE", "DE3_2"):
        INJECTORS[name].apply(draft, random.Random(8))
    return draft.render()


@pytest.fixture(scope="module")
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


@pytest.fixture(scope="module")
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


def _count_tokens(text: str) -> int:
    """Drain the bytes scanner every parse runs over the page's UTF-8."""
    return sum(1 for _token in BytesTokenizer(text.encode("utf-8")))


def test_tokenizer_clean(benchmark, clean_page):
    count = benchmark(_count_tokens, clean_page)
    assert count > 10


def test_tokenizer_dirty(benchmark, dirty_page):
    """Violation-laden markup exercises the error-reporting slow paths."""
    count = benchmark(_count_tokens, dirty_page)
    assert count > 10


def test_tokenizer_plaintext(benchmark, plaintext_page):
    count = benchmark(_count_tokens, plaintext_page)
    assert count > 10


def test_tokenizer_script_escape(benchmark, script_escape_page):
    """Script-data (double-)escaped states are the trickiest chunked states."""
    count = benchmark(_count_tokens, script_escape_page)
    assert count > 10


def test_full_parse_clean(benchmark, clean_page):
    result = benchmark(parse, clean_page)
    assert result.document.body is not None


def test_full_parse_dirty(benchmark, dirty_page):
    """Error-tolerant fix-ups (foster parenting, head cascade) add cost."""
    result = benchmark(parse, dirty_page)
    assert result.errors


def test_parse_large_document(benchmark):
    sections = "".join(
        f"<section><h2>S{i}</h2><p>paragraph {i} with <a href='/l{i}'>links"
        f"</a> &amp; entities</p></section>"
        for i in range(300)
    )
    big = f"<!DOCTYPE html><html><head><title>big</title></head><body>{sections}</body></html>"
    result = benchmark(parse, big)
    assert len(result.document.find_all("section")) == 300
