"""A checked page's parse is freed by reference counting.

A parsed tree is cyclic: DOM views hold their arena, and the arena's
``parents``/``children`` columns hold the views.  Left alone, every page
would wait for CPython's cyclic collector, which then runs hundreds of
times per study cycle.  The checker entry points that create a parse and
never hand it out release it (``ParseResult.release``), and the tree
builder drops its bound-method self-references when a parse ends.  This
test pins that no checked page leaves anything for the cyclic collector,
on every such entry point, for well-formed pages, tree-reordering pages,
the fuzz regression corpus and an aborted (non-UTF-8) parse.  ``autofix``
and ``tokenize_bytes`` make and drop a parse or a tokenizer of their own
and are held to the same bar.  Each case runs twice, over the pages whose
stream parse taints and falls back to walking the element tree ("dom")
and over those it checks on the flat emission list ("stream").
"""
from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest

from repro.core import Checker, DecodeFailure, autofix
from repro.fuzz import load_corpus
from repro.fuzz.generator import REORDER_SKELETONS, generate_template_page
from repro.html import StreamTreeBuilder, decode_bytes
from repro.html.bytes_tokenizer import tokenize_bytes
from repro.pipeline.checker_stage import check_page
from repro.pipeline.crawler import FetchedPage

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"

#: aborts the bytes parse with the section 4.1 UnicodeDecodeError
LATIN1_PAGE = "<!DOCTYPE html><p title='café'>naïve</p>".encode("latin-1")


def _pages() -> list[bytes]:
    rng = random.Random(1800)
    pages = [generate_template_page(rng).encode("utf-8") for _ in range(12)]
    # one page per tree-reordering corner (foster parenting, adoption
    # agency, table text, frameset takeover, after-head reroute)
    pages += [skeleton.format("x").encode("utf-8") for skeleton in REORDER_SKELETONS]
    pages += [entry.data for entry in load_corpus(CORPUS_DIR)]
    return pages


def _check_path(data: bytes) -> str:
    """"dom" when the page's stream parse taints, else "stream"."""
    builder = StreamTreeBuilder()
    builder.parse_bytes(data).release()
    return "stream" if builder.tainted is None else "dom"


PAGES = {mode: [] for mode in ("dom", "stream")}
for _page in _pages():
    PAGES[_check_path(_page)].append(_page)
TEXTS = {
    mode: [text for text in map(decode_bytes, pages) if text is not None]
    for mode, pages in PAGES.items()
}


def _tokenize(data: bytes) -> None:
    try:
        tokenize_bytes(data)
    except UnicodeDecodeError:
        pass


def _check_page(checker: Checker, data: bytes) -> None:
    check_page(
        FetchedPage(url="https://s/p", payload=data, content_type="text/html"),
        checker,
    )


#: entry point -> (call, input kind); "bytes" inputs include the latin-1 page
ENTRY_POINTS = {
    "check_page": (_check_page, "bytes"),
    "check_bytes": (Checker.check_bytes, "bytes"),
    "check_html": (Checker.check_html, "text"),
    "check_fragment": (Checker.check_fragment, "text"),
    "autofix": (lambda checker, text: autofix(text, checker=checker), "text"),
    "tokenize_bytes": (lambda _checker, data: _tokenize(data), "bytes"),
}


@pytest.mark.parametrize("mode", ["dom", "stream"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_checked_pages_leave_no_cyclic_garbage(entry, mode):
    call, kind = ENTRY_POINTS[entry]
    inputs = PAGES[mode] + [LATIN1_PAGE] if kind == "bytes" else TEXTS[mode]
    assert inputs
    checker = Checker()
    gc.disable()
    try:
        gc.collect()
        for item in inputs:
            call(checker, item)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, (
        f"{entry} ({mode} pages) left {found} objects in reference cycles "
        f"over {len(inputs)} pages"
    )


def test_latin1_page_aborts_the_parse():
    assert isinstance(Checker().check_bytes(LATIN1_PAGE), DecodeFailure)
