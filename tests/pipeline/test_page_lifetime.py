"""A checked page's parse is freed by reference counting.

A parsed tree is cyclic: DOM views hold their arena, and the arena's
``parents``/``children`` columns hold the views.  Left alone, every page
would wait for CPython's cyclic collector, which then runs hundreds of
times per study cycle.  The checker entry points that create a parse and
never hand it out release it (``ParseResult.release``), and the tree
builder drops its bound-method self-references when a parse ends.  This
test pins that no checked page leaves anything for the cyclic collector,
on every such entry point, in both parse modes, for well-formed pages,
tree-reordering pages, the fuzz regression corpus and an aborted
(non-UTF-8) parse.
"""
from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest

from repro.core import Checker, DecodeFailure
from repro.fuzz import load_corpus
from repro.fuzz.generator import REORDER_SKELETONS, generate_template_page
from repro.html import decode_bytes
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


PAGES = _pages()
TEXTS = [text for text in map(decode_bytes, PAGES) if text is not None]


def _check_page(checker: Checker, data: bytes) -> None:
    check_page(
        FetchedPage(url="https://s/p", payload=data, content_type="text/html"),
        checker,
    )


ENTRY_POINTS = {
    "check_page": (_check_page, PAGES + [LATIN1_PAGE]),
    "check_bytes": (Checker.check_bytes, PAGES + [LATIN1_PAGE]),
    "check_html": (Checker.check_html, TEXTS),
    "check_fragment": (Checker.check_fragment, TEXTS),
}


@pytest.mark.parametrize("mode", ["dom", "stream"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_checked_pages_leave_no_cyclic_garbage(entry, mode):
    call, inputs = ENTRY_POINTS[entry]
    checker = Checker(mode=mode)
    gc.disable()
    try:
        gc.collect()
        for item in inputs:
            call(checker, item)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, (
        f"{entry} ({mode}) left {found} objects in reference cycles "
        f"over {len(inputs)} pages"
    )


def test_latin1_page_aborts_the_parse():
    assert isinstance(Checker().check_bytes(LATIN1_PAGE), DecodeFailure)
