"""The in-body end-tag shortcut against handler-only reference builders.

``TreeBuilder._mode_in_body`` pops a current node that an end tag closes
without running the tag's handler, except for the handler-only names.
``repro.fuzz.oracles`` keeps a reference twin of each production builder
that sends every in-body end tag to its handler; the ``parse_parity``
oracle diffs the two on the tree dump, parse errors, tree events, stream
emission and taint reason.  These tests run that diff over template
pages, the tree-reordering skeletons, the fuzz regression corpus, a
witness per handler-only name and seeded random tag soups.
"""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.fuzz import load_corpus
from repro.fuzz.generator import REORDER_SKELETONS, generate_template_page
from repro.fuzz.oracles import (
    BUILDER_PAIRS,
    ORACLES,
    OracleFailure,
    oracle_parse_parity,
)
from repro.html.treebuilder import (
    _IN_BODY_END,
    _IN_BODY_END_HANDLER_ONLY,
    FORMATTING_ELEMENTS,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"

#: documents whose end tags close the current node under a handler-only
#: name, or under a formatting name whose node is not the last
#: active-formatting entry: the shortcut must leave all of them alone
WITNESSES = [
    b"<form></form><form><input></form>x",
    b"<div><form></form></div><form><p>y</form>",
    b"<template><div></div></template><p>x</p>",
    b"<p><b>1<object></object></p>2",
    b"<p><i>1<applet></applet></p>2",
    b"<p><u>1<marquee></marquee></p>2",
    b"<body></body><p>x</p>",
    b"<html><body><p>x</p></body></html><p>y",
    b"<b><i></b></i>x",
    b"<a><b></a></b>x",
    b"<b><p>x</b>y</p>",
    b"<nobr><nobr>x</nobr></nobr>",
    b"<b><b><b><b>x</b></b></b></b>",
    b"<table><tr><td><b>x</b></td></tr></table>",
    b"<svg><g></g><foreignObject><div></div></foreignObject></svg><p>x</p>",
    b"<math><mi><b></b></mi></math>",
    b"<ul><li>a</li><li>b</ul><dl><dt>t</dt><dd>d</dd></dl>",
    b"<h1>a</h1><h2>b</h3><section><h2>x</h2></section>",
    b"<select><option>a</option></select><button></button>",
]

#: soup vocabulary: every name with its own in-body end-tag handler,
#: plus table, select, foreign and raw-text names
_SOUP_NAMES = tuple(sorted(
    set(_IN_BODY_END)
    | {"span", "table", "tr", "td", "tbody", "caption", "select", "option",
       "svg", "math", "mi", "foreignObject", "desc", "textarea", "title",
       "head", "frameset", "frame", "input", "img", "col", "colgroup"}
))


def _soup(rng: random.Random) -> bytes:
    parts = []
    for _ in range(rng.randint(1, 24)):
        roll = rng.random()
        name = rng.choice(_SOUP_NAMES)
        if roll < 0.45:
            parts.append(f"<{name}>")
        elif roll < 0.85:
            parts.append(f"</{name}>")
        else:
            parts.append(rng.choice(("x", " ", "\n", "&amp;")))
    return "".join(parts).encode("utf-8")


def _documents() -> list[bytes]:
    rng = random.Random(1900)
    pages = [generate_template_page(rng).encode("utf-8") for _ in range(40)]
    pages += [skeleton.format("x").encode("utf-8") for skeleton in REORDER_SKELETONS]
    pages += [entry.data for entry in load_corpus(CORPUS_DIR)]
    return pages


def test_oracle_in_default_set():
    assert "parse_parity" in ORACLES


def test_handler_only_names_have_handlers():
    # a handler-only name without an in-body handler would be dead weight
    assert _IN_BODY_END_HANDLER_ONLY <= set(_IN_BODY_END)
    assert not _IN_BODY_END_HANDLER_ONLY & FORMATTING_ELEMENTS


@pytest.mark.parametrize("data", WITNESSES, ids=lambda data: data[:32].decode())
def test_witnesses(data):
    oracle_parse_parity(data)


def test_documents():
    for data in _documents():
        oracle_parse_parity(data)


def test_random_tag_soups():
    rng = random.Random(19)
    for _ in range(2500):
        oracle_parse_parity(_soup(rng))


def test_fragment_html_context(monkeypatch):
    # the one parse where in-body sees <html> as the current node: a
    # fragment whose context is html; </html> must keep its handler
    from repro.fuzz.oracles import ReferenceTreeBuilder
    from repro.html import treebuilder
    from repro.html.dump import dump_tree

    def record():
        nodes, result = treebuilder.parse_fragment("</html><p>x</p>y", "html")
        return dump_tree(result.document), result.errors, result.events

    production = record()
    monkeypatch.setattr(treebuilder, "TreeBuilder", ReferenceTreeBuilder)
    assert record() == production


def test_divergence_is_reported(monkeypatch):
    # a production builder that ignores every end tag must be caught
    from repro.fuzz import oracles

    label, production, reference = BUILDER_PAIRS[0]

    class Broken(production):
        def _mode_in_body(self, token):
            if token.__class__.__name__ == "EndTag":
                return False
            return super()._mode_in_body(token)

    monkeypatch.setattr(oracles, "BUILDER_PAIRS", ((label, Broken, reference),))
    with pytest.raises(OracleFailure) as failure:
        oracle_parse_parity(b"<div><p>x</p></div>y")
    assert failure.value.detail == "parse-parity-divergence"
