"""Table-driven tokenizer conformance cases (html5lib-tests style).

Each case is (input, expected token summary); summaries use a compact
notation: ``("StartTag", name, {attrs})``, ``("EndTag", name)``,
``("Character", data)``, ``("Comment", data)``, ``("DOCTYPE", name)``.
Adjacent character tokens are merged before comparison.  Every case runs
through both scanners: the per-character reference ``tokenize`` and the
bytes scanner that parsing runs, so the production path is checked against
the expected tokens directly, not only through parity with the reference.
"""
from __future__ import annotations

import pytest

from repro.html import tokenize, tokenize_bytes
from repro.html.tokens import (
    EOF,
    Character,
    Comment,
    Doctype,
    EndTag,
    StartTag,
)


def summarize(tokens):
    out = []
    for token in tokens:
        if isinstance(token, StartTag):
            attrs = {a.name: a.value for a in token.visible_attributes()}
            out.append(("StartTag", token.name, attrs))
        elif isinstance(token, EndTag):
            out.append(("EndTag", token.name))
        elif isinstance(token, Character):
            if out and out[-1][0] == "Character":
                out[-1] = ("Character", out[-1][1] + token.data)
            else:
                out.append(("Character", token.data))
        elif isinstance(token, Comment):
            out.append(("Comment", token.data))
        elif isinstance(token, Doctype):
            out.append(("DOCTYPE", token.name))
        elif isinstance(token, EOF):
            pass
    return out


CASES = [
    # --- basic data and tags
    ("plain text", [("Character", "plain text")]),
    ("<div>", [("StartTag", "div", {})]),
    ("</div>", [("EndTag", "div")]),
    ("<div>x</div>", [("StartTag", "div", {}), ("Character", "x"),
                      ("EndTag", "div")]),
    ("<DiV>", [("StartTag", "div", {})]),
    # --- attributes, quoting
    ("<a b>", [("StartTag", "a", {"b": ""})]),
    ("<a b=c>", [("StartTag", "a", {"b": "c"})]),
    ("<a b='c'>", [("StartTag", "a", {"b": "c"})]),
    ('<a b="c">', [("StartTag", "a", {"b": "c"})]),
    ("<a =>", [("StartTag", "a", {"=": ""})]),
    ("<a b =c>", [("StartTag", "a", {"b": "c"})]),
    ("<a b= c>", [("StartTag", "a", {"b": "c"})]),
    ("<a b = c>", [("StartTag", "a", {"b": "c"})]),
    ("<a b=c d=e>", [("StartTag", "a", {"b": "c", "d": "e"})]),
    ('<a b="c"d="e">', [("StartTag", "a", {"b": "c", "d": "e"})]),
    ("<a b/c>", [("StartTag", "a", {"b": "", "c": ""})]),
    ("<a/b>", [("StartTag", "a", {"b": ""})]),
    ("<a b=c/>", [("StartTag", "a", {"b": "c/"})]),  # '/' joins unquoted value
    ('<a b="c"/>', [("StartTag", "a", {"b": "c"})]),
    ("<a b=&amp;>", [("StartTag", "a", {"b": "&"})]),
    ("<a b='&#65;'>", [("StartTag", "a", {"b": "A"})]),
    # --- character references in data
    ("a&amp;b", [("Character", "a&b")]),
    ("a&ampb", [("Character", "a&b")]),  # legacy no-semicolon
    ("a&nosuch;b", [("Character", "a&nosuch;b")]),
    ("&#97;&#98;", [("Character", "ab")]),
    ("&#x61;", [("Character", "a")]),
    ("&", [("Character", "&")]),
    ("&#", [("Character", "&#")]),
    ("&;", [("Character", "&;")]),
    # --- broken tag opens
    ("a<", [("Character", "a<")]),  # eof-before-tag-name flushes '<'
    ("a<b", [("Character", "a")]),  # eof-in-tag discards the partial tag
    ("a< b", [("Character", "a< b")]),
    ("1<2", [("Character", "1<2")]),
    ("</>", []),
    ("< /p>", [("Character", "< /p>")]),
    ("<!>", [("Comment", "")]),
    ("<?php ?>", [("Comment", "?php ?")]),
    ("</ p>", [("Comment", " p")]),
    # --- comments
    ("<!--c-->", [("Comment", "c")]),
    ("<!---->", [("Comment", "")]),
    ("<!----->", [("Comment", "-")]),
    ("<!-- a-b -->", [("Comment", " a-b ")]),
    ("<!--a--b-->", [("Comment", "a--b")]),
    ("<!-->", [("Comment", "")]),
    ("<!--x--!>", [("Comment", "x")]),
    ("<!-- x ", [("Comment", " x ")]),
    # --- doctype
    ("<!DOCTYPE html>", [("DOCTYPE", "html")]),
    ("<!doctype HTML >", [("DOCTYPE", "html")]),
    # --- mixed
    ("a<b>c</b>d", [("Character", "a"), ("StartTag", "b", {}),
                    ("Character", "c"), ("EndTag", "b"), ("Character", "d")]),
    ("<p class=a id=b>hi", [("StartTag", "p", {"class": "a", "id": "b"}),
                            ("Character", "hi")]),
    # --- duplicate attribute dropped from visible set
    ("<a x=1 x=2>", [("StartTag", "a", {"x": "1"})]),
    # --- null handling in data (kept per spec)
    ("a\x00b", [("Character", "a\x00b")]),
    # --- newlines in attribute values preserved
    ('<a href="l1\nl2">', [("StartTag", "a", {"href": "l1\nl2"})]),
]


conformance_cases = pytest.mark.parametrize(
    "text,expected", CASES, ids=[c[0][:30] for c in CASES]
)


@conformance_cases
def test_tokenizer_conformance(text, expected):
    tokens, _errors = tokenize(text)
    assert summarize(tokens) == expected


@conformance_cases
def test_tokenizer_conformance_bytes(text, expected):
    tokens, _errors = tokenize_bytes(text.encode("utf-8"))
    assert summarize(tokens) == expected
