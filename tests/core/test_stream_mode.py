"""The DOM-free streaming check (``Checker.check_bytes``).

Every bytes check runs the fused tree dispatch over elements emitted
pre-order *during* the parse.  Pages whose construction needs a
tree-reordering mutation (foster parenting, adoption agency, frameset
takeover, head-element reroute) taint mid-parse and fall back to walking the
element-complete text-free tree — same findings either way, and the same
as ``check_parse`` over the full DOM from ``parse_bytes``.  These tests
pin that parity contract per taint class, the fallback counters the bench
exports, and the single-pass mitigation sweep.
"""
from __future__ import annotations

import random

import pytest

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.core import Checker
from repro.core.mitigations import measure_mitigations
from repro.fuzz.oracles import ReferenceChecker
from repro.html import StreamTaint, StreamTreeBuilder, parse_bytes

#: (name, page) — one witness per taint class, plus clean stream pages
TAINT_PAGES = [
    ("foster-parenting", b"<table><div>foster</div></table>"),
    ("adoption-agency", b"<b><p>x</b>y</p>"),
    ("frameset-takeover", b"<div></div><frameset><frame></frameset>"),
    ("head-after-head", b"<head></head><base href='x'>"),
    ("nested-table-text", b"<table><table><p>x"),
]

STREAM_PAGES = [
    ("plain", b"<!doctype html><p>hello <b>world</b></p>"),
    ("table-whitespace", b"<table> \t\n<tr><td>x</td></tr></table>"),
    ("violations", b"<base href='/a'><base href='/b'><p onclick=x>y</p>"),
    ("foreign", b"<svg><desc>d</desc><circle/></svg><math><mi>x</mi></math>"),
]


def _finding_key(finding):
    return (finding.violation, finding.offset, finding.message)


class TestStreamParity:
    @pytest.mark.parametrize("name,page", TAINT_PAGES + STREAM_PAGES)
    def test_findings_bit_identical(self, name, page):
        checker = Checker()
        dom = checker.check_parse(parse_bytes(page))
        stream = checker.check_bytes(page)
        assert [_finding_key(f) for f in stream.findings] == [
            _finding_key(f) for f in dom.findings
        ]

    def test_template_corpus_parity(self):
        rng = random.Random(5)
        checker = Checker()
        for seed in range(8):
            draft = build_page("stream.example", f"/{seed}", random.Random(seed))
            for name in sorted(INJECTORS):
                if not INJECTORS[name].terminal:
                    if rng.random() < 0.3:
                        INJECTORS[name].apply(draft, rng)
            page = draft.render().encode("utf-8")
            dom = checker.check_parse(parse_bytes(page))
            stream = checker.check_bytes(page)
            assert [_finding_key(f) for f in stream.findings] == [
                _finding_key(f) for f in dom.findings
            ], seed


class TestTaintFallback:
    @pytest.mark.parametrize("name,page", TAINT_PAGES)
    def test_taint_classes_fall_back(self, name, page):
        checker = Checker()
        checker.check_bytes(page)
        assert checker.pages_checked == 1
        assert checker.stream_fallbacks == 1

    @pytest.mark.parametrize("name,page", STREAM_PAGES)
    def test_stream_safe_pages_stay_dom_free(self, name, page):
        checker = Checker()
        checker.check_bytes(page)
        assert checker.pages_checked == 1
        assert checker.stream_fallbacks == 0

    def test_counters_accumulate(self):
        checker = Checker()
        for _name, page in TAINT_PAGES + STREAM_PAGES:
            checker.check_bytes(page)
        assert checker.pages_checked == len(TAINT_PAGES) + len(STREAM_PAGES)
        assert checker.stream_fallbacks == len(TAINT_PAGES)

    def test_dom_mode_never_counts_fallbacks(self):
        # checking a full-DOM parse is not a page check: the counters are
        # for the stream parses check_bytes makes
        checker = Checker()
        for _name, page in TAINT_PAGES:
            checker.check_parse(parse_bytes(page))
        assert checker.pages_checked == 0
        assert checker.stream_fallbacks == 0

    @pytest.mark.parametrize("name,page", TAINT_PAGES)
    def test_raise_policy_names_the_mutation(self, name, page):
        builder = StreamTreeBuilder(taint="raise")
        with pytest.raises(StreamTaint):
            builder.parse_bytes(page)

    def test_tainted_tree_is_element_complete(self):
        # the fallback walks the stream builder's own tree: every element
        # of the full parse must be present (text/comments need not be)
        page = b"<table><div id=f>foster</div><tr><td>x</td></tr></table>"
        builder = StreamTreeBuilder()
        result = builder.parse_bytes(page)
        assert builder.tainted is not None
        full = parse_bytes(page)
        names = [e.name for e in result.document.iter_elements()]
        assert names == [e.name for e in full.document.iter_elements()]

    def test_unknown_mode_rejected(self):
        # stream is the only bytes parse: the mode argument is gone, so
        # every mode, known or not, is rejected
        with pytest.raises(TypeError):
            Checker(mode="chunked")


class TestFusedMitigationSweep:
    @pytest.mark.parametrize(
        "page",
        [
            b"<a href='/x\ny'>n</a><img src=\"a\nb\">",
            b"<div data-x='<script>alert(1)</script>'></div>",
            b"<script nonce=abc data-p='<script>'>x</script>",
            b"<p>no signals at all</p>",
        ],
    )
    def test_collector_matches_standalone_pass(self, page):
        checker = Checker()
        result = checker.parse_page_bytes(page)
        report, mitigation = checker.check_parse_with_mitigations(result)
        standalone = measure_mitigations(result)
        assert mitigation == standalone
        assert [_finding_key(f) for f in report.findings] == [
            _finding_key(f) for f in checker.check_parse(result).findings
        ]

    def test_reference_engine_equivalent(self):
        page = b"<a href='/x\ny'>n</a><base href=a><base href=b>"
        fused = Checker()
        reference = ReferenceChecker()
        fused_report, fused_mit = fused.check_parse_with_mitigations(
            fused.parse_page_bytes(page)
        )
        ref_report, ref_mit = reference.check_parse_with_mitigations(
            reference.parse_page_bytes(page)
        )
        assert fused_mit == ref_mit
        assert sorted(_finding_key(f) for f in fused_report.findings) == sorted(
            _finding_key(f) for f in ref_report.findings
        )
