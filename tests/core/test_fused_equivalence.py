"""Tier-1 equivalence: fused single-pass check engine vs per-rule reference.

The fused engine (:mod:`repro.core.rules.fused`) compiles the registry
into dispatch tables and runs ONE walk per shared data source; the
reference path runs every rule's own ``check`` traversal.  These tests
replay every regression-corpus entry and every synthetic Common Crawl
template page (clean and violation-injected) through both engines and
assert **bit-identical findings** — same objects, same order.  Findings
are the study's measurement, so any divergence here is a measurement bug,
exactly like a bytes-scanner divergence from the reference tokenizer.

Unit tests for the compiler (footprint validation, unfused fallback,
failure attribution) ride along.
"""
from __future__ import annotations

import random
import unittest
from pathlib import Path

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.core import Checker
from repro.core.rules import (
    RULE_CLASSES,
    Footprint,
    FusedCheckEngine,
    FusedCompileError,
    RuleExecutionError,
)
from repro.core.rules.base import Rule
from repro.fuzz import load_corpus
from repro.fuzz.oracles import ReferenceChecker
from repro.html import decode_bytes, parse

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"

_FUSED = Checker()
_REFERENCE = ReferenceChecker()


def assert_equivalent(test: unittest.TestCase, text: str, source: str) -> None:
    result = parse(text)
    fused = _FUSED.check_parse(result).findings
    reference = _REFERENCE.check_parse(result).findings
    test.assertEqual(
        fused, reference, f"fused engine findings diverged on {source}"
    )


class TestCorpusEquivalence(unittest.TestCase):
    """Every regression-corpus entry checks identically on both engines."""

    def test_corpus_entries(self):
        entries = load_corpus(CORPUS_DIR)
        self.assertGreater(len(entries), 0)
        checked = 0
        for entry in entries:
            text = decode_bytes(entry.data)
            if text is None:
                continue  # non-UTF-8 inputs are outside the study's scope
            assert_equivalent(self, text, entry.source)
            checked += 1
        self.assertGreater(checked, 0)


class TestTemplateEquivalence(unittest.TestCase):
    """Every synthetic study page checks identically on both engines."""

    def test_clean_pages(self):
        rng = random.Random(1402)
        for index in range(12):
            draft = build_page(
                f"domain{index}.example",
                f"/page/{index}",
                rng,
                use_svg=index % 3 == 0,
                use_math=index % 4 == 0,
            )
            assert_equivalent(self, draft.render(), f"clean page {index}")

    def test_injected_pages(self):
        # every injector appears at least once, singly and combined
        rng = random.Random(1403)
        names = sorted(INJECTORS)
        for name in names:
            draft = build_page(f"{name.lower()}.example", "/", rng)
            INJECTORS[name].apply(draft, rng)
            assert_equivalent(self, draft.render(), f"injector {name}")
        for index in range(12):
            draft = build_page(f"multi{index}.example", "/", rng)
            picks = rng.sample(names, k=3)
            # terminal injectors rewrite the page tail; they must run last
            picks.sort(key=lambda n: INJECTORS[n].terminal)
            for name in picks:
                INJECTORS[name].apply(draft, rng)
            assert_equivalent(
                self, draft.render(), f"injected page {index} ({picks})"
            )

    def test_rule_major_ordering_preserved(self):
        # a page violating several rules exercises the bucket concatenation
        text = (
            "<!DOCTYPE html><html><head><title>t</title></head><body>"
            '<img src="a"onerror="x()"><img/src="b">'
            "<base href='/x'><base href='/y'>"
            "<table><tr><strong>X</strong></tr></table></body></html>"
        )
        assert_equivalent(self, text, "multi-violation ordering page")


class TestFusedCompiler(unittest.TestCase):
    def test_full_registry_compiles_fully_fused(self):
        engine = FusedCheckEngine([cls() for cls in RULE_CLASSES])
        self.assertEqual(engine.fused_rule_count, len(RULE_CLASSES))

    def test_rule_without_footprint_falls_back_to_check(self):
        class Legacy(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"

            def check(self, result):
                return []

        engine = FusedCheckEngine([Legacy()])
        self.assertEqual(engine.fused_rule_count, 0)
        self.assertEqual(engine.run(parse("<p>hi</p>")), [])

    def test_unfused_findings_keep_registry_order(self):
        # an unfused rule sandwiched between fused ones must keep its slot
        sentinel = object()

        class Legacy(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"

            def check(self, result):
                return [sentinel]

        rules = [RULE_CLASSES[0](), Legacy(), RULE_CLASSES[1]()]
        engine = FusedCheckEngine(rules)
        self.assertEqual(engine.fused_rule_count, 2)
        findings = engine.run(parse("<p>clean</p>"))
        self.assertEqual(findings, [sentinel])

    def test_footprint_wrong_type_rejected(self):
        class Bad(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"
            footprint = {"events": ("foster-parented",)}

            def check(self, result):
                return []

        with self.assertRaises(FusedCompileError):
            FusedCheckEngine([Bad()])

    def test_empty_footprint_rejected(self):
        class Bad(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"
            footprint = Footprint()

            def check(self, result):
                return []

        with self.assertRaises(FusedCompileError):
            FusedCheckEngine([Bad()])

    def test_missing_handler_rejected(self):
        class Bad(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"
            footprint = Footprint(events=("foster-parented",))

            def check(self, result):
                return []

        with self.assertRaises(FusedCompileError) as caught:
            FusedCheckEngine([Bad()])
        self.assertIn("fused_event", str(caught.exception))

    def test_unknown_error_code_rejected(self):
        class Bad(Rule):
            """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB1"
            footprint = Footprint(errors=("NO_SUCH_CODE",))

            def fused_error(self, error, source, out):
                pass

            def check(self, result):
                return []

        with self.assertRaises(FusedCompileError) as caught:
            FusedCheckEngine([Bad()])
        self.assertIn("NO_SUCH_CODE", str(caught.exception))


class TestFailureAttribution(unittest.TestCase):
    """Both engines must name the rule that raised mid-walk."""

    class Exploding(Rule):
        """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

        id = "FB1"
        footprint = Footprint(tags=("*",))

        def fused_element(self, element, in_head, source, state, out):
            raise ZeroDivisionError("boom")

        def check(self, result):
            raise ZeroDivisionError("boom")

    def test_fused_engine_names_rule(self):
        checker = Checker(rules=[self.Exploding()])
        with self.assertRaises(RuleExecutionError) as caught:
            checker.check_html("<p>x</p>")
        self.assertEqual(caught.exception.rule_id, "FB1")
        self.assertIsInstance(caught.exception.cause, ZeroDivisionError)

    def test_reference_engine_names_rule(self):
        checker = ReferenceChecker(rules=[self.Exploding()])
        with self.assertRaises(RuleExecutionError) as caught:
            checker.check_html("<p>x</p>")
        self.assertEqual(caught.exception.rule_id, "FB1")
        self.assertIsInstance(caught.exception.cause, ZeroDivisionError)

    def test_unfused_failure_names_rule(self):
        class Legacy(Rule):
            """FB2 — fixture reusing a registered id (HTML 0.0.0)."""

            id = "FB2"

            def check(self, result):
                raise KeyError("gone")

        checker = Checker(rules=[Legacy()])
        with self.assertRaises(RuleExecutionError) as caught:
            checker.check_html("<p>x</p>")
        self.assertEqual(caught.exception.rule_id, "FB2")

    def test_unknown_engine_rejected(self):
        # the per-rule reference is ReferenceChecker, not an engine knob
        with self.assertRaises(TypeError):
            Checker(engine="turbo")


if __name__ == "__main__":  # pragma: no cover
    unittest.main()
