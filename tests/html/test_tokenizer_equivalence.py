"""Tier-1 equivalence: the bytes scanner vs the per-character reference.

:class:`repro.html.bytes_tokenizer.BytesTokenizer` bulk-scans the states
declared in ``CHUNK_BREAK_SETS`` (:mod:`repro.html.tokenizer`) over raw
UTF-8 bytes with lazy text materialization; its base class
:class:`repro.html.tokenizer.Tokenizer` is the spec-literal reference that
consumes one character per step.  These tests replay every
regression-corpus entry and every synthetic Common Crawl template page
(clean and violation-injected) through both and assert the **identical
token stream and identical parse-error sequence** — the errors are the
study's violation signal, so any divergence here is a measurement bug.

The bytes scanner is compared against the reference over
``preprocess(text).text``, because it folds the input preprocessor (BOM
strip, CR/CRLF → LF) into its scan.  Str callers reach the bytes scanner
through ``parse``/``parse_fragment``, which encode to UTF-8 at that
boundary; ``TestStrBoundary`` holds them to the reference as well.
"""
from __future__ import annotations

import random
import unittest
from pathlib import Path

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.core import Checker
from repro.fuzz import load_corpus
from repro.html import decode_bytes, parse, parse_fragment, preprocess
from repro.html.bytes_tokenizer import BYTES_OVERRIDES, BytesTokenizer
from repro.html.preprocessor import encode_text
from repro.html.tokenizer import (
    CHUNK_BREAK_SETS,
    PLAINTEXT,
    RAWTEXT,
    RCDATA,
    SCRIPT_DATA,
    Tokenizer,
)
from repro.html.tokens import Character
from repro.html.treebuilder import TreeBuilder

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


def assert_equivalent(test: unittest.TestCase, text: str, source: str) -> None:
    """The bytes scanner over ``text``'s UTF-8 matches the reference."""
    assert_bytes_equivalent(test, text.encode("utf-8"), source)


def assert_bytes_equivalent(
    test: unittest.TestCase, data: bytes, source: str
) -> None:
    """The bytes scanner matches decode + preprocess + the reference.

    Token equality goes through ``Token.__eq__``, which materializes lazy
    character data and lazy attributes — so this also proves the lazy
    representations decode to the right text at the right offsets.
    """
    text = decode_bytes(data)
    test.assertIsNotNone(text, f"expected UTF-8 input for {source}")
    clean = preprocess(text).text
    reference = Tokenizer(clean)
    reference_tokens = list(reference)
    bytes_tokenizer = BytesTokenizer(data)
    bytes_tokens = list(bytes_tokenizer)
    test.assertEqual(
        bytes_tokens,
        reference_tokens,
        f"bytes token stream diverged on {source}",
    )
    test.assertEqual(
        bytes_tokenizer.errors,
        reference.errors,
        f"bytes parse-error sequence diverged on {source}",
    )


class TestScannerLockstep(unittest.TestCase):
    """The bytes scanner must stay structurally in sync with the reference."""

    def test_every_chunked_state_has_a_reference_twin(self):
        # the per-character original of every chunked state is defined on
        # the reference base class itself, so no override lacks a twin
        for state in CHUNK_BREAK_SETS:
            self.assertIn(state, vars(Tokenizer), state)

    def test_every_chunked_state_has_a_bytes_twin(self):
        # The bytes tokenizer must re-chunk exactly the declared states: a
        # missing override silently falls back to the inherited
        # per-character loop (a perf bug), an extra one chunks a state
        # with no declared break set (an unverified state).
        self.assertEqual(BYTES_OVERRIDES, frozenset(CHUNK_BREAK_SETS))


class TestCorpusEquivalence(unittest.TestCase):
    """Every regression-corpus entry tokenizes identically on both scanners."""

    def test_corpus_entries(self):
        entries = load_corpus(CORPUS_DIR)
        self.assertGreater(len(entries), 0)
        checked = 0
        for entry in entries:
            text = decode_bytes(entry.data)
            if text is None:
                continue  # non-UTF-8 inputs are outside the study's scope
            assert_equivalent(self, text, entry.source)
            # also replay the *original* bytes (BOM/CR intact) so the
            # folded-in preprocessing is exercised on real regressions
            assert_bytes_equivalent(self, entry.data, entry.source)
            checked += 1
        self.assertGreater(checked, 0)


class TestTemplateEquivalence(unittest.TestCase):
    """Every synthetic study page tokenizes identically on both scanners."""

    def test_clean_pages(self):
        rng = random.Random(1302)
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
        rng = random.Random(1303)
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

    def test_plaintext_and_script_escape_content(self):
        # the content-model states the bytes scanner chunks hardest
        cases = [
            "<plaintext>never closed &amp; <b>not markup</b>\x00 tail",
            "<script><!-- if (a<b) { c-- } --></script>",
            "<script><!--<script>nested</script>--></script>",
            "<title>rcdata &amp; entities &notin; <b></title>",
            "<textarea>\r\nline&#10;line</textarea>",
            "<style>a[href^=\"x\"] { content: '</'; }</style>",
            "<!--comment with -- dashes --->text<![CDATA[in html]]>",
        ]
        for case in cases:
            assert_equivalent(self, case, repr(case))


class TestBytesDomainEquivalence(unittest.TestCase):
    """Inputs that only exist below the decode layer: multi-byte UTF-8
    boundaries, BOM/CRLF byte forms, and undecodable tails."""

    def test_non_ascii_text(self):
        # 2/3/4-byte sequences and combining marks across every content
        # model the bytes scanner chunks: these force the lazy byte-span
        # representation to fall back to eager decode mid-run, and check
        # the code-point (not byte) offset accounting
        cases = [
            "漢字テスト<p>段落 🎉 emoji</p>",
            "<p title='さくら'>日本語の文章と🧪絵文字</p>",
            "combining: áê <b>ликвидация</b> α β γ",
            "<таблица атрибут='значение'>non-ASCII tag</таблица>",
            "<script>var s = '漢字' + \"🎉\";</script>",
            "<title>日本語 &amp; 漢字</title>",
            "<plaintext>終わらない 🎉\x00 text",
            "<!-- コメント 🎉 --><!doctype html 日本語>",
            "<textarea>многострочный\r\nтекст</textarea>",
            "&#x6f22;&#x5b57;&amp;漢&notin;字&#127881;",
            "dense &amp;&lt;&gt;&quot;&AMP&#x41;&#1114112;&unknown;&notit; run",
        ]
        for case in cases:
            assert_equivalent(self, case, repr(case))

    def test_bom_and_crlf_byte_forms(self):
        # BOM stripping and newline normalization are folded into the
        # bytes scan; the reference gets them from decode_bytes/preprocess
        cases = [
            b"\xef\xbb\xbf<!doctype html><p>bom page</p>",
            b"\xef\xbb\xbf\r\n<html>\r\nbom + crlf\r</html>\r\n",
            b"line one\r\nline two\rline three\r\r\nline four",
            b"<pre>\r\n\r\n\r</pre>\r",
            b"<a href='x\ry'>\r\nCR in attribute value</a>",
            b"\xef\xbb\xbf\xef\xbb\xbfdouble bom: second survives",
            b"\r",
            b"\xef\xbb\xbf",
        ]
        for case in cases:
            assert_bytes_equivalent(self, case, repr(case))

    def test_nul_and_stray_bytes(self):
        cases = [
            b"data \x00 nul<p\x00>in tag</p>",
            b"<a b='\x00'>nul in attribute</a>",
            b"<script>\x00</script><plaintext>\x00",
            b"stray CR tail\r",
            b"\x00",
        ]
        for case in cases:
            assert_bytes_equivalent(self, case, repr(case))

    def test_invalid_utf8_raises(self):
        # the section 4.1 encoding filter: an undecodable page must
        # surface as UnicodeDecodeError from the scan, never as garbage
        # tokens — including truncated multi-byte sequences at EOF, where
        # the reference never even gets a string to compare against
        cases = [
            b"truncated two-byte tail \xc3",
            b"truncated three-byte tail \xe6\xbc",
            b"truncated four-byte tail \xf0\x9f\x8e",
            b"lone continuation \x80 byte",
            b"overlong \xc0\xaf encoding",
            b"surrogate half \xed\xa0\x80",
            b"<p title='\xffin attribute'>",
            b"<script>\xfe</script>",
            b"\xef\xbb\xbf\xc3",  # BOM then truncated tail
        ]
        for case in cases:
            self.assertIsNone(decode_bytes(case), repr(case))
            with self.assertRaises(UnicodeDecodeError, msg=repr(case)):
                for _ in BytesTokenizer(case):
                    pass


def usv(text: str) -> str:
    """WebIDL's USVString conversion: U+FFFD for each surrogate code point."""
    return "".join("\ufffd" if "\ud800" <= c <= "\udfff" else c for c in text)


class TestStrBoundary(unittest.TestCase):
    """``parse``/``parse_fragment`` encode str input and run the bytes
    scanner; tokens, errors and offsets must equal the reference over
    ``preprocess(text).text`` after the U+FFFD substitution."""

    def test_document_inputs(self):
        cases = [
            "\ufeff<!doctype html><p>bom page</p>",
            "\ufeff\ufeff<p>double bom: second survives</p>",
            "\ufeff",
            "line one\r\nline two\rline three\r\r\n<pre>\r\n\r</pre>\r",
            "<textarea>\r\nrcdata</textarea><a href='x\ry'>\r</a>",
            "data \x00 nul<p\x00>in tag</p><a b='\x00'>attr</a>",
            "<script>\x00</script><title>\x00</title><plaintext>\x00",
            "<p>x\udc00y</p>",
            "\ud800<a title='\udbff\udfff'>\udfff</a><!-- \ud800 -->",
            "<script>'\ud83d\ude00'</script><style>\udc00</style>",
        ]
        for text in cases:
            clean = preprocess(usv(text)).text
            expected = TreeBuilder()._run(Tokenizer(clean), clean)
            got = parse(text)
            self.assertEqual(got.tokens, expected.tokens, repr(text))
            self.assertEqual(got.errors, expected.errors, repr(text))
            self.assertEqual(got.source, clean, repr(text))

    def test_fragment_content_models(self):
        # one context per text content model: the tree builder never
        # switches the tokenizer out of it, so the whole token stream is
        # the reference tokenizer's, started in that state
        cases = [
            ("title", RCDATA, "rcdata &amp; <b>x</b>\r\n\x00\udc00</title>"),
            ("textarea", RCDATA, "\ufeff&notin; <p>\r</textarea>"),
            ("style", RAWTEXT, "a { content: '</style>' }\x00\r\ud800"),
            ("script", SCRIPT_DATA, "<!-- <script>x</script> -->\x00\udfff"),
            ("plaintext", PLAINTEXT, "<b>never</b> closed &amp; \x00\r\n"),
        ]
        for context, model, text in cases:
            _nodes, result = parse_fragment(text, context)
            reference = Tokenizer(preprocess(usv(text)).text)
            reference.switch_to(model)
            self.assertEqual(result.tokens, list(reference), context)
            self.assertEqual(result.errors, reference.errors, context)

    def test_lone_surrogate_rule(self):
        # a lone surrogate has no UTF-8 encoding; it becomes U+FFFD, one
        # code point for one, so offsets still index the caller's text
        text = "<p>x\udc00y</p>"
        self.assertEqual(encode_text(text), "<p>x\ufffdy</p>".encode("utf-8"))
        result = parse(text)
        [run] = [t for t in result.tokens if isinstance(t, Character)]
        self.assertEqual((run.offset, run.data), (3, "x\ufffdy"))
        checker = Checker()
        self.assertEqual(
            checker.check_html(text).findings,
            checker.check_html(usv(text)).findings,
        )


if __name__ == "__main__":
    unittest.main()
