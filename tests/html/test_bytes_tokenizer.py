"""Bytes-domain tokenizer: lazy materialization and decode accounting.

The equivalence suite (``test_tokenizer_equivalence``) proves the bytes
scanner emits the same tokens and errors as the per-character reference;
this file pins the properties that make it *worth having*: character data
and attributes stay un-decoded until read, the ``decoded_bytes`` counter is honest about
it, and the invalid-UTF-8 contract holds token-by-token (not only when
fully drained).
"""
from __future__ import annotations

import unittest

from repro.html import parse, parse_bytes
from repro.html.bytes_tokenizer import BytesTokenizer, tokenize_bytes
from repro.html.tokens import ByteSource, Character, EndTag, StartTag

ASCII_PAGE = (
    b"<!doctype html><html><body>"
    b"<p class='intro' id=lead>plain ascii text here</p>"
    b"<div>more text</div></body></html>"
)


def _drain(data: bytes) -> tuple[BytesTokenizer, list]:
    tokenizer = BytesTokenizer(data)
    return tokenizer, list(tokenizer)


class TestLazyMaterialization(unittest.TestCase):
    def test_ascii_character_data_stays_byte_spans_until_read(self):
        tokenizer, tokens = _drain(ASCII_PAGE)
        drained = tokenizer.decoded_bytes
        # draining decodes almost nothing: only the doctype keyword peek
        self.assertLess(drained, 8, "drain decoded more than the peeks")
        chars = [t for t in tokens if isinstance(t, Character)]
        self.assertTrue(chars)
        for token in chars:
            text = token.data  # materializes
            self.assertIn(text.encode("ascii"), ASCII_PAGE)
        self.assertGreater(
            tokenizer.decoded_bytes,
            drained,
            "reading .data must be what pays for the decode",
        )

    def test_attributes_stay_lazy_until_read(self):
        tokenizer, tokens = _drain(ASCII_PAGE)
        before = tokenizer.decoded_bytes
        tag = next(
            t for t in tokens if isinstance(t, StartTag) and t.name == "p"
        )
        attrs = tag.attributes
        self.assertEqual(
            [(a.name, a.value) for a in attrs],
            [("class", "intro"), ("id", "lead")],
        )
        self.assertGreater(tokenizer.decoded_bytes, before)
        # materialization is cached: a second read decodes nothing new
        after = tokenizer.decoded_bytes
        self.assertIs(tag.attributes, attrs)
        self.assertEqual(tokenizer.decoded_bytes, after)

    def test_decoded_ratio_bounds(self):
        tokenizer, tokens = _drain(ASCII_PAGE)
        for token in tokens:  # touch everything
            if isinstance(token, Character):
                token.data
            elif isinstance(token, StartTag):
                token.attributes
        self.assertLessEqual(tokenizer.decoded_bytes, tokenizer.input_bytes)

        # non-ASCII character data cannot stay lazy: it is decoded (and
        # counted) during the scan
        heavy = "<p>漢字テスト段落</p>".encode()
        tokenizer, _ = _drain(heavy)
        self.assertGreater(tokenizer.decoded_bytes, 0)
        self.assertLessEqual(tokenizer.decoded_bytes, tokenizer.input_bytes)

    def test_tag_and_attribute_names_are_interned(self):
        # names come from a shared intern cache keyed on the raw byte
        # spelling: the same spelling yields the identical str object
        # across documents, and case variants still lower-case correctly
        _, first = _drain(b"<section data-x=1></section>")
        _, second = _drain(b"<section data-x=2></section>")
        a = next(t for t in first if isinstance(t, StartTag))
        b = next(t for t in second if isinstance(t, StartTag))
        self.assertIs(a.name, b.name)
        self.assertIs(
            next(t for t in first if isinstance(t, EndTag)).name,
            next(t for t in second if isinstance(t, EndTag)).name,
        )
        self.assertIs(a.attributes[0].name, b.attributes[0].name)
        _, upper = _drain(b"<SECTION DATA-X=3></SECTION>")
        c = next(t for t in upper if isinstance(t, StartTag))
        self.assertEqual(c.name, "section")
        self.assertEqual(c.attributes[0].name, "data-x")


class TestInvalidUTF8(unittest.TestCase):
    def test_error_is_raised_at_first_touch_not_only_at_eof(self):
        # valid prefix tokens may be emitted, but the stream must raise
        # before emitting anything derived from undecodable bytes
        data = b"<p>ok</p>\xc3\x28<p>never</p>"
        tokens = []
        with self.assertRaises(UnicodeDecodeError):
            for token in BytesTokenizer(data):
                if isinstance(token, Character):
                    token.data
                tokens.append(token)
        self.assertTrue(
            all(
                not (isinstance(t, StartTag) and t.name == "never")
                for t in tokens
            )
        )

    def test_tokenize_bytes_helper_raises(self):
        with self.assertRaises(UnicodeDecodeError):
            for _ in tokenize_bytes(b"tail \xf0\x9f"):
                pass


class TestParseBytesLaziness(unittest.TestCase):
    def test_parse_result_source_materializes_on_access(self):
        result = parse_bytes(b"\xef\xbb\xbf<p>hello\r\nworld</p>")
        self.assertIsInstance(result._source, ByteSource)
        self.assertEqual(result.source, "<p>hello\nworld</p>")
        self.assertIsInstance(result._source, str)
        # matches the str pipeline end to end
        self.assertEqual(
            result.source, parse("﻿<p>hello\r\nworld</p>").source
        )


if __name__ == "__main__":
    unittest.main()
