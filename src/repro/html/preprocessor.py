"""Byte-stream decoding and input-stream preprocessing (HTML spec 13.2.3).

Two responsibilities, mirroring the first two boxes of the parsing pipeline
described in the paper's section 2.1:

* the *Byte Stream Decoder* turns raw bytes into characters.  Following the
  paper's methodology (section 4.1), only documents that decode as UTF-8 are
  analysed; everything else is filtered out rather than guessed at.
* the *Input Stream Preprocessor* normalizes newlines: every CRLF pair and
  every lone CR becomes a single LF, because CR is not allowed to reach the
  tokenizer.

Str input crosses into the bytes domain through :func:`encode_text`, so
documents given as text are tokenized by the same bytes scanner as crawled
payloads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ErrorCode, ParseError

_BOM = "﻿"
#: the UTF-8 byte-order mark; shared by :func:`decode_bytes`, the encoding
#: sniffer and the bytes-domain tokenizer (which skips it by offset)
UTF8_BOM = b"\xef\xbb\xbf"

#: one pass handles both newline forms: ``\r\n?`` consumes a CRLF pair or a
#: lone CR and rewrites either to LF
_RE_CR = re.compile("\r\n?")

#: surrogate code points: a Python str may hold them, UTF-8 cannot encode them
_RE_SURROGATE = re.compile("[\ud800-\udfff]")

#: C0/C1 controls that are parse errors when they appear in the input stream
#: (spec 13.2.3.5).  TAB, LF, FF, CR and NUL are handled separately.
_CONTROL_CHARS = frozenset(
    chr(c) for c in (*range(0x01, 0x09), 0x0B, *range(0x0E, 0x20), 0x7F)
)


def decode_bytes(data: bytes) -> str | None:
    """Decode ``data`` as UTF-8, honouring a BOM; return None if not UTF-8.

    The paper's framework "filters out documents that are not UTF-8
    encodable" — a ``None`` return is that filter signal.
    """
    if data.startswith(UTF8_BOM):
        data = data[3:]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def encode_text(text: str) -> bytes:
    """UTF-8 bytes that the bytes tokenizer reads as ``preprocess(text).text``.

    Each surrogate code point becomes U+FFFD first.  A Python str holds code
    points, so every surrogate in it is unpaired, and UTF-8 has no encoding
    for one; the substitution is WebIDL's USVString conversion, one code
    point for one, so every offset is unchanged.  A leading U+FEFF gets a
    byte BOM in front: the bytes tokenizer strips a byte BOM (the
    :func:`decode_bytes` step) and then one U+FEFF (the :func:`preprocess`
    step), so exactly the str's own BOM goes.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        data = _RE_SURROGATE.sub("\ufffd", text).encode("utf-8")
    if text.startswith(_BOM):
        data = UTF8_BOM + data
    return data


@dataclass(slots=True)
class PreprocessResult:
    text: str
    errors: list[ParseError]


def preprocess(text: str, *, collect_errors: bool = False) -> PreprocessResult:
    """Normalize an input stream per spec 13.2.3.5.

    Replaces CRLF and CR with LF and strips a leading BOM.  When
    ``collect_errors`` is true, also records control-character /
    surrogate-in-input-stream parse errors (these are conformance errors
    only; the characters themselves are passed through unchanged, as the
    spec requires).

    The bytes tokenizer folds the same normalization into its scan; this
    str form feeds the per-character reference :class:`Tokenizer` that the
    bytes scanner is diffed against.  It does no work at all when neither
    a BOM nor a CR appears, at most one slice for the BOM, and one combined
    substitution pass for both newline forms.
    """
    if text.startswith(_BOM):
        text = text[1:]
    if "\r" in text:
        text = _RE_CR.sub("\n", text)

    errors: list[ParseError] = []
    if collect_errors:
        for index, char in enumerate(text):
            if char in _CONTROL_CHARS:
                errors.append(
                    ParseError(ErrorCode.CONTROL_CHARACTER_IN_INPUT_STREAM, index)
                )
            elif "\ud800" <= char <= "\udfff":
                errors.append(ParseError(ErrorCode.SURROGATE_IN_INPUT_STREAM, index))
            elif _is_noncharacter(char):
                errors.append(
                    ParseError(ErrorCode.NONCHARACTER_IN_INPUT_STREAM, index)
                )
    return PreprocessResult(text=text, errors=errors)


def _is_noncharacter(char: str) -> bool:
    code = ord(char)
    if 0xFDD0 <= code <= 0xFDEF:
        return True
    return (code & 0xFFFE) == 0xFFFE and code <= 0x10FFFF
