"""The HTML tokenizer state machine (HTML Living Standard section 13.2.5).

This is a from-scratch implementation of the tokenization stage of the
WHATWG parsing algorithm.  It covers the states needed to parse real-world
documents — data, tag, attribute, comment, DOCTYPE, RCDATA / RAWTEXT /
script-data (including the escaped and double-escaped comment-like states),
PLAINTEXT and CDATA — and, crucially for this reproduction, it records every
spec-named parse error it passes through.  The paper's "Parsing Errors"
violation category (FB1, FB2, DM3, parts of DE3) is defined directly in
terms of these error states.

:class:`Tokenizer` is the spec-literal reference: every state consumes one
character per step, exactly as section 13.2.5 is written.  Parsing runs its
subclass :class:`~repro.html.bytes_tokenizer.BytesTokenizer`, which
bulk-scans the ``CHUNK_BREAK_SETS`` states over raw UTF-8 bytes and
inherits every other state from here.  The ``bytes_parity`` fuzz oracle and
``tests/html/test_tokenizer_equivalence.py`` diff the two token and
parse-error streams.

The tree builder drives the tokenizer: after start tags such as ``textarea``
or ``script`` it calls :meth:`Tokenizer.switch_to` to move the machine into
the matching text state, exactly as the spec's tree-construction stage does.
"""
from __future__ import annotations

from collections import deque
from typing import Iterator

from .entities import consume_character_reference
from .errors import ErrorCode, ParseError
from .tokens import EOF, Attribute, Character, Comment, Doctype, EndTag, StartTag, Token

_WHITESPACE = "\t\n\f "
_ASCII_ALPHA = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)
_REPLACEMENT = "�"

#: ASCII-only lowercasing for tag/attribute/doctype names (the spec's
#: "ASCII lowercase": add 0x20 to A-Z, leave everything else — including
#: cased non-ASCII letters — untouched).  A translation table rather than
#: ``str.lower`` so that lowering a bulk-scanned slice is guaranteed
#: character-wise identical to lowering one character at a time
#: (``str.lower`` applies context-sensitive Unicode mappings such as the
#: Greek final sigma, which would make the two paths diverge).
_TO_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)

# Tokenizer content-model states the tree builder may switch into.
DATA = "data"
RCDATA = "rcdata"
RAWTEXT = "rawtext"
SCRIPT_DATA = "script_data"
PLAINTEXT = "plaintext"

# ------------------------------------------------------------ chunked states
#
# The bytes scanner (``bytes_tokenizer.py``) does not dispatch per character
# in its hot text-ish states: each bulk-scans to its next significant
# delimiter with a precompiled regex and hands only the delimiter itself to
# the per-character spec transitions.  Every chunked state declares its
# delimiter ("break") set here — the single source of truth its run pattern
# is compiled from.  The per-character originals of those states are the
# methods of the same names below.  The staticcheck ``state-machine`` pass
# verifies that every declared state exists here, that the bytes run
# patterns derive from this declaration, and that every bytes handler
# handles each of its declared break characters.

#: delimiter sets of the bytes scanner's chunked states, keyed by handler name
CHUNK_BREAK_SETS: dict[str, str] = {
    "_data_state": "&<\x00",
    "_rcdata_state": "&<\x00",
    "_rawtext_state": "<\x00",
    "_script_data_state": "<\x00",
    "_plaintext_state": "\x00",
    "_tag_name_state": "\t\n\f />\x00",
    "_attribute_name_state": "\t\n\f />=\x00\"'<",
    "_attribute_value_double_state": "\"&\x00",
    "_attribute_value_single_state": "'&\x00",
    "_attribute_value_unquoted_state": "\t\n\f >&\x00\"'<=`",
    "_comment_state": "-<\x00",
    "_bogus_comment_state": ">\x00",
    "_script_data_escaped_state": "-<\x00",
    "_script_data_double_escaped_state": "-<\x00",
    "_doctype_name_state": "\t\n\f >\x00",
    "_bogus_doctype_state": ">\x00",
    "_cdata_section_state": "]",
}


class Tokenizer:
    """Pull-based HTML tokenizer; the per-character spec reference.

    Usage::

        tok = Tokenizer(preprocess(html_text).text)
        for token in tok:
            ...
        tok.errors  # list[ParseError]

    ``text`` must already be preprocessed (no BOM, no CR).  Document
    parsing does not run this class: :func:`repro.html.parse` encodes to
    UTF-8 and runs :class:`~repro.html.bytes_tokenizer.BytesTokenizer`.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.errors: list[ParseError] = []
        self._queue: deque[Token] = deque()
        self._state = self._data_state
        self._char_buffer: list[str] = []
        self._char_start = 0
        self._current_tag: StartTag | EndTag | None = None
        self._current_attr: Attribute | None = None
        self._current_comment: Comment | None = None
        self._current_doctype: Doctype | None = None
        self._last_start_tag = ""
        self._temp_buffer = ""
        self._tag_start_offset = 0
        self._pending_solidus = False
        self._pending_missing_space = False
        self._return_state = None
        self._done = False
        #: set by the tree builder while the adjusted current node is in a
        #: foreign (SVG/MathML) namespace; controls CDATA handling.
        self.in_foreign_content = False

    # ------------------------------------------------------------------ API

    def __iter__(self) -> Iterator[Token]:
        queue = self._queue
        popleft = queue.popleft
        while True:
            while queue:
                yield popleft()
            if self._done:
                return
            self._state()

    def switch_to(self, model: str) -> None:
        """Switch the content model (called by the tree builder)."""
        states = {
            DATA: self._data_state,
            RCDATA: self._rcdata_state,
            RAWTEXT: self._rawtext_state,
            SCRIPT_DATA: self._script_data_state,
            PLAINTEXT: self._plaintext_state,
        }
        self._state = states[model]

    # ------------------------------------------------------------ plumbing

    def _error(self, code: ErrorCode, detail: str = "", offset: int | None = None) -> None:
        self.errors.append(
            ParseError(code, self.pos if offset is None else offset, detail)
        )

    def _next(self) -> str | None:
        if self.pos >= len(self.text):
            self.pos += 1  # keep reconsume arithmetic consistent at EOF
            return None
        char = self.text[self.pos]
        self.pos += 1
        return char

    def _reconsume(self) -> None:
        self.pos -= 1

    def _peek(self, count: int = 1) -> str:
        return self.text[self.pos : self.pos + count]

    def _emit_char(self, data: str) -> None:
        if not self._char_buffer:
            self._char_start = self.pos - 1
        self._char_buffer.append(data)

    def _flush_chars(self) -> None:
        if self._char_buffer:
            self._queue.append(
                Character(offset=self._char_start, data="".join(self._char_buffer))
            )
            self._char_buffer = []

    def _emit(self, token: Token) -> None:
        if self._char_buffer:
            self._flush_chars()
        self._queue.append(token)

    def _emit_eof(self) -> None:
        self._emit(EOF(offset=len(self.text)))
        self._done = True

    def _emit_current_tag(self) -> None:
        tag = self._current_tag
        assert tag is not None
        tag.end = self.pos
        self._finish_attribute()
        if isinstance(tag, StartTag):
            self._last_start_tag = tag.name
        else:
            if tag.attributes:
                self._error(ErrorCode.END_TAG_WITH_ATTRIBUTES, offset=tag.offset)
            if tag.self_closing:
                self._error(ErrorCode.END_TAG_WITH_TRAILING_SOLIDUS, offset=tag.offset)
        self._emit(tag)
        self._current_tag = None
        self._state = self._data_state

    # -------------------------------------------------------- attributes

    def _start_attribute(self, name: str = "") -> None:
        self._finish_attribute()
        tag = self._current_tag
        assert tag is not None
        attr = Attribute(name=name, offset=self.pos - 1)
        if self._pending_solidus:
            attr.preceded_by_solidus = True
            self._pending_solidus = False
        if self._pending_missing_space:
            attr.missing_preceding_space = True
            self._pending_missing_space = False
        tag.attributes.append(attr)
        self._current_attr = attr

    def _finish_attribute(self) -> None:
        """Close the in-flight attribute, applying the duplicate check."""
        attr = self._current_attr
        if attr is None:
            return
        tag = self._current_tag
        assert tag is not None
        for other in tag.attributes:
            if other is not attr and other.name == attr.name:
                self._error(
                    ErrorCode.DUPLICATE_ATTRIBUTE, detail=attr.name, offset=attr.offset
                )
                attr.duplicate = True
                break
        self._current_attr = None

    def _flush_char_ref(self, result_text: str) -> None:
        """Append a character-reference result to the right sink."""
        if self._current_attr is not None and self._return_state in (
            self._attribute_value_double_state,
            self._attribute_value_single_state,
            self._attribute_value_unquoted_state,
        ):
            self._current_attr.value += result_text
        else:
            for char in result_text:
                self._emit_char(char)

    def _consume_char_ref(self, return_state) -> None:
        in_attribute = return_state in (
            self._attribute_value_double_state,
            self._attribute_value_single_state,
            self._attribute_value_unquoted_state,
        )
        self._return_state = return_state
        result = consume_character_reference(self.text, self.pos, in_attribute=in_attribute)
        self.errors.extend(result.errors)
        if result.matched:
            self.pos += result.consumed
            self._flush_char_ref(result.text)
        else:
            self._flush_char_ref("&")
        self._state = return_state

    # --------------------------------------------------------- data states

    def _data_state(self) -> None:
        char = self._next()
        if char is None:
            self._emit_eof()
        elif char == "&":
            self._consume_char_ref(self._data_state)
        elif char == "<":
            self._tag_start_offset = self.pos - 1
            self._state = self._tag_open_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(char)
        else:
            self._emit_char(char)

    def _rcdata_state(self) -> None:
        char = self._next()
        if char is None:
            self._emit_eof()
        elif char == "&":
            self._consume_char_ref(self._rcdata_state)
        elif char == "<":
            self._state = self._rcdata_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    def _rawtext_state(self) -> None:
        char = self._next()
        if char is None:
            self._emit_eof()
        elif char == "<":
            self._state = self._rawtext_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    def _plaintext_state(self) -> None:
        char = self._next()
        if char is None:
            self._emit_eof()
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    # ----------------------------------------------------------- tag states

    def _tag_open_state(self) -> None:
        char = self._next()
        if char == "!":
            self._state = self._markup_declaration_open_state
        elif char == "/":
            self._state = self._end_tag_open_state
        elif char is not None and char in _ASCII_ALPHA:
            self._current_tag = StartTag(offset=self._tag_start_offset)
            self._reconsume()
            self._state = self._tag_name_state
        elif char == "?":
            self._error(ErrorCode.UNEXPECTED_QUESTION_MARK_INSTEAD_OF_TAG_NAME)
            self._current_comment = Comment(offset=self.pos - 1)
            self._reconsume()
            self._state = self._bogus_comment_state
        elif char is None:
            self._error(ErrorCode.EOF_BEFORE_TAG_NAME)
            self._emit_char("<")
            self._emit_eof()
        else:
            self._error(ErrorCode.INVALID_FIRST_CHARACTER_OF_TAG_NAME)
            self._emit_char("<")
            self._reconsume()
            self._state = self._data_state

    def _end_tag_open_state(self) -> None:
        char = self._next()
        if char is not None and char in _ASCII_ALPHA:
            self._current_tag = EndTag(offset=self._tag_start_offset)
            self._reconsume()
            self._state = self._tag_name_state
        elif char == ">":
            self._error(ErrorCode.MISSING_END_TAG_NAME)
            self._state = self._data_state
        elif char is None:
            self._error(ErrorCode.EOF_BEFORE_TAG_NAME)
            self._emit_char("<")
            self._emit_char("/")
            self._emit_eof()
        else:
            self._error(ErrorCode.INVALID_FIRST_CHARACTER_OF_TAG_NAME)
            self._current_comment = Comment(offset=self.pos - 1)
            self._reconsume()
            self._state = self._bogus_comment_state

    def _tag_name_state(self) -> None:
        tag = self._current_tag
        assert tag is not None
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_TAG)
                self._emit_eof()
                return
            if char in _WHITESPACE:
                self._state = self._before_attribute_name_state
                return
            if char == "/":
                self._state = self._self_closing_start_tag_state
                return
            if char == ">":
                self._emit_current_tag()
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                tag.name += _REPLACEMENT
            else:
                tag.name += char.translate(_TO_ASCII_LOWER)

    def _before_attribute_name_state(self) -> None:
        char = self._next()
        if char is None or char in "/>":
            self._reconsume()
            self._state = self._after_attribute_name_state
        elif char in _WHITESPACE:
            pass
        elif char == "=":
            self._error(ErrorCode.UNEXPECTED_EQUALS_SIGN_BEFORE_ATTRIBUTE_NAME)
            self._start_attribute(name="=")
            self._state = self._attribute_name_state
        else:
            self._start_attribute()
            self._reconsume()
            self._state = self._attribute_name_state

    def _attribute_name_state(self) -> None:
        attr = self._current_attr
        assert attr is not None
        while True:
            char = self._next()
            if char is None or char in "/>" or char in _WHITESPACE:
                self._reconsume()
                self._state = self._after_attribute_name_state
                return
            if char == "=":
                self._state = self._before_attribute_value_state
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                attr.name += _REPLACEMENT
            elif char in "\"'<":
                self._error(
                    ErrorCode.UNEXPECTED_CHARACTER_IN_ATTRIBUTE_NAME, detail=char
                )
                attr.name += char
            else:
                attr.name += char.translate(_TO_ASCII_LOWER)

    def _after_attribute_name_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_TAG)
            self._emit_eof()
        elif char in _WHITESPACE:
            pass
        elif char == "/":
            self._state = self._self_closing_start_tag_state
        elif char == "=":
            self._state = self._before_attribute_value_state
        elif char == ">":
            self._emit_current_tag()
        else:
            self._start_attribute()
            self._reconsume()
            self._state = self._attribute_name_state

    def _before_attribute_value_state(self) -> None:
        char = self._next()
        if char is None:
            self._reconsume()
            self._state = self._attribute_value_unquoted_state
        elif char in _WHITESPACE:
            pass
        elif char == '"':
            self._state = self._attribute_value_double_state
        elif char == "'":
            self._state = self._attribute_value_single_state
        elif char == ">":
            self._error(ErrorCode.MISSING_ATTRIBUTE_VALUE)
            self._emit_current_tag()
        else:
            self._reconsume()
            self._state = self._attribute_value_unquoted_state

    def _attribute_value_double_state(self) -> None:
        self._quoted_attribute_value('"', self._attribute_value_double_state)

    def _attribute_value_single_state(self) -> None:
        self._quoted_attribute_value("'", self._attribute_value_single_state)

    def _quoted_attribute_value(self, quote: str, state) -> None:
        """Per-character quoted attribute value (spec 13.2.5.36/37)."""
        attr = self._current_attr
        assert attr is not None
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_TAG)
                self._emit_eof()
                return
            if char == quote:
                self._state = self._after_attribute_value_quoted_state
                return
            if char == "&":
                self._consume_char_ref(state)
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                attr.value += _REPLACEMENT
            else:
                attr.value += char

    def _attribute_value_unquoted_state(self) -> None:
        attr = self._current_attr
        assert attr is not None
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_TAG)
                self._emit_eof()
                return
            if char in _WHITESPACE:
                self._state = self._before_attribute_name_state
                return
            if char == "&":
                self._consume_char_ref(self._attribute_value_unquoted_state)
                return
            if char == ">":
                self._emit_current_tag()
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                attr.value += _REPLACEMENT
            elif char in "\"'<=`":
                self._error(
                    ErrorCode.UNEXPECTED_CHARACTER_IN_UNQUOTED_ATTRIBUTE_VALUE,
                    detail=char,
                )
                attr.value += char
            else:
                attr.value += char

    def _after_attribute_value_quoted_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_TAG)
            self._emit_eof()
        elif char in _WHITESPACE:
            self._state = self._before_attribute_name_state
        elif char == "/":
            self._state = self._self_closing_start_tag_state
        elif char == ">":
            self._emit_current_tag()
        else:
            self._error(ErrorCode.MISSING_WHITESPACE_BETWEEN_ATTRIBUTES)
            self._pending_missing_space = True
            self._reconsume()
            self._state = self._before_attribute_name_state

    def _self_closing_start_tag_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_TAG)
            self._emit_eof()
        elif char == ">":
            tag = self._current_tag
            assert tag is not None
            tag.self_closing = True
            self._emit_current_tag()
        else:
            self._error(ErrorCode.UNEXPECTED_SOLIDUS_IN_TAG)
            self._pending_solidus = True
            self._reconsume()
            self._state = self._before_attribute_name_state

    # -------------------------------------------------------- RCDATA/RAWTEXT

    def _rcdata_less_than_state(self) -> None:
        self._text_less_than(self._rcdata_state, self._rcdata_end_tag_name_state)

    def _rawtext_less_than_state(self) -> None:
        self._text_less_than(self._rawtext_state, self._rawtext_end_tag_name_state)

    def _text_less_than(self, text_state, end_tag_name_state) -> None:
        char = self._next()
        if char == "/":
            self._temp_buffer = ""
            next_char = self._peek()
            if next_char and next_char in _ASCII_ALPHA:
                self._current_tag = EndTag(offset=self.pos - 2)
                self._state = end_tag_name_state
            else:
                self._emit_char("<")
                self._emit_char("/")
                self._state = text_state
        else:
            self._emit_char("<")
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1  # let the text state see EOF
            self._state = text_state

    def _rcdata_end_tag_name_state(self) -> None:
        self._text_end_tag_name(self._rcdata_state)

    def _rawtext_end_tag_name_state(self) -> None:
        self._text_end_tag_name(self._rawtext_state)

    def _text_end_tag_name(self, text_state) -> None:
        tag = self._current_tag
        assert isinstance(tag, EndTag)
        while True:
            char = self._next()
            if char is not None and char in _ASCII_ALPHA:
                tag.name += char.lower()
                self._temp_buffer += char
                continue
            appropriate = tag.name == self._last_start_tag
            if appropriate and char is not None and char in _WHITESPACE:
                self._state = self._before_attribute_name_state
                return
            if appropriate and char == "/":
                self._state = self._self_closing_start_tag_state
                return
            if appropriate and char == ">":
                self._emit_current_tag()
                return
            # Not an appropriate end tag: flush as text.
            self._current_tag = None
            self._emit_char("<")
            self._emit_char("/")
            for buffered in self._temp_buffer:
                self._emit_char(buffered)
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = text_state
            return

    # ------------------------------------------------------------ script data

    def _script_data_state(self) -> None:
        char = self._next()
        if char is None:
            self._emit_eof()
        elif char == "<":
            self._state = self._script_data_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    def _script_data_less_than_state(self) -> None:
        char = self._next()
        if char == "/":
            next_char = self._peek()
            if next_char and next_char in _ASCII_ALPHA:
                self._temp_buffer = ""
                self._current_tag = EndTag(offset=self.pos - 2)
                self._state = self._script_data_end_tag_name_state
            else:
                self._emit_char("<")
                self._emit_char("/")
                self._state = self._script_data_state
        elif char == "!":
            self._emit_char("<")
            self._emit_char("!")
            self._state = self._script_data_escape_start_state
        else:
            self._emit_char("<")
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_state

    def _script_data_end_tag_name_state(self) -> None:
        self._text_end_tag_name(self._script_data_state)

    def _script_data_escape_start_state(self) -> None:
        char = self._next()
        if char == "-":
            self._emit_char("-")
            self._state = self._script_data_escape_start_dash_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_state

    def _script_data_escape_start_dash_state(self) -> None:
        char = self._next()
        if char == "-":
            self._emit_char("-")
            self._state = self._script_data_escaped_dash_dash_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_state

    def _script_data_escaped_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
            self._state = self._script_data_escaped_dash_state
        elif char == "<":
            self._state = self._script_data_escaped_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    def _script_data_escaped_dash_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
            self._state = self._script_data_escaped_dash_dash_state
        elif char == "<":
            self._state = self._script_data_escaped_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
            self._state = self._script_data_escaped_state
        else:
            self._emit_char(char)
            self._state = self._script_data_escaped_state

    def _script_data_escaped_dash_dash_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
        elif char == "<":
            self._state = self._script_data_escaped_less_than_state
        elif char == ">":
            self._emit_char(">")
            self._state = self._script_data_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
            self._state = self._script_data_escaped_state
        else:
            self._emit_char(char)
            self._state = self._script_data_escaped_state

    def _script_data_escaped_less_than_state(self) -> None:
        char = self._next()
        if char == "/":
            next_char = self._peek()
            if next_char and next_char in _ASCII_ALPHA:
                self._temp_buffer = ""
                self._current_tag = EndTag(offset=self.pos - 2)
                self._state = self._script_data_escaped_end_tag_name_state
            else:
                self._emit_char("<")
                self._emit_char("/")
                self._state = self._script_data_escaped_state
        elif char is not None and char in _ASCII_ALPHA:
            self._temp_buffer = ""
            self._emit_char("<")
            self._reconsume()
            self._state = self._script_data_double_escape_start_state
        else:
            self._emit_char("<")
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_escaped_state

    def _script_data_escaped_end_tag_name_state(self) -> None:
        self._text_end_tag_name(self._script_data_escaped_state)

    def _script_data_double_escape_start_state(self) -> None:
        char = self._next()
        if char is not None and (char in _WHITESPACE or char in "/>"):
            if self._temp_buffer.lower() == "script":
                self._state = self._script_data_double_escaped_state
            else:
                self._state = self._script_data_escaped_state
            self._emit_char(char)
        elif char is not None and char in _ASCII_ALPHA:
            self._temp_buffer += char
            self._emit_char(char)
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_escaped_state

    def _script_data_double_escaped_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
            self._state = self._script_data_double_escaped_dash_state
        elif char == "<":
            self._emit_char("<")
            self._state = self._script_data_double_escaped_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
        else:
            self._emit_char(char)

    def _script_data_double_escaped_dash_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
            self._state = self._script_data_double_escaped_dash_dash_state
        elif char == "<":
            self._emit_char("<")
            self._state = self._script_data_double_escaped_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
            self._state = self._script_data_double_escaped_state
        else:
            self._emit_char(char)
            self._state = self._script_data_double_escaped_state

    def _script_data_double_escaped_dash_dash_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_SCRIPT_HTML_COMMENT_LIKE_TEXT)
            self._emit_eof()
        elif char == "-":
            self._emit_char("-")
        elif char == "<":
            self._emit_char("<")
            self._state = self._script_data_double_escaped_less_than_state
        elif char == ">":
            self._emit_char(">")
            self._state = self._script_data_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)
            self._state = self._script_data_double_escaped_state
        else:
            self._emit_char(char)
            self._state = self._script_data_double_escaped_state

    def _script_data_double_escaped_less_than_state(self) -> None:
        char = self._next()
        if char == "/":
            self._temp_buffer = ""
            self._emit_char("/")
            self._state = self._script_data_double_escape_end_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_double_escaped_state

    def _script_data_double_escape_end_state(self) -> None:
        char = self._next()
        if char is not None and (char in _WHITESPACE or char in "/>"):
            if self._temp_buffer.lower() == "script":
                self._state = self._script_data_escaped_state
            else:
                self._state = self._script_data_double_escaped_state
            self._emit_char(char)
        elif char is not None and char in _ASCII_ALPHA:
            self._temp_buffer += char
            self._emit_char(char)
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._script_data_double_escaped_state

    # --------------------------------------------------------------- comments

    def _markup_declaration_open_state(self) -> None:
        if self._peek(2) == "--":
            self.pos += 2
            self._current_comment = Comment(offset=self.pos - 4)
            self._state = self._comment_start_state
        elif self._peek(7).lower() == "doctype":
            self.pos += 7
            self._state = self._doctype_state
        elif self._peek(7) == "[CDATA[":
            self.pos += 7
            if self.in_foreign_content:
                self._state = self._cdata_section_state
            else:
                self._error(ErrorCode.CDATA_IN_HTML_CONTENT)
                self._current_comment = Comment(offset=self.pos - 9, data="[CDATA[")
                self._state = self._bogus_comment_state
        else:
            self._error(ErrorCode.INCORRECTLY_OPENED_COMMENT)
            self._current_comment = Comment(offset=self.pos - 2)
            self._state = self._bogus_comment_state

    def _bogus_comment_state(self) -> None:
        comment = self._current_comment
        assert comment is not None
        while True:
            char = self._next()
            if char is None:
                self._emit(comment)
                self._current_comment = None
                self._emit_eof()
                return
            if char == ">":
                self._emit(comment)
                self._current_comment = None
                self._state = self._data_state
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                comment.data += _REPLACEMENT
            else:
                comment.data += char

    def _comment_start_state(self) -> None:
        char = self._next()
        if char == "-":
            self._state = self._comment_start_dash_state
        elif char == ">":
            self._error(ErrorCode.ABRUPT_CLOSING_OF_EMPTY_COMMENT)
            self._emit_comment()
            self._state = self._data_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._comment_state

    def _comment_start_dash_state(self) -> None:
        char = self._next()
        if char == "-":
            self._state = self._comment_end_state
        elif char == ">":
            self._error(ErrorCode.ABRUPT_CLOSING_OF_EMPTY_COMMENT)
            self._emit_comment()
            self._state = self._data_state
        elif char is None:
            self._error(ErrorCode.EOF_IN_COMMENT)
            self._emit_comment()
            self._emit_eof()
        else:
            self._append_comment("-")
            self._reconsume()
            self._state = self._comment_state

    def _comment_state(self) -> None:
        comment = self._current_comment
        assert comment is not None
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_COMMENT)
                self._emit_comment()
                self._emit_eof()
                return
            if char == "<":
                comment.data += char
                self._state = self._comment_less_than_state
                return
            if char == "-":
                self._state = self._comment_end_dash_state
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                comment.data += _REPLACEMENT
            else:
                comment.data += char

    def _comment_less_than_state(self) -> None:
        char = self._next()
        if char == "!":
            self._append_comment("!")
            self._state = self._comment_less_than_bang_state
        elif char == "<":
            self._append_comment("<")
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._comment_state

    def _comment_less_than_bang_state(self) -> None:
        char = self._next()
        if char == "-":
            self._state = self._comment_less_than_bang_dash_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._comment_state

    def _comment_less_than_bang_dash_state(self) -> None:
        char = self._next()
        if char == "-":
            self._state = self._comment_less_than_bang_dash_dash_state
        else:
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._comment_end_dash_state

    def _comment_less_than_bang_dash_dash_state(self) -> None:
        char = self._next()
        if char is None or char == ">":
            if char is not None:
                self._reconsume()
            else:
                self.pos -= 1
            self._state = self._comment_end_state
        else:
            self._error(ErrorCode.NESTED_COMMENT)
            self._reconsume()
            self._state = self._comment_end_state

    def _comment_end_dash_state(self) -> None:
        char = self._next()
        if char == "-":
            self._state = self._comment_end_state
        elif char is None:
            self._error(ErrorCode.EOF_IN_COMMENT)
            self._emit_comment()
            self._emit_eof()
        else:
            self._append_comment("-")
            self._reconsume()
            self._state = self._comment_state

    def _comment_end_state(self) -> None:
        char = self._next()
        if char == ">":
            self._emit_comment()
            self._state = self._data_state
        elif char == "!":
            self._state = self._comment_end_bang_state
        elif char == "-":
            self._append_comment("-")
        elif char is None:
            self._error(ErrorCode.EOF_IN_COMMENT)
            self._emit_comment()
            self._emit_eof()
        else:
            self._append_comment("--")
            self._reconsume()
            self._state = self._comment_state

    def _comment_end_bang_state(self) -> None:
        char = self._next()
        if char == "-":
            self._append_comment("--!")
            self._state = self._comment_end_dash_state
        elif char == ">":
            self._error(ErrorCode.INCORRECTLY_CLOSED_COMMENT)
            self._emit_comment()
            self._state = self._data_state
        elif char is None:
            self._error(ErrorCode.EOF_IN_COMMENT)
            self._emit_comment()
            self._emit_eof()
        else:
            self._append_comment("--!")
            self._reconsume()
            self._state = self._comment_state

    def _append_comment(self, data: str) -> None:
        comment = self._current_comment
        assert comment is not None
        comment.data += data

    def _emit_comment(self) -> None:
        comment = self._current_comment
        assert comment is not None
        self._emit(comment)
        self._current_comment = None

    # ---------------------------------------------------------------- doctype

    def _doctype_state(self) -> None:
        char = self._next()
        if char is not None and char in _WHITESPACE:
            self._state = self._before_doctype_name_state
        elif char == ">":
            self._reconsume()
            self._state = self._before_doctype_name_state
        elif char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit(Doctype(offset=self.pos - 1, force_quirks=True))
            self._emit_eof()
        else:
            self._error(ErrorCode.MISSING_WHITESPACE_BEFORE_DOCTYPE_NAME)
            self._reconsume()
            self._state = self._before_doctype_name_state

    def _before_doctype_name_state(self) -> None:
        char = self._next()
        if char is not None and char in _WHITESPACE:
            return
        if char == ">":
            self._error(ErrorCode.MISSING_DOCTYPE_NAME)
            self._emit(Doctype(offset=self.pos - 1, force_quirks=True))
            self._state = self._data_state
        elif char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit(Doctype(offset=self.pos - 1, force_quirks=True))
            self._emit_eof()
        else:
            self._current_doctype = Doctype(offset=self.pos - 1)
            self._reconsume()
            self._state = self._doctype_name_state

    def _doctype_name_state(self) -> None:
        doctype = self._current_doctype
        assert doctype is not None
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_DOCTYPE)
                doctype.force_quirks = True
                self._emit(doctype)
                self._current_doctype = None
                self._emit_eof()
                return
            if char in _WHITESPACE:
                self._state = self._after_doctype_name_state
                return
            if char == ">":
                self._emit(doctype)
                self._current_doctype = None
                self._state = self._data_state
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                doctype.name += _REPLACEMENT
            else:
                doctype.name += char.translate(_TO_ASCII_LOWER)

    def _emit_doctype(self, *, quirks: bool = False, at_eof: bool = False) -> None:
        doctype = self._current_doctype
        assert doctype is not None
        if quirks:
            doctype.force_quirks = True
        self._emit(doctype)
        self._current_doctype = None
        if at_eof:
            self._emit_eof()
        else:
            self._state = self._data_state

    def _after_doctype_name_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            pass
        elif char == ">":
            self._emit_doctype()
        else:
            self._reconsume()
            keyword = self._peek(6).lower()
            if keyword == "public":
                self.pos += 6
                self._state = self._after_doctype_public_keyword_state
            elif keyword == "system":
                self.pos += 6
                self._state = self._after_doctype_system_keyword_state
            else:
                self._error(
                    ErrorCode.INVALID_CHARACTER_SEQUENCE_AFTER_DOCTYPE_NAME,
                    detail=self._peek(20),
                )
                doctype = self._current_doctype
                assert doctype is not None
                doctype.force_quirks = True
                self._state = self._bogus_doctype_state

    def _after_doctype_public_keyword_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            self._state = self._before_doctype_public_identifier_state
        elif char in "\"'":
            self._error(
                ErrorCode.MISSING_WHITESPACE_AFTER_DOCTYPE_PUBLIC_KEYWORD
            )
            doctype.public_id = ""
            self._state = self._make_identifier_state("public_id", char)
        elif char == ">":
            self._error(ErrorCode.MISSING_DOCTYPE_PUBLIC_IDENTIFIER)
            self._emit_doctype(quirks=True)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_PUBLIC_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _before_doctype_public_identifier_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            pass
        elif char in "\"'":
            doctype.public_id = ""
            self._state = self._make_identifier_state("public_id", char)
        elif char == ">":
            self._error(ErrorCode.MISSING_DOCTYPE_PUBLIC_IDENTIFIER)
            self._emit_doctype(quirks=True)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_PUBLIC_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _make_identifier_state(self, field: str, quote: str):
        """Build the (public|system) identifier quoted state closure."""
        abrupt = (
            ErrorCode.ABRUPT_DOCTYPE_PUBLIC_IDENTIFIER
            if field == "public_id"
            else ErrorCode.ABRUPT_DOCTYPE_SYSTEM_IDENTIFIER
        )
        after_state = (
            self._after_doctype_public_identifier_state
            if field == "public_id"
            else self._after_doctype_system_identifier_state
        )

        def identifier_state() -> None:
            doctype = self._current_doctype
            assert doctype is not None
            while True:
                char = self._next()
                if char is None:
                    self._error(ErrorCode.EOF_IN_DOCTYPE)
                    self._emit_doctype(quirks=True, at_eof=True)
                    return
                if char == quote:
                    self._state = after_state
                    return
                if char == ">":
                    self._error(abrupt)
                    self._emit_doctype(quirks=True)
                    return
                if char == "\x00":
                    self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                    char = _REPLACEMENT
                current = getattr(doctype, field) or ""
                setattr(doctype, field, current + char)

        return identifier_state

    def _after_doctype_public_identifier_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            self._state = self._between_doctype_public_and_system_state
        elif char == ">":
            self._emit_doctype()
        elif char in "\"'":
            self._error(
                ErrorCode.MISSING_WHITESPACE_BETWEEN_DOCTYPE_PUBLIC_AND_SYSTEM_IDENTIFIERS
            )
            doctype.system_id = ""
            self._state = self._make_identifier_state("system_id", char)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_SYSTEM_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _between_doctype_public_and_system_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            pass
        elif char == ">":
            self._emit_doctype()
        elif char in "\"'":
            doctype.system_id = ""
            self._state = self._make_identifier_state("system_id", char)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_SYSTEM_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _after_doctype_system_keyword_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            self._state = self._before_doctype_system_identifier_state
        elif char in "\"'":
            self._error(
                ErrorCode.MISSING_WHITESPACE_AFTER_DOCTYPE_SYSTEM_KEYWORD
            )
            doctype.system_id = ""
            self._state = self._make_identifier_state("system_id", char)
        elif char == ">":
            self._error(ErrorCode.MISSING_DOCTYPE_SYSTEM_IDENTIFIER)
            self._emit_doctype(quirks=True)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_SYSTEM_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _before_doctype_system_identifier_state(self) -> None:
        char = self._next()
        doctype = self._current_doctype
        assert doctype is not None
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            pass
        elif char in "\"'":
            doctype.system_id = ""
            self._state = self._make_identifier_state("system_id", char)
        elif char == ">":
            self._error(ErrorCode.MISSING_DOCTYPE_SYSTEM_IDENTIFIER)
            self._emit_doctype(quirks=True)
        else:
            self._error(
                ErrorCode.MISSING_QUOTE_BEFORE_DOCTYPE_SYSTEM_IDENTIFIER
            )
            doctype.force_quirks = True
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _after_doctype_system_identifier_state(self) -> None:
        char = self._next()
        if char is None:
            self._error(ErrorCode.EOF_IN_DOCTYPE)
            self._emit_doctype(quirks=True, at_eof=True)
        elif char in _WHITESPACE:
            pass
        elif char == ">":
            self._emit_doctype()
        else:
            # per spec: error but NOT force-quirks
            self._error(
                ErrorCode.UNEXPECTED_CHARACTER_AFTER_DOCTYPE_SYSTEM_IDENTIFIER
            )
            self._reconsume()
            self._state = self._bogus_doctype_state

    def _bogus_doctype_state(self) -> None:
        while True:
            char = self._next()
            if char is None:
                self._emit_doctype(at_eof=True)
                return
            if char == ">":
                self._emit_doctype()
                return
            if char == "\x00":
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)

    # ------------------------------------------------------------------ CDATA

    def _cdata_section_state(self) -> None:
        while True:
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_CDATA)
                self._emit_eof()
                return
            if char == "]":
                if self._peek(2) == "]>":
                    self.pos += 2
                    self._state = self._data_state
                    return
                self._emit_char("]")
            else:
                self._emit_char(char)


def tokenize(text: str) -> tuple[list[Token], list[ParseError]]:
    """Tokenize ``text`` fully in the data state with the per-character
    reference; convenience for tests.

    Note: without a tree builder driving content-model switches, ``script``
    and ``style`` content is tokenized as markup.  Use :func:`repro.html.parse`
    for faithful document parsing.
    """
    tokenizer = Tokenizer(text)
    tokens = list(tokenizer)
    return tokens, tokenizer.errors
