"""Decode-free bytes-domain tokenizer: the one chunked scanner.

:class:`BytesTokenizer` runs the WHATWG state machine of
:class:`repro.html.tokenizer.Tokenizer` directly over raw UTF-8 bytes,
replacing the ``bytes → decode_bytes → preprocess (two full-string
copies) → str Tokenizer`` pipeline with a single scan.  Every parse runs
it — str callers of :func:`repro.html.parse` encode to UTF-8 first — while
the per-character base class stays the reference it is diffed against:

* every chunked state's run pattern is compiled **in bytes** from the
  ``CHUNK_BREAK_SETS`` source of truth (:func:`_bytes_scanner`; the
  staticcheck ``state-machine`` pass verifies the derivation).  All break
  characters are ASCII, and UTF-8 continuation bytes are ≥ 0x80, so a
  byte-domain ``[^breaks]+`` scan can never split a multi-byte character —
  the byte runs are exactly the char runs;
* input normalization is folded into the scan: a UTF-8 BOM becomes a start
  offset (no slice copy), CRLF / lone CR become ``\\n`` with at most one
  byte-level ``replace`` per form (a no-op returning the same object when
  absent), killing ``preprocessor.preprocess``'s separate copies;
* text materializes lazily.  Character data is buffered as byte *spans* into
  a shared :class:`~repro.html.tokens.ByteSource` and only joined/decoded
  when ``.data`` is read; error-free attribute regions ride on
  :class:`~repro.html.tokens.StartTag` as a lazy region; tag/attribute names
  decode through a small intern cache (ASCII fast slice);
* invalid UTF-8 raises :class:`UnicodeDecodeError` from whichever scan first
  touches the bad sequence — the same documents the old upfront
  ``decode_bytes`` filter rejected, discovered incrementally (callers map
  the exception to ``DecodeFailure``).

The per-position machinery mirrors the base class through a tiny accounting
layer: ``pos`` (a property) reports *character* offsets — ``_bpos - base -
_extra`` where ``_extra`` counts UTF-8 continuation bytes consumed so far —
so every inherited slow-path state, error offset and token offset stays in
the str-domain coordinate system and the bytes scanner stays bit-comparable
with the per-character reference.  The inherited ``self.pos ± k`` arithmetic
is byte==char safe: every such site crosses ASCII-only input
("--", "doctype", "public", "system", "[CDATA[", "]>", entity runs); real
characters are only re-consumed via :meth:`_reconsume`, which knows the last
consumed width.

``_data_state`` is replaced wholesale by a batch loop over one master
pattern (text run | simple start tag | end tag | start tag with attributes |
well-formed named reference) with ``lastindex`` dispatch; the tag
alternatives exclude bytes ≥ 0x80, so non-ASCII tag/attribute content falls
back to the inherited per-state machine, which the accounting layer keeps
correct.  Anything error-shaped fails the master match and takes the slow
path — parse-error semantics (the study's violation signal) stay defined in
one place.
"""
from __future__ import annotations

import re

from .arena import GLOBAL_ATOMS
from .entities import NAMED_ENTITY_BYTES, consume_character_reference_bytes
from .errors import ErrorCode, ParseError
from .preprocessor import UTF8_BOM
from .tokens import (
    EOF,
    Attribute,
    ByteSource,
    Character,
    Comment,
    Doctype,
    EndTag,
    StartTag,
    Token,
)
from .tokenizer import _REPLACEMENT, _TO_ASCII_LOWER, CHUNK_BREAK_SETS, Tokenizer

_ASCII_CHR = tuple(map(chr, range(128)))
_NON_ASCII = re.compile(rb"[\x80-\xff]")

#: Start-tag names after which the tree builder may call ``switch_to`` to
#: change the content model (RCDATA/RAWTEXT/script data/PLAINTEXT).  The
#: data-state batch loop returns to the pull loop after emitting one of
#: these so the builder's switch happens before the next byte is scanned;
#: every other tag is safe to tokenize straight through.
_MODE_SWITCH_TAGS = frozenset({
    "title", "textarea", "style", "xmp", "iframe", "noembed",
    "noframes", "noscript", "script", "plaintext",
})

# ------------------------------------------------------- bytes run patterns


def _bytes_scanner(state: str) -> re.Pattern[bytes]:
    """Compile ``state``'s longest-run pattern from its declared break set.

    The ``CHUNK_BREAK_SETS`` entry, encoded to ASCII bytes.  Break sets
    are ASCII by construction (the staticcheck pass enforces it), so the
    complement class matches UTF-8 continuation bytes as part of the run —
    multi-byte characters are never split.
    """
    return re.compile(b"[^" + re.escape(CHUNK_BREAK_SETS[state].encode("ascii")) + b"]+")


_RUN_RCDATA_B = _bytes_scanner("_rcdata_state")
_RUN_RAWTEXT_B = _bytes_scanner("_rawtext_state")
_RUN_SCRIPT_DATA_B = _bytes_scanner("_script_data_state")
_RUN_PLAINTEXT_B = _bytes_scanner("_plaintext_state")
_RUN_TAG_NAME_B = _bytes_scanner("_tag_name_state")
_RUN_ATTR_NAME_B = _bytes_scanner("_attribute_name_state")
_RUN_ATTR_VALUE_DOUBLE_B = _bytes_scanner("_attribute_value_double_state")
_RUN_ATTR_VALUE_SINGLE_B = _bytes_scanner("_attribute_value_single_state")
_RUN_ATTR_VALUE_UNQUOTED_B = _bytes_scanner("_attribute_value_unquoted_state")
_RUN_COMMENT_B = _bytes_scanner("_comment_state")
_RUN_BOGUS_COMMENT_B = _bytes_scanner("_bogus_comment_state")
_RUN_SCRIPT_ESCAPED_B = _bytes_scanner("_script_data_escaped_state")
_RUN_SCRIPT_DOUBLE_ESCAPED_B = _bytes_scanner("_script_data_double_escaped_state")
_RUN_DOCTYPE_NAME_B = _bytes_scanner("_doctype_name_state")
_RUN_BOGUS_DOCTYPE_B = _bytes_scanner("_bogus_doctype_state")
_RUN_CDATA_B = _bytes_scanner("_cdata_section_state")
# NOTE: ``_data_state`` has no ``_bytes_scanner`` run pattern — its text runs
# are scanned by ``_MASTER``'s group 1, whose character class the staticcheck
# ``state-machine`` pass verifies against ``CHUNK_BREAK_SETS["_data_state"]``.

# The data-state batch loop recognises a text run AND the construct that
# terminates it with ONE pattern, dispatching on ``lastindex``: one regex
# call per text+tag pair instead of two.  The text prefix (group 1) is
# possessive (``*+``) so a construct that fails to match cannot backtrack
# into the run one byte at a time.  Character classes are complements of
# CHUNK_BREAK_SETS entries for the corresponding states, except that the
# tag alternatives additionally exclude bytes >= 0x80: non-ASCII
# names/attributes bail to the per-state machine rather than teach the
# fast path about character widths.  Text runs do include
# high bytes — they are decoded (and validated) as a unit only when
# non-ASCII is actually present.
# The single-attribute alternative (groups 4-6) is tried before the
# general region (groups 7-9): a region holding exactly one whitespace-
# separated attribute structurally cannot contain a glued attribute or a
# duplicate name, so the dispatch defers it lazily with *no* probe call —
# and single-attribute tags are the most common attributed shape.
_MASTER = re.compile(
    rb"([^&<\x00]*+)"                                       # 1: text run
    rb"(?:"
    rb"<([a-z][a-z0-9]*)>"                                  # 2: simple start tag
    rb"|</([a-zA-Z][^\t\n\f />\x00\x80-\xff]*)[\t\n\f ]*>"  # 3: end tag
    rb"|<([a-zA-Z][^\t\n\f />\x00\x80-\xff]*)"              # 4: start-tag name
    rb"([\t\n\f ]+[^\t\n\f />=\x00\"'<\x80-\xff]+"
    rb"(?:[\t\n\f ]*=[\t\n\f ]*"
    rb"(?:\"[^\"&\x00\x80-\xff]*\"|'[^'&\x00\x80-\xff]*'"
    rb"|[^\t\n\f >&\x00\"'<=`\x80-\xff]+))?)"               # 5: one attribute
    rb"[\t\n\f ]*(/?)>"                                     # 6: self-closing flag
    rb"|<([a-zA-Z][^\t\n\f />\x00\x80-\xff]*)"              # 7: start-tag name
    rb"((?:(?:[\t\n\f ]+|(?<=[\"']))[^\t\n\f />=\x00\"'<\x80-\xff]+"
    rb"(?:[\t\n\f ]*=[\t\n\f ]*"
    rb"(?:\"[^\"&\x00\x80-\xff]*\"|'[^'&\x00\x80-\xff]*'"
    rb"|[^\t\n\f >&\x00\"'<=`\x80-\xff]+))?)*)"             # 8: attribute region
    rb"[\t\n\f ]*(/?)>"                                     # 9: self-closing flag
    rb"|&([a-zA-Z][a-zA-Z0-9]*);"                           # 10: named reference
    rb")?"
)

# One *whole* well-behaved comment, recognised from the data state in a
# single match: ``<!--`` body ``-->`` where the body is pure ASCII, has no
# NUL, no nested ``<!``, never ends a dash run anywhere ``>``/``!``/EOF
# could follow it (those are the comment-end / bang / abrupt-close edges
# with their own error vocabulary), and dash runs inside are followed by a
# plain body byte — exactly the inputs on which the state machine emits
# one Comment token and zero errors.  Everything else (including ``--->``
# tails and non-ASCII bodies) falls back to the per-state path.
_RE_FAST_COMMENT = re.compile(
    rb"<!--("
    rb"(?:[^-\x00<\x80-\xff]|<(?!!)|-+(?:[^->!\x00<\x80-\xff]|<(?!!)))*+"
    rb")-->"
)

#: the one spec-conforming doctype shape, matched wholesale: ``<!doctype``
#: (any case), ASCII whitespace, ``html`` (any case), optional trailing
#: whitespace, ``>`` — the state machine emits exactly
#: ``Doctype(name="html")`` with zero errors for it.  ``\r`` is excluded
#: (it shifts char offsets), as is every other doctype variant.
_RE_FAST_DOCTYPE = re.compile(
    rb"<![Dd][Oo][Cc][Tt][Yy][Pp][Ee][ \t\n\f]+"
    rb"([Hh][Tt][Mm][Ll])[ \t\n\f]*>"
)

#: one attribute inside a master-matched region: (sep, name, value);
#: shared by the lazy probe, the eager fallback parser and the lazy
#: materializer so all three agree.
_RE_FAST_ATTR_B = re.compile(
    rb"([\t\n\f ]*)([^\t\n\f />=\x00\"'<\x80-\xff]+)"
    rb"(?:[\t\n\f ]*=[\t\n\f ]*"
    rb"(\"[^\"&\x00\x80-\xff]*\"|'[^'&\x00\x80-\xff]*'"
    rb"|[^\t\n\f >&\x00\"'<=`\x80-\xff]+))?"
)

# Bounded bytes->str intern caches for tag / attribute names: pages repeat a
# tiny name vocabulary, so the decode+ASCII-lower happens once per distinct
# spelling.  The caches live on the process-wide atom table shared with the
# DOM arena (repro.html.arena.GLOBAL_ATOMS), so the name a token carries is
# the same str object the arena's names column and every other document
# use.  The bound only guards against adversarial name churn.
_NAME_CACHE_LIMIT = 4096
_TAG_NAMES: dict[bytes, str] = GLOBAL_ATOMS.tag_bytes
_ATTR_NAMES: dict[bytes, str] = GLOBAL_ATOMS.attr_bytes


def _intern_name(cache: dict[bytes, str], raw: bytes) -> str:
    name = GLOBAL_ATOMS.intern(raw.decode("ascii").translate(_TO_ASCII_LOWER))
    if len(cache) < _NAME_CACHE_LIMIT:
        cache[raw] = name
    return name


class _LazyAttrRegion:
    """A proven-error-free attribute byte region, parsed on first access.

    Only regions with no glued attribute (missing-whitespace) and no
    case-insensitive duplicate name are deferred, so materialization never
    has parse errors or flag bits to report; region bytes are pure ASCII by
    the master pattern's construction.
    """

    __slots__ = ("source", "start", "end", "offs")

    def __init__(self, source: ByteSource, start: int, end: int, offs: int) -> None:
        self.source = source
        self.start = start
        self.end = end
        self.offs = offs

    def materialize(self) -> list[Attribute]:
        source = self.source
        source.decoded += self.end - self.start
        offs = self.offs
        attributes = []
        for match in _RE_FAST_ATTR_B.finditer(source.data, self.start, self.end):
            value_b = match[3]
            if value_b is None:
                value = ""
            else:
                if value_b[0] in (0x22, 0x27):  # quoted: strip the quotes
                    value_b = value_b[1:-1]
                value = value_b.decode("ascii")
            raw = match[2]
            name = _ATTR_NAMES.get(raw) or _intern_name(_ATTR_NAMES, raw)
            attributes.append(Attribute(name, value, match.start(2) - offs))
        return attributes


class BytesTokenizer(Tokenizer):
    """Pull-based tokenizer over raw UTF-8 bytes; see the module docstring.

    Overrides exactly the ``CHUNK_BREAK_SETS`` states (``BYTES_OVERRIDES``
    is machine-checked against the declaration) plus the position /
    character plumbing.  Token and error streams are char-offset identical
    to ``Tokenizer(preprocess(decode(data)).text)`` for valid UTF-8 input;
    invalid UTF-8 raises :class:`UnicodeDecodeError` at the first scan that
    touches it.
    """

    def __init__(self, data: bytes) -> None:
        base = 3 if data.startswith(UTF8_BOM) else 0
        if base and data.startswith(UTF8_BOM, 3):
            # mirror the composed str pipeline: decode_bytes eats the byte
            # BOM, then preprocess strips one more leading U+FEFF
            base = 6
        if b"\r" in data:
            # bytes.replace returns the original object when nothing matches,
            # so normalization costs at most one copy per form present
            data = data.replace(b"\r\n", b"\n")
            if b"\r" in data:
                data = data.replace(b"\r", b"\n")
        self._src = ByteSource(data, base)
        self._base = base
        self._bpos = base
        self._extra = 0
        self._last_width = 1
        # byte position of the next non-ASCII byte at/after the scan point
        # (len(data) when none): runs ending before it are provably ASCII
        # without a per-run search.  Maintained monotonically — a stale
        # value (< the position being classified) triggers one re-search
        # from that position, so total search work stays linear.
        match = _NON_ASCII.search(data, base)
        self._na_pos = match.start() if match is not None else len(data)
        super().__init__("")

    # ------------------------------------------------- position accounting

    @property
    def pos(self) -> int:
        """Char-domain position: byte position minus BOM and continuation bytes."""
        return self._bpos - self._base - self._extra

    @pos.setter
    def pos(self, value: int) -> None:
        # inherited `self.pos ± k` sites only ever cross ASCII, where the
        # byte delta equals the char delta
        self._bpos += value - (self._bpos - self._base - self._extra)

    def _next(self) -> str | None:
        data = self._src.data
        bpos = self._bpos
        if bpos >= len(data):
            self._bpos = bpos + 1  # keep reconsume arithmetic consistent at EOF
            self._last_width = 1
            return None
        byte = data[bpos]
        if byte < 0x80:
            self._bpos = bpos + 1
            self._last_width = 1
            return _ASCII_CHR[byte]
        width = 2 if byte < 0xE0 else 3 if byte < 0xF0 else 4
        # raises UnicodeDecodeError on stray continuation / truncated /
        # overlong sequences — the incremental equivalent of the upfront
        # decode filter
        char = data[bpos : bpos + width].decode("utf-8")
        self._src.decoded += width
        self._bpos = bpos + width
        self._extra += width - 1
        self._last_width = width
        return char

    def _reconsume(self) -> None:
        width = self._last_width
        self._bpos -= width
        if width > 1:
            self._extra -= width - 1
            self._last_width = 1

    def _peek(self, count: int = 1) -> str:
        data = self._src.data
        bpos = self._bpos
        if count == 1:
            if bpos >= len(data):
                return ""
            byte = data[bpos]
            if byte < 0x80:
                return _ASCII_CHR[byte]
            # callers only test single-char peeks against ASCII sets; any
            # non-ASCII placeholder answers those tests identically
            return "�"
        window = data[bpos : bpos + 4 * count]
        try:
            return window.decode("utf-8")[:count]
        except UnicodeDecodeError:
            # a cut at the window edge decodes short; truly invalid bytes
            # will raise from the consuming scan that reaches them
            return window.decode("utf-8", "replace")[:count]

    # --------------------------------------------------- char data plumbing

    def _flush_chars(self) -> None:
        buffer = self._char_buffer
        if buffer:
            if len(buffer) == 1 and buffer[0].__class__ is str:
                token = Character(self._char_start, buffer[0])
            else:
                token = Character.from_parts(self._char_start, buffer)
            self._queue.append(token)
            self._char_buffer = []

    def _emit_eof(self) -> None:
        self._emit(EOF(offset=len(self._src.data) - self._base - self._extra))
        self._done = True

    def __iter__(self):
        # the inherited loop pays a Python-level ``popleft`` round-trip per
        # token; the bytes scanner fills the queue in large batches between
        # state calls, so snapshot each batch and let ``yield from`` hand
        # the tokens out through C-level tuple iteration instead
        queue = self._queue
        while True:
            if queue:
                batch = tuple(queue)
                queue.clear()
                yield from batch
            elif self._done:
                return
            else:
                self._state()

    def _is_ascii_run(self, start: int, end: int) -> bool:
        """True when ``data[start:end]`` is provably ASCII, refreshing the
        cached next-non-ASCII position when it has gone stale."""
        na_pos = self._na_pos
        if end <= na_pos:
            return True
        if na_pos < start:
            data = self._src.data
            match = _NON_ASCII.search(data, start)
            self._na_pos = na_pos = (
                match.start() if match is not None else len(data)
            )
            return end <= na_pos
        return False

    def _advance_na_pos(self, position: int) -> None:
        """Recompute the next-non-ASCII position from ``position``."""
        data = self._src.data
        match = _NON_ASCII.search(data, position)
        self._na_pos = match.start() if match is not None else len(data)

    def _run_part(self, start: int, end: int):
        """A char-buffer part for ``data[start:end]``: a lazy span when the
        run is pure ASCII, else the decoded (validated, accounted) str."""
        src = self._src
        if self._is_ascii_run(start, end):
            return (src, start, end)
        text = src.data[start:end].decode("utf-8")
        src.decoded += end - start
        self._extra += (end - start) - len(text)
        self._advance_na_pos(end)
        return text

    def _run_text(self, start: int, end: int) -> str:
        """Decode ``data[start:end]`` eagerly (names, comments, values)."""
        src = self._src
        src.decoded += end - start
        if self._is_ascii_run(start, end):
            return src.data[start:end].decode("ascii")
        text = src.data[start:end].decode("utf-8")
        self._extra += (end - start) - len(text)
        self._advance_na_pos(end)
        return text

    def _skip_run(self, start: int, end: int) -> None:
        """Account (and validate) a discarded run (bogus DOCTYPE content)."""
        if not self._is_ascii_run(start, end):
            text = self._src.data[start:end].decode("utf-8")
            self._extra += (end - start) - len(text)
            self._advance_na_pos(end)

    def _scan_run_b(self, run: re.Pattern[bytes]) -> str | None:
        """Buffer the maximal run as a lazy part, consume and return the
        (always-ASCII) break character (None at EOF)."""
        data = self._src.data
        bpos = self._bpos
        if bpos >= len(data):
            self._bpos = bpos + 1
            return None
        match = run.match(data, bpos)
        if match is not None:
            end = match.end()
            if not self._char_buffer:
                self._char_start = self.pos
            self._char_buffer.append(self._run_part(bpos, end))
            if end == len(data):
                self._bpos = end + 1
                return None
            bpos = end
        self._bpos = bpos + 1
        return _ASCII_CHR[data[bpos]]

    # --------------------------------------------------- character references

    def _consume_char_ref(self, return_state) -> None:
        in_attribute = return_state in (
            self._attribute_value_double_state,
            self._attribute_value_single_state,
            self._attribute_value_unquoted_state,
        )
        self._return_state = return_state
        result = consume_character_reference_bytes(
            self._src.data, self._bpos, in_attribute=in_attribute
        )
        if result.errors:
            # reference grammar is ASCII: window-relative offsets rebase
            # onto the current char position unchanged
            rebase = self.pos
            self.errors.extend(
                ParseError(error.code, error.offset + rebase, error.detail)
                for error in result.errors
            )
        if result.matched:
            self._bpos += result.consumed
            self._flush_char_ref(result.text)
        else:
            self._flush_char_ref("&")
        self._state = return_state

    # ------------------------------------------------------------ data state

    def _data_state(self) -> None:
        # the hottest loop in the repo: token classes, dict lookups and the
        # allocator (object.__new__ + direct slot writes instead of the
        # classes' __init__) are all hoisted into locals
        src = self._src
        data = src.data
        length = len(data)
        queue = self._queue
        append = queue.append
        buffer = self._char_buffer
        offs = self._base + self._extra  # char_pos(b) == b - offs
        bpos = self._bpos
        na_pos = self._na_pos
        master_finditer = _MASTER.finditer
        comment_match = _RE_FAST_COMMENT.match
        doctype_match = _RE_FAST_DOCTYPE.match
        fast_attr_match = _RE_FAST_ATTR_B.match
        tag_names_get = _TAG_NAMES.get
        entity_get = NAMED_ENTITY_BYTES.get
        new = object.__new__
        character_cls = Character
        start_cls = StartTag
        end_cls = EndTag
        lazy_cls = _LazyAttrRegion
        mode_tags = _MODE_SWITCH_TAGS
        # the scan rides a single finditer: because the master pattern
        # matches (possibly zero-width) at *every* position, the iterator
        # never skips a byte, and its C-level resume replaces a Python
        # ``match(data, bpos)`` round-trip per construct.  Slow paths that
        # consume input behind the iterator's back (comments, character
        # references) break out and restart it at the new position.
        while bpos < length:
            for match in master_finditer(data, bpos):
                end = match.end()
                text_end = match.end(1)
                if end != text_end:
                    group = match.lastindex
                    if group != 10:
                        # ----- tag construct (group 2, 3, 6 or 9): hot exit
                        if text_end > bpos:
                            if not buffer and text_end <= na_pos:
                                # pure-ASCII run straight into a tag — emit
                                # the Character with a bare span, skipping
                                # the buffer round-trip
                                character = new(character_cls)
                                character.offset = bpos - offs
                                character._data = None
                                character._parts = (src, bpos, text_end)
                                append(character)
                            else:
                                self._na_pos = na_pos
                                if not buffer:
                                    self._char_start = bpos - offs
                                buffer.append(self._run_part(bpos, text_end))
                                offs = self._base + self._extra
                                na_pos = self._na_pos
                                character = new(character_cls)
                                character.offset = self._char_start
                                if (
                                    len(buffer) == 1
                                    and buffer[0].__class__ is str
                                ):
                                    character._data = buffer[0]
                                    character._parts = None
                                else:
                                    character._data = None
                                    character._parts = buffer
                                append(character)
                                buffer = self._char_buffer = []
                        elif buffer:
                            character = new(character_cls)
                            character.offset = self._char_start
                            if len(buffer) == 1 and buffer[0].__class__ is str:
                                character._data = buffer[0]
                                character._parts = None
                            else:
                                character._data = None
                                character._parts = buffer
                            append(character)
                            buffer = self._char_buffer = []
                        if group == 3:  # </name ...>
                            raw = match[3]
                            name = tag_names_get(raw) or _intern_name(
                                _TAG_NAMES, raw
                            )
                            tag = new(end_cls)
                            tag.offset = text_end - offs
                            tag.name = name
                            tag.attributes = []
                            tag.self_closing = False
                            tag.end = end - offs
                            append(tag)
                            bpos = end
                            continue
                        if group == 2:  # <name> — lowercase bare start tag
                            raw = match[2]
                            name = tag_names_get(raw) or _intern_name(
                                _TAG_NAMES, raw
                            )
                            tag = new(start_cls)
                            tag.offset = text_end - offs
                            tag.name = name
                            tag._attributes = []
                            tag._lazy = None
                            tag.self_closing = False
                            tag.self_closing_acknowledged = False
                            tag.end = end - offs
                            append(tag)
                            self._last_start_tag = name
                            bpos = end
                            if name in mode_tags:
                                self._bpos = end
                                self._na_pos = na_pos
                                return
                            continue
                        if group == 6:  # <name attr>: exactly one attribute
                            raw = match[4]
                            name = tag_names_get(raw) or _intern_name(
                                _TAG_NAMES, raw
                            )
                            astart, aend = match.span(5)
                            tag = new(start_cls)
                            tag.offset = text_end - offs
                            tag.name = name
                            tag.self_closing = bool(match[6])
                            tag.self_closing_acknowledged = False
                            tag.end = end - offs
                            # one whitespace-separated attribute can be
                            # neither glued nor duplicated: defer with no
                            # probe at all
                            lazy = new(lazy_cls)
                            lazy.source = src
                            lazy.start = astart
                            lazy.end = aend
                            lazy.offs = offs
                            tag._attributes = None
                            tag._lazy = lazy
                            append(tag)
                            self._last_start_tag = name
                            bpos = end
                            if name in mode_tags:
                                self._bpos = end
                                self._na_pos = na_pos
                                return
                            continue
                        # group == 9: start tag with attribute region
                        raw = match[7]
                        name = tag_names_get(raw) or _intern_name(
                            _TAG_NAMES, raw
                        )
                        astart, aend = match.span(8)
                        tag = new(start_cls)
                        tag.offset = text_end - offs
                        tag.name = name
                        tag.self_closing = bool(match[9])
                        tag.self_closing_acknowledged = False
                        tag.end = end - offs
                        # inlined single-attribute probe fast path: the
                        # first attribute's separator is structurally
                        # non-empty, so a one-attribute region defers after
                        # a single match call
                        first = fast_attr_match(data, astart, aend)
                        if first is None:
                            tag._attributes = []
                            tag._lazy = None
                            if aend > astart:
                                # error offsets default to self.pos
                                self._bpos = end
                                self._parse_attributes(tag, astart, aend, offs)
                        elif first.end() == aend or self._probe_attr_rest(
                            data, first, aend
                        ):
                            lazy = new(lazy_cls)
                            lazy.source = src
                            lazy.start = astart
                            lazy.end = aend
                            lazy.offs = offs
                            tag._attributes = None
                            tag._lazy = lazy
                        else:
                            tag._attributes = []
                            tag._lazy = None
                            self._bpos = end
                            self._parse_attributes(tag, astart, aend, offs)
                        append(tag)
                        self._last_start_tag = name
                        bpos = end
                        if name in mode_tags:
                            self._bpos = end
                            self._na_pos = na_pos
                            return
                        continue
                    # ----- group == 10: &name; — well-formed named reference
                    if text_end > bpos:
                        self._na_pos = na_pos
                        if not buffer:
                            self._char_start = bpos - offs
                        buffer.append(self._run_part(bpos, text_end))
                        offs = self._base + self._extra
                        na_pos = self._na_pos
                    expansion = entity_get(match[10])
                    if expansion is None:  # unknown name: slow path decides
                        self._bpos = text_end + 1
                        self._consume_char_ref(self._data_state)
                        bpos = self._bpos
                        offs = self._base + self._extra
                        buffer = self._char_buffer
                        break  # restart the scan iterator at the new bpos
                    if not buffer:
                        # the state machine starts the char run *after* the
                        # reference is consumed (offset of its last char)
                        self._char_start = end - offs - 1
                    buffer.append(expansion)
                    bpos = end
                    continue
                # ----- no construct: a text run, then (next iteration, as
                # a zero-width match) the break byte or EOF it stopped at
                if text_end > bpos:
                    self._na_pos = na_pos
                    if not buffer:
                        self._char_start = bpos - offs
                    buffer.append(self._run_part(bpos, text_end))
                    offs = self._base + self._extra
                    na_pos = self._na_pos
                    bpos = text_end
                    continue
                if bpos >= length:
                    self._bpos = bpos + 1
                    self._na_pos = na_pos
                    self._emit_eof()
                    return
                byte = data[bpos]
                self._bpos = bpos + 1
                if byte == 0x3C:  # "<": try a whole comment, else slow path
                    comment = comment_match(data, bpos)
                    if comment is not None:
                        src.decoded += comment.end(1) - comment.start(1)
                        if buffer:
                            character = new(character_cls)
                            character.offset = self._char_start
                            if len(buffer) == 1 and buffer[0].__class__ is str:
                                character._data = buffer[0]
                                character._parts = None
                            else:
                                character._data = None
                                character._parts = buffer
                            append(character)
                            buffer = self._char_buffer = []
                        append(Comment(bpos - offs, comment[1].decode("ascii")))
                        bpos = comment.end()
                        break  # restart the scan iterator past the comment
                    doctype = doctype_match(data, bpos)
                    if doctype is not None:
                        if buffer:
                            character = new(character_cls)
                            character.offset = self._char_start
                            if len(buffer) == 1 and buffer[0].__class__ is str:
                                character._data = buffer[0]
                                character._parts = None
                            else:
                                character._data = None
                                character._parts = buffer
                            append(character)
                            buffer = self._char_buffer = []
                        append(
                            Doctype(
                                offset=doctype.start(1) - offs, name="html"
                            )
                        )
                        bpos = doctype.end()
                        break  # restart the scan iterator past the doctype
                    self._tag_start_offset = bpos - offs
                    self._state = self._tag_open_state
                    self._na_pos = na_pos
                    return
                if byte == 0x26:  # "&": numeric/legacy/bare reference
                    self._consume_char_ref(self._data_state)
                    bpos = self._bpos
                    offs = self._base + self._extra
                    buffer = self._char_buffer
                    break  # restart the scan iterator at the new bpos
                # "\x00" — the only remaining break byte; the iterator's
                # own zero-width bump advances exactly one byte with us
                self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
                if not buffer:
                    self._char_start = bpos - offs
                buffer.append("\x00")
                bpos += 1
        self._bpos = bpos + 1
        self._na_pos = na_pos
        self._emit_eof()

    @staticmethod
    def _probe_attr_region(data: bytes, start: int, end: int) -> bool:
        """True when the region can defer: no glued attribute, no duplicate
        (case-insensitive) name — i.e. materialization cannot owe errors.

        The first attribute's separator is guaranteed non-empty (the master
        pattern only enters a region with whitespace, and the quoted-value
        lookbehind cannot fire at the region start), so a region holding
        exactly one attribute — the common case by far — defers with a
        single match call.
        """
        first = _RE_FAST_ATTR_B.match(data, start, end)
        if first is None or first.end() == end:
            return True
        return BytesTokenizer._probe_attr_rest(data, first, end)

    @staticmethod
    def _probe_attr_rest(data: bytes, first: re.Match[bytes], end: int) -> bool:
        """The multi-attribute half of :meth:`_probe_attr_region`, resuming
        after an already-matched ``first`` attribute."""
        # bytes.lower() is exactly ASCII-lower; the islower() guard skips
        # the copy for the (overwhelmingly common) already-lowercase names
        name = first[2]
        seen = {name if name.islower() else name.lower()}
        for match in _RE_FAST_ATTR_B.finditer(data, first.end(), end):
            if not match[1]:
                return False
            name = match[2]
            if not name.islower():
                name = name.lower()
            if name in seen:
                return False
            seen.add(name)
        return True

    def _parse_attributes(self, tag: StartTag, start: int, end: int, offs: int) -> None:
        """Eager region parse, matching the state machine's error sequence:
        a duplicate is reported when the *next* attribute starts (after its
        own missing-whitespace error) or the tag ends, so each report is
        deferred by one attribute."""
        data = self._src.data
        self._src.decoded += end - start
        attrs = tag.attributes
        seen: set[str] = set()
        pending_dup: tuple[str, int] | None = None
        for match in _RE_FAST_ATTR_B.finditer(data, start, end):
            name_start = match.start(2) - offs
            glued = match.start(1) == match.start(2)
            if glued:
                self._error(
                    ErrorCode.MISSING_WHITESPACE_BETWEEN_ATTRIBUTES,
                    offset=name_start + 1,
                )
            if pending_dup is not None:
                self._error(
                    ErrorCode.DUPLICATE_ATTRIBUTE,
                    detail=pending_dup[0],
                    offset=pending_dup[1],
                )
                pending_dup = None
            value_b = match[3]
            if value_b is None:
                value = ""
            else:
                if value_b[0] in (0x22, 0x27):
                    value_b = value_b[1:-1]
                value = value_b.decode("ascii")
            raw = match[2]
            attr_name = _ATTR_NAMES.get(raw) or _intern_name(_ATTR_NAMES, raw)
            attr = object.__new__(Attribute)
            attr.name = attr_name
            attr.value = value
            attr.offset = name_start
            attr.duplicate = False
            attr.preceded_by_solidus = False
            attr.missing_preceding_space = glued
            if attr_name in seen:
                attr.duplicate = True
                pending_dup = (attr_name, name_start)
            else:
                seen.add(attr_name)
            attrs.append(attr)
        if pending_dup is not None:
            self._error(
                ErrorCode.DUPLICATE_ATTRIBUTE,
                detail=pending_dup[0],
                offset=pending_dup[1],
            )

    # ------------------------------------------------------- text-ish states

    def _rcdata_state(self) -> None:
        char = self._scan_run_b(_RUN_RCDATA_B)
        if char is None:
            self._emit_eof()
        elif char == "&":
            self._consume_char_ref(self._rcdata_state)
        elif char == "<":
            self._state = self._rcdata_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)

    def _rawtext_state(self) -> None:
        char = self._scan_run_b(_RUN_RAWTEXT_B)
        if char is None:
            self._emit_eof()
        elif char == "<":
            self._state = self._rawtext_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)

    def _script_data_state(self) -> None:
        char = self._scan_run_b(_RUN_SCRIPT_DATA_B)
        if char is None:
            self._emit_eof()
        elif char == "<":
            self._state = self._script_data_less_than_state
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)

    def _plaintext_state(self) -> None:
        char = self._scan_run_b(_RUN_PLAINTEXT_B)
        if char is None:
            self._emit_eof()
        elif char == "\x00":
            self._error(ErrorCode.UNEXPECTED_NULL_CHARACTER)
            self._emit_char(_REPLACEMENT)

    def _script_data_escaped_state(self) -> None:
        char = self._scan_run_b(_RUN_SCRIPT_ESCAPED_B)
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

    def _script_data_double_escaped_state(self) -> None:
        char = self._scan_run_b(_RUN_SCRIPT_DOUBLE_ESCAPED_B)
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

    # ------------------------------------------------------------ tag states

    def _tag_name_state(self) -> None:
        tag = self._current_tag
        assert tag is not None
        data = self._src.data
        while True:
            match = _RUN_TAG_NAME_B.match(data, self._bpos)
            if match is not None:
                tag.name += self._run_text(match.start(), match.end()).translate(
                    _TO_ASCII_LOWER
                )
                self._bpos = match.end()
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_TAG)
                self._emit_eof()
                return
            if char in "\t\n\f ":
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

    def _attribute_name_state(self) -> None:
        attr = self._current_attr
        assert attr is not None
        data = self._src.data
        while True:
            match = _RUN_ATTR_NAME_B.match(data, self._bpos)
            if match is not None:
                attr.name += self._run_text(match.start(), match.end()).translate(
                    _TO_ASCII_LOWER
                )
                self._bpos = match.end()
            char = self._next()
            if char is None or char in "/>" or char in "\t\n\f ":
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

    def _attribute_value_double_state(self) -> None:
        self._quoted_value_bytes(
            '"', _RUN_ATTR_VALUE_DOUBLE_B, self._attribute_value_double_state
        )

    def _attribute_value_single_state(self) -> None:
        self._quoted_value_bytes(
            "'", _RUN_ATTR_VALUE_SINGLE_B, self._attribute_value_single_state
        )

    def _quoted_value_bytes(self, quote: str, run: re.Pattern[bytes], state) -> None:
        attr = self._current_attr
        assert attr is not None
        data = self._src.data
        while True:
            match = run.match(data, self._bpos)
            if match is not None:
                attr.value += self._run_text(match.start(), match.end())
                self._bpos = match.end()
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

    def _attribute_value_unquoted_state(self) -> None:
        attr = self._current_attr
        assert attr is not None
        data = self._src.data
        while True:
            match = _RUN_ATTR_VALUE_UNQUOTED_B.match(data, self._bpos)
            if match is not None:
                attr.value += self._run_text(match.start(), match.end())
                self._bpos = match.end()
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_TAG)
                self._emit_eof()
                return
            if char in "\t\n\f ":
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

    # -------------------------------------------------------------- comments

    def _comment_state(self) -> None:
        comment = self._current_comment
        assert comment is not None
        data = self._src.data
        while True:
            match = _RUN_COMMENT_B.match(data, self._bpos)
            if match is not None:
                comment.data += self._run_text(match.start(), match.end())
                self._bpos = match.end()
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

    def _bogus_comment_state(self) -> None:
        comment = self._current_comment
        assert comment is not None
        data = self._src.data
        while True:
            match = _RUN_BOGUS_COMMENT_B.match(data, self._bpos)
            if match is not None:
                comment.data += self._run_text(match.start(), match.end())
                self._bpos = match.end()
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

    # --------------------------------------------------------------- doctype

    def _doctype_name_state(self) -> None:
        doctype = self._current_doctype
        assert doctype is not None
        data = self._src.data
        while True:
            match = _RUN_DOCTYPE_NAME_B.match(data, self._bpos)
            if match is not None:
                doctype.name += self._run_text(match.start(), match.end()).translate(
                    _TO_ASCII_LOWER
                )
                self._bpos = match.end()
            char = self._next()
            if char is None:
                self._error(ErrorCode.EOF_IN_DOCTYPE)
                doctype.force_quirks = True
                self._emit(doctype)
                self._current_doctype = None
                self._emit_eof()
                return
            if char in "\t\n\f ":
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

    def _bogus_doctype_state(self) -> None:
        data = self._src.data
        while True:
            match = _RUN_BOGUS_DOCTYPE_B.match(data, self._bpos)
            if match is not None:
                # content is discarded wholesale (spec 13.2.5.68), but the
                # bytes must still be validated and width-accounted
                self._skip_run(match.start(), match.end())
                self._bpos = match.end()
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
            char = self._scan_run_b(_RUN_CDATA_B)
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

    # ------------------------------------------------------------- reporting

    @property
    def decoded_bytes(self) -> int:
        """Input bytes materialized as str so far (lazy spans count on read)."""
        return self._src.decoded

    @property
    def input_bytes(self) -> int:
        """Document payload size in bytes (after BOM skip / CR normalization)."""
        return self._src.payload_length()


#: the chunked states this class re-implements over bytes; compared against
#: ``CHUNK_BREAK_SETS`` by the tier-1 equivalence test and the staticcheck
#: ``state-machine`` pass, so a declared state cannot silently fall back to
#: the inherited per-character loop.
BYTES_OVERRIDES: frozenset[str] = frozenset(
    name
    for name in vars(BytesTokenizer)
    if name.endswith("_state") and not name.startswith("__")
)


def tokenize_bytes(data: bytes) -> tuple[list[Token], list[ParseError]]:
    """Tokenize raw UTF-8 ``data`` fully in the data state.

    The bytes twin of :func:`repro.html.tokenizer.tokenize`; raises
    :class:`UnicodeDecodeError` when ``data`` is not valid UTF-8.
    """
    tokenizer = BytesTokenizer(data)
    try:
        tokens = list(tokenizer)
    finally:
        # the states are bound methods, i.e. self-references: drop them so
        # the tokenizer dies by reference counting (as TreeBuilder._run does)
        tokenizer._state = tokenizer._return_state = None
    return tokens, tokenizer.errors


__all__ = [
    "BytesTokenizer",
    "BYTES_OVERRIDES",
    "UTF8_BOM",
    "tokenize_bytes",
]
