"""HTML tree construction (HTML Living Standard section 13.2.6).

A from-scratch implementation of the WHATWG tree-construction stage: the
insertion-mode state machine, the stack of open elements, the list of active
formatting elements (with the Noah's Ark clause and the adoption agency
algorithm), foster parenting for misplaced table content, head/body
inference, the form element pointer, and foreign (SVG/MathML) content with
integration points.

Beyond building the DOM, the builder is *instrumented*: every error-tolerant
fix-up the spec performs is recorded as a :class:`TreeEvent`.  The paper's
"Definition Violations" (DE1/DE2/DE4, DM1/DM2, HF1–HF5) are precisely these
fix-ups, so the violation rules in :mod:`repro.core.rules` read this event
stream rather than re-deriving parser behaviour.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .arena import KIND_ELEMENT, DomArena
from .dom import (
    HTML_NAMESPACE,
    MATHML_NAMESPACE,
    SVG_NAMESPACE,
    CommentNode,
    Document,
    DocumentFragment,
    DocumentType,
    Element,
    Node,
    Text,
)
from .errors import ErrorCode, ParseError
from .bytes_tokenizer import BytesTokenizer
from .preprocessor import encode_text
from .quirks import quirks_mode_for
from .tokenizer import (
    DATA,
    PLAINTEXT,
    RAWTEXT,
    RCDATA,
    SCRIPT_DATA,
    Tokenizer,
)
from .tokens import (
    EOF,
    Character,
    Comment,
    Doctype,
    EndTag,
    StartTag,
    Token,
)

_WS = "\t\n\f\r "

#: raw allocator for the inlined element construction in insert_element
_new_element = object.__new__

# --------------------------------------------------------------- element sets

#: "Special" elements (spec 13.2.4.2) — abridged to HTML-namespace names plus
#: the foreign integration-point elements, which are checked by namespace.
SPECIAL_ELEMENTS = frozenset(
    {
        "address", "applet", "area", "article", "aside", "base", "basefont",
        "bgsound", "blockquote", "body", "br", "button", "caption", "center",
        "col", "colgroup", "dd", "details", "dir", "div", "dl", "dt", "embed",
        "fieldset", "figcaption", "figure", "footer", "form", "frame",
        "frameset", "h1", "h2", "h3", "h4", "h5", "h6", "head", "header",
        "hgroup", "hr", "html", "iframe", "img", "input", "keygen", "li",
        "link", "listing", "main", "marquee", "menu", "meta", "nav",
        "noembed", "noframes", "noscript", "object", "ol", "p", "param",
        "plaintext", "pre", "script", "section", "select", "source", "style",
        "summary", "table", "tbody", "td", "template", "textarea", "tfoot",
        "th", "thead", "title", "tr", "track", "ul", "wbr", "xmp",
    }
)

FORMATTING_ELEMENTS = frozenset(
    {"a", "b", "big", "code", "em", "font", "i", "nobr", "s", "small",
     "strike", "strong", "tt", "u"}
)

HEADING_ELEMENTS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

IMPLIED_END_TAGS = frozenset(
    {"dd", "dt", "li", "optgroup", "option", "p", "rb", "rp", "rt", "rtc"}
)

#: Elements allowed as children of ``head`` per the content model (4.2.1).
HEAD_ALLOWED = frozenset(
    {"base", "basefont", "bgsound", "link", "meta", "noscript", "script",
     "style", "template", "title", "noframes"}
)

#: Tags at EOF that do NOT constitute an unclosed-element parse error
#: (spec: the "in body" EOF step 1 list).
EOF_TOLERATED_OPEN = frozenset(
    {"dd", "dt", "li", "optgroup", "option", "p", "rb", "rp", "rt", "rtc",
     "tbody", "td", "tfoot", "th", "thead", "tr", "body", "html"}
)

#: HTML elements that break out of foreign content (spec 13.2.6.5).
FOREIGN_BREAKOUT = frozenset(
    {"b", "big", "blockquote", "body", "br", "center", "code", "dd", "div",
     "dl", "dt", "em", "embed", "h1", "h2", "h3", "h4", "h5", "h6", "head",
     "hr", "i", "img", "li", "listing", "menu", "meta", "nobr", "ol", "p",
     "pre", "ruby", "s", "small", "span", "strong", "strike", "sub", "sup",
     "table", "tt", "u", "ul", "var"}
)

#: MathML text integration point elements.
MATHML_TEXT_INTEGRATION = frozenset({"mi", "mo", "mn", "ms", "mtext"})

#: SVG elements that are HTML integration points.
SVG_HTML_INTEGRATION = frozenset({"foreignObject", "desc", "title"})

#: SVG tag-name case fix-ups (spec 13.2.6.5 table, abridged to common names).
SVG_TAG_ADJUSTMENTS = {
    "altglyph": "altGlyph", "altglyphdef": "altGlyphDef",
    "altglyphitem": "altGlyphItem", "animatecolor": "animateColor",
    "animatemotion": "animateMotion", "animatetransform": "animateTransform",
    "clippath": "clipPath", "feblend": "feBlend",
    "fecolormatrix": "feColorMatrix", "fecomponenttransfer": "feComponentTransfer",
    "fecomposite": "feComposite", "feconvolvematrix": "feConvolveMatrix",
    "fediffuselighting": "feDiffuseLighting",
    "fedisplacementmap": "feDisplacementMap", "fedistantlight": "feDistantLight",
    "fedropshadow": "feDropShadow", "feflood": "feFlood",
    "fefunca": "feFuncA", "fefuncb": "feFuncB", "fefuncg": "feFuncG",
    "fefuncr": "feFuncR", "fegaussianblur": "feGaussianBlur",
    "feimage": "feImage", "femerge": "feMerge", "femergenode": "feMergeNode",
    "femorphology": "feMorphology", "feoffset": "feOffset",
    "fepointlight": "fePointLight", "fespecularlighting": "feSpecularLighting",
    "fespotlight": "feSpotLight", "fetile": "feTile",
    "feturbulence": "feTurbulence", "foreignobject": "foreignObject",
    "glyphref": "glyphRef", "lineargradient": "linearGradient",
    "radialgradient": "radialGradient", "textpath": "textPath",
}

#: Attributes adjusted in foreign content (xlink:href etc. kept verbatim —
#: we store the adjusted names as plain strings since our DOM is flat).
FOREIGN_ATTR_ADJUSTMENTS = {
    "xlink:actuate", "xlink:arcrole", "xlink:href", "xlink:role",
    "xlink:show", "xlink:title", "xlink:type", "xml:lang", "xml:space",
    "xmlns", "xmlns:xlink",
}

SCOPE_DEFAULT = frozenset(
    {"applet", "caption", "html", "table", "td", "th", "marquee", "object",
     "template"}
)
SCOPE_LIST_ITEM = SCOPE_DEFAULT | {"ol", "ul"}
SCOPE_BUTTON = SCOPE_DEFAULT | {"button"}
SCOPE_TABLE = frozenset({"html", "table", "template"})

_FOREIGN_SCOPE_EXTRAS = {
    (MATHML_NAMESPACE, name) for name in
    ("mi", "mo", "mn", "ms", "mtext", "annotation-xml")
} | {(SVG_NAMESPACE, name) for name in ("foreignObject", "desc", "title")}


# ------------------------------------------------------------------- events

@dataclass(frozen=True, slots=True)
class TreeEvent:
    """One error-tolerant fix-up performed by the tree builder.

    ``kind`` values (each maps onto one or more violation rules):

    - ``head-start-implied`` — no ``<head>`` tag in the source (HF1)
    - ``head-end-implied`` — head closed by a token other than ``</head>``;
      ``detail`` names the trigger (HF1)
    - ``disallowed-in-head`` — a non-head element appeared inside head (HF1)
    - ``head-element-after-head`` — base/link/meta/... seen after the head
      was closed and re-routed into it (HF1)
    - ``body-start-implied`` — body opened by a non-``<body>`` token (HF2);
      ``detail`` names the trigger
    - ``second-body-merged`` — a second ``<body>`` start tag merged (HF3)
    - ``second-html-merged`` — a second ``<html>`` start tag merged
    - ``foster-parented`` — content moved in front of a table (HF4)
    - ``foreign-breakout`` — an HTML element forced foreign content closed
      (HF5); ``namespace`` is the namespace broken out of
    - ``nested-form-ignored`` — form inside form dropped (DE4)
    - ``element-open-at-eof`` — an element requiring an end tag was still
      open at EOF (DE1, DE2)
    - ``rcdata-closed-at-eof`` — textarea/title closed by EOF (DE1)
    - ``doctype-misplaced`` — DOCTYPE token ignored outside initial mode
    """

    kind: str
    tag: str = ""
    namespace: str = HTML_NAMESPACE
    offset: int = -1
    detail: str = ""


class ParseResult:
    """Everything a violation rule might want from one parse.

    ``source`` is lazy: the bytes-domain parse hands a
    :class:`~repro.html.tokens.ByteSource` here, and the document text is
    decoded only when a rule (or the fused engine's offset slicing) first
    reads it — str-domain parses store the text eagerly as before.

    ``stream_elements`` is ``None`` for ordinary parses; a stream-mode
    parse (:class:`StreamTreeBuilder`) fills it with ``(element, in_head)``
    pairs in document pre-order, and the fused engine dispatches its tree
    rules over that flat list instead of walking ``document``.
    """

    __slots__ = (
        "document", "errors", "events", "tokens", "_source", "stream_elements"
    )

    def __init__(
        self,
        document: Document,
        errors: list[ParseError],
        events: list[TreeEvent],
        tokens: list[Token],
        source,
        stream_elements: "list | None" = None,
    ) -> None:
        self.document = document
        self.errors = errors
        self.events = events
        self.tokens = tokens
        self._source = source
        self.stream_elements = stream_elements

    @property
    def source(self) -> str:
        source = self._source
        if source.__class__ is not str:
            source = self._source = source.materialize_all()
        return source

    def release(self) -> None:
        """Free the tree now, by reference counting (DESIGN.md §3.14).

        The document's nodes and arena point at each other; this breaks
        that cycle, so the tree is unusable afterwards.  Only code that
        creates a parse and never hands it out may call it.
        """
        self.document._arena.unlink()

    def events_of(self, kind: str) -> list[TreeEvent]:
        return [event for event in self.events if event.kind == kind]

    def errors_of(self, code: ErrorCode) -> list[ParseError]:
        return [error for error in self.errors if error.code == code]

    def start_tags(self, name: str | None = None) -> list[StartTag]:
        return [
            token
            for token in self.tokens
            if isinstance(token, StartTag) and (name is None or token.name == name)
        ]


# --------------------------------------------------------------- tree builder

class TreeBuilder:
    """The tree-construction state machine.

    Simplifications relative to the full standard, none of which affect the
    violation checks (documented in DESIGN.md):

    - ``<template>`` children are appended to the template element itself
      rather than to a separate content DocumentFragment (the "in
      template" insertion-mode machinery is implemented; keeping the
      children in-tree lets the violation rules see template markup,
      which is what a measurement checker wants);
    - ``<isindex>`` and other long-obsolete token rewrites are omitted.

    Quirks-mode selection (full public-identifier tables, see
    :mod:`repro.html.quirks`), the "in template" and "in head noscript"
    insertion modes, and the adoption agency algorithm are implemented in
    full.
    """

    def __init__(self, *, fragment_context: Element | None = None) -> None:
        #: one arena backs every node this builder creates (DESIGN.md §3.14)
        self.arena = DomArena()
        self.document = Document(arena=self.arena)
        self.errors: list[ParseError] = []
        self.events: list[TreeEvent] = []
        self.tokens: list[Token] = []
        self.open_elements: list[Element] = []
        self.active_formatting: list[Element | None] = []  # None is a marker
        self._formatting_tokens: dict[int, StartTag] = {}
        self.head_element: Element | None = None
        self.form_element: Element | None = None
        self.frameset_ok = True
        self.foster_parenting = False
        self.ignore_next_lf = False
        self.mode = self._mode_initial
        self.original_mode = None
        #: stack of template insertion modes (spec 13.2.4.1)
        self.template_modes: list = []
        self._pending_table_text: list[Character] = []
        self.tokenizer: Tokenizer | None = None
        self.fragment_context = fragment_context
        self.scripting_enabled = False
        self._saw_explicit_head = False
        self._saw_explicit_body = False
        self._head_closed = False
        self._stopped = False
        #: mirror of "adjusted current node is in a foreign namespace";
        #: maintained by push/pop so token dispatch can skip the full
        #: ``_dispatch_mode`` integration-point analysis for the (vastly
        #: dominant) HTML-content case
        self._current_foreign = False
        #: filled by :class:`StreamTreeBuilder`; ``None`` for normal parses
        self._stream_elements: list | None = None
        #: open ``<head>`` count (maintained by StreamTreeBuilder push/pop;
        #: always 0 here) — read by the emission sites in insert_element
        self._head_depth = 0

    # ------------------------------------------------------- stream hooks
    #
    # No-op hooks on the cold paths whose tree mutations would break the
    # stream-mode pre-order emission invariant.  ``StreamTreeBuilder``
    # overrides them to raise :class:`StreamTaint`; keeping the call sites
    # in this class (rather than overriding whole insertion-mode methods)
    # matters because the in-body dispatch tables bind this class's
    # handler functions directly, bypassing virtual dispatch.

    def _stream_taint(self, reason: str) -> None:
        """A tree-reordering mutation is about to happen (cold paths only)."""

    def _stream_foster_check(self) -> None:
        """Fostering is active at an element insertion (cold path only)."""

    def _stream_emit_root(self, element: Element) -> None:
        """The root <html> element was appended outside insert_element."""

    # ------------------------------------------------------------- plumbing

    def parse_error(self, code: ErrorCode, token: Token | None = None, detail: str = "") -> None:
        offset = token.offset if token is not None else -1
        self.errors.append(ParseError(code, offset, detail))

    def event(
        self,
        kind: str,
        tag: str = "",
        namespace: str = HTML_NAMESPACE,
        offset: int = -1,
        detail: str = "",
    ) -> None:
        self.events.append(TreeEvent(kind, tag, namespace, offset, detail))

    @property
    def current_node(self) -> Element | None:
        return self.open_elements[-1] if self.open_elements else None

    @property
    def adjusted_current_node(self) -> Element | None:
        if (
            self.fragment_context is not None
            and len(self.open_elements) == 1
        ):
            return self.fragment_context
        return self.current_node

    def _update_foreign_flag(self) -> None:
        stack = self.open_elements
        if self.fragment_context is not None and len(stack) == 1:
            node = self.fragment_context
        else:
            node = stack[-1] if stack else None
        foreign = node is not None and node.namespace != HTML_NAMESPACE
        self._current_foreign = foreign
        tokenizer = self.tokenizer
        if tokenizer is not None:
            tokenizer.in_foreign_content = foreign

    # ------------------------------------------------------ stack and scopes

    def push(self, element: Element) -> None:
        self.open_elements.append(element)
        # name-only on purpose: the fused walk's head-region flag
        # propagates on ``node.name == "head"`` without a namespace
        # check, and the stream emission must reproduce it bit-for-bit
        if element.name == "head":
            self._head_depth += 1
        # pushing an HTML element while already in HTML content cannot
        # change the foreign flag, which covers almost every push
        if element.namespace != HTML_NAMESPACE or self._current_foreign:
            self._update_foreign_flag()

    def pop(self) -> Element:
        stack = self.open_elements
        element = stack.pop()
        if element.name == "head":
            self._head_depth -= 1
        # the flag can only change if we were in foreign content, the new
        # top is foreign, or the pop just exposed the fragment context
        if (
            self._current_foreign
            or not stack
            or stack[-1].namespace != HTML_NAMESPACE
            or (self.fragment_context is not None and len(stack) == 1)
        ):
            self._update_foreign_flag()
        return element

    def pop_until(self, *names: str) -> Element:
        while self.open_elements:
            element = self.pop()
            if element.name in names and element.is_html():
                return element
        raise AssertionError(f"pop_until missed {names}")  # pragma: no cover

    def element_in_scope(self, target: str, scope: frozenset[str] = SCOPE_DEFAULT) -> bool:
        # hot path: open_elements is nearly always all-HTML, so the
        # namespace test is hoisted and ``_is_scope_boundary`` inlined
        for element in reversed(self.open_elements):
            if element.namespace == HTML_NAMESPACE:
                name = element.name
                if name == target:
                    return True
                if name in scope:
                    return False
            elif scope is not SCOPE_TABLE and (
                element.namespace, element.name
            ) in _FOREIGN_SCOPE_EXTRAS:
                return False
        return False

    def _is_scope_boundary(self, element: Element, scope: frozenset[str]) -> bool:
        if scope is SCOPE_TABLE:
            return element.is_html() and element.name in scope
        if element.is_html():
            return element.name in scope
        return (element.namespace, element.name) in _FOREIGN_SCOPE_EXTRAS

    def element_in_select_scope(self, target: str) -> bool:
        for element in reversed(self.open_elements):
            if element.name == target and element.is_html():
                return True
            if not (element.is_html() and element.name in ("optgroup", "option")):
                return False
        return False

    def generate_implied_end_tags(self, exclude: str | None = None) -> None:
        stack = self.open_elements
        while stack:
            node = stack[-1]
            if (
                node.namespace != HTML_NAMESPACE
                or node.name not in IMPLIED_END_TAGS
                or node.name == exclude
            ):
                return
            self.pop()

    # -------------------------------------------------------------- insertion

    def appropriate_insertion_place(
        self, override: Element | None = None
    ) -> tuple[Node, Node | None]:
        target = override or self.current_node
        assert target is not None
        if self.foster_parenting and target.is_html() and target.name in (
            "table", "tbody", "tfoot", "thead", "tr"
        ):
            last_table: Element | None = None
            for element in reversed(self.open_elements):
                if element.name == "table" and element.is_html():
                    last_table = element
                    break
            if last_table is None:
                return self.open_elements[0], None
            if last_table.parent is not None:
                return last_table.parent, last_table
            index = self.open_elements.index(last_table)
            return self.open_elements[index - 1], None
        return target, None

    def create_element(self, token: StartTag, namespace: str = HTML_NAMESPACE) -> Element:
        # the attribute dict is deferred: the token rides in the view's
        # ``_attrs`` slot and ``Element.attributes`` builds the dict only
        # if something (a rule, the serializer, Noah's Ark) ever reads it
        # — most elements never have their attributes looked at
        element = Element(
            token.name, namespace=namespace,
            source_offset=token.offset,
            arena=self.arena,
        )
        if token._lazy is not None or token._attributes:
            element._attrs = token
        return element

    def insert_element(self, token: StartTag, namespace: str = HTML_NAMESPACE) -> Element:
        if not self.foster_parenting:
            # hot path, fully inlined: element allocation (object.__new__
            # plus direct slot/column writes — this is the single hottest
            # allocation site in the parser), the plain append at the
            # current node, and the push.  The attribute dict is deferred:
            # the token rides in the view's ``_attrs`` slot and
            # ``Element.attributes`` builds the dict only on first read.
            arena = self.arena
            element = _new_element(Element)
            element._arena = arena
            kinds = arena.kinds
            element._idx = idx = len(kinds)
            parent = self.open_elements[-1]
            kinds.append(KIND_ELEMENT)
            arena.names.append(token.name)
            arena.parents.append(parent)
            arena.children.append(None)
            element.name = token.name
            element.namespace = namespace
            element._attrs = (
                token if token._lazy is not None or token._attributes
                else None
            )
            element.source_offset = token.offset
            pidx = parent._idx
            lst = arena.children[pidx]
            if lst is None:
                arena.children[pidx] = [element]
            else:
                lst.append(element)
            # stream emission rides here (not in a subclass override) so
            # tag handlers bound into the dispatch tables still feed it;
            # in_head is parent-derived — captured before this push
            stream = self._stream_elements
            if stream is not None:
                stream.append((element, self._head_depth > 0))
            # inlined self.push(element)
            self.open_elements.append(element)
            if element.name == "head":
                self._head_depth += 1
            if namespace is not HTML_NAMESPACE or self._current_foreign:
                self._update_foreign_flag()
            return element
        element = self.create_element(token, namespace)
        self._stream_foster_check()
        parent, before = self.appropriate_insertion_place()
        parent.insert_before(element, before)
        stream = self._stream_elements
        if stream is not None:
            stream.append((element, self._head_depth > 0))
        self.push(element)
        return element

    def insert_html_element(self, token: StartTag) -> Element:
        return self.insert_element(token, HTML_NAMESPACE)

    def insert_phantom(self, name: str) -> Element:
        """Insert an element with no corresponding source tag."""
        element = Element(name, source_offset=-1, arena=self.arena)
        if self.foster_parenting:
            self._stream_foster_check()
        parent, before = self.appropriate_insertion_place()
        parent.insert_before(element, before)
        stream = self._stream_elements
        if stream is not None:
            stream.append((element, self._head_depth > 0))
        self.push(element)
        return element

    def insert_text(self, data: str) -> None:
        if not self.foster_parenting:
            # hot path: append-or-merge at the current node, skipping the
            # insertion-place analysis that only matters under fostering;
            # merges push a part onto the previous text node (the joined
            # string is materialized lazily on first read) and the links
            # are written straight into the arena columns
            arena = self.arena
            parent = self.open_elements[-1]
            pidx = parent._idx
            children = arena.children[pidx]
            if children:
                previous = children[-1]
                if type(previous) is Text:
                    previous.append_data(data)
                    return
                node = Text(data, arena=arena)
                arena.parents[node._idx] = parent
                children.append(node)
            else:
                node = Text(data, arena=arena)
                arena.parents[node._idx] = parent
                arena.children[pidx] = [node]
            return
        parent, before = self.appropriate_insertion_place()
        if before is not None:
            index = parent.children.index(before)
            previous = parent.children[index - 1] if index > 0 else None
        else:
            previous = parent.children[-1] if parent.children else None
        if isinstance(previous, Text):
            previous.append_data(data)
        else:
            parent.insert_before(Text(data, arena=self.arena), before)

    def insert_comment(self, token: Comment, parent: Node | None = None) -> None:
        node = CommentNode(token.data, arena=self.arena)
        if parent is not None:
            parent.append(node)
        else:
            where, before = self.appropriate_insertion_place()
            where.insert_before(node, before)

    # ------------------------------------------------- active formatting list

    def push_formatting(self, element: Element, token: StartTag) -> None:
        # Noah's Ark clause: at most three matching entries since the last
        # marker.
        matches = 0
        for index in range(len(self.active_formatting) - 1, -1, -1):
            entry = self.active_formatting[index]
            if entry is None:
                break
            if (
                entry.name == element.name
                and entry.namespace == element.namespace
                and entry.attributes == element.attributes
            ):
                matches += 1
                if matches == 3:
                    self.active_formatting.pop(index)
                    break
        self.active_formatting.append(element)
        self._formatting_tokens[id(element)] = token

    def insert_formatting_marker(self) -> None:
        self.active_formatting.append(None)

    def clear_formatting_to_marker(self) -> None:
        while self.active_formatting:
            entry = self.active_formatting.pop()
            if entry is None:
                break

    def reconstruct_active_formatting(self) -> None:
        if not self.active_formatting:
            return
        entry = self.active_formatting[-1]
        if entry is None or entry in self.open_elements:
            return
        index = len(self.active_formatting) - 1
        while index > 0:
            index -= 1
            entry = self.active_formatting[index]
            if entry is None or entry in self.open_elements:
                index += 1
                break
        while index < len(self.active_formatting):
            stale = self.active_formatting[index]
            assert stale is not None
            token = self._formatting_tokens.get(id(stale))
            clone_token = token if token is not None else StartTag(name=stale.name)
            element = self.insert_element(clone_token)
            self.active_formatting[index] = element
            if token is not None:
                self._formatting_tokens[id(element)] = token
            index += 1

    # ------------------------------------------------------------ public API

    def parse(self, text: str) -> ParseResult:
        """Parse str input with the bytes tokenizer (see :func:`parse`).

        The result equals the reference ``Tokenizer(preprocess(text).text)``
        parse after :func:`~repro.html.preprocessor.encode_text`'s U+FFFD
        substitution of surrogate code points.
        """
        return self.parse_bytes(encode_text(text))

    def parse_bytes(self, data: bytes) -> ParseResult:
        """Parse raw UTF-8 bytes through the decode-free tokenizer.

        Raises :class:`UnicodeDecodeError` on non-UTF-8 input (the paper's
        section 4.1 filter, discovered during the scan instead of upfront);
        for valid input the result is char-offset identical to
        ``parse(decode_bytes(data))``, with ``result.source`` decoded only
        on first access.
        """
        tokenizer = BytesTokenizer(data)
        return self._run(tokenizer, tokenizer._src)

    def _run(self, tokenizer: Tokenizer, source) -> ParseResult:
        self.tokenizer = tokenizer
        # drain the tokenizer queue directly rather than through its
        # generator __iter__ — same visit order, no generator resumption
        # per token on the hottest loop in the parser
        queue = tokenizer._queue
        popleft = queue.popleft
        append_token = self.tokens.append
        dispatch_mode = self._dispatch_mode
        try:
            while True:
                if queue:
                    token = popleft()
                elif tokenizer._done:
                    break
                else:
                    tokenizer._state()
                    continue
                append_token(token)
                # inlined process_token: one frame per token on the hot loop
                mode = dispatch_mode(token) if self._current_foreign else self.mode
                while mode(token):
                    mode = (
                        dispatch_mode(token)
                        if self._current_foreign else self.mode
                    )
                if self._stopped:
                    break
        except BaseException:
            # an aborted parse (the section 4.1 UnicodeDecodeError) never
            # reaches a caller, so its tree can be freed here
            self.arena.unlink()
            raise
        finally:
            # the insertion modes and tokenizer states are bound methods,
            # i.e. self-references: drop them so the builder and tokenizer
            # die by reference counting when the parse is done
            self.mode = self.original_mode = None
            self.template_modes.clear()
            tokenizer._state = tokenizer._return_state = None
        self.errors.extend(tokenizer.errors)
        self.errors.sort(key=lambda error: error.offset)
        return ParseResult(
            document=self.document,
            errors=self.errors,
            events=self.events,
            tokens=self.tokens,
            source=source,
            stream_elements=self._stream_elements,
        )

    # --------------------------------------------------------- token dispatch

    def process_token(self, token: Token) -> None:
        # _dispatch_mode only ever diverges from the insertion mode while
        # the adjusted current node is foreign (SVG/MathML); push/pop keep
        # _current_foreign tracking exactly that
        mode = self._dispatch_mode(token) if self._current_foreign else self.mode
        reprocess = True
        while reprocess:
            reprocess = mode(token)
            if reprocess:
                mode = (
                    self._dispatch_mode(token)
                    if self._current_foreign else self.mode
                )

    def _dispatch_mode(self, token: Token):
        node = self.adjusted_current_node
        if node is None or node.namespace == HTML_NAMESPACE:
            return self.mode
        if self._is_html_integration_point(node) and isinstance(
            token, (StartTag, Character)
        ):
            return self.mode
        if (
            node.namespace == MATHML_NAMESPACE
            and node.name in MATHML_TEXT_INTEGRATION
            and isinstance(token, (Character, StartTag))
            and (not isinstance(token, StartTag) or token.name not in ("mglyph", "malignmark"))
        ):
            return self.mode
        if (
            node.namespace == MATHML_NAMESPACE
            and node.name == "annotation-xml"
            and isinstance(token, StartTag)
            and token.name == "svg"
        ):
            return self.mode
        if isinstance(token, EOF):
            return self.mode
        return self._mode_foreign_content

    @staticmethod
    def _is_html_integration_point(element: Element) -> bool:
        if element.namespace == SVG_NAMESPACE and element.name in SVG_HTML_INTEGRATION:
            return True
        if element.namespace == MATHML_NAMESPACE and element.name == "annotation-xml":
            encoding = element.get("encoding", "")
            return encoding is not None and encoding.lower() in (
                "text/html", "application/xhtml+xml"
            )
        return False

    # ------------------------------------------------------- insertion modes

    def _mode_initial(self, token: Token) -> bool:
        if isinstance(token, Character):
            stripped = token.data.lstrip(_WS)
            if not stripped:
                return False
            token.data = stripped
            self.document.quirks_mode = True
            self.parse_error(ErrorCode.UNEXPECTED_TOKEN_IN_INITIAL_MODE, token)
            self.mode = self._mode_before_html
            return True
        if isinstance(token, Comment):
            self.insert_comment(token, self.document)
            return False
        if isinstance(token, Doctype):
            doctype = DocumentType(
                token.name, token.public_id or "", token.system_id or "",
                arena=self.arena,
            )
            self.document.append(doctype)
            self.document.doctype = doctype
            self.document.mode = quirks_mode_for(token)
            self.mode = self._mode_before_html
            return False
        self.document.quirks_mode = True
        self.parse_error(ErrorCode.UNEXPECTED_TOKEN_IN_INITIAL_MODE, token)
        self.mode = self._mode_before_html
        return True

    def _mode_before_html(self, token: Token) -> bool:
        if isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        if isinstance(token, Comment):
            self.insert_comment(token, self.document)
            return False
        if isinstance(token, Character):
            stripped = token.data.lstrip(_WS)
            if not stripped:
                return False
            token.data = stripped
        elif isinstance(token, StartTag) and token.name == "html":
            element = self.create_element(token)
            self.document.append(element)
            self._stream_emit_root(element)
            self.push(element)
            self.mode = self._mode_before_head
            return False
        elif isinstance(token, EndTag) and token.name not in (
            "head", "body", "html", "br"
        ):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        root = Element("html", source_offset=-1, arena=self.arena)
        self.document.append(root)
        self._stream_emit_root(root)
        self.push(root)
        self.mode = self._mode_before_head
        return True

    def _mode_before_head(self, token: Token) -> bool:
        if isinstance(token, Character):
            stripped = token.data.lstrip(_WS)
            if not stripped:
                return False
            token.data = stripped
        elif isinstance(token, Comment):
            self.insert_comment(token)
            return False
        elif isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        elif isinstance(token, StartTag):
            if token.name == "html":
                return self._mode_in_body(token)
            if token.name == "head":
                self.head_element = self.insert_element(token)
                self._saw_explicit_head = True
                self.mode = self._mode_in_head
                return False
        elif isinstance(token, EndTag) and token.name not in (
            "head", "body", "html", "br"
        ):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        self.head_element = self.insert_phantom("head")
        self.event("head-start-implied", offset=getattr(token, "offset", -1))
        self.mode = self._mode_in_head
        return True

    def _mode_in_head(self, token: Token) -> bool:
        cls = token.__class__
        if cls is Character:
            prefix, rest = _split_leading_ws(token.data)
            if prefix:
                self.insert_text(prefix)
            if not rest:
                return False
            token.data = rest
        elif cls is Comment:
            self.insert_comment(token)
            return False
        elif cls is Doctype:
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        elif cls is StartTag:
            name = token.name
            if name == "html":
                return self._mode_in_body(token)
            if name in ("base", "basefont", "bgsound", "link", "meta"):
                self.insert_element(token)
                self.pop()
                return False
            if name == "title":
                return self._parse_rcdata(token)
            if name in ("noframes", "style") or (
                name == "noscript" and self.scripting_enabled
            ):
                return self._parse_rawtext(token)
            if name == "noscript":
                self.insert_element(token)
                self.mode = self._mode_in_head_noscript
                return False
            if name == "script":
                return self._parse_script(token)
            if name == "template":
                self.insert_element(token)
                self.insert_formatting_marker()
                self.frameset_ok = False
                self.mode = self._mode_in_template
                self.template_modes.append(self._mode_in_template)
                return False
            if name == "head":
                self.parse_error(ErrorCode.SECOND_HEAD_START_TAG, token)
                return False
            # Anything else: the error-tolerant head break-out (HF1).
            self._close_head_implicitly(trigger=name, offset=token.offset)
            if name not in ("body", "frameset"):
                self.event(
                    "disallowed-in-head", tag=name, offset=token.offset
                )
            return True
        elif cls is EndTag:
            name = token.name
            if name == "head":
                popped = self.pop()
                assert popped.name == "head"
                self._head_closed = True
                self.mode = self._mode_after_head
                return False
            if name == "template":
                if any(
                    element.name == "template" for element in self.open_elements
                ):
                    self.generate_implied_end_tags()
                    if (
                        self.current_node is not None
                        and self.current_node.name != "template"
                    ):
                        self.parse_error(
                            ErrorCode.UNEXPECTED_END_TAG, token, name
                        )
                    self.pop_until("template")
                    self.clear_formatting_to_marker()
                    if self.template_modes:
                        self.template_modes.pop()
                    self.reset_insertion_mode()
                else:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return False
            if name == "noscript":
                if self.current_node is not None and self.current_node.name == "noscript":
                    self.pop()
                return False
            if name not in ("body", "html", "br"):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return False
        # "Anything else": pop head, reprocess in after-head.
        self._close_head_implicitly(
            trigger=_describe_token(token), offset=getattr(token, "offset", -1)
        )
        return True

    def _mode_in_head_noscript(self, token: Token) -> bool:
        """The "in head noscript" insertion mode (spec 13.2.6.4.5)."""
        if isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            return False
        if isinstance(token, Comment):
            return self._mode_in_head(token)
        if isinstance(token, Character):
            prefix, rest = _split_leading_ws(token.data)
            if prefix:
                self.insert_text(prefix)
            if not rest:
                return False
            token.data = rest
        elif isinstance(token, StartTag):
            name = token.name
            if name == "html":
                return self._mode_in_body(token)
            if name in ("basefont", "bgsound", "link", "meta", "noframes",
                        "style"):
                return self._mode_in_head(token)
            if name in ("head", "noscript"):
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                return False
        elif isinstance(token, EndTag):
            if token.name == "noscript":
                self.pop()
                self.mode = self._mode_in_head
                return False
            if token.name != "br":
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
        # Anything else: parse error, pop noscript, reprocess in head.
        self.parse_error(
            ErrorCode.UNEXPECTED_START_TAG
            if isinstance(token, StartTag)
            else ErrorCode.UNEXPECTED_END_TAG,
            token if isinstance(token, (StartTag, EndTag)) else None,
        )
        self.pop()
        self.mode = self._mode_in_head
        return True

    def _close_head_implicitly(self, trigger: str, offset: int) -> None:
        while self.current_node is not None and self.current_node.name != "head":
            self.pop()
        if self.open_elements:
            self.pop()
        self._head_closed = True
        self.event("head-end-implied", detail=trigger, offset=offset)
        self.mode = self._mode_after_head

    def _mode_after_head(self, token: Token) -> bool:
        if isinstance(token, Character):
            prefix, rest = _split_leading_ws(token.data)
            if prefix:
                self.insert_text(prefix)
            if not rest:
                return False
            token.data = rest
        elif isinstance(token, Comment):
            self.insert_comment(token)
            return False
        elif isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        elif isinstance(token, StartTag):
            name = token.name
            if name == "html":
                return self._mode_in_body(token)
            if name == "body":
                self.insert_element(token)
                self._saw_explicit_body = True
                self.frameset_ok = False
                self.mode = self._mode_in_body
                return False
            if name == "frameset":
                self.insert_element(token)
                self.mode = self._mode_in_frameset
                return False
            if name in HEAD_ALLOWED and name != "noscript":
                # Head element after the head: re-route into head (HF1).
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                self.event(
                    "head-element-after-head", tag=name, offset=token.offset
                )
                assert self.head_element is not None
                # inserting back into the closed <head> breaks pre-order
                self._stream_taint("head-element-after-head")
                self.push(self.head_element)
                self._mode_in_head(token)
                if self.head_element in self.open_elements:
                    self.open_elements.remove(self.head_element)
                    self._update_foreign_flag()
                return False
            if name == "head":
                self.parse_error(ErrorCode.SECOND_HEAD_START_TAG, token)
                return False
        elif isinstance(token, EndTag) and token.name not in (
            "body", "html", "br"
        ):
            if token.name == "template":
                return self._mode_in_head(token)
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        # Anything else: implied <body> (HF2).
        self.insert_phantom("body")
        self.event(
            "body-start-implied",
            detail=_describe_token(token),
            offset=getattr(token, "offset", -1),
        )
        self.mode = self._mode_in_body
        return True

    # ------------------------------------------------------------- in body

    def _mode_in_body(self, token: Token) -> bool:
        # ordered by token frequency: characters and tags dominate real
        # documents, comments/doctypes/EOF are rare.  Token classes are
        # leaves (nothing subclasses them), so exact-class checks replace
        # isinstance, and the start/end tag table dispatch is inlined to
        # drop one frame per tag token.
        cls = token.__class__
        if cls is Character:
            return self._in_body_character(token)
        if cls is StartTag:
            handler = _IN_BODY_START.get(token.name)
            if handler is None:
                return self._ibs_any(token)
            return handler(self, token)
        if cls is EndTag:
            name = token.name
            stack = self.open_elements
            if stack:
                # an end tag that closes the current node pops it directly:
                # each bypassed handler would pass its scope check at the
                # first stack entry, imply no end tags, report no error and
                # pop exactly this node (see _IN_BODY_END_HANDLER_ONLY)
                node = stack[-1]
                if (
                    node.name == name
                    and node.namespace == HTML_NAMESPACE
                    and name not in _IN_BODY_END_HANDLER_ONLY
                ):
                    if name not in FORMATTING_ELEMENTS:
                        self.pop()
                        return False
                    formatting = self.active_formatting
                    if formatting and formatting[-1] is node:
                        # the adoption agency's no-furthest-block exit
                        formatting.pop()
                        self.pop()
                        return False
            handler = _IN_BODY_END.get(name)
            if handler is None:
                return self._any_other_end_tag(token)
            return handler(self, token)
        if cls is Comment:
            self.insert_comment(token)
            return False
        if cls is Doctype:
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        assert cls is EOF
        return self._in_body_eof(token)

    def _in_body_character(self, token: Character) -> bool:
        # fast path: no pending-newline suppression and no NUL in the run
        # (checked decode-free on the byte spans) — the token itself is
        # handed to insert_text, so clean text never materializes here
        if not self.ignore_next_lf and not token.has_nul():
            if self.active_formatting:
                self.reconstruct_active_formatting()
            self.insert_text(token)
            if self.frameset_ok and not token.is_whitespace():
                self.frameset_ok = False
            return False
        data = token.data
        if self.ignore_next_lf:
            self.ignore_next_lf = False
            if data.startswith("\n"):
                data = data[1:]
                if not data:
                    return False
        if "\x00" in data:
            data = data.replace("\x00", "")
            if not data:
                return False
        self.reconstruct_active_formatting()
        self.insert_text(data)
        if data.strip(_WS):
            self.frameset_ok = False
        return False

    def _in_body_eof(self, token: EOF) -> bool:
        if self.template_modes:
            return self._mode_in_template(token)
        for element in self.open_elements:
            if element.is_html() and element.name not in EOF_TOLERATED_OPEN:
                self.parse_error(
                    ErrorCode.EOF_WITH_UNCLOSED_ELEMENTS, token, element.name
                )
            if element.is_html() and element.name not in ("body", "html"):
                self.event(
                    "element-open-at-eof",
                    tag=element.name,
                    offset=element.source_offset,
                )
        self._stopped = True
        return False

    # ----------------------------------------------- in-body start tags
    #
    # The "in body" start-tag rules dispatch through the module-level
    # ``_IN_BODY_START`` table (tag name -> handler) built after the class
    # body: one dict hit replaces the spec's ~30-branch comparison chain,
    # which profiling showed as the hottest dispatch site in the tree
    # machine.  Each handler transcribes one spec branch verbatim.

    def _in_body_start_tag(self, token: StartTag) -> bool:
        handler = _IN_BODY_START.get(token.name)
        if handler is None:
            return self._ibs_any(token)
        return handler(self, token)

    def _ibs_html(self, token: StartTag) -> bool:
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, "html")
        self.event("second-html-merged", offset=token.offset)
        if self.open_elements:
            root = self.open_elements[0]
            for attr in token.visible_attributes():
                root.attributes.setdefault(attr.name, attr.value)
        return False

    def _ibs_in_head(self, token: StartTag) -> bool:
        return self._mode_in_head(token)

    def _ibs_body(self, token: StartTag) -> bool:
        self.parse_error(ErrorCode.SECOND_BODY_START_TAG, token)
        self.event("second-body-merged", offset=token.offset)
        if len(self.open_elements) > 1:
            body = self.open_elements[1]
            if body.name == "body":
                self.frameset_ok = False
                for attr in token.visible_attributes():
                    body.attributes.setdefault(attr.name, attr.value)
        return False

    def _ibs_frameset(self, token: StartTag) -> bool:
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
        if self.frameset_ok and len(self.open_elements) > 1:
            # the already-emitted <body> is about to leave the tree, so a
            # stream parse can no longer mirror the final DOM walk
            self._stream_taint("frameset-takeover")
            body = self.open_elements[1]
            if body.parent is not None:
                body.parent.remove(body)
            while len(self.open_elements) > 1:
                self.pop()
            self.insert_element(token)
            self.mode = self._mode_in_frameset
        return False

    def _ibs_block(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        return False

    def _ibs_heading(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        if (
            self.current_node is not None
            and self.current_node.name in HEADING_ELEMENTS
        ):
            self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
            self.pop()
        self.insert_element(token)
        return False

    def _ibs_pre(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        self.ignore_next_lf = True
        self.frameset_ok = False
        return False

    def _ibs_form(self, token: StartTag) -> bool:
        if self.form_element is not None:
            self.parse_error(ErrorCode.UNEXPECTED_FORM_IN_FORM, token)
            self.event("nested-form-ignored", offset=token.offset)
            return False
        self._close_p_if_in_button_scope()
        element = self.insert_element(token)
        self.form_element = element
        return False

    def _ibs_li(self, token: StartTag) -> bool:
        self.frameset_ok = False
        for element in reversed(self.open_elements):
            if element.name == "li" and element.is_html():
                self.generate_implied_end_tags(exclude="li")
                self.pop_until("li")
                break
            if (
                element.is_html()
                and element.name in SPECIAL_ELEMENTS
                and element.name not in ("address", "div", "p")
            ):
                break
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        return False

    def _ibs_dd_dt(self, token: StartTag) -> bool:
        self.frameset_ok = False
        for element in reversed(self.open_elements):
            if element.name in ("dd", "dt") and element.is_html():
                self.generate_implied_end_tags(exclude=element.name)
                self.pop_until("dd", "dt")
                break
            if (
                element.is_html()
                and element.name in SPECIAL_ELEMENTS
                and element.name not in ("address", "div", "p")
            ):
                break
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        return False

    def _ibs_plaintext(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        assert self.tokenizer is not None
        self.tokenizer.switch_to(PLAINTEXT)
        return False

    def _ibs_button(self, token: StartTag) -> bool:
        if self.element_in_scope("button"):
            self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
            self.generate_implied_end_tags()
            self.pop_until("button")
        self.reconstruct_active_formatting()
        self.insert_element(token)
        self.frameset_ok = False
        return False

    def _ibs_a(self, token: StartTag) -> bool:
        for entry in reversed(self.active_formatting):
            if entry is None:
                break
            if entry.name == "a":
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, "a")
                self.adoption_agency(EndTag(name="a", offset=token.offset))
                if entry in self.active_formatting:
                    self.active_formatting.remove(entry)
                if entry in self.open_elements:
                    self.open_elements.remove(entry)
                    self._update_foreign_flag()
                break
        self.reconstruct_active_formatting()
        element = self.insert_element(token)
        self.push_formatting(element, token)
        return False

    def _ibs_formatting(self, token: StartTag) -> bool:
        if token.name == "nobr" and self.element_in_scope("nobr"):
            self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
            self.adoption_agency(EndTag(name="nobr", offset=token.offset))
            self.reconstruct_active_formatting()
        else:
            self.reconstruct_active_formatting()
        element = self.insert_element(token)
        self.push_formatting(element, token)
        return False

    def _ibs_applet(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self.insert_element(token)
        self.insert_formatting_marker()
        self.frameset_ok = False
        return False

    def _ibs_table(self, token: StartTag) -> bool:
        if not self.document.quirks_mode:
            self._close_p_if_in_button_scope()
        self.insert_element(token)
        self.frameset_ok = False
        self.mode = self._mode_in_table
        return False

    def _ibs_void(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self.insert_element(token)
        self.pop()
        self.frameset_ok = False
        return False

    def _ibs_input(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self.insert_element(token)
        self.pop()
        input_type = token.attr("type") or ""
        if input_type.lower() != "hidden":
            self.frameset_ok = False
        return False

    def _ibs_param(self, token: StartTag) -> bool:
        self.insert_element(token)
        self.pop()
        return False

    def _ibs_hr(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        self.insert_element(token)
        self.pop()
        self.frameset_ok = False
        return False

    def _ibs_image(self, token: StartTag) -> bool:
        # Spec: change it to "img" and reprocess ("don't ask").
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, "image")
        token.name = "img"
        return True

    def _ibs_textarea(self, token: StartTag) -> bool:
        self.insert_element(token)
        self.ignore_next_lf = True
        assert self.tokenizer is not None
        self.tokenizer.switch_to(RCDATA)
        self.original_mode = self.mode
        self.frameset_ok = False
        self.mode = self._mode_text
        return False

    def _ibs_xmp(self, token: StartTag) -> bool:
        self._close_p_if_in_button_scope()
        self.reconstruct_active_formatting()
        self.frameset_ok = False
        return self._parse_rawtext(token)

    def _ibs_iframe(self, token: StartTag) -> bool:
        self.frameset_ok = False
        return self._parse_rawtext(token)

    def _ibs_noembed(self, token: StartTag) -> bool:
        return self._parse_rawtext(token)

    def _ibs_noscript(self, token: StartTag) -> bool:
        if self.scripting_enabled:
            return self._parse_rawtext(token)
        return self._ibs_any(token)

    def _ibs_select(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self.insert_element(token)
        self.frameset_ok = False
        if self.mode in (
            self._mode_in_table, self._mode_in_caption,
            self._mode_in_table_body, self._mode_in_row, self._mode_in_cell,
        ):
            self.mode = self._mode_in_select_in_table
        else:
            self.mode = self._mode_in_select
        return False

    def _ibs_option(self, token: StartTag) -> bool:
        if self.current_node is not None and self.current_node.name == "option":
            self.pop()
        self.reconstruct_active_formatting()
        self.insert_element(token)
        return False

    def _ibs_rb(self, token: StartTag) -> bool:
        if self.element_in_scope("ruby"):
            self.generate_implied_end_tags()
        self.insert_element(token)
        return False

    def _ibs_rp(self, token: StartTag) -> bool:
        if self.element_in_scope("ruby"):
            self.generate_implied_end_tags(exclude="rtc")
        self.insert_element(token)
        return False

    def _ibs_math(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self._adjust_foreign_attributes(token)
        self.insert_element(token, MATHML_NAMESPACE)
        if token.self_closing:
            self.pop()
        return False

    def _ibs_svg(self, token: StartTag) -> bool:
        self.reconstruct_active_formatting()
        self._adjust_foreign_attributes(token)
        self.insert_element(token, SVG_NAMESPACE)
        if token.self_closing:
            self.pop()
        return False

    def _ibs_table_misplaced(self, token: StartTag) -> bool:
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
        return False

    def _ibs_any(self, token: StartTag) -> bool:
        if self.active_formatting:
            self.reconstruct_active_formatting()
        self.insert_element(token)
        if token.self_closing:
            self.parse_error(
                ErrorCode.NON_VOID_ELEMENT_START_TAG_WITH_TRAILING_SOLIDUS,
                token,
                token.name,
            )
        return False

    # ------------------------------------------------- in-body end tags
    #
    # Same table-dispatch scheme as the start tags: ``_IN_BODY_END`` maps
    # tag name -> handler, the default falls through to the spec's "any
    # other end tag" loop (shared with the foreign-content path).

    def _in_body_end_tag(self, token: EndTag) -> bool:
        handler = _IN_BODY_END.get(token.name)
        if handler is None:
            self._any_other_end_tag(token)
            return False
        return handler(self, token)

    def _ibe_body(self, token: EndTag) -> bool:
        if not self.element_in_scope("body"):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        self.mode = self._mode_after_body
        return False

    def _ibe_html(self, token: EndTag) -> bool:
        if not self.element_in_scope("body"):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        self.mode = self._mode_after_body
        return True

    def _ibe_block(self, token: EndTag) -> bool:
        name = token.name
        if not self.element_in_scope(name):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags()
        if self.current_node is not None and self.current_node.name != name:
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        self.pop_until(name)
        return False

    def _ibe_form(self, token: EndTag) -> bool:
        name = token.name
        node = self.form_element
        self.form_element = None
        if node is None or not self.element_in_scope("form"):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags()
        if self.current_node is not node:
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        if node in self.open_elements:
            self.open_elements.remove(node)
            self._update_foreign_flag()
        return False

    def _ibe_p(self, token: EndTag) -> bool:
        if not self.element_in_scope("p", SCOPE_BUTTON):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            self.insert_phantom("p")
        self._close_p_element()
        return False

    def _ibe_li(self, token: EndTag) -> bool:
        name = token.name
        if not self.element_in_scope("li", SCOPE_LIST_ITEM):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags(exclude="li")
        if self.current_node is not None and self.current_node.name != "li":
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        self.pop_until("li")
        return False

    def _ibe_dd_dt(self, token: EndTag) -> bool:
        name = token.name
        if not self.element_in_scope(name):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags(exclude=name)
        if self.current_node is not None and self.current_node.name != name:
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        self.pop_until(name)
        return False

    def _ibe_heading(self, token: EndTag) -> bool:
        name = token.name
        if not any(
            self.element_in_scope(heading) for heading in HEADING_ELEMENTS
        ):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags()
        if self.current_node is not None and self.current_node.name != name:
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        self.pop_until(*HEADING_ELEMENTS)
        return False

    def _ibe_formatting(self, token: EndTag) -> bool:
        self.adoption_agency(token)
        return False

    def _ibe_applet(self, token: EndTag) -> bool:
        name = token.name
        if not self.element_in_scope(name):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        self.generate_implied_end_tags()
        if self.current_node is not None and self.current_node.name != name:
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
        self.pop_until(name)
        self.clear_formatting_to_marker()
        return False

    def _ibe_br(self, token: EndTag) -> bool:
        self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
        self._in_body_start_tag(StartTag(name="br", offset=token.offset))
        return False

    def _ibe_template(self, token: EndTag) -> bool:
        return self._mode_in_head(token)

    def _close_p_if_in_button_scope(self) -> None:
        if self.element_in_scope("p", SCOPE_BUTTON):
            self._close_p_element()

    def _close_p_element(self) -> None:
        self.generate_implied_end_tags(exclude="p")
        if self.current_node is not None and self.current_node.name != "p":
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, None, "p")
        if self.element_in_scope("p", SCOPE_BUTTON):
            self.pop_until("p")

    # --------------------------------------------------- adoption agency

    def adoption_agency(self, token: EndTag) -> None:
        """The adoption agency algorithm (spec 13.2.6.4.7, 'in body')."""
        subject = token.name
        current = self.current_node
        if (
            current is not None
            and current.is_html()
            and current.name == subject
            and current not in self.active_formatting
        ):
            self.pop()
            return
        for _ in range(8):  # outer loop
            formatting_element = None
            for entry in reversed(self.active_formatting):
                if entry is None:
                    break
                if entry.name == subject:
                    formatting_element = entry
                    break
            if formatting_element is None:
                # Act as "any other end tag".
                self._any_other_end_tag(token)
                return
            if formatting_element not in self.open_elements:
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, subject)
                self.active_formatting.remove(formatting_element)
                return
            if not self._element_in_scope_element(formatting_element):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, subject)
                return
            if formatting_element is not self.current_node:
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, subject)
            # Find the furthest block.
            stack_index = self.open_elements.index(formatting_element)
            furthest_block = None
            for element in self.open_elements[stack_index + 1 :]:
                if element.is_html() and element.name in SPECIAL_ELEMENTS:
                    furthest_block = element
                    break
            if furthest_block is None:
                while self.open_elements[-1] is not formatting_element:
                    self.pop()
                self.pop()
                self.active_formatting.remove(formatting_element)
                return
            # the furthest-block path re-parents already-emitted subtrees
            self._stream_taint("adoption-agency")
            common_ancestor = self.open_elements[stack_index - 1]
            bookmark = self.active_formatting.index(formatting_element)
            node = furthest_block
            last_node = furthest_block
            node_index = self.open_elements.index(node)
            inner_counter = 0
            while True:  # inner loop
                inner_counter += 1
                node_index -= 1
                node = self.open_elements[node_index]
                if node is formatting_element:
                    break
                if inner_counter > 3 and node in self.active_formatting:
                    self.active_formatting.remove(node)
                if node not in self.active_formatting:
                    # Removing index i leaves the element that was above node
                    # at i-1, which the next `node_index -= 1` lands on.
                    self.open_elements.pop(node_index)
                    continue
                clone = Element(
                    node.name, node.namespace, dict(node.attributes),
                    source_offset=node.source_offset, arena=self.arena,
                )
                formatting_index = self.active_formatting.index(node)
                self.active_formatting[formatting_index] = clone
                open_index = self.open_elements.index(node)
                self.open_elements[open_index] = clone
                node = clone
                if last_node is furthest_block:
                    bookmark = formatting_index + 1
                node.append(last_node)
                last_node = node
                node_index = open_index
            if last_node.parent is not None:
                last_node.parent.remove(last_node)
            if common_ancestor.is_html() and common_ancestor.name in (
                "table", "tbody", "tfoot", "thead", "tr"
            ):
                saved = self.foster_parenting
                self.foster_parenting = True
                parent, before = self.appropriate_insertion_place(common_ancestor)
                self.foster_parenting = saved
                parent.insert_before(last_node, before)
            else:
                common_ancestor.append(last_node)
            clone = Element(
                formatting_element.name,
                formatting_element.namespace,
                dict(formatting_element.attributes),
                source_offset=formatting_element.source_offset,
                arena=self.arena,
            )
            for child in list(furthest_block.children):
                clone.append(child)
            furthest_block.append(clone)
            self.active_formatting.remove(formatting_element)
            bookmark = min(bookmark, len(self.active_formatting))
            self.active_formatting.insert(bookmark, clone)
            self.open_elements.remove(formatting_element)
            self.open_elements.insert(
                self.open_elements.index(furthest_block) + 1, clone
            )
            self._update_foreign_flag()

    def _any_other_end_tag(self, token: EndTag) -> None:
        name = token.name
        for element in reversed(self.open_elements):
            if element.name == name and element.is_html():
                self.generate_implied_end_tags(exclude=name)
                if self.current_node is not element:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                while True:
                    popped = self.pop()
                    if popped is element:
                        break
                return
            if element.is_html() and element.name in SPECIAL_ELEMENTS:
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return

    def _element_in_scope_element(self, target: Element) -> bool:
        for element in reversed(self.open_elements):
            if element is target:
                return True
            if self._is_scope_boundary(element, SCOPE_DEFAULT):
                return False
        return False

    # ------------------------------------------------------------ text mode

    def _parse_rcdata(self, token: StartTag) -> bool:
        self.insert_element(token)
        assert self.tokenizer is not None
        self.tokenizer.switch_to(RCDATA)
        self.original_mode = self.mode
        self.mode = self._mode_text
        return False

    def _parse_rawtext(self, token: StartTag) -> bool:
        self.insert_element(token)
        assert self.tokenizer is not None
        self.tokenizer.switch_to(RAWTEXT)
        self.original_mode = self.mode
        self.mode = self._mode_text
        return False

    def _parse_script(self, token: StartTag) -> bool:
        self.insert_element(token)
        assert self.tokenizer is not None
        self.tokenizer.switch_to(SCRIPT_DATA)
        self.original_mode = self.mode
        self.mode = self._mode_text
        return False

    def _mode_text(self, token: Token) -> bool:
        if isinstance(token, Character):
            if not self.ignore_next_lf:
                # raw text runs (scripts, styles) are the largest character
                # tokens in real pages; hand the lazy token through so they
                # are never decoded unless something reads the DOM text
                self.insert_text(token)
                return False
            data = token.data
            self.ignore_next_lf = False
            if data.startswith("\n"):
                data = data[1:]
            if data:
                self.insert_text(data)
            return False
        if isinstance(token, EOF):
            element = self.current_node
            if element is not None:
                self.parse_error(
                    ErrorCode.EOF_WITH_UNCLOSED_ELEMENTS, token, element.name
                )
                self.event(
                    "rcdata-closed-at-eof",
                    tag=element.name,
                    offset=element.source_offset,
                )
                self.pop()
            assert self.original_mode is not None
            self.mode = self.original_mode
            return True
        assert isinstance(token, EndTag)
        self.pop()
        assert self.original_mode is not None
        self.mode = self.original_mode
        return False

    # ----------------------------------------------------------- table modes

    def _mode_in_table(self, token: Token) -> bool:
        if isinstance(token, Character):
            current = self.current_node
            if current is not None and current.is_html() and current.name in (
                "table", "tbody", "tfoot", "thead", "tr"
            ):
                self._pending_table_text = []
                self.original_mode = self.mode
                self.mode = self._mode_in_table_text
                return True
        elif isinstance(token, Comment):
            self.insert_comment(token)
            return False
        elif isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            self.event("doctype-misplaced", offset=token.offset)
            return False
        elif isinstance(token, StartTag):
            name = token.name
            if name == "caption":
                self._clear_table_stack_to(("table",))
                self.insert_formatting_marker()
                self.insert_element(token)
                self.mode = self._mode_in_caption
                return False
            if name == "colgroup":
                self._clear_table_stack_to(("table",))
                self.insert_element(token)
                self.mode = self._mode_in_column_group
                return False
            if name == "col":
                self._clear_table_stack_to(("table",))
                self.insert_phantom("colgroup")
                self.mode = self._mode_in_column_group
                return True
            if name in ("tbody", "tfoot", "thead"):
                self._clear_table_stack_to(("table",))
                self.insert_element(token)
                self.mode = self._mode_in_table_body
                return False
            if name in ("td", "th", "tr"):
                self._clear_table_stack_to(("table",))
                self.insert_phantom("tbody")
                self.mode = self._mode_in_table_body
                return True
            if name == "table":
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                if self.element_in_scope("table", SCOPE_TABLE):
                    self.pop_until("table")
                    self.reset_insertion_mode()
                    return True
                return False
            if name in ("style", "script", "template"):
                return self._mode_in_head(token)
            if name == "input":
                input_type = (token.attr("type") or "").lower()
                if input_type == "hidden":
                    self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                    self.insert_element(token)
                    self.pop()
                    return False
            if name == "form":
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                if self.form_element is None:
                    element = self.insert_element(token)
                    self.form_element = element
                    self.pop()
                else:
                    self.event("nested-form-ignored", offset=token.offset)
                return False
        elif isinstance(token, EndTag):
            name = token.name
            if name == "table":
                if not self.element_in_scope("table", SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                    return False
                self.pop_until("table")
                self.reset_insertion_mode()
                return False
            if name in ("body", "caption", "col", "colgroup", "html", "tbody",
                        "td", "tfoot", "th", "thead", "tr"):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return False
            if name == "template":
                return self._mode_in_head(token)
        elif isinstance(token, EOF):
            return self._mode_in_body(token)
        # Anything else: foster parenting (HF4).
        self.parse_error(ErrorCode.FOSTER_PARENTED_CONTENT, token)
        self.event(
            "foster-parented",
            tag=_describe_token(token),
            offset=getattr(token, "offset", -1),
        )
        self.foster_parenting = True
        result = self._mode_in_body(token)
        self.foster_parenting = False
        return result

    def _clear_table_stack_to(self, names: tuple[str, ...]) -> None:
        stop = set(names) | {"html", "template"}
        while (
            self.current_node is not None
            and not (
                self.current_node.is_html() and self.current_node.name in stop
            )
        ):
            self.pop()

    def _mode_in_table_text(self, token: Token) -> bool:
        if isinstance(token, Character):
            if not token.has_nul():
                # common case: buffer the lazy token itself, decode-free
                self._pending_table_text.append(token)
                return False
            data = token.data.replace("\x00", "")
            if data:
                self._pending_table_text.append(Character(token.offset, data))
            return False
        pending = self._pending_table_text
        self._pending_table_text = []
        all_ws = all(chunk.is_whitespace() for chunk in pending)
        assert self.original_mode is not None
        self.mode = self.original_mode
        if pending:
            if all_ws:
                for chunk in pending:
                    self.insert_text(chunk)
            else:
                for chunk in pending:
                    self.parse_error(ErrorCode.FOSTER_PARENTED_CONTENT, chunk)
                    self.event(
                        "foster-parented", tag="#text", offset=chunk.offset,
                        detail=chunk.data[:40],
                    )
                    self.foster_parenting = True
                    self._in_body_character(chunk)
                    self.foster_parenting = False
        return True

    def _mode_in_caption(self, token: Token) -> bool:
        if isinstance(token, EndTag) and token.name == "caption":
            if not self.element_in_scope("caption", SCOPE_TABLE):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
            self.generate_implied_end_tags()
            self.pop_until("caption")
            self.clear_formatting_to_marker()
            self.mode = self._mode_in_table
            return False
        if (
            isinstance(token, StartTag)
            and token.name in ("caption", "col", "colgroup", "tbody", "td",
                               "tfoot", "th", "thead", "tr")
        ) or (isinstance(token, EndTag) and token.name == "table"):
            self.parse_error(
                ErrorCode.UNEXPECTED_CELL_OR_ROW, token, token.name
            )
            if self.element_in_scope("caption", SCOPE_TABLE):
                self.generate_implied_end_tags()
                self.pop_until("caption")
                self.clear_formatting_to_marker()
                self.mode = self._mode_in_table
                return True
            return False
        if isinstance(token, EndTag) and token.name in (
            "body", "col", "colgroup", "html", "tbody", "td", "tfoot", "th",
            "thead", "tr",
        ):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        return self._mode_in_body(token)

    def _mode_in_column_group(self, token: Token) -> bool:
        if isinstance(token, Character):
            prefix, rest = _split_leading_ws(token.data)
            if prefix:
                self.insert_text(prefix)
            if not rest:
                return False
            token.data = rest
        elif isinstance(token, Comment):
            self.insert_comment(token)
            return False
        elif isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            return False
        elif isinstance(token, StartTag):
            if token.name == "html":
                return self._mode_in_body(token)
            if token.name == "col":
                self.insert_element(token)
                self.pop()
                return False
            if token.name == "template":
                return self._mode_in_head(token)
        elif isinstance(token, EndTag):
            if token.name == "colgroup":
                if self.current_node is not None and self.current_node.name == "colgroup":
                    self.pop()
                    self.mode = self._mode_in_table
                else:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
            if token.name == "col":
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
            if token.name == "template":
                return self._mode_in_head(token)
        elif isinstance(token, EOF):
            return self._mode_in_body(token)
        if self.current_node is not None and self.current_node.name == "colgroup":
            self.pop()
            self.mode = self._mode_in_table
            return True
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token)
        return False

    def _mode_in_table_body(self, token: Token) -> bool:
        if isinstance(token, StartTag):
            if token.name == "tr":
                self._clear_table_stack_to(("tbody", "tfoot", "thead"))
                self.insert_element(token)
                self.mode = self._mode_in_row
                return False
            if token.name in ("th", "td"):
                self.parse_error(ErrorCode.UNEXPECTED_CELL_OR_ROW, token, token.name)
                self._clear_table_stack_to(("tbody", "tfoot", "thead"))
                self.insert_phantom("tr")
                self.mode = self._mode_in_row
                return True
            if token.name in ("caption", "col", "colgroup", "tbody", "tfoot",
                              "thead"):
                if not self._table_body_context_in_scope():
                    self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tbody", "tfoot", "thead"))
                self.pop()
                self.mode = self._mode_in_table
                return True
        elif isinstance(token, EndTag):
            if token.name in ("tbody", "tfoot", "thead"):
                if not self.element_in_scope(token.name, SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tbody", "tfoot", "thead"))
                self.pop()
                self.mode = self._mode_in_table
                return False
            if token.name == "table":
                if not self._table_body_context_in_scope():
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tbody", "tfoot", "thead"))
                self.pop()
                self.mode = self._mode_in_table
                return True
            if token.name in ("body", "caption", "col", "colgroup", "html",
                              "td", "th", "tr"):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
        return self._mode_in_table(token)

    def _table_body_context_in_scope(self) -> bool:
        return any(
            self.element_in_scope(name, SCOPE_TABLE)
            for name in ("tbody", "thead", "tfoot")
        )

    def _mode_in_row(self, token: Token) -> bool:
        if isinstance(token, StartTag):
            if token.name in ("th", "td"):
                self._clear_table_stack_to(("tr",))
                self.insert_element(token)
                self.mode = self._mode_in_cell
                self.insert_formatting_marker()
                return False
            if token.name in ("caption", "col", "colgroup", "tbody", "tfoot",
                              "thead", "tr"):
                if not self.element_in_scope("tr", SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tr",))
                self.pop()
                self.mode = self._mode_in_table_body
                return True
        elif isinstance(token, EndTag):
            if token.name == "tr":
                if not self.element_in_scope("tr", SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tr",))
                self.pop()
                self.mode = self._mode_in_table_body
                return False
            if token.name == "table":
                if not self.element_in_scope("tr", SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self._clear_table_stack_to(("tr",))
                self.pop()
                self.mode = self._mode_in_table_body
                return True
            if token.name in ("tbody", "tfoot", "thead"):
                if not self.element_in_scope(token.name, SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                if not self.element_in_scope("tr", SCOPE_TABLE):
                    return False
                self._clear_table_stack_to(("tr",))
                self.pop()
                self.mode = self._mode_in_table_body
                return True
            if token.name in ("body", "caption", "col", "colgroup", "html",
                              "td", "th"):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
        return self._mode_in_table(token)

    def _mode_in_cell(self, token: Token) -> bool:
        if isinstance(token, EndTag):
            if token.name in ("td", "th"):
                if not self.element_in_scope(token.name, SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self.generate_implied_end_tags()
                if self.current_node is not None and self.current_node.name != token.name:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                self.pop_until(token.name)
                self.clear_formatting_to_marker()
                self.mode = self._mode_in_row
                return False
            if token.name in ("body", "caption", "col", "colgroup", "html"):
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                return False
            if token.name in ("table", "tbody", "tfoot", "thead", "tr"):
                if not self.element_in_scope(token.name, SCOPE_TABLE):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
                    return False
                self._close_cell()
                return True
        elif isinstance(token, StartTag) and token.name in (
            "caption", "col", "colgroup", "tbody", "td", "tfoot", "th",
            "thead", "tr",
        ):
            if not (
                self.element_in_scope("td", SCOPE_TABLE)
                or self.element_in_scope("th", SCOPE_TABLE)
            ):
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
                return False
            self._close_cell()
            return True
        return self._mode_in_body(token)

    def _close_cell(self) -> None:
        self.generate_implied_end_tags()
        if self.current_node is not None and self.current_node.name not in ("td", "th"):
            self.parse_error(ErrorCode.UNEXPECTED_CELL_OR_ROW, None)
        self.pop_until("td", "th")
        self.clear_formatting_to_marker()
        self.mode = self._mode_in_row

    # ----------------------------------------------------------- select modes

    def _mode_in_select(self, token: Token) -> bool:
        if isinstance(token, Character):
            data = token.data.replace("\x00", "")
            if data:
                self.insert_text(data)
            return False
        if isinstance(token, Comment):
            self.insert_comment(token)
            return False
        if isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            return False
        if isinstance(token, StartTag):
            name = token.name
            if name == "html":
                return self._mode_in_body(token)
            if name == "option":
                if self.current_node is not None and self.current_node.name == "option":
                    self.pop()
                self.insert_element(token)
                return False
            if name == "optgroup":
                if self.current_node is not None and self.current_node.name == "option":
                    self.pop()
                if self.current_node is not None and self.current_node.name == "optgroup":
                    self.pop()
                self.insert_element(token)
                return False
            if name == "select":
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                if self.element_in_select_scope("select"):
                    self.pop_until("select")
                    self.reset_insertion_mode()
                return False
            if name in ("input", "keygen", "textarea"):
                self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
                if self.element_in_select_scope("select"):
                    self.pop_until("select")
                    self.reset_insertion_mode()
                    return True
                return False
            if name in ("script", "template"):
                return self._mode_in_head(token)
            self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, name)
            return False
        if isinstance(token, EndTag):
            name = token.name
            if name == "optgroup":
                if (
                    self.current_node is not None
                    and self.current_node.name == "option"
                    and len(self.open_elements) >= 2
                    and self.open_elements[-2].name == "optgroup"
                ):
                    self.pop()
                if self.current_node is not None and self.current_node.name == "optgroup":
                    self.pop()
                else:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return False
            if name == "option":
                if self.current_node is not None and self.current_node.name == "option":
                    self.pop()
                else:
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                return False
            if name == "select":
                if not self.element_in_select_scope("select"):
                    self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
                    return False
                self.pop_until("select")
                self.reset_insertion_mode()
                return False
            if name == "template":
                return self._mode_in_head(token)
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            return False
        if isinstance(token, EOF):
            return self._mode_in_body(token)
        return False

    def _mode_in_template(self, token: Token) -> bool:
        """The "in template" insertion mode (spec 13.2.6.4.22)."""
        if isinstance(token, (Character, Comment, Doctype)):
            return self._mode_in_body(token)
        if isinstance(token, StartTag):
            name = token.name
            if name in ("base", "basefont", "bgsound", "link", "meta",
                        "noframes", "script", "style", "template", "title"):
                return self._mode_in_head(token)
            redirect = {
                "caption": self._mode_in_table,
                "colgroup": self._mode_in_table,
                "tbody": self._mode_in_table,
                "tfoot": self._mode_in_table,
                "thead": self._mode_in_table,
                "col": self._mode_in_column_group,
                "tr": self._mode_in_table_body,
                "td": self._mode_in_row,
                "th": self._mode_in_row,
            }
            target = redirect.get(name, self._mode_in_body)
            self.template_modes.pop()
            self.template_modes.append(target)
            self.mode = target
            return True
        if isinstance(token, EndTag):
            if token.name == "template":
                return self._mode_in_head(token)
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            return False
        assert isinstance(token, EOF)
        if not any(
            element.name == "template" and element.is_html()
            for element in self.open_elements
        ):
            self._stopped = True
            return False
        self.parse_error(ErrorCode.EOF_WITH_UNCLOSED_ELEMENTS, token, "template")
        self.event("element-open-at-eof", tag="template")
        self.pop_until("template")
        self.clear_formatting_to_marker()
        if self.template_modes:
            self.template_modes.pop()
        self.reset_insertion_mode()
        return True

    def _mode_in_select_in_table(self, token: Token) -> bool:
        if isinstance(token, StartTag) and token.name in (
            "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th"
        ):
            self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token, token.name)
            self.pop_until("select")
            self.reset_insertion_mode()
            return True
        if isinstance(token, EndTag) and token.name in (
            "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th"
        ):
            self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, token.name)
            if self.element_in_scope(token.name, SCOPE_TABLE):
                self.pop_until("select")
                self.reset_insertion_mode()
                return True
            return False
        return self._mode_in_select(token)

    # ------------------------------------------------------- after body etc.

    def _mode_after_body(self, token: Token) -> bool:
        if isinstance(token, Character) and not token.data.strip(_WS):
            return self._mode_in_body(token)
        if isinstance(token, Comment):
            root = self.open_elements[0] if self.open_elements else self.document
            self.insert_comment(token, root)
            return False
        if isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            return False
        if isinstance(token, StartTag) and token.name == "html":
            return self._mode_in_body(token)
        if isinstance(token, EndTag) and token.name == "html":
            self.mode = self._mode_after_after_body
            return False
        if isinstance(token, EOF):
            self._stopped = True
            return False
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token)
        self.mode = self._mode_in_body
        return True

    def _mode_after_after_body(self, token: Token) -> bool:
        if isinstance(token, Comment):
            self.insert_comment(token, self.document)
            return False
        if isinstance(token, Doctype) or (
            isinstance(token, Character) and not token.data.strip(_WS)
        ):
            return self._mode_in_body(token)
        if isinstance(token, StartTag) and token.name == "html":
            return self._mode_in_body(token)
        if isinstance(token, EOF):
            self._stopped = True
            return False
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token)
        self.mode = self._mode_in_body
        return True

    def _mode_in_frameset(self, token: Token) -> bool:
        if isinstance(token, Character):
            kept = "".join(char for char in token.data if char in _WS)
            if kept:
                self.insert_text(kept)
            return False
        if isinstance(token, Comment):
            self.insert_comment(token)
            return False
        if isinstance(token, StartTag):
            if token.name == "html":
                return self._mode_in_body(token)
            if token.name == "frameset":
                self.insert_element(token)
                return False
            if token.name == "frame":
                self.insert_element(token)
                self.pop()
                return False
            if token.name == "noframes":
                return self._mode_in_head(token)
        if isinstance(token, EndTag) and token.name == "frameset":
            if self.current_node is not None and self.current_node.name != "html":
                self.pop()
            if self.current_node is not None and self.current_node.name != "frameset":
                self.mode = self._mode_after_frameset
            return False
        if isinstance(token, EOF):
            self._stopped = True
            return False
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token)
        return False

    def _mode_after_frameset(self, token: Token) -> bool:
        if isinstance(token, Character):
            kept = "".join(char for char in token.data if char in _WS)
            if kept:
                self.insert_text(kept)
            return False
        if isinstance(token, Comment):
            self.insert_comment(token)
            return False
        if isinstance(token, StartTag) and token.name == "html":
            return self._mode_in_body(token)
        if isinstance(token, StartTag) and token.name == "noframes":
            return self._mode_in_head(token)
        if isinstance(token, EndTag) and token.name == "html":
            self.mode = self._mode_after_after_frameset
            return False
        if isinstance(token, EOF):
            self._stopped = True
            return False
        self.parse_error(ErrorCode.UNEXPECTED_START_TAG, token)
        return False

    def _mode_after_after_frameset(self, token: Token) -> bool:
        if isinstance(token, Comment):
            self.insert_comment(token, self.document)
            return False
        if isinstance(token, StartTag) and token.name == "html":
            return self._mode_in_body(token)
        if isinstance(token, StartTag) and token.name == "noframes":
            return self._mode_in_head(token)
        if isinstance(token, EOF):
            self._stopped = True
            return False
        return False

    # -------------------------------------------------------- foreign content

    def _mode_foreign_content(self, token: Token) -> bool:
        if isinstance(token, Character):
            data = token.data.replace("\x00", "�")
            self.insert_text(data)
            if data.strip(_WS):
                self.frameset_ok = False
            return False
        if isinstance(token, Comment):
            self.insert_comment(token)
            return False
        if isinstance(token, Doctype):
            self.parse_error(ErrorCode.UNEXPECTED_DOCTYPE, token)
            return False
        if isinstance(token, StartTag):
            name = token.name
            is_breakout = name in FOREIGN_BREAKOUT or (
                name == "font"
                and any(
                    token.has_attr(attr) for attr in ("color", "face", "size")
                )
            )
            if is_breakout:
                current = self.adjusted_current_node
                namespace = current.namespace if current is not None else HTML_NAMESPACE
                self.parse_error(
                    ErrorCode.UNEXPECTED_HTML_ELEMENT_IN_FOREIGN_CONTENT,
                    token,
                    name,
                )
                self.event(
                    "foreign-breakout", tag=name, namespace=namespace,
                    offset=token.offset,
                )
                while True:
                    node = self.current_node
                    if node is None:
                        break
                    if node.is_html() or self._is_mathml_text_integration(node) or \
                            self._is_html_integration_point(node):
                        break
                    self.pop()
                return True
            current = self.adjusted_current_node
            assert current is not None
            if current.namespace == SVG_NAMESPACE:
                token.name = SVG_TAG_ADJUSTMENTS.get(name, name)
            element = self.insert_element(token, current.namespace)
            if token.self_closing:
                self.pop()
            return False
        if isinstance(token, EndTag):
            name = token.name
            node = self.current_node
            if node is not None and node.name.lower() != name:
                self.parse_error(ErrorCode.UNEXPECTED_END_TAG, token, name)
            index = len(self.open_elements) - 1
            while index > 0:
                node = self.open_elements[index]
                if node.name.lower() == name:
                    while self.open_elements[-1] is not node:
                        self.pop()
                    self.pop()
                    return False
                index -= 1
                if self.open_elements[index].is_html():
                    return self.mode(token)
            return False
        return False

    @staticmethod
    def _is_mathml_text_integration(element: Element) -> bool:
        return (
            element.namespace == MATHML_NAMESPACE
            and element.name in MATHML_TEXT_INTEGRATION
        )

    def _adjust_foreign_attributes(self, token: StartTag) -> None:
        # Our DOM stores attribute names as flat strings; nothing to rewrite,
        # but 'definitionurl' gets its canonical MathML casing.
        for attr in token.attributes:
            if attr.name == "definitionurl":
                attr.name = "definitionURL"

    # ------------------------------------------------------------------ reset

    def reset_insertion_mode(self) -> None:
        for index in range(len(self.open_elements) - 1, -1, -1):
            node = self.open_elements[index]
            last = index == 0
            if last and self.fragment_context is not None:
                node = self.fragment_context
            if not node.is_html():
                continue
            name = node.name
            if name == "template" and self.template_modes:
                self.mode = self.template_modes[-1]
                return
            if name == "select":
                self.mode = self._mode_in_select
                return
            if name in ("td", "th") and not last:
                self.mode = self._mode_in_cell
                return
            if name == "tr":
                self.mode = self._mode_in_row
                return
            if name in ("tbody", "thead", "tfoot"):
                self.mode = self._mode_in_table_body
                return
            if name == "caption":
                self.mode = self._mode_in_caption
                return
            if name == "colgroup":
                self.mode = self._mode_in_column_group
                return
            if name == "table":
                self.mode = self._mode_in_table
                return
            if name == "head" and not last:
                self.mode = self._mode_in_head
                return
            if name == "body":
                self.mode = self._mode_in_body
                return
            if name == "frameset":
                self.mode = self._mode_in_frameset
                return
            if name == "html":
                if self.head_element is None:
                    self.mode = self._mode_before_head
                else:
                    self.mode = self._mode_after_head
                return
            if last:
                self.mode = self._mode_in_body
                return


class StreamTaint(Exception):
    """A stream-mode parse hit a mutation the flat emission cannot mirror.

    Only raised by :func:`parse_bytes_stream` with ``taint="raise"``
    (equivalence tooling); the production path records the taint and keeps
    parsing — see :class:`StreamTreeBuilder`.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class StreamTreeBuilder(TreeBuilder):
    """A tree builder that emits elements for DOM-free checking.

    Runs the full tree-construction state machine (the stack, formatting
    list and insertion modes all behave identically) but:

    * every inserted element is appended to ``_stream_elements`` together
      with its walk-equivalent ``in_head`` flag, maintained as a counter
      of open ``head``-named elements — captured *before* the push, which
      matches the fused walk handing each element its parent-derived flag;
    * text and comment nodes are never constructed or linked (no rule
      reads them from the tree — the fused walk dispatches elements only
      and no footprint reaches ``text_content``), which skips the text
      coalescing and node allocation entirely;
    * any mutation that would make emission order diverge from the final
      tree's pre-order *taints* the parse: the builder keeps going, the
      finished :class:`ParseResult` carries ``stream_elements = None``,
      and the checker dispatches via the ordinary DOM walk over the
      (element-complete, text-free) tree — no re-parse, findings
      bit-identical by construction.

    Emission order equals final-tree pre-order because every non-tainted
    insertion appends to the element on top of the open-elements stack,
    whose earlier children are already complete.  Post-emission attribute
    merges (second ``<html>``/``<body>`` tags) are safe: dispatch over the
    buffered list happens after the parse, on the same element objects.

    The four taint sites: foster-parented element insertion into an open
    table, the adoption agency's furthest-block path, the frameset body
    takeover, and a head element re-routed into the closed ``<head>``.
    """

    _FOSTER_TARGETS = frozenset({"table", "tbody", "tfoot", "thead", "tr"})

    def __init__(self, *, taint: str = "fallback") -> None:
        super().__init__()
        self._stream_elements = []
        self._head_depth = 0
        self.tainted: str | None = None
        #: "fallback" records the taint and keeps parsing; "raise" aborts
        #: with :class:`StreamTaint` (used by parity tooling to find the
        #: first divergence point)
        self._taint_policy = taint

    def _stream_taint(self, reason: str) -> None:
        if self._taint_policy == "raise":
            raise StreamTaint(reason)
        if self.tainted is None:
            self.tainted = reason
            # the flat emission is now unusable; stop paying for it
            self._stream_elements = None

    def _stream_emit_root(self, element: Element) -> None:
        elements = self._stream_elements
        if elements is not None:
            elements.append((element, False))

    def _stream_foster_check(self) -> None:
        # called from the base insertion sites only while fostering is
        # active: inserting at a table-section target reorders the tree
        target = self.open_elements[-1]
        if target.is_html() and target.name in self._FOSTER_TARGETS:
            self._stream_taint("foster-parented element")

    def insert_text(self, data) -> None:
        """Text nodes are invisible to every tree rule: skip them."""

    def insert_comment(self, token: Comment, parent: Node | None = None) -> None:
        """Comment nodes are invisible to every tree rule: skip them."""


def _build_dispatch(entries: dict) -> dict:
    """Expand {name-or-name-tuple: handler} into a flat name -> handler map."""
    table: dict = {}
    for key, handler in entries.items():
        if isinstance(key, tuple):
            for name in key:
                table[name] = handler
        else:
            table[key] = handler
    return table


#: "in body" start-tag dispatch: one dict hit replaces the spec's ordered
#: comparison chain.  Tags absent from the table take the "any other start
#: tag" path.  ``a`` overrides the generic formatting handler; ``noscript``
#: resolves the scripting flag inside its handler.
_IN_BODY_START = _build_dispatch({
    "html": TreeBuilder._ibs_html,
    ("base", "basefont", "bgsound", "link", "meta", "noframes", "style",
     "script", "template", "title"): TreeBuilder._ibs_in_head,
    "body": TreeBuilder._ibs_body,
    "frameset": TreeBuilder._ibs_frameset,
    ("address", "article", "aside", "blockquote", "center", "details",
     "dialog", "dir", "div", "dl", "fieldset", "figcaption", "figure",
     "footer", "header", "hgroup", "main", "menu", "nav", "ol", "p",
     "section", "summary", "ul"): TreeBuilder._ibs_block,
    tuple(HEADING_ELEMENTS): TreeBuilder._ibs_heading,
    ("pre", "listing"): TreeBuilder._ibs_pre,
    "form": TreeBuilder._ibs_form,
    "li": TreeBuilder._ibs_li,
    ("dd", "dt"): TreeBuilder._ibs_dd_dt,
    "plaintext": TreeBuilder._ibs_plaintext,
    "button": TreeBuilder._ibs_button,
    tuple(FORMATTING_ELEMENTS - {"a"}): TreeBuilder._ibs_formatting,
    "a": TreeBuilder._ibs_a,
    ("applet", "marquee", "object"): TreeBuilder._ibs_applet,
    "table": TreeBuilder._ibs_table,
    ("area", "br", "embed", "img", "keygen", "wbr"): TreeBuilder._ibs_void,
    "input": TreeBuilder._ibs_input,
    ("param", "source", "track"): TreeBuilder._ibs_param,
    "hr": TreeBuilder._ibs_hr,
    "image": TreeBuilder._ibs_image,
    "textarea": TreeBuilder._ibs_textarea,
    "xmp": TreeBuilder._ibs_xmp,
    "iframe": TreeBuilder._ibs_iframe,
    "noembed": TreeBuilder._ibs_noembed,
    "noscript": TreeBuilder._ibs_noscript,
    "select": TreeBuilder._ibs_select,
    ("optgroup", "option"): TreeBuilder._ibs_option,
    ("rb", "rtc"): TreeBuilder._ibs_rb,
    ("rp", "rt"): TreeBuilder._ibs_rp,
    "math": TreeBuilder._ibs_math,
    "svg": TreeBuilder._ibs_svg,
    ("caption", "col", "colgroup", "frame", "head", "tbody", "td", "tfoot",
     "th", "thead", "tr"): TreeBuilder._ibs_table_misplaced,
})

#: "in body" end-tag dispatch; absent tags take ``_any_other_end_tag``.
_IN_BODY_END = _build_dispatch({
    "body": TreeBuilder._ibe_body,
    "html": TreeBuilder._ibe_html,
    ("address", "article", "aside", "blockquote", "button", "center",
     "details", "dialog", "dir", "div", "dl", "fieldset", "figcaption",
     "figure", "footer", "header", "hgroup", "listing", "main", "menu",
     "nav", "ol", "pre", "section", "summary", "ul"): TreeBuilder._ibe_block,
    "form": TreeBuilder._ibe_form,
    "p": TreeBuilder._ibe_p,
    "li": TreeBuilder._ibe_li,
    ("dd", "dt"): TreeBuilder._ibe_dd_dt,
    tuple(HEADING_ELEMENTS): TreeBuilder._ibe_heading,
    tuple(FORMATTING_ELEMENTS): TreeBuilder._ibe_formatting,
    ("applet", "marquee", "object"): TreeBuilder._ibe_applet,
    "br": TreeBuilder._ibe_br,
    "template": TreeBuilder._ibe_template,
})

#: in-body end tags that always run their handler, even when they close
#: the current node: ``</body>``/``</html>`` switch the insertion mode,
#: ``</form>`` clears the form pointer, ``</template>`` runs the in-head
#: template steps, ``</applet>``/``</marquee>``/``</object>`` clear the
#: formatting list to its marker, and ``</br>`` inserts a ``<br>``.  For
#: every other name, an end tag whose name matches the current HTML node
#: is exactly one pop in its handler: the block, ``p``, ``li``,
#: ``dd``/``dt``, heading and "any other end tag" paths find the node in
#: scope at the first stack entry, generate no implied end tags (the node
#: is not an implied-end-tag element, or it is the excluded one) and
#: report no error; the adoption agency, when the node is also the last
#: active-formatting entry, finds no furthest block and removes that
#: entry.  ``_mode_in_body`` pops such nodes without the handler hop.
_IN_BODY_END_HANDLER_ONLY = frozenset({
    "body", "html", "form", "template", "br", "applet", "marquee", "object",
})


def _split_leading_ws(data: str) -> tuple[str, str]:
    rest = data.lstrip(_WS)
    return data[: len(data) - len(rest)], rest


def _describe_token(token: Token) -> str:
    if isinstance(token, StartTag):
        return token.name
    if isinstance(token, EndTag):
        return f"/{token.name}"
    if isinstance(token, Character):
        return "#text"
    if isinstance(token, Comment):
        return "#comment"
    if isinstance(token, EOF):
        return "#eof"
    return "#doctype"


# ------------------------------------------------------------------ frontends

def parse(text: str) -> ParseResult:
    """Parse a full HTML document with the error-tolerant algorithm.

    ``text`` is encoded to UTF-8 and parsed by the same bytes tokenizer as
    :func:`parse_bytes`.  A lone surrogate has no UTF-8 encoding, so each
    surrogate code point in ``text`` becomes U+FFFD first (WebIDL's
    USVString conversion); the swap is one code point for one, so every
    offset still indexes ``text``.
    """
    return TreeBuilder().parse(text)


def parse_bytes(data: bytes) -> ParseResult:
    """Parse raw UTF-8 bytes decode-free (the pipeline hot path).

    Equivalent to ``parse(decode_bytes(data))`` for valid UTF-8 input but
    without the upfront decode; raises :class:`UnicodeDecodeError` for
    input the section 4.1 encoding filter would reject.
    """
    return TreeBuilder().parse_bytes(data)


def parse_bytes_stream(data: bytes, *, taint: str = "fallback") -> ParseResult:
    """Parse raw UTF-8 bytes in DOM-free stream mode.

    For untainted pages the returned result carries ``stream_elements`` —
    the element pre-order as ``(element, in_head)`` pairs; tainted pages
    come back with ``stream_elements = None`` and are checked through the
    ordinary DOM walk instead.  Either way the document tree contains
    elements only (no text or comment nodes), so it must not be fed to
    the serializer or text-reading consumers.  ``taint="raise"`` aborts
    with :class:`StreamTaint` at the first divergence instead (parity
    tooling).
    """
    return StreamTreeBuilder(taint=taint).parse_bytes(data)


def parse_fragment(
    text: str, context: str = "div"
) -> tuple[list[Node], ParseResult]:
    """Parse an HTML fragment in ``context`` (the innerHTML algorithm).

    Returns the list of parsed top-level nodes plus the full parse result.
    This is what HTML sanitizers effectively do, and what the mXSS example
    uses to reproduce the Figure 1 DOMPurify bypass.  ``text`` crosses into
    the bytes tokenizer exactly as in :meth:`TreeBuilder.parse`, surrogate
    rule included.
    """
    context_element = Element(context)
    builder = TreeBuilder(fragment_context=context_element)
    root = Element("html", source_offset=-1, arena=builder.arena)
    builder.document.append(root)
    builder.push(root)
    if context in ("title", "textarea"):
        initial_state = RCDATA
    elif context in ("style", "xmp", "iframe", "noembed", "noframes"):
        initial_state = RAWTEXT
    elif context == "script":
        initial_state = SCRIPT_DATA
    elif context == "plaintext":
        initial_state = PLAINTEXT
    else:
        initial_state = DATA
    builder.reset_insertion_mode()
    if builder.mode == builder._mode_before_head:  # context was html-ish
        builder.mode = builder._mode_in_body
    tokenizer = BytesTokenizer(encode_text(text))
    tokenizer.switch_to(initial_state)
    builder.tokenizer = tokenizer
    builder._update_foreign_flag()
    result = builder._run(tokenizer, tokenizer._src)
    return list(root.children), result
