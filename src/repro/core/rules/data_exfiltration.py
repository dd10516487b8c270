"""Data Exfiltration rules: DE1, DE2, DE3_1/2/3, DE4 (section 3.2)."""
from __future__ import annotations

from ...html import ParseResult
from ..violations import Finding
from .base import URL_ATTRIBUTES, Rule, iter_start_tag_attrs, snippet
from .fused import Footprint


class NonTerminatedTextarea(Rule):
    """DE1 — a ``textarea`` still open at end of file.

    The element requires an end tag (HTML 4.10.11), but the parser closes
    it at EOF (13.2.5.2), so everything after an injected ``<textarea>``
    is swallowed into the form value (Figure 3 of the paper).
    """

    id = "DE1"
    footprint = Footprint(events=("rcdata-closed-at-eof",))

    def check(self, result: ParseResult) -> list[Finding]:
        return [
            self.finding(
                event.offset,
                "textarea element closed by EOF",
                snippet(result.source, event.offset),
            )
            for event in result.events_of("rcdata-closed-at-eof")
            if event.tag == "textarea"
        ]

    def fused_event(self, event, source, out) -> None:
        if event.tag == "textarea":
            out.append(
                self.finding(
                    event.offset,
                    "textarea element closed by EOF",
                    snippet(source, event.offset),
                )
            )


class NonTerminatedSelect(Rule):
    """DE2 — ``select``/``option`` still open at end of file.

    Leaks following content as plain text (tags inside select are
    stripped, their text kept — HTML 4.10.7).
    """

    id = "DE2"
    footprint = Footprint(events=("element-open-at-eof",))

    def check(self, result: ParseResult) -> list[Finding]:
        return [
            self.finding(
                event.offset,
                f"{event.tag} element closed by EOF",
                snippet(result.source, event.offset),
            )
            for event in result.events_of("element-open-at-eof")
            if event.tag in ("select", "option")
        ]

    def fused_event(self, event, source, out) -> None:
        if event.tag in ("select", "option"):
            out.append(
                self.finding(
                    event.offset,
                    f"{event.tag} element closed by EOF",
                    snippet(source, event.offset),
                )
            )


class DanglingMarkupUrl(Rule):
    """DE3_1 — a URL attribute containing both a newline and ``<``.

    The shape of a classic dangling-markup exfiltration URL (an
    unterminated attribute per HTML 13.2.5 tokenization); Chromium
    blocks loading such URLs since 2017 (section 4.5 of the paper).
    """

    id = "DE3_1"
    footprint = Footprint(
        token_attrs=tuple(sorted(URL_ATTRIBUTES)), value_chars="\n"
    )

    def check(self, result: ParseResult) -> list[Finding]:
        findings = []
        for tag, name, value in iter_start_tag_attrs(result):
            if name in URL_ATTRIBUTES and "\n" in value and "<" in value:
                findings.append(
                    self.finding(
                        tag.offset,
                        f"URL attribute {name!r} on <{tag.name}> contains "
                        "newline and '<'",
                        snippet(result.source, tag.offset),
                    )
                )
        return findings

    def fused_attr(self, tag, name, value, source, out) -> None:
        if "\n" in value and "<" in value:
            out.append(
                self.finding(
                    tag.offset,
                    f"URL attribute {name!r} on <{tag.name}> contains "
                    "newline and '<'",
                    snippet(source, tag.offset),
                )
            )


class ScriptInAttribute(Rule):
    """DE3_2 — the string ``<script`` inside an attribute value.

    Indicates a non-terminated attribute (HTML 13.2.5 tokenization)
    absorbed a following script element (the CSP nonce-stealing shape,
    Figure 2 of the paper).
    """

    id = "DE3_2"
    footprint = Footprint(token_attrs=("*",), value_chars="<")

    def check(self, result: ParseResult) -> list[Finding]:
        findings = []
        for tag, name, value in iter_start_tag_attrs(result):
            if "<script" in value.lower():
                findings.append(
                    self.finding(
                        tag.offset,
                        f"attribute {name!r} on <{tag.name}> contains "
                        "'<script'",
                        snippet(result.source, tag.offset),
                    )
                )
        return findings

    def fused_attr(self, tag, name, value, source, out) -> None:
        if "<" in value and "<script" in value.lower():
            out.append(
                self.finding(
                    tag.offset,
                    f"attribute {name!r} on <{tag.name}> contains "
                    "'<script'",
                    snippet(source, tag.offset),
                )
            )


class NewlineInTarget(Rule):
    """DE3_3 — a ``target`` attribute containing a newline.

    The window-name exfiltration shape (Figure 5 of the paper): an
    unterminated target attribute (HTML 13.2.5 tokenization) absorbs
    following markup, and window names survive cross-origin navigation.
    """

    id = "DE3_3"
    footprint = Footprint(token_attrs=("target",), value_chars="\n")

    def check(self, result: ParseResult) -> list[Finding]:
        findings = []
        for tag, name, value in iter_start_tag_attrs(result):
            if name == "target" and "\n" in value:
                findings.append(
                    self.finding(
                        tag.offset,
                        f"target attribute on <{tag.name}> contains a newline",
                        snippet(result.source, tag.offset),
                    )
                )
        return findings

    def fused_attr(self, tag, name, value, source, out) -> None:
        if "\n" in value:
            out.append(
                self.finding(
                    tag.offset,
                    f"target attribute on <{tag.name}> contains a newline",
                    snippet(source, tag.offset),
                )
            )


class NestedForm(Rule):
    """DE4 — a ``form`` inside a ``form``; the parser drops the inner one
    (HTML 13.2.6.4.7), so an injected outer form owns all inner fields.
    """

    id = "DE4"
    footprint = Footprint(events=("nested-form-ignored",))

    def check(self, result: ParseResult) -> list[Finding]:
        return [
            self.finding(
                event.offset,
                "nested form element ignored by the parser",
                snippet(result.source, event.offset),
            )
            for event in result.events_of("nested-form-ignored")
        ]

    def fused_event(self, event, source, out) -> None:
        out.append(
            self.finding(
                event.offset,
                "nested form element ignored by the parser",
                snippet(source, event.offset),
            )
        )
