"""The automatic repair process from section 4.4 of the paper.

The paper estimates that 46% of violating websites could be fixed with a
"simple automated process":

* **FB1 / FB2** — "serializing the entire document with the current HTML
  parser and deserializing it again.  The syntax would be fixed, but the
  semantics would still be broken."  We implement this as a *span-precise*
  re-serialization: only the start tags that actually triggered the error
  are rewritten (from their parsed attribute lists), leaving every other
  byte of the document untouched — so non-fixable violations elsewhere on
  the page remain observable.
* **DM3** — "all duplicates that appear after the first occurrence can
  automatically be removed since the existing parser currently ignores
  the other attributes anyway."  Dropping duplicates falls out of the same
  tag rewrite.
* **DM1 / DM2** — "could also be automatically removed relatively simply"
  by moving the elements into the head; the paper "[has] not seen a single
  example ... that would break by automatically moving the elements".

HF and DE violations require developer judgment (rearranging sections,
deciding where a form should submit) and are deliberately *not* repaired.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..html import parse
from ..html.tokens import Character, Comment, Doctype, StartTag
from .checker import Checker, CheckReport
from .violations import AUTO_FIXABLE_IDS, Finding

_VOID = frozenset(
    {"area", "base", "basefont", "bgsound", "br", "col", "embed", "frame",
     "hr", "img", "input", "keygen", "link", "meta", "param", "source",
     "track", "wbr"}
)


@dataclass(slots=True)
class AutofixResult:
    """Outcome of one repair pass."""

    original: str
    fixed: str
    #: findings that the pass repaired
    repaired: list[Finding] = field(default_factory=list)
    #: findings that require manual work (HF/DE), plus auto-fixable
    #: findings whose offending tag no longer exists in the source (e.g.
    #: a start tag truncated by EOF) and therefore cannot be rewritten
    remaining: list[Finding] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.fixed != self.original


def classify(report: CheckReport) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (auto-fixable, manual-only)."""
    fixable = [f for f in report.findings if f.violation in AUTO_FIXABLE_IDS]
    manual = [f for f in report.findings if f.violation not in AUTO_FIXABLE_IDS]
    return fixable, manual


def _escape_attr(value: str) -> str:
    return value.replace("&", "&amp;").replace('"', "&quot;")


def _render_tag(tag: StartTag) -> str:
    parts = [f"<{tag.name}"]
    for attribute in tag.visible_attributes():
        if attribute.value == "":
            parts.append(f" {attribute.name}")
        else:
            parts.append(f' {attribute.name}="{_escape_attr(attribute.value)}"')
    if tag.self_closing:
        parts.append("/")
    parts.append(">")
    return "".join(parts)


def autofix(html: str, *, checker: Checker | None = None) -> AutofixResult:
    """Repair all auto-fixable violations in ``html``.

    Returns the repaired source together with which findings were fixed and
    which remain.  The repaired output is guaranteed (and tested) to parse
    to the same rendering-relevant DOM as the original.
    """
    checker = checker or Checker()
    result = parse(html)
    report = checker.check_parse(result)
    fixable, manual = classify(report)
    if not fixable:
        result.release()
        return AutofixResult(original=html, fixed=html, remaining=manual)

    source = result.source
    edits: list[tuple[int, int, str]] = []  # (start, end, replacement)
    #: source spans whose tag an edit rewrote, moved, or dropped; a
    #: fixable finding counts as repaired only when its offset falls in
    #: one of these — claiming repairs that were never applied would make
    #: ``autofix`` diverge instead of reaching a fix-point
    edited_spans: list[tuple[int, int]] = []

    fixable_ids = {finding.violation for finding in fixable}

    # --- DM1 / DM2: move meta/base into the head --------------------------
    moves = _collect_head_moves(result, fixable)
    moved_offsets = {start for start, _end, _markup, _drop in moves}

    # --- FB1 / FB2 / DM3: rewrite the offending start tags in place -------
    # A tag that is also being moved is skipped here: the move re-renders
    # it through the same _render_tag, and emitting both edits would
    # duplicate the element.
    if fixable_ids & {"FB1", "FB2", "DM3"}:
        bad_offsets = _tag_offsets_with_attr_problems(result) - moved_offsets
        for token in result.tokens:
            if isinstance(token, StartTag) and token.offset in bad_offsets:
                if token.end > token.offset:
                    edits.append((token.offset, token.end, _render_tag(token)))
                    edited_spans.append((token.offset, token.end))

    if moves:
        insert_at = _head_insertion_point(result)
        moved_markup: list[str] = []
        for start, end, markup, drop in moves:
            edits.append((start, end, ""))
            edited_spans.append((start, end))
            if not drop:
                moved_markup.append(markup)
        if moved_markup:
            edits.append((insert_at, insert_at, "".join(moved_markup)))

    repaired: list[Finding] = []
    unapplied: list[Finding] = []
    for finding in fixable:
        if any(start <= finding.offset < end for start, end in edited_spans):
            repaired.append(finding)
        else:
            unapplied.append(finding)

    # the parse never leaves this call: free it by reference counting
    result.release()
    fixed = _apply_edits(source, edits)
    return AutofixResult(
        original=html, fixed=fixed, repaired=repaired,
        remaining=manual + unapplied,
    )


def _tag_offsets_with_attr_problems(result) -> set[int]:
    """Offsets of start tags with FB1/FB2/DM3-shaped attribute problems."""
    offsets = set()
    for token in result.tokens:
        if not isinstance(token, StartTag):
            continue
        for attribute in token.attributes:
            if (
                attribute.duplicate
                or attribute.preceded_by_solidus
                or attribute.missing_preceding_space
            ):
                offsets.add(token.offset)
                break
    return offsets


def _collect_head_moves(result, fixable: list[Finding]):
    """(start, end, markup, drop) spans for every misplaced meta/base.

    ``drop`` is True for surplus base elements (DM2_2: only the first may
    survive).  DM2_3 moves the late base to the front of the head, which
    also puts it before every URL-using element.
    """
    wanted = {f.violation for f in fixable} & {"DM1", "DM2_1", "DM2_2", "DM2_3"}
    if not wanted:
        return []
    moves = []
    base_seen = 0
    finding_offsets = {
        f.offset for f in fixable if f.violation in ("DM1", "DM2_1", "DM2_3")
    }
    surplus_base_offsets = {f.offset for f in fixable if f.violation == "DM2_2"}
    for token in result.tokens:
        if not isinstance(token, StartTag) or token.name not in ("meta", "base"):
            continue
        if token.end <= token.offset:
            continue
        if token.name == "base":
            base_seen += 1
        if token.offset in surplus_base_offsets:
            moves.append((token.offset, token.end, "", True))
        elif token.offset in finding_offsets:
            moves.append(
                (token.offset, token.end, _render_tag(token), False)
            )
    return moves


def _head_insertion_point(result) -> int:
    """Where repaired head elements should be re-inserted.

    Derived from the parse, not a text search — a literal ``<head`` can
    occur inside an attribute or comment where inserting would corrupt
    the document.  Right after the explicit ``<head...>`` start tag when
    present (which also satisfies DM2_3's before-any-URL requirement),
    otherwise after ``<html...>``, otherwise the top of the document —
    but past any doctype, since markup inserted before the doctype would
    demote the reparsed document to quirks mode.
    """
    document = result.document
    offsets = [
        element.source_offset
        for element in (document.head, document.document_element)
        if element is not None and not element.implied
    ]
    for offset in offsets:
        for token in result.tokens:
            if (
                isinstance(token, StartTag)
                and token.offset == offset
                and token.end > token.offset
            ):
                return token.end
    # No explicit head/html: insert at the top of the document, but past
    # a *leading* doctype — markup before it would demote the reparse to
    # quirks mode.  A doctype that appeared after content was ignored by
    # the parser (document.doctype stays unset) and must not move the
    # insertion point; nor can a token offset be used here, since
    # character tokens are batched and an offset inside a batch could
    # split an entity reference.
    if document.doctype is not None:
        for token in result.tokens:
            if isinstance(token, Doctype):
                close = result.source.find(">", token.offset)
                if close != -1:
                    return close + 1
                break
            if isinstance(token, Comment):
                continue
            if isinstance(token, Character) and not token.data.strip():
                continue
            break
    return 0


def _apply_edits(source: str, edits: list[tuple[int, int, str]]) -> str:
    """Apply non-overlapping (start, end, replacement) edits.

    Removing a tag must not splice its neighbours into new markup: in
    ``<<base>d/a>`` the first ``<`` is text only because ``<base`` follows
    it, and dropping the base would leave the tag ``<d/a>``.  So a stray
    text ``<`` left directly before a removed tag is written as ``&lt;``,
    which is the same text.
    """
    if not edits:
        return source
    edits.sort(key=lambda edit: (edit[0], edit[1]))
    parts: list[str] = []
    cursor = 0
    for start, end, replacement in edits:
        if start < cursor:
            # Overlapping edit (same tag flagged twice) — skip the later one.
            continue
        parts.append(source[cursor:start])
        if not replacement:
            _escape_trailing_lt(parts)
        parts.append(replacement)
        cursor = end
    parts.append(source[cursor:])
    return "".join(parts)


def _escape_trailing_lt(parts: list[str]) -> None:
    """Rewrite a ``<`` that ends the output so far as ``&lt;``.

    Replacements are whole tags ending in ``>``, so a trailing ``<`` is
    source text the tokenizer emitted as a character before the removed
    tag's ``<``.
    """
    for index in range(len(parts) - 1, -1, -1):
        part = parts[index]
        if part:
            if part[-1] == "<":
                parts[index] = part[:-1] + "&lt;"
            return


def estimate_fixability(report: CheckReport) -> bool:
    """True when every violation on the page is auto-fixable (section 4.4:
    such pages leave the 'violating' set after the automated repair)."""
    return bool(report.findings) and all(
        finding.violation in AUTO_FIXABLE_IDS for finding in report.findings
    )
