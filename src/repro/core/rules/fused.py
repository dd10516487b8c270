"""The fused single-pass check engine: registry + footprints -> one walk.

The per-rule reference path in :class:`repro.core.checker.Checker` runs 20
independent traversals over the same :class:`~repro.html.ParseResult` —
every rule re-reads the event list, the error list, the token stream or
the DOM on its own.  This module compiles the rule set into dispatch
tables keyed by the *data* each rule consumes, so one streaming pass over
each shared source feeds every subscribed rule:

* ``events``  — one scan of ``result.events``  keyed by ``TreeEvent.kind``;
* ``errors``  — one scan of ``result.errors``  keyed by ``ParseError.code``;
* ``token attributes`` — one scan of ``result.tokens`` dispatching each
  start-tag attribute by name (with a ``"*"`` wildcard bucket);
* ``tree``    — one document-order DOM walk keyed by element tag (with a
  ``"*"`` wildcard bucket), tracking the head region so rules never
  re-scan ancestor chains.

Each rule *declares* what it reads as a :class:`Footprint` class attribute
and implements streaming ``fused_*`` handlers; the ``footprint``
staticcheck pass proves the declaration against the AST of the rule's
``check`` body, so a rule edit can never silently fall out of the fused
walk.  Equivalence with the retained per-rule reference implementation is
machine-checked the same way the bytes tokenizer is pinned to the
per-character ``Tokenizer`` base: the ``fused_parity`` fuzz oracle and the
corpus/template replay suite assert bit-identical findings.

Ordering contract: findings are accumulated into one bucket per rule and
concatenated in rule order, which reproduces the reference rule-major
ordering exactly — each rule's own findings follow its source's document
order, which is also what ``Rule.check`` produces.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ...html import ParseResult
from ...html.dom import Element
from ...html.tokens import StartTag
from ..violations import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .base import Rule

#: wildcard subscription key for token-attribute and tree dispatch
WILDCARD = "*"


@dataclass(frozen=True, slots=True)
class Footprint:
    """Everything one rule reads from a :class:`ParseResult`.

    The declaration is the contract between a rule and the fused engine:
    the engine only feeds a rule the facts its footprint names, and the
    ``footprint`` staticcheck pass verifies the declaration against the
    rule's reference ``check`` body.

    * ``events`` — :class:`~repro.html.treebuilder.TreeEvent` kinds read;
    * ``errors`` — :class:`~repro.html.ErrorCode` member *names* read;
    * ``token_attrs`` — start-tag attribute names read from the token
      stream (``"*"`` = every attribute);
    * ``tags`` — element names read from the DOM walk (``"*"`` = every
      element);
    * ``regions`` — tree regions consulted per element (``"head"``);
    * ``value_chars`` — characters at least one of which an attribute
      value must contain for ``fused_attr`` to act on it (``""`` = any
      value can matter).  Only meaningful with ``token_attrs``: when every
      attribute subscriber declares some, the sweep skips start tags
      whose unread attribute bytes hold none of them (see
      :meth:`FusedCheckEngine.run`).
    """

    events: tuple[str, ...] = ()
    errors: tuple[str, ...] = ()
    token_attrs: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    regions: tuple[str, ...] = ()
    value_chars: str = ""

    def sources(self) -> tuple[str, ...]:
        """Which of the four shared scans this footprint subscribes to."""
        names = []
        if self.events:
            names.append("events")
        if self.errors:
            names.append("errors")
        if self.token_attrs:
            names.append("tokens")
        if self.tags:
            names.append("tree")
        return tuple(names)


class FusedCompileError(ValueError):
    """A rule declares a footprint the engine cannot compile."""


class RuleExecutionError(RuntimeError):
    """A rule handler raised mid-walk; names the offending rule.

    Both engines wrap rule failures in this, so the pipeline can report
    *which* rule broke on a page instead of aborting the page silently.
    """

    def __init__(self, rule_id: str, cause: BaseException) -> None:
        super().__init__(f"rule {rule_id} failed: {cause!r}")
        self.rule_id = rule_id
        self.cause = cause


#: footprint field -> handler method the rule class must implement
_HANDLERS = {
    "events": "fused_event",
    "errors": "fused_error",
    "token_attrs": "fused_attr",
    "tags": "fused_element",
}


@dataclass(slots=True)
class _Compiled:
    """Dispatch tables for one rule set (built once per Checker)."""

    # each entry: (bucket index, rule, bound handler)
    event_subs: dict = field(default_factory=dict)
    error_subs: dict = field(default_factory=dict)
    attr_subs: dict = field(default_factory=dict)
    attr_wild: list = field(default_factory=list)
    tag_subs: dict = field(default_factory=dict)
    tag_wild: list = field(default_factory=list)
    tree_indices: tuple = ()
    unfused: tuple = ()  # (bucket index, rule) run via rule.check()
    #: union of the attribute subscribers' ``value_chars``; None when one
    #: of them declares none (every value can matter to it)
    value_chars: str | None = ""


class FusedCheckEngine:
    """One-walk execution of a rule set.

    Rules that declare a :class:`Footprint` are compiled into the shared
    scans; rules without one (third-party extensions) fall back to their
    own ``check`` into the same ordered bucket, so the output order is
    identical to the reference loop either way.
    """

    def __init__(self, rules: Sequence["Rule"]) -> None:
        self.rules = tuple(rules)
        self._tables = _compile(self.rules)
        #: observer class (NoneType: no observer) -> its sweep skip test
        self._skips: dict[type, object] = {}

    @property
    def fused_rule_count(self) -> int:
        return len(self.rules) - len(self._tables.unfused)

    def _attr_skip(self, attr_observer):
        """``search`` of the pattern an unread attribute region must match
        to be swept, or None when every start tag must be swept."""
        kind = type(attr_observer)
        if kind in self._skips:
            return self._skips[kind]
        chars = self._tables.value_chars
        if chars is not None and attr_observer is not None:
            footprint = getattr(kind, "footprint", None)
            observed = footprint.value_chars if footprint is not None else ""
            chars = "".join(sorted(set(chars + observed))) if observed else None
        skip = None if chars is None else re.compile(b"|".join(
            re.escape(char.encode("utf-8")) for char in chars
        )).search
        self._skips[kind] = skip
        return skip

    def run(self, result: ParseResult, attr_observer=None) -> list[Finding]:
        """Run the fused pass; ``attr_observer`` (if given) is called
        ``observer(token, name, value)`` for every start-tag attribute the
        attr sweep visits — same tokens, same order as
        :func:`~repro.core.rules.base.iter_start_tag_attrs`, letting
        callers (the pipeline's mitigation detectors) ride the one token
        iteration instead of paying for their own.

        The sweep leaves out start tags whose attributes cannot matter:
        when every attribute subscriber, and the observer's class
        ``footprint``, declares ``value_chars``, a tag whose attributes are
        still an unread byte region holding none of those characters is
        skipped without decoding.  The bytes tokenizer defers only ASCII
        regions without ``&`` or NUL, after CR is folded to LF, so a value
        contains a character exactly when the region's bytes do.
        """
        tables = self._tables
        buckets: list[list[Finding]] = [[] for _ in self.rules]
        source = result.source
        current: "Rule | None" = None
        try:
            event_subs = tables.event_subs
            if event_subs:
                for event in result.events:
                    subs = event_subs.get(event.kind)
                    if subs:
                        for index, rule, handler in subs:
                            current = rule
                            handler(event, source, buckets[index])
            error_subs = tables.error_subs
            if error_subs:
                for error in result.errors:
                    subs = error_subs.get(error.code)
                    if subs:
                        for index, rule, handler in subs:
                            current = rule
                            handler(error, source, buckets[index])
            attr_subs, attr_wild = tables.attr_subs, tables.attr_wild
            if attr_subs or attr_wild or attr_observer is not None:
                get_attr_subs = attr_subs.get
                skip = self._attr_skip(attr_observer)
                if len(attr_wild) == 1 and attr_observer is None:
                    # single-wildcard fast lane (the default rule set):
                    # unpack the lone wild subscriber once and skip the
                    # per-attribute tuple iteration
                    wild_index, wild_rule, wild_handler = attr_wild[0]
                    wild_bucket = buckets[wild_index]
                    for token in result.tokens:
                        if token.__class__ is StartTag:
                            if skip is not None:
                                lazy = token._lazy
                                if lazy is not None and skip(
                                    lazy.source.data, lazy.start, lazy.end
                                ) is None:
                                    continue
                            for attribute in token.attributes:
                                name = attribute.name
                                value = attribute.value
                                subs = get_attr_subs(name)
                                if subs:
                                    for index, rule, handler in subs:
                                        current = rule
                                        handler(
                                            token, name, value,
                                            source, buckets[index],
                                        )
                                current = wild_rule
                                wild_handler(
                                    token, name, value, source, wild_bucket
                                )
                else:
                    for token in result.tokens:
                        if token.__class__ is StartTag:
                            if skip is not None:
                                lazy = token._lazy
                                if lazy is not None and skip(
                                    lazy.source.data, lazy.start, lazy.end
                                ) is None:
                                    continue
                            for attribute in token.attributes:
                                name = attribute.name
                                value = attribute.value
                                subs = get_attr_subs(name)
                                if subs:
                                    for index, rule, handler in subs:
                                        current = rule
                                        handler(
                                            token, name, value,
                                            source, buckets[index],
                                        )
                                for index, rule, handler in attr_wild:
                                    current = rule
                                    handler(
                                        token, name, value,
                                        source, buckets[index],
                                    )
                                if attr_observer is not None:
                                    attr_observer(token, name, value)
            tag_subs, tag_wild = tables.tag_subs, tables.tag_wild
            if tag_subs or tag_wild:
                states: dict[int, dict] = {i: {} for i in tables.tree_indices}
                stream = result.stream_elements
                get_tag_subs = tag_subs.get
                single_wild = len(tag_wild) == 1
                if single_wild:
                    # same single-wildcard fast lane as the attr pass
                    twild_index, twild_rule, twild_handler = tag_wild[0]
                    twild_state = states[twild_index]
                    twild_bucket = buckets[twild_index]
                if stream is not None:
                    # stream parse: the tree builder already emitted the
                    # element pre-order with walk-equivalent in_head flags,
                    # so dispatch runs over the flat list with no DOM walk
                    if single_wild:
                        for node, in_head in stream:
                            subs = get_tag_subs(node.name)
                            if subs:
                                for index, rule, handler in subs:
                                    current = rule
                                    handler(
                                        node, in_head, source,
                                        states[index], buckets[index],
                                    )
                            current = twild_rule
                            twild_handler(
                                node, in_head, source,
                                twild_state, twild_bucket,
                            )
                    else:
                        for node, in_head in stream:
                            subs = get_tag_subs(node.name)
                            if subs:
                                for index, rule, handler in subs:
                                    current = rule
                                    handler(
                                        node, in_head, source,
                                        states[index], buckets[index],
                                    )
                            for index, rule, handler in tag_wild:
                                current = rule
                                handler(
                                    node, in_head, source,
                                    states[index], buckets[index],
                                )
                else:
                    # mirror Node.iter()'s iterative pre-order exactly,
                    # adding a "has a <head> ancestor" flag so
                    # region-scoped rules do not re-walk ancestor chains
                    stack: list = [(result.document, False)]
                    pop = stack.pop
                    while stack:
                        node, in_head = pop()
                        if node.__class__ is Element:
                            subs = get_tag_subs(node.name)
                            if subs:
                                for index, rule, handler in subs:
                                    current = rule
                                    handler(
                                        node, in_head, source,
                                        states[index], buckets[index],
                                    )
                            if single_wild:
                                current = twild_rule
                                twild_handler(
                                    node, in_head, source,
                                    twild_state, twild_bucket,
                                )
                            else:
                                for index, rule, handler in tag_wild:
                                    current = rule
                                    handler(
                                        node, in_head, source,
                                        states[index], buckets[index],
                                    )
                            child_in_head = in_head or node.name == "head"
                        else:
                            child_in_head = in_head
                        children = node.children
                        if children:
                            stack.extend(
                                (child, child_in_head)
                                for child in reversed(children)
                            )
            for index, rule in tables.unfused:
                current = rule
                buckets[index] = rule.check(result)
        except Exception as exc:
            rule_id = current.id if current is not None else "<unknown>"
            raise RuleExecutionError(rule_id, exc) from exc
        findings: list[Finding] = []
        for bucket in buckets:
            findings.extend(bucket)
        return findings


def _compile(rules: Sequence["Rule"]) -> _Compiled:
    tables = _Compiled()
    unfused: list = []
    tree_indices: list[int] = []
    for index, rule in enumerate(rules):
        footprint = getattr(type(rule), "footprint", None)
        if footprint is None:
            unfused.append((index, rule))
            continue
        if not isinstance(footprint, Footprint):
            raise FusedCompileError(
                f"rule {rule.id}: footprint must be a Footprint instance, "
                f"got {type(footprint).__name__}"
            )
        if not footprint.sources():
            raise FusedCompileError(
                f"rule {rule.id}: footprint subscribes to no data source"
            )
        if footprint.value_chars and not footprint.token_attrs:
            raise FusedCompileError(
                f"rule {rule.id}: footprint declares value_chars without "
                "token_attrs"
            )
        for fp_field, method in _HANDLERS.items():
            keys = getattr(footprint, fp_field)
            if not keys:
                continue
            handler = getattr(rule, method, None)
            if handler is None:
                raise FusedCompileError(
                    f"rule {rule.id}: footprint declares {fp_field} but "
                    f"{method}() is not implemented"
                )
            if fp_field == "events":
                for kind in keys:
                    tables.event_subs.setdefault(kind, []).append(
                        (index, rule, handler)
                    )
            elif fp_field == "errors":
                from ...html import ErrorCode

                for code_name in keys:
                    try:
                        code = ErrorCode[code_name]
                    except KeyError:
                        raise FusedCompileError(
                            f"rule {rule.id}: unknown ErrorCode "
                            f"{code_name!r} in footprint"
                        ) from None
                    tables.error_subs.setdefault(code, []).append(
                        (index, rule, handler)
                    )
            elif fp_field == "token_attrs":
                if not footprint.value_chars:
                    tables.value_chars = None
                elif tables.value_chars is not None:
                    tables.value_chars = "".join(
                        sorted(set(tables.value_chars + footprint.value_chars))
                    )
                if WILDCARD in keys:
                    tables.attr_wild.append((index, rule, handler))
                else:
                    for name in keys:
                        tables.attr_subs.setdefault(name, []).append(
                            (index, rule, handler)
                        )
            else:  # tags
                tree_indices.append(index)
                if WILDCARD in keys:
                    tables.tag_wild.append((index, rule, handler))
                else:
                    for name in keys:
                        tables.tag_subs.setdefault(name, []).append(
                            (index, rule, handler)
                        )
    tables.tree_indices = tuple(tree_indices)
    tables.unfused = tuple(unfused)
    return tables
