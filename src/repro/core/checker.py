"""The checker: run the Table 1 rule set over a document.

This is the "Checker" box of Figure 6.  Unlike the W3C validator — which
stops parsing when it hits certain mXSS-shaped inputs (the paper's
Figure 7) — this checker always processes the whole document: the parser
is error-tolerant by construction and every rule sees the complete parse.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..html import (
    ParseResult,
    StreamTreeBuilder,
    parse,
    parse_fragment,
    sniff_encoding,
)
from .mitigations import MitigationCollector, MitigationReport
from .rules import FusedCheckEngine, Rule, default_rules
from .violations import Finding


@dataclass(frozen=True, slots=True)
class DecodeFailure:
    """Typed outcome for bytes the section 4.1 encoding filter rejects.

    The batch pipeline only needs "skip this page", but a service endpoint
    must distinguish "clean page" from "page we could not even look at" —
    a silent ``None`` there turns into a blank 200.  ``declared_encoding``
    carries what the document *claims* to be (BOM / meta prescan), so the
    client learns why the UTF-8-only methodology rejected it.
    """

    url: str = ""
    reason: str = "not-utf8"
    #: the encoding the document declares (sniffed, never trusted); ""
    #: when nothing was declared
    declared_encoding: str = ""


@dataclass(slots=True)
class CheckReport:
    """All findings for one document.

    ``findings`` is append-only by convention (the checker extends it,
    analyses read it); :attr:`violated` caches its frozenset keyed on the
    list length, so the per-page hot loops in the longitudinal analyses
    (which call ``violated``/``has`` once per rule id per page) no longer
    rescan every finding on every call.
    """

    url: str
    findings: list[Finding] = field(default_factory=list)
    #: (findings length when computed, cached id set)
    _violated_cache: tuple[int, frozenset[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def violated(self) -> frozenset[str]:
        """The set of violation ids present at least once."""
        cache = self._violated_cache
        if cache is None or cache[0] != len(self.findings):
            cache = (
                len(self.findings),
                frozenset(finding.violation for finding in self.findings),
            )
            self._violated_cache = cache
        return cache[1]

    @property
    def counts(self) -> Counter:
        return Counter(finding.violation for finding in self.findings)

    def has(self, violation_id: str) -> bool:
        return violation_id in self.violated

    def __len__(self) -> int:
        return len(self.findings)


class Checker:
    """Run a rule set over documents.

    ``rules`` defaults to the full Table 1 set; pass a subset to check
    individual violations (the framework is extensible, section 3.1).

    The rules run on the :class:`FusedCheckEngine`, which compiles the
    rule set's declared footprints into one streaming pass over events,
    errors, tokens and the DOM, and wraps a failing rule in
    :class:`~repro.core.rules.RuleExecutionError` naming the rule id, so
    a crash on one page is attributable.  The per-rule reference it is
    equivalence-pinned to is ``repro.fuzz.oracles.ReferenceChecker``.

    Pages given as bytes (``check_bytes`` / ``parse_page_bytes``, which
    every production caller reaches) are parsed DOM-free: the tree builder
    emits the element pre-order while parsing and the fused tree dispatch
    runs over the flat list, never building text/comment nodes.  Pages
    whose parse needs a tree-reordering mutation *taint* mid-parse: the
    builder finishes normally and the tree dispatch falls back to the
    ordinary DOM walk over the (element-complete, text-free) tree — no
    re-parse, findings bit-identical by construction;
    :attr:`pages_checked` / :attr:`stream_fallbacks` count how often that
    happens.  ``check_html`` and ``check_fragment`` build full trees, and
    ``check_parse`` checks whichever parse it is given.  ``check_html``,
    ``check_fragment`` and ``check_bytes`` free the parse they make; a
    caller that wants the tree calls ``parse*`` itself, then
    ``check_parse``.
    """

    def __init__(self, rules: list[Rule] | None = None) -> None:
        self.rules = rules if rules is not None else default_rules()
        self._fused = FusedCheckEngine(self.rules)
        #: pages parsed through ``parse_page_bytes``/``check_bytes``
        self.pages_checked = 0
        #: of those, parses that tainted and fell back to the DOM walk
        self.stream_fallbacks = 0

    def parse_page_bytes(self, data: bytes) -> ParseResult:
        """Parse page bytes DOM-free, with the taint fallback.

        The result holds elements only (no text or comment nodes), so it
        is for the rules and :func:`~repro.core.features.measure_features`,
        not for the serializer; :func:`~repro.html.parse_bytes` builds the
        full tree.
        """
        self.pages_checked += 1
        builder = StreamTreeBuilder()
        result = builder.parse_bytes(data)
        if builder.tainted is not None:
            self.stream_fallbacks += 1
        return result

    def check_parse(self, result: ParseResult, url: str = "") -> CheckReport:
        report = CheckReport(url=url)
        report.findings.extend(self._fused.run(result))
        return report

    def check_parse_with_mitigations(
        self, result: ParseResult, url: str = ""
    ) -> "tuple[CheckReport, MitigationReport]":
        """Check a parse and measure mitigations in one pass.

        The section 4.5 mitigation detectors ride the fused engine's
        start-tag attribute sweep (one token iteration total); the report
        is bit-identical to calling :meth:`check_parse` and
        :func:`~repro.core.mitigations.measure_mitigations` separately.
        """
        report = CheckReport(url=url)
        collector = MitigationCollector()
        report.findings.extend(
            self._fused.run(result, attr_observer=collector)
        )
        return report, collector.report

    def _check_owned(self, result: ParseResult, url: str) -> CheckReport:
        """Check a parse this checker made, then free it."""
        report = self.check_parse(result, url=url)
        result.release()
        return report

    def check_html(self, text: str, url: str = "") -> CheckReport:
        return self._check_owned(parse(text), url)

    def check_fragment(self, text: str, context: str = "div", url: str = "") -> CheckReport:
        """Check an HTML *fragment* (the innerHTML algorithm).

        This is how dynamically loaded content enters the document — the
        paper's section 5.1 pre-study checks such fragments.  Rules that
        reason about head/body structure see the fragment's synthetic
        context, so the structural HF1/HF2 checks are intentionally inert
        here; the attribute- and table-level checks behave exactly as on
        full documents.
        """
        _nodes, result = parse_fragment(text, context)
        return self._check_owned(result, url)

    def check_bytes(self, data: bytes, url: str = "") -> CheckReport | DecodeFailure:
        """Check raw bytes decode-free; :class:`DecodeFailure` for non-UTF-8.

        Implements the paper's encoding filter (section 4.1): rather than
        guessing charsets, only UTF-8-decodable documents are analysed.
        The document is parsed straight from bytes (no upfront decode or
        preprocessing copies); invalid UTF-8 surfaces as a
        :class:`UnicodeDecodeError` from whichever scan first touches it,
        and is mapped to a :class:`DecodeFailure` carrying the sniffed
        declared encoding, never a bare ``None`` — callers that must report
        the rejection (the service's 422 path) get a typed value to branch
        on with ``isinstance``.
        """
        try:
            result = self.parse_page_bytes(data)
        except UnicodeDecodeError:
            return DecodeFailure(
                url=url,
                declared_encoding=sniff_encoding(data).encoding or "",
            )
        return self._check_owned(result, url)
