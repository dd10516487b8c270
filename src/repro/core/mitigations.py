"""Detectors for the deployed mitigations analysed in section 4.5.

Two Chromium-side mitigations are evaluated by the paper:

1. *Nonce stealing*: if a ``script`` element carries a CSP nonce and any
   attribute contains the string ``<script``, the element is treated as
   nonce-less (w3c/webappsec-csp#98).  The detector reports every element
   with ``<script`` in an attribute and whether it is actually a nonced
   script (the paper found none are).
2. *Dangling markup*: URLs containing both ``\\n`` and ``<`` are blocked
   since Chromium 2017 (Mike West's intent-to-remove).  The detector
   reports URLs with a newline, and the subset that also contains ``<``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..html import ParseResult, parse
from .rules import URL_ATTRIBUTES, Footprint, iter_start_tag_attrs


@dataclass(frozen=True, slots=True)
class ScriptInAttrHit:
    """An element with '<script' inside an attribute value."""

    element: str
    attribute: str
    #: True when the element is a <script> tag carrying a nonce attribute —
    #: the only case the Chromium mitigation would actually neutralize.
    is_nonced_script: bool


@dataclass(slots=True)
class MitigationReport:
    """Per-document mitigation measurements."""

    script_in_attr: list[ScriptInAttrHit] = field(default_factory=list)
    urls_with_newline: int = 0
    urls_with_newline_and_lt: int = 0

    @property
    def affected_by_nonce_mitigation(self) -> bool:
        return any(hit.is_nonced_script for hit in self.script_in_attr)

    @property
    def conflicts_with_url_mitigation(self) -> bool:
        return self.urls_with_newline_and_lt > 0


class MitigationCollector:
    """Attribute-sweep observer form of :func:`measure_mitigations`.

    The fused check engine already iterates every start tag's attributes
    once; passing an instance of this as its ``attr_observer`` fills the
    same :class:`MitigationReport` from that one sweep instead of paying
    for a second full token iteration.  Visit order is identical to
    :func:`~repro.core.rules.base.iter_start_tag_attrs`, so the report is
    bit-identical to the standalone measurement.  Both detectors need a
    ``<`` or a newline in the value, which the footprint declares so the
    sweep can skip attributes that hold neither.
    """

    __slots__ = ("report",)
    footprint = Footprint(token_attrs=("*",), value_chars="<\n")

    def __init__(self) -> None:
        self.report = MitigationReport()

    def __call__(self, tag, name: str, value: str) -> None:
        report = self.report
        if "<script" in value.lower():
            report.script_in_attr.append(
                ScriptInAttrHit(
                    element=tag.name,
                    attribute=name,
                    is_nonced_script=(
                        tag.name == "script" and tag.has_attr("nonce")
                    ),
                )
            )
        if name in URL_ATTRIBUTES and "\n" in value:
            report.urls_with_newline += 1
            if "<" in value:
                report.urls_with_newline_and_lt += 1


def measure_mitigations(result: ParseResult) -> MitigationReport:
    """Measure both mitigation footprints on one parsed document."""
    collector = MitigationCollector()
    for tag, name, value in iter_start_tag_attrs(result):
        collector(tag, name, value)
    return collector.report


def measure_mitigations_html(text: str) -> MitigationReport:
    return measure_mitigations(parse(text))
