"""Stage 3 of Figure 6: decode, filter, and check fetched documents.

Applies the section 4.1 encoding filter (UTF-8 only) and runs the full
rule set plus the section 4.5 mitigation detectors over each page, sharing
a single parse per document.

This stage is also where the incremental engine's dedup decision lives:
:func:`page_content_key` names a fetched body exactly, and
:mod:`repro.incremental.dedup` consults the cross-snapshot content index
under that key *before* paying for :func:`check_page` — a hit carries the
recorded outcome forward instead of re-parsing.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core import Checker, CheckReport
from ..core.features import PageFeatures, measure_features
from ..core.mitigations import MitigationReport
from ..html import sniff_encoding
from .crawler import FetchedPage


@dataclass(slots=True)
class CheckedPage:
    """The checker's output for one page."""

    url: str
    utf8: bool
    report: CheckReport | None = None
    mitigation: MitigationReport | None = None
    features: PageFeatures | None = None
    #: what the page *declares* (BOM / HTTP charset / meta prescan);
    #: recorded for the section 4.1 context stats, never used to decode
    declared_encoding: str = ""


def page_content_key(payload: bytes, content_type: str) -> str:
    """sha256 key naming a page body for exact-duplicate dedup.

    Length-prefixed parts (the service cache's ambiguity-free framing):
    the payload bytes plus the HTTP content-type header, because the
    header feeds the declared-encoding sniff — two captures serving the
    same bytes under different charset headers are *not* the same page
    for the section 4.1 encoding stats, so they get distinct keys.
    """
    hasher = hashlib.sha256()
    for part in (payload, content_type.encode("utf-8", "surrogateescape")):
        hasher.update(str(len(part)).encode("ascii"))
        hasher.update(b":")
        hasher.update(part)
    return hasher.hexdigest()


def check_page(
    page: FetchedPage,
    checker: Checker,
    *,
    measure_mitigation_signals: bool = True,
) -> CheckedPage:
    """Run the filter + checker over one fetched page."""
    declared = sniff_encoding(
        page.payload, http_content_type=page.content_type
    ).encoding or ""
    try:
        # decode-free: the bytes tokenizer applies the UTF-8 filter as it
        # scans, so clean pages never pay for an upfront decode + copy;
        # the stream parse skips the DOM build and falls back to the DOM
        # walk only on tainted pages
        result = checker.parse_page_bytes(page.payload)
    except UnicodeDecodeError:
        return CheckedPage(url=page.url, utf8=False, declared_encoding=declared)
    if measure_mitigation_signals:
        # the mitigation sweep rides the fused engine's attribute pass —
        # one token iteration for the rules and the section 4.5 detectors
        report, mitigation = checker.check_parse_with_mitigations(
            result, url=page.url
        )
    else:
        report = checker.check_parse(result, url=page.url)
        mitigation = None
    features = measure_features(result)
    result.release()
    return CheckedPage(
        url=page.url, utf8=True, report=report, mitigation=mitigation,
        features=features, declared_encoding=declared,
    )
