"""Edge cases for :func:`repro.pipeline.checker_stage.check_page`.

The checker stage sits between the fetcher and storage; a page it
mishandles is a page silently missing from the study.  These tests pin
the boundary behaviours: documents with no body, bytes the section 4.1
encoding filter rejects, and a rule blowing up mid-walk (which must name
the offending rule, not abort the page anonymously).
"""
from __future__ import annotations

import pytest

from repro.core import Checker, RuleExecutionError
from repro.core.rules import Footprint
from repro.core.rules.base import Rule
from repro.fuzz.oracles import ReferenceChecker
from repro.pipeline.checker_stage import CheckedPage, check_page
from repro.pipeline.crawler import FetchedPage


def page(payload: bytes, url: str = "https://s/p",
         content_type: str = "text/html") -> FetchedPage:
    return FetchedPage(url=url, payload=payload, content_type=content_type)


class TestEmptyAndDegenerateBodies:
    def test_empty_payload_is_checked_not_crashed(self):
        checked = check_page(page(b""), Checker())
        assert checked.utf8 is True
        assert checked.report is not None
        # the parser implies <head>/<body>; HF1 fires, nothing crashes
        assert checked.report.violated <= {"HF1", "HF2"}
        assert checked.features is not None

    def test_head_only_document(self):
        html = b"<!DOCTYPE html><html><head><title>t</title></head></html>"
        checked = check_page(page(html), Checker())
        assert checked.utf8 is True
        assert checked.report is not None
        # the parser still implies a body; features must not choke on it
        assert checked.features is not None

    def test_whitespace_only_document(self):
        checked = check_page(page(b"  \n\t  "), Checker())
        assert checked.utf8 is True
        assert checked.report is not None

    def test_mitigation_measurement_optional(self):
        checked = check_page(
            page(b"<p>x</p>"), Checker(), measure_mitigation_signals=False
        )
        assert checked.mitigation is None
        assert checked.report is not None


class TestEncodingFilter:
    def test_non_utf8_page_is_skipped_not_checked(self):
        latin1 = "<p>caf\xe9</p>".encode("latin-1")
        checked = check_page(page(latin1), Checker())
        assert checked.utf8 is False
        assert checked.report is None
        assert checked.mitigation is None
        assert checked.features is None
        assert checked.url == "https://s/p"

    def test_declared_encoding_recorded_for_rejected_page(self):
        payload = (
            b'<meta charset="iso-8859-1"><p>caf\xe9</p>'
        )
        checked = check_page(page(payload), Checker())
        assert checked.utf8 is False
        # the meta prescan normalizes the label (iso-8859-1 -> windows-1252)
        assert checked.declared_encoding == "windows-1252"

    def test_declared_encoding_from_http_header(self):
        payload = "<p>caf\xe9</p>".encode("latin-1")
        checked = check_page(
            page(payload, content_type="text/html; charset=windows-1252"),
            Checker(),
        )
        assert checked.utf8 is False
        assert checked.declared_encoding == "windows-1252"

    def test_utf8_bom_page_still_checked(self):
        checked = check_page(page(b"\xef\xbb\xbf<p>x</p>"), Checker())
        assert checked.utf8 is True
        assert checked.report is not None


class _ExplodingRule(Rule):
    """FB1 — fixture reusing a registered id (HTML 0.0.0)."""

    id = "FB1"
    footprint = Footprint(tags=("*",))

    def fused_element(self, element, in_head, source, state, out):
        raise ZeroDivisionError("boom")

    def check(self, result):
        raise ZeroDivisionError("boom")


class TestRuleFailureAttribution:
    """A rule raising mid-walk must surface WHICH rule failed."""

    @pytest.mark.parametrize(
        "checker_class", [Checker, ReferenceChecker], ids=["fused", "reference"]
    )
    def test_failure_names_rule(self, checker_class):
        checker = checker_class(rules=[_ExplodingRule()])
        with pytest.raises(RuleExecutionError) as caught:
            check_page(page(b"<p>x</p>"), checker)
        assert caught.value.rule_id == "FB1"
        assert isinstance(caught.value.cause, ZeroDivisionError)
        assert "FB1" in str(caught.value)

    def test_failure_is_not_swallowed_into_checked_page(self):
        # the stage must propagate, not hand back a half-built CheckedPage
        checker = Checker(rules=[_ExplodingRule()])
        with pytest.raises(RuleExecutionError):
            check_page(page(b"<p>x</p>"), checker)

    def test_healthy_rules_unaffected(self):
        checked = check_page(page(b"<img src=a ><p>x</p>"), Checker())
        assert isinstance(checked, CheckedPage)
        assert checked.report is not None
