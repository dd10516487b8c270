"""Checker engine tests: report shape, rule subsets, encoding filter."""
from __future__ import annotations

import pytest

from repro.core import Checker, CheckReport, DecodeFailure
from repro.core.rules import MissingSpaceBetweenAttributes, SlashBetweenAttributes

DIRTY = (
    "<!DOCTYPE html><html><head><title>t</title></head><body>"
    '<img src="a"onerror="x()"><img/src="b">'
    "<table><tr><strong>X</strong></tr></table></body></html>"
)


class TestChecker:
    def test_full_rule_set_by_default(self):
        report = Checker().check_html(DIRTY)
        assert {"FB1", "FB2", "HF4"} <= report.violated

    def test_rule_subset(self):
        checker = Checker(rules=[MissingSpaceBetweenAttributes()])
        report = checker.check_html(DIRTY)
        assert report.violated == {"FB2"}

    def test_counts(self):
        report = Checker().check_html(DIRTY)
        assert report.counts["FB2"] == 1
        assert report.counts["FB1"] == 1

    def test_has(self):
        report = Checker().check_html(DIRTY)
        assert report.has("FB1")
        assert not report.has("DE1")

    def test_len_is_total_findings(self):
        report = Checker().check_html(DIRTY)
        assert len(report) == len(report.findings)

    def test_url_recorded(self):
        report = Checker().check_html(DIRTY, url="https://s/p")
        assert report.url == "https://s/p"

    def test_finding_type_accessor(self):
        report = Checker().check_html(DIRTY)
        finding = report.findings[0]
        assert finding.type.id == finding.violation


class TestEncodingFilter:
    def test_utf8_bytes_checked(self):
        report = Checker().check_bytes(DIRTY.encode("utf-8"))
        assert isinstance(report, CheckReport)
        assert "FB2" in report.violated

    def test_non_utf8_yields_typed_failure(self):
        outcome = Checker().check_bytes("café".encode("latin-1"))
        assert isinstance(outcome, DecodeFailure)
        assert outcome.reason == "not-utf8"

    def test_failure_carries_url(self):
        outcome = Checker().check_bytes(b"\xff\xfe\x00", url="https://s/p")
        assert isinstance(outcome, DecodeFailure)
        assert outcome.url == "https://s/p"

    def test_failure_reports_declared_encoding(self):
        page = b'<meta charset="shift_jis">\x93\xfa\x96\x7b'
        outcome = Checker().check_bytes(page)
        assert isinstance(outcome, DecodeFailure)
        assert outcome.declared_encoding == "shift_jis"

    def test_failure_without_declaration(self):
        outcome = Checker().check_bytes("café".encode("latin-1"))
        assert isinstance(outcome, DecodeFailure)
        assert outcome.declared_encoding == ""

    def test_bom_handled(self):
        report = Checker().check_bytes(b"\xef\xbb\xbf" + DIRTY.encode())
        assert isinstance(report, CheckReport)


class TestIndependence:
    """The paper runs rules independently; a rule subset must report the
    same findings for its rule as the full set does."""

    @pytest.mark.parametrize("rule_class", [SlashBetweenAttributes,
                                            MissingSpaceBetweenAttributes])
    def test_subset_equals_full(self, rule_class):
        full = Checker().check_html(DIRTY)
        solo = Checker(rules=[rule_class()]).check_html(DIRTY)
        rule_id = rule_class.id
        assert [f.offset for f in solo.findings] == [
            f.offset for f in full.findings if f.violation == rule_id
        ]
