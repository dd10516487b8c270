"""``Footprint.value_chars``: the attribute sweep's byte-level skip.

A rule (or the mitigation observer) that declares ``value_chars`` promises
that its ``fused_attr`` acts only on values containing at least one of
those characters.  When every attribute subscriber declares some, the
fused sweep skips start tags whose attributes are still an unread byte
region holding none of them.  These tests hold each live declaration to
its promise (hypothesis), pin that an undeclared subscriber still sees
every attribute, that the skip really leaves regions unread, and that
findings and mitigation reports stay those of the unskipped reference.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.core import Checker
from repro.core.mitigations import (
    MitigationCollector,
    MitigationReport,
    measure_mitigations,
)
from repro.core.rules import (
    URL_ATTRIBUTES,
    Footprint,
    FusedCheckEngine,
    FusedCompileError,
    default_rules,
)
from repro.core.rules.fused import WILDCARD
from repro.core.rules.base import Rule, iter_start_tag_attrs
from repro.fuzz.oracles import ReferenceChecker
from repro.html import parse_bytes
from repro.html.tokens import Attribute, StartTag

#: every live attribute subscriber that declares value_chars
RULE_SUBSCRIBERS = [
    rule for rule in default_rules() if type(rule).footprint.value_chars
]

#: attribute names worth feeding a wildcard subscriber
_NAMES = sorted(URL_ATTRIBUTES | {"target", "class", "nonce", "onclick", "title"})

#: values shaped like the ones the rules hunt for, before their declared
#: characters are stripped out
_SHAPES = ["<script>", "x\n<y", "a\nb", "<SCRIPT src=x>", "/p?q=<b", "\r\n", ""]


def _values(excluded: str):
    keep = lambda text: "".join(ch for ch in text if ch not in excluded)
    return st.one_of(
        st.text(alphabet=st.characters(blacklist_characters=excluded)),
        st.sampled_from(_SHAPES).map(keep),
    )


def _names(footprint: Footprint):
    if WILDCARD in footprint.token_attrs:
        return st.sampled_from(_NAMES)
    return st.sampled_from(sorted(footprint.token_attrs))


def _tag(name: str, value: str, tag_name: str) -> StartTag:
    return StartTag(
        offset=0, name=tag_name, attributes=[Attribute(name, value)], end=1
    )


def test_live_declarations():
    assert {rule.id for rule in RULE_SUBSCRIBERS} == {"DE3_1", "DE3_2", "DE3_3"}
    assert MitigationCollector.footprint.value_chars == "<\n"


@pytest.mark.parametrize("rule", RULE_SUBSCRIBERS, ids=lambda rule: rule.id)
def test_rule_ignores_values_without_its_chars(rule):
    footprint = type(rule).footprint

    @settings(max_examples=150, deadline=None)
    @given(
        name=_names(footprint),
        value=_values(footprint.value_chars),
        tag_name=st.sampled_from(["a", "script", "img", "form"]),
    )
    def check(name, value, tag_name):
        out: list = []
        rule.fused_attr(_tag(name, value, tag_name), name, value, "", out)
        assert out == []

    check()


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(_NAMES),
    value=_values(MitigationCollector.footprint.value_chars),
    tag_name=st.sampled_from(["a", "script", "img", "form"]),
)
def test_collector_ignores_values_without_its_chars(name, value, tag_name):
    collector = MitigationCollector()
    collector(_tag(name, value, tag_name), name, value)
    assert collector.report == MitigationReport()


class _SeesEverything(Rule):
    """An attribute subscriber with no value_chars (a third-party rule)."""

    id = "DE3_2"
    footprint = Footprint(token_attrs=(WILDCARD,))

    def check(self, result):
        return []

    def fused_attr(self, tag, name, value, source, out):
        out.append((tag.offset, name, value))


#: lazily tokenized attribute regions with no "<" and no newline, and one
#: that has both
PAGE = (
    b"<!doctype html><html><head><link rel=stylesheet href=/s.css></head>"
    b"<body><a href=/x class=nav>x</a><img src=i.png alt=pic>"
    b"<a href='/y\n<b'>y</a><div id=d title='t'>z</div></body></html>"
)


def test_undeclared_subscriber_sees_every_attribute():
    expected = [
        (tag.offset, name, value)
        for tag, name, value in iter_start_tag_attrs(parse_bytes(PAGE))
    ]
    rules = [_SeesEverything()] + RULE_SUBSCRIBERS
    seen = FusedCheckEngine(rules).run(parse_bytes(PAGE))
    assert [item for item in seen if isinstance(item, tuple)] == expected
    # the observer path also turns the skip off for it
    collector = MitigationCollector()
    seen = FusedCheckEngine(rules).run(parse_bytes(PAGE), attr_observer=collector)
    assert [item for item in seen if isinstance(item, tuple)] == expected
    assert collector.report == measure_mitigations(parse_bytes(PAGE))


def test_declared_subscribers_leave_clean_regions_unread():
    result = parse_bytes(PAGE)
    collector = MitigationCollector()
    findings = FusedCheckEngine(RULE_SUBSCRIBERS).run(
        result, attr_observer=collector
    )
    unread = [
        token.name for token in result.tokens
        if token.__class__ is StartTag and token._lazy is not None
    ]
    # everything but the one region holding "<" and a newline stays bytes
    assert "link" in unread and "img" in unread and "div" in unread
    assert [f.violation for f in findings] == ["DE3_1"]
    assert collector.report.urls_with_newline_and_lt == 1


def test_value_chars_without_token_attrs_rejected():
    class Bad(Rule):
        id = "DE1"
        footprint = Footprint(events=("rcdata-closed-at-eof",), value_chars="<")

        def check(self, result):
            return []

        def fused_event(self, event, source, out):
            pass

    with pytest.raises(FusedCompileError):
        FusedCheckEngine([Bad()])


def test_skip_keeps_findings_and_mitigations():
    rng = random.Random(23)
    checker = Checker()
    reference = ReferenceChecker()
    for seed in range(12):
        draft = build_page("chars.example", f"/{seed}", random.Random(seed))
        for name in sorted(INJECTORS):
            if not INJECTORS[name].terminal and rng.random() < 0.4:
                INJECTORS[name].apply(draft, rng)
        page = draft.render().encode("utf-8")
        report, mitigation = checker.check_parse_with_mitigations(
            checker.parse_page_bytes(page)
        )
        full = parse_bytes(page)
        assert report.findings == reference.check_parse(full).findings, seed
        assert mitigation == measure_mitigations(full), seed
