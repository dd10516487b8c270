"""Fragment parsing (the innerHTML algorithm) tests across contexts."""
from __future__ import annotations

import pytest

from repro.html import (
    HTML_NAMESPACE,
    SVG_NAMESPACE,
    Element,
    inner_html,
    parse_fragment,
)


def names(nodes):
    return [node.name for node in nodes if isinstance(node, Element)]


class TestBasicContexts:
    def test_div_context(self):
        nodes, _result = parse_fragment("<p>a</p><p>b</p>", "div")
        assert names(nodes) == ["p", "p"]

    def test_text_in_div(self):
        nodes, _result = parse_fragment("just text", "div")
        assert nodes and nodes[0].parent is not None

    def test_td_requires_table_context(self):
        # td outside a table context is ignored; its text survives
        nodes, _result = parse_fragment("<td>cell</td>", "div")
        assert "td" not in names(nodes)

    def test_tr_context_keeps_cells(self):
        nodes, _result = parse_fragment("<td>a</td><td>b</td>", "tr")
        assert names(nodes) == ["td", "td"]

    def test_tbody_context_keeps_rows(self):
        nodes, _result = parse_fragment("<tr><td>x</td></tr>", "tbody")
        assert names(nodes) == ["tr"]

    def test_select_context(self):
        nodes, _result = parse_fragment(
            "<option>a</option><option>b</option>", "select"
        )
        assert names(nodes) == ["option", "option"]

    def test_select_context_strips_markup(self):
        nodes, result = parse_fragment("<div><option>a</option>", "select")
        assert "div" not in names(nodes)
        assert names(nodes) == ["option"]


class TestTextContexts:
    def test_textarea_context_is_rcdata(self):
        nodes, result = parse_fragment("<p>not a tag</p>", "textarea")
        assert names(nodes) == []
        text = "".join(
            node.data for node in nodes if hasattr(node, "data")
        )
        assert text == "<p>not a tag</p>"

    def test_script_context_is_raw(self):
        nodes, _result = parse_fragment("if (a<b) {}", "script")
        assert names(nodes) == []

    def test_style_context_is_raw(self):
        nodes, _result = parse_fragment("a > b {}", "style")
        assert names(nodes) == []

    def test_title_entities_decoded(self):
        nodes, _result = parse_fragment("a &amp; b", "title")
        text = "".join(node.data for node in nodes if hasattr(node, "data"))
        assert text == "a & b"

    def test_plaintext_context_never_ends(self):
        # PLAINTEXT has no end tag and no references: everything is text
        source = "<b>x</b> &amp; </plaintext>"
        nodes, _result = parse_fragment(source, "plaintext")
        assert names(nodes) == []
        text = "".join(node.data for node in nodes if hasattr(node, "data"))
        assert text == source


class TestFragmentRoundTrip:
    @pytest.mark.parametrize(
        "fragment",
        [
            "<p>one</p><p>two</p>",
            '<a href="/x">link</a> and text',
            "<ul><li>a</li><li>b</li></ul>",
            "<table><tbody><tr><td>c</td></tr></tbody></table>",
        ],
    )
    def test_stable_roundtrip(self, fragment):
        nodes, _result = parse_fragment(fragment, "div")
        parent = nodes[0].parent
        once = inner_html(parent)
        nodes2, _ = parse_fragment(once, "div")
        assert inner_html(nodes2[0].parent) == once

    def test_svg_context_namespace(self):
        nodes, _result = parse_fragment('<circle r="1"></circle>', "div")
        # circle without an svg root in a div context is an unknown HTML
        # element, not SVG
        circle = nodes[0]
        assert isinstance(circle, Element)
        assert circle.namespace == HTML_NAMESPACE


class TestFragmentErrors:
    def test_errors_reported(self):
        _nodes, result = parse_fragment('<img src="a"onerror="x">', "div")
        assert result.errors

    def test_events_reported(self):
        _nodes, result = parse_fragment(
            "<table><tr><b>bad</b></tr></table>", "div"
        )
        assert any(event.kind == "foster-parented" for event in result.events)
