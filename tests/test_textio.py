"""Text and JSON formats for distributions and urns."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finstoch import Multiset, Tagged, make_dist, make_finset
from finstoch.textio import (
    FormatError,
    dist_to_json,
    label_to_json,
    parse_dist,
    parse_urn,
    render_dist_lines,
    render_label,
    render_multiset,
)

AB = make_finset(["a", "b"])


class TestParseDist:
    def test_basic(self):
        d = parse_dist("a:1/3,b:2/3")
        assert d.carrier.elements == ("a", "b")
        assert d.weights == (F(1, 3), F(2, 3))

    def test_whole_numbers(self):
        assert parse_dist("a:1").weights == (F(1),)

    def test_must_sum_to_one(self):
        with pytest.raises(FormatError):
            parse_dist("a:1/2,b:1/3")

    def test_rejects_negative(self):
        with pytest.raises(FormatError):
            parse_dist("a:3/2,b:-1/2")

    def test_rejects_duplicates_and_garbage(self):
        with pytest.raises(FormatError):
            parse_dist("a:1/2,a:1/2")
        with pytest.raises(FormatError):
            parse_dist("a=1")
        with pytest.raises(FormatError):
            parse_dist("a:one")


    def test_rejects_exponents_at_once(self):
        # Fraction would compute 10**99999999 before any check
        for text in ("a:1e99999999", "a:1e-99999999,b:1", "a:1E5"):
            with pytest.raises(FormatError, match="bad rational"):
                parse_dist(text)

    def test_plain_decimals_still_parse(self):
        assert parse_dist("a:0.25,b:3/4").weights == (F(1, 4), F(3, 4))


class TestParseUrn:
    def test_basic(self):
        urn = parse_urn("a:2,b:1")
        assert urn.base.elements == ("a", "b")
        assert urn.counts == (2, 1)
        assert urn.size == 3

    def test_json_form(self):
        urn = parse_urn('{"colors": ["a", "b"], "counts": [2, 1]}')
        assert urn == parse_urn("a:2,b:1")

    def test_zero_counts_allowed(self):
        assert parse_urn("a:2,b:0").counts == (2, 0)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(FormatError):
            parse_urn("a:-1")
        with pytest.raises(FormatError):
            parse_urn("a:1/2")

    def test_rejects_mismatched_json(self):
        with pytest.raises(FormatError):
            parse_urn('{"colors": ["a"], "counts": [1, 2]}')


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def parses_or_format_error(text: str) -> None:
    try:
        parse_urn(text)
    except FormatError:
        pass


@given(st.text() | st.text().map(lambda t: "{" + t))
def test_any_urn_text_parses_or_raises_format_error(text):
    parses_or_format_error(text)


@given(st.lists(st.text(), max_size=4) | JSON_VALUES, st.lists(st.integers(), max_size=4) | JSON_VALUES)
def test_any_json_urn_parses_or_raises_format_error(colors, counts):
    parses_or_format_error(json.dumps({"colors": colors, "counts": counts}))


class TestRendering:
    def test_multiset(self):
        assert render_multiset(Multiset(AB, (2, 3))) == "2|a|+3|b|"
        assert render_multiset(Multiset(AB, (0, 0))) == "0"
        assert render_multiset(Multiset(AB, (0, 1))) == "1|b|"

    def test_nested_labels(self):
        assert render_label(("a", "b")) == "(a,b)"
        assert render_label(Tagged(1, ("a", "b"))) == "#1:(a,b)"
        assert render_label(Tagged(0, Multiset(AB, (1, 0)))) == "#0:1|a|"

    def test_dist_lines_reparse_to_one(self):
        d = make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})
        lines = render_dist_lines(d)
        assert lines == ["a: 1/3", "b: 2/3"]
        assert sum(F(line.split(": ")[1]) for line in lines) == 1

    def test_json_labels(self):
        assert label_to_json(Multiset(AB, (2, 0))) == {"colors": ["a", "b"], "counts": [2, 0]}
        assert label_to_json(Tagged(1, "a")) == {"tag": 1, "value": "a"}
        assert label_to_json(("a", "b")) == ["a", "b"]

    def test_dist_json_probabilities_exact(self):
        d = make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})
        payload = dist_to_json(d)
        assert sum(F(e["probability"]) for e in payload["entries"]) == 1
