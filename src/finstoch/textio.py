"""Text and JSON formats for distributions, urns, and rendered outputs.

Distribution text: comma-separated ``label:num/den`` entries summing to
one, e.g. ``a:1/3,b:2/3``.  Urn text: comma-separated ``label:count``
entries, e.g. ``a:2,b:1``; the JSON form of an urn or multiset is
``{"colors": [...], "counts": [...]}`` with the full aligned vectors.
Multisets render as ``2|a|+3|b|`` (nonzero terms in base order, ``0``
for the empty multiset).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .core import Dist, Label, Tagged, make_finset
from .multisets import Multiset


class FormatError(ValueError):
    """Malformed distribution or urn text."""


def parse_fraction(text: str) -> Fraction:
    if "e" in text.lower():  # Fraction would compute 10**exponent, however many digits that takes
        raise FormatError(f"bad rational {text!r}: exponents are not accepted, write num/den")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from None
    return value


def _parse_entries(text: str) -> list[tuple[str, str]]:
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise FormatError("empty entry")
        label, sep, value = chunk.partition(":")
        if not sep:
            raise FormatError(f"entry {chunk!r} needs the form label:value")
        label = label.strip()
        if not label:
            raise FormatError("empty label")
        entries.append((label, value.strip()))
    return entries


def parse_dist(text: str) -> Dist:
    """Parse ``a:1/3,b:2/3`` into an exact distribution."""
    entries = _parse_entries(text)
    labels = [lab for lab, _ in entries]
    if len(set(labels)) != len(labels):
        raise FormatError("duplicate labels in distribution")
    weights = []
    for lab, val in entries:
        w = parse_fraction(val)
        if w < 0:
            raise FormatError(f"negative weight for {lab!r}")
        weights.append(w)
    if sum(weights) != 1:
        raise FormatError("distribution weights must sum to exactly 1")
    carrier = make_finset(labels)
    return Dist(carrier, tuple(zip(labels, weights)))


def parse_urn(text: str) -> Multiset:
    """Parse ``a:2,b:1`` (or the JSON colors/counts form) into a multiset."""
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
            colors, counts = obj["colors"], obj["counts"]
        except (ValueError, KeyError, RecursionError) as exc:
            raise FormatError(f"bad urn JSON: {exc}") from None
        if not isinstance(colors, list) or not all(isinstance(c, str) and c for c in colors):
            raise FormatError("urn colors must be a list of non-empty strings")
        # bool is a subclass of int, but true is not a count
        if not isinstance(counts, list) or not all(type(c) is int for c in counts):
            raise FormatError("urn counts must be a list of integers")
        if len(colors) != len(counts):
            raise FormatError("colors and counts must have equal length")
        entries = list(zip(colors, counts))
    else:
        entries = []
        for lab, val in _parse_entries(text):
            try:
                entries.append((lab, int(val)))
            except ValueError:
                raise FormatError(f"count for {lab!r} must be a natural number") from None
    labels = [lab for lab, _ in entries]
    if len(set(labels)) != len(labels):
        raise FormatError("duplicate labels in urn")
    if any(c < 0 for _, c in entries):
        raise FormatError("urn counts must be nonnegative")
    return Multiset(make_finset(labels), tuple(c for _, c in entries))


def render_label(x: Label) -> str:
    """Human-readable form of any carrier element."""
    if isinstance(x, Multiset):
        return render_multiset(x)
    if isinstance(x, Tagged):
        return f"#{x.tag}:{render_label(x.value)}"
    if isinstance(x, tuple):
        return "(" + ",".join(render_label(c) for c in x) + ")"
    return str(x)


def render_multiset(m: Multiset) -> str:
    body = "+".join(f"{c}|{render_label(x)}|" for x, c in m.items())
    return body or "0"


def render_dist_lines(d: Dist) -> list[str]:
    """One ``label: num/den`` line per supported outcome, in carrier order."""
    return [f"{render_label(x)}: {w}" for x, w in d.items]


def label_to_json(x: Label) -> Any:
    if isinstance(x, Multiset):
        return {"colors": [label_to_json(c) for c in x.base], "counts": list(x.counts)}
    if isinstance(x, Tagged):
        return {"tag": x.tag, "value": label_to_json(x.value)}
    if isinstance(x, tuple):
        return [label_to_json(c) for c in x]
    return x


def dist_to_json(d: Dist) -> dict[str, Any]:
    return {"entries": [{"label": label_to_json(x), "probability": str(w)} for x, w in d.items]}
