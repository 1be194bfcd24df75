"""Closed-form urn distributions, computed without finstoch.

Each oracle states the textbook formula for one operation and evaluates
it by brute-force enumeration, so that it shares no code and no
intermediate construction with the kernels it checks.  Labels are plain
Python values: atoms are strings, words and pairs are tuples, a
multiset is a :class:`Bag` and a coproduct element a :class:`Tag`.
A distribution is a dict from label to :class:`fractions.Fraction`; a
kernel is a dict from domain label to distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import Hashable, Iterator, Mapping, Sequence

Label = Hashable
Dist = dict[Label, Fraction]
Urn = Sequence[tuple[Label, int]]


@dataclass(frozen=True)
class Bag:
    """A multiset: the set of its (label, count) pairs with nonzero count."""

    items: frozenset


@dataclass(frozen=True)
class Tag:
    """A coproduct element: summand index and inner label."""

    tag: int
    value: Label


def bag(base: Sequence[Label], counts: Sequence[int]) -> Bag:
    return Bag(frozenset((x, c) for x, c in zip(base, counts) if c))


def count_vectors(n: int, K: int) -> Iterator[tuple[int, ...]]:
    """Every vector of n naturals summing to K."""
    if n == 0:
        if K == 0:
            yield ()
        return
    for c in range(K + 1):
        for rest in count_vectors(n - 1, K - c):
            yield (c,) + rest


def _split(urn: Urn) -> tuple[list[Label], list[int]]:
    return [x for x, _ in urn], [c for _, c in urn]


# Single distributions ---------------------------------------------------------


def _multinomial_counts(dist: Sequence[tuple[Label, Fraction]], K: int) -> dict[tuple[int, ...], Fraction]:
    """K draws with replacement, keyed by count vector: K!/prod(m_y!) * prod(p_y^m_y)."""
    out = {}
    for m in count_vectors(len(dist), K):
        w = Fraction(factorial(K), prod(factorial(c) for c in m))
        for (_, p), c in zip(dist, m):
            w *= p**c
        if w:
            out[m] = w
    return out


def multinomial(dist: Sequence[tuple[Label, Fraction]], K: int) -> Dist:
    """K draws with replacement: K!/prod(m_y!) * prod(p_y^m_y)."""
    labels = [y for y, _ in dist]
    return {bag(labels, m): w for m, w in _multinomial_counts(dist, K).items()}


def hypergeometric(urn: Urn, K: int) -> Dist:
    """K draws without replacement: prod(C(u_x, m_x)) / C(L, K)."""
    labels, counts = _split(urn)
    denom = comb(sum(counts), K)
    out: Dist = {}
    for m in count_vectors(len(counts), K):
        num = prod(comb(u, c) for u, c in zip(counts, m))
        if num:
            out[bag(labels, m)] = Fraction(num, denom)
    return out


def draw_delete(urn: Urn) -> Dist:
    """Remove one ball drawn uniformly: the urn minus x, with weight u_x/L."""
    labels, counts = _split(urn)
    total = sum(counts)
    out: Dist = {}
    for i, c in enumerate(counts):
        if c:
            rest = counts[:i] + [c - 1] + counts[i + 1 :]
            out[bag(labels, rest)] = Fraction(c, total)
    return out


def flrn(urn: Urn) -> Dist:
    """Frequencies: colour x with weight u_x/L."""
    total = sum(c for _, c in urn)
    return {x: Fraction(c, total) for x, c in urn if c}


def arrangements(urn: Urn) -> Dist:
    """Every distinct word with the urn's counts, each with weight prod(u_x!)/L!."""
    labels, counts = _split(urn)
    K = sum(counts)
    w = Fraction(prod(factorial(c) for c in counts), factorial(K))
    want = dict(zip(labels, counts))
    out: Dist = {}
    for word in product(labels, repeat=K):
        if all(word.count(x) == c for x, c in want.items()):
            out[word] = w
    return out


def _couplings(rows: Sequence[int], cols: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every matrix of naturals with the given row and column sums."""
    if not rows:
        if not any(cols):
            yield ()
        return
    for first in count_vectors(len(cols), rows[0]):
        if all(a <= b for a, b in zip(first, cols)):
            rest_cols = [b - a for a, b in zip(first, cols)]
            for rest in _couplings(rows[1:], rest_cols):
                yield (first,) + rest


def mzip(left: Urn, right: Urn) -> Dist:
    """Multizip: each coupling chi of the two urns with weight prod(phi!) prod(psi!) / (K! prod(chi!))."""
    xs, phi = _split(left)
    ys, psi = _split(right)
    K = sum(phi)
    if sum(psi) != K:
        raise ValueError("multizip needs urns of equal size")
    scale = Fraction(prod(factorial(c) for c in phi) * prod(factorial(c) for c in psi), factorial(K))
    pairs = [(x, y) for x in xs for y in ys]
    out: Dist = {}
    for chi in _couplings(phi, psi):
        flat = [c for row in chi for c in row]
        out[bag(pairs, flat)] = scale / prod(factorial(c) for c in flat)
    return out


def mset_map_row(rows: Mapping[Label, Sequence[tuple[Label, Fraction]]], urn: Urn) -> Dist:
    """Push an urn through a kernel ball by ball: the convolution of the per-colour multinomials."""
    ys = [y for y, _ in next(iter(rows.values()))]
    acc = {(0,) * len(ys): Fraction(1)}
    for x, c in urn:
        merged: dict[tuple[int, ...], Fraction] = {}
        for a, wa in acc.items():
            for b, wb in _multinomial_counts(rows[x], c).items():
                key = tuple(i + j for i, j in zip(a, b))
                merged[key] = merged.get(key, 0) + wa * wb
        acc = merged
    return {bag(ys, m): w for m, w in acc.items()}


def msplit(left: Urn, right: Urn) -> Dist:
    """Split an urn over X + Y: the point mass at (size of the X part, X part, Y part)."""
    xs, phi = _split(left)
    ys, psi = _split(right)
    return {Tag(sum(phi), (bag(xs, phi), bag(ys, psi))): Fraction(1)}


def flatten(X: Sequence[Label], outer: Sequence[tuple[Sequence[int], int]]) -> Dist:
    """Graded multiplication: the point mass at the count-weighted sum of the inner urns."""
    total = [0] * len(X)
    for inner, c in outer:
        for i, v in enumerate(inner):
            total[i] += c * v
    return {bag(X, total): Fraction(1)}


# Whole kernels -----------------------------------------------------------------


def multinomial_kernel(rows: Mapping[Label, Sequence[tuple[Label, Fraction]]], K: int) -> dict:
    return {x: multinomial(row, K) for x, row in rows.items()}


def mset_map_kernel(rows: Mapping[Label, Sequence[tuple[Label, Fraction]]], K: int) -> dict:
    X = list(rows)
    return {bag(X, m): mset_map_row(rows, list(zip(X, m))) for m in count_vectors(len(X), K)}


def hypergeometric_kernel(X: Sequence[Label], L: int, K: int) -> dict:
    return {bag(X, u): hypergeometric(list(zip(X, u)), K) for u in count_vectors(len(X), L)}


def mzip_kernel(X: Sequence[Label], Y: Sequence[Label], K: int) -> dict:
    return {
        (bag(X, phi), bag(Y, psi)): mzip(list(zip(X, phi)), list(zip(Y, psi)))
        for phi in count_vectors(len(X), K)
        for psi in count_vectors(len(Y), K)
    }


def mu_kernel(X: Sequence[Label], K: int, L: int) -> dict:
    inner = list(count_vectors(len(X), L))
    inner_bags = [bag(X, m) for m in inner]
    return {
        bag(inner_bags, outer): flatten(X, list(zip(inner, outer)))
        for outer in count_vectors(len(inner), K)
    }


def arr_kernel(X: Sequence[Label], K: int) -> dict:
    """Each urn of size K goes uniformly to its words; built by sorting all |X|^K words by urn."""
    out: dict = {bag(X, m): {} for m in count_vectors(len(X), K)}
    for word in product(X, repeat=K):
        counts = [word.count(x) for x in X]
        w = Fraction(prod(factorial(c) for c in counts), factorial(K))
        out[bag(X, counts)][word] = w
    return out


def msplit_kernel(X: Sequence[Label], Y: Sequence[Label], K: int) -> dict:
    tagged = [Tag(0, x) for x in X] + [Tag(1, y) for y in Y]
    n = len(X)
    return {
        bag(tagged, m): msplit(list(zip(X, m[:n])), list(zip(Y, m[n:])))
        for m in count_vectors(len(tagged), K)
    }


# Text form ---------------------------------------------------------------------


def render(x: Label, order: Mapping[Label, int]) -> str:
    """The CLI's text form of a label; ``order`` ranks the elements of every multiset base."""
    if isinstance(x, Bag):
        terms = sorted(x.items, key=lambda xc: order[xc[0]])
        return "+".join(f"{c}|{render(y, order)}|" for y, c in terms) or "0"
    if isinstance(x, Tag):
        return f"#{x.tag}:{render(x.value, order)}"
    if isinstance(x, tuple):
        return "(" + ",".join(render(c, order) for c in x) + ")"
    return str(x)
