"""Fixed-size multisets as concrete quotients of tuple powers.

``M[K](X)`` is materialised as a carrier of count vectors over the base
set, enumerated in ascending order of their canonical representative
words (equivalently: count vectors in descending lexicographic order,
so multisets concentrated on earlier base elements come first).

The accumulation map ``acc`` sends a tuple to its count vector; every
map *out of* the quotient is built by sending each multiset through its
canonical representative tuple, and the fact that this is well defined
is checked by the law suite rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from .core import (
    Dist,
    FinSet,
    Kernel,
    Label,
    _guard_size,
    kernel_compose_all,
    kernel_from_function,
    kernel_power,
    power_finset,
    tuple_of,
    untuple,
)


@dataclass(frozen=True)
class Multiset:
    """A size-K multiset over a base FinSet, stored as a count vector."""

    base: FinSet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.base):
            raise ValueError("need one count per base element")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def count(self, x: Label) -> int:
        return self.counts[self.base.index[x]]

    def items(self) -> Iterator[tuple[Label, int]]:
        """Nonzero (label, count) pairs in base order."""
        for x, c in zip(self.base, self.counts):
            if c:
                yield x, c

    def minus(self, x: Label) -> "Multiset":
        """Remove one occurrence of x; requires count(x) > 0."""
        i = self.base.index[x]
        if self.counts[i] == 0:
            raise ValueError(f"cannot remove {x!r}: count is zero")
        return Multiset(self.base, self.counts[:i] + (self.counts[i] - 1,) + self.counts[i + 1 :])

    def word(self) -> tuple[Label, ...]:
        """The canonical representative: each label repeated, in base order."""
        out: list[Label] = []
        for x, c in zip(self.base, self.counts):
            out.extend([x] * c)
        return tuple(out)

    def __repr__(self) -> str:
        body = "+".join(f"{c}|{x}|" for x, c in self.items())
        return body or "0"


def acc_of_seq(X: FinSet, seq: Sequence[Label]) -> Multiset:
    """Count the occurrences of each base element in the sequence."""
    counts = [0] * len(X)
    for x in seq:
        counts[X.index[x]] += 1
    return Multiset(X, tuple(counts))


def _count_vectors(n: int, K: int) -> Iterator[tuple[int, ...]]:
    # Descending lexicographic order, so representative words come out in
    # ascending lexicographic order over the base.
    if n == 0:
        if K == 0:
            yield ()
        return
    v = [K] + [0] * (n - 1)
    while True:
        yield tuple(v)
        i = n - 2
        while i >= 0 and v[i] == 0:
            i -= 1
        if i < 0:
            return
        # the last nonzero v[i] before the final coordinate gives one unit
        # to v[i + 1], which also takes over the final coordinate
        v[i], v[-1], v[i + 1] = v[i] - 1, 0, v[-1] + 1


@cache
def _multiset_space_cached(X: FinSet, K: int) -> FinSet:
    return FinSet(tuple(Multiset(X, v) for v in _count_vectors(len(X), K)))


def multiset_space(X: FinSet, K: int) -> FinSet:
    """The carrier M[K](X): all size-K multisets over X; M[0](X) is a singleton, M[K](0) empty for K > 0."""
    if K < 0:
        raise ValueError("multiset size must be nonnegative")
    if len(X) > 0:
        _guard_size(math.comb(len(X) + K - 1, K))
    return _multiset_space_cached(X, K)


@cache
def acc_kernel(X: FinSet, K: int) -> Kernel:
    """The accumulation quotient map X^K -> M[K](X)."""
    M = multiset_space(X, K)
    return kernel_from_function(power_finset(X, K), M, lambda t: acc_of_seq(X, tuple_of(K, t)))


@cache
def section_kernel(X: FinSet, K: int) -> Kernel:
    """The canonical section M[K](X) -> X^K picking the representative word."""
    return kernel_from_function(multiset_space(X, K), power_finset(X, K), lambda m: untuple(K, m.word()))


def _arrangements(m: Multiset) -> Iterator[tuple[Label, ...]]:
    # Distinct rearrangements of the representative word, in lexicographic
    # order by the next-permutation step, so no dedup pass is needed.
    elems = m.base.elements
    word = [i for i, c in enumerate(m.counts) for _ in range(c)]
    while True:
        yield tuple(elems[i] for i in word)
        j = len(word) - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(word) - 1
        while word[k] <= word[j]:
            k -= 1
        word[j], word[k] = word[k], word[j]
        word[j + 1 :] = reversed(word[j + 1 :])


@cache
def arr_kernel(X: FinSet, K: int) -> Kernel:
    """Arrangement: each multiset goes uniformly to its distinct orderings."""
    P = power_finset(X, K)
    M = multiset_space(X, K)
    rows = []
    for m in M:
        w = Fraction(math.prod(math.factorial(c) for c in m.counts), math.factorial(K))
        rows.append(Dist(P, ((untuple(K, t), w) for t in _arrangements(m))))
    return Kernel(M, P, tuple(rows))


@cache
def perm_kernel(X: FinSet, K: int) -> Kernel:
    """Uniform rearrangement of a tuple: the mixture of all K! permutation maps.

    Computed by tallying (each tuple goes uniformly to the distinct
    rearrangements of itself); agreement with the literal convex sum
    over the symmetric group is one of the registered laws.
    """
    P = power_finset(X, K)
    arr = arr_kernel(X, K)
    M = multiset_space(X, K)
    rows = [arr.rows[M.index[acc_of_seq(X, tuple_of(K, t))]] for t in P]
    return Kernel(P, P, tuple(rows))


@cache
def epsilon_kernel(X: FinSet, K: int) -> Kernel:
    """Pick one coordinate uniformly; defined for K >= 1."""
    if K < 1:
        raise ValueError("coordinate sampling needs K >= 1")
    P = power_finset(X, K)
    w = Fraction(1, K)
    rows = tuple(Dist(X, ((c, w) for c in tuple_of(K, t))) for t in P)
    return Kernel(P, X, rows)


@cache
def flrn_kernel(X: FinSet, K: int) -> Kernel:
    """Frequentist learning: normalise a multiset to its relative frequencies."""
    if K < 1:
        raise ValueError("frequency normalisation needs K >= 1")
    M = multiset_space(X, K)
    rows = tuple(Dist(X, ((x, Fraction(c, K)) for x, c in m.items())) for m in M)
    return Kernel(M, X, rows)


def drop_kernel(X: FinSet, K: int, i: int) -> Kernel:
    """Delete the i-th coordinate (1-indexed) of X^{K+1}."""
    if not 1 <= i <= K + 1:
        raise ValueError(f"drop index {i} out of range 1..{K + 1}")

    def drop(t: Label) -> Label:
        coords = tuple_of(K + 1, t)
        return untuple(K, coords[: i - 1] + coords[i:])

    return kernel_from_function(power_finset(X, K + 1), power_finset(X, K), drop)


@cache
def del_kernel(X: FinSet, K: int) -> Kernel:
    """Delete one uniformly chosen coordinate: X^{K+1} -> X^K."""
    Pin = power_finset(X, K + 1)
    Pout = power_finset(X, K)
    w = Fraction(1, K + 1)
    rows = []
    for t in Pin:
        coords = tuple_of(K + 1, t)
        rows.append(Dist(Pout, ((untuple(K, coords[:i] + coords[i + 1 :]), w) for i in range(K + 1))))
    return Kernel(Pin, Pout, tuple(rows))


@cache
def dd_kernel(X: FinSet, K: int) -> Kernel:
    """Draw-and-delete: remove one uniformly drawn element from a size-K+1 urn."""
    Min = multiset_space(X, K + 1)
    Mout = multiset_space(X, K)
    rows = tuple(Dist(Mout, ((m.minus(x), Fraction(c, K + 1)) for x, c in m.items())) for m in Min)
    return Kernel(Min, Mout, rows)


@cache
def mset_map(f: Kernel, K: int) -> Kernel:
    """The functorial action M[K](f): push a multiset through K copies of f.

    Built as the mediating map of the quotient: take the canonical
    representative, run f on every position independently, accumulate.
    """
    return kernel_compose_all(
        acc_kernel(f.codomain, K), kernel_power(f, K), section_kernel(f.domain, K)
    )
