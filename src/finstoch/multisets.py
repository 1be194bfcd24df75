"""Fixed-size multisets as concrete quotients of tuple powers.

``M[K](X)`` is a carrier of count vectors over the base set,
enumerated in ascending order of their canonical representative words
(equivalently: count vectors in descending lexicographic order, so
multisets concentrated on earlier base elements come first).  The
carrier is counted: the builders read the count vectors of
:func:`count_vectors`, and the :class:`Multiset` labels are built only
when the carrier itself is read.

The accumulation map ``acc`` sends a tuple to its count vector, by a
left fold of one-letter additions through :func:`add_table`; every map
*out of* the quotient is built by sending each multiset through its
canonical representative tuple, and the fact that this is well defined
is checked by the law suite rather than assumed.  Maps *into* ``M[K](X)``
rank a count vector through :func:`multiset_index`, one table per base
size and K, which ``add_table`` also reads.

Flrn, coordinate sampling, uniform deletion and DD are relative
frequencies of bags (``core.frequency_kernel``): no builder computes
weights, and their bags name carrier positions.  arr is uniform on its
``acc`` fibre, the words with the multiset's count vector.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Sequence

from .core import (
    FinSet,
    Frozen,
    Kernel,
    Label,
    LazyRows,
    PointRows,
    _guard_length,
    _guard_size,
    _row,
    cache,
    frequency_kernel,
    index_map_kernel,
    kernel_compose_all,
    kernel_power,
    power_finset,
    word_letters,
    word_position,
)


class Multiset(Frozen):
    """A size-K multiset over a base FinSet, stored as a count vector."""

    base: FinSet
    counts: tuple[int, ...]

    def __init__(self, base: FinSet, counts: tuple[int, ...]) -> None:
        if len(counts) != len(base):
            raise ValueError("need one count per base element")
        if min(counts, default=0) < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "counts", counts)

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
    """Count each base element's occurrences in a sequence of labels: a label-level reference no builder calls."""
    counts = [0] * len(X)
    for x in seq:
        counts[X.index[x]] += 1
    return Multiset(X, tuple(counts))


def multichoose(n: int, K: int) -> int:
    """The number of size-K multisets over an n-element set: C(n+K-1, K)."""
    if n < 0 or K < 0:
        raise ValueError("multichoose takes naturals")
    if n == 0:
        return 1 if K == 0 else 0
    return math.comb(n + K - 1, K)


@cache
def count_vectors(n: int, K: int) -> tuple[tuple[int, ...], ...]:
    """The count vectors of M[K] over an n-element base, in carrier order, checked against the ceiling before any is built.

    Descending lexicographic order, so representative words come out in
    ascending lexicographic order over the base.
    """
    _guard_length(K)
    _guard_size(multichoose(n, K))
    if n == 0:
        return ((),) if K == 0 else ()
    out = []
    v = [K] + [0] * (n - 1)
    while True:
        out.append(tuple(v))
        i = n - 2
        while i >= 0 and v[i] == 0:
            i -= 1
        if i < 0:
            return tuple(out)
        # the last nonzero v[i] before the final coordinate gives one unit
        # to v[i + 1], which also takes over the final coordinate
        v[i], v[-1], v[i + 1] = v[i] - 1, 0, v[-1] + 1


@cache
def multiset_space(X: FinSet, K: int) -> FinSet:
    """The carrier M[K](X): all size-K multisets over X; M[0](X) is a singleton, M[K](0) empty for K > 0.

    Counted: its multisets are built on first read, from :func:`count_vectors`.
    """
    if K < 0:
        raise ValueError("multiset size must be nonnegative")
    _guard_length(K)
    n = len(X)
    return FinSet.counted(multichoose(n, K), lambda: tuple(Multiset(X, v) for v in count_vectors(n, K)))


_multiset_space_cached = multiset_space  # the name perfbench's tracer reads the counters under


@cache
def multiset_index(n: int, K: int) -> dict[tuple[int, ...], int]:
    """Each count vector's position in M[K] over any n-element base: one dict per size, so no rank hashes a carrier."""
    return {v: i for i, v in enumerate(count_vectors(n, K))}


@cache
def add_table(n: int, k: int, L: int) -> tuple[tuple[int, ...], ...]:
    """Count-vector addition over an n-element base: [r][s] is the M[k+L] position of r of M[k] plus s of M[L]."""
    rank = multiset_index(n, k + L)
    return tuple(tuple(rank[tuple(map(operator.add, r, s))] for s in count_vectors(n, L)) for r in count_vectors(n, k))


def sum_rows(codomain: FinSet, n: int, K: int, L: int) -> PointRows:
    """The K-fold sum of count vectors of M[L] over an n-element base on the words of M[L]^K, folding add_table."""
    steps = tuple(add_table(n, j * L, L) for j in range(K))
    targets = [0]
    for step in steps:
        targets = [t for r in targets for t in step[r]]
    return PointRows(codomain, tuple(targets), steps)


@cache
def acc_kernel(X: FinSet, K: int) -> Kernel:
    """The accumulation quotient map X^K -> M[K](X): a fold of one-letter additions over each word."""
    M = multiset_space(X, K)
    return Kernel(power_finset(X, K), M, sum_rows(M, len(X), K, 1))


@cache
def section_kernel(X: FinSet, K: int) -> Kernel:
    """The canonical section M[K](X) -> X^K picking the representative word."""
    M, P = multiset_space(X, K), power_finset(X, K)
    n = len(X)
    # representative words ascend, as combinations with replacement come out, in carrier order
    words = itertools.combinations_with_replacement(range(n), K)
    return Kernel(M, P, PointRows(P, tuple(word_position(w, n) for w in words)))


@cache
def arr_kernel(X: FinSet, K: int) -> Kernel:
    """Arrangement: each multiset goes uniformly to the words of its acc fibre."""
    P = power_finset(X, K)  # built first, so an oversized query names the power
    M = multiset_space(X, K)
    fibres: list[list[int]] = [[] for _ in range(len(M))]
    for w, m in enumerate(sum_rows(M, len(X), K, 1).targets):
        fibres[m].append(w)
    # a fibre's words are distinct and ascending, so its uniform row has no bag to tally
    return Kernel(M, P, LazyRows(len(M), lambda i: _row(P, tuple(fibres[i]), (1,) * len(fibres[i]), len(fibres[i]))))


@cache
def perm_kernel(X: FinSet, K: int) -> Kernel:
    """Uniform rearrangement of a tuple: the mixture of all K! permutation maps.

    Each tuple picks the row of :func:`arr_kernel` at its own multiset;
    agreement with the literal convex sum over the symmetric group is
    one of the registered laws.
    """
    P, M = power_finset(X, K), multiset_space(X, K)
    return Kernel(P, P, tuple(map(arr_kernel(X, K).rows.__getitem__, sum_rows(M, len(X), K, 1).targets)))


@cache
def epsilon_kernel(X: FinSet, K: int) -> Kernel:
    """Pick one coordinate uniformly; defined for K >= 1."""
    if K < 1:
        raise ValueError("coordinate sampling needs K >= 1")
    n = len(X)
    return frequency_kernel(power_finset(X, K), X, lambda i: zip(word_letters(i, n, K), itertools.repeat(1)))


@cache
def flrn_kernel(X: FinSet, K: int) -> Kernel:
    """Frequentist learning: normalise a multiset to its relative frequencies."""
    if K < 1:
        raise ValueError("frequency normalisation needs K >= 1")
    M = multiset_space(X, K)
    vectors = count_vectors(len(X), K)
    return frequency_kernel(M, X, lambda i: ((j, c) for j, c in enumerate(vectors[i]) if c))


def drop_kernel(X: FinSet, K: int, i: int) -> Kernel:
    """Delete the i-th coordinate (1-indexed) of X^{K+1}."""
    if not 1 <= i <= K + 1:
        raise ValueError(f"drop index {i} out of range 1..{K + 1}")
    n = len(X)

    def drop(p: int) -> int:
        w = word_letters(p, n, K + 1)
        return word_position(w[: i - 1] + w[i:], n)

    return index_map_kernel(power_finset(X, K + 1), power_finset(X, K), drop)


@cache
def del_kernel(X: FinSet, K: int) -> Kernel:
    """Delete one uniformly chosen coordinate: X^{K+1} -> X^K."""
    P, Q = power_finset(X, K + 1), power_finset(X, K)
    n = len(X)

    def drops(i: int) -> Iterator[tuple[int, int]]:
        w = word_letters(i, n, K + 1)
        return ((word_position(w[:j] + w[j + 1 :], n), 1) for j in range(K + 1))

    return frequency_kernel(P, Q, drops)


@cache
def dd_kernel(X: FinSet, K: int) -> Kernel:
    """Draw-and-delete: remove one uniformly drawn element from a size-K+1 urn."""
    Min, Mout = multiset_space(X, K + 1), multiset_space(X, K)
    urns, rank = count_vectors(len(X), K + 1), multiset_index(len(X), K)

    def draws(i: int) -> Iterator[tuple[int, int]]:
        # drawing colour j, held c times, leaves the count vector with one fewer j
        v = urns[i]
        return ((rank[v[:j] + (c - 1,) + v[j + 1 :]], c) for j, c in enumerate(v) if c)

    return frequency_kernel(Min, Mout, draws)


@cache
def mset_map(f: Kernel, K: int) -> Kernel:
    """The functorial action M[K](f): push a multiset through K copies of f.

    Built as the mediating map of the quotient: take the canonical
    representative, run f on every position independently, accumulate.
    """
    return kernel_compose_all(
        acc_kernel(f.codomain, K), kernel_power(f, K), section_kernel(f.domain, K)
    )
