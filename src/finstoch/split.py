"""Splitting sequences and multisets over a two-part alphabet.

A sequence over ``X + Y`` is equivalent to: how many entries came from
``X``, which positions they sat in (the interleaving pattern), and the
two subsequences.  Patterns are indexed in ascending lexicographic
order of their bit strings (entry 1 marking an ``X`` position, leftmost
position most significant), which pins the copower blocks down to a
concrete bijection.  Collapsing the pattern information accumulates the
two halves and yields the multiset split isomorphism

    M[K](X + Y)  ~=  (+)_i  M[i](X) (x) M[K-i](Y).

The builders work on positions: a word's letters through ``word_letters``
and ``word_position`` (a letter below ``|X|`` is from ``X``, listed first),
a block by its offset, a multiset by its count vector (``multiset_index``).
"""

from __future__ import annotations

import itertools

from .core import (
    FinSet,
    Kernel,
    PointRows,
    cache,
    coproduct_finset,
    index_map_kernel,
    power_finset,
    tensor_finset,
    word_letters,
    word_position,
)
from .multisets import count_vectors, multiset_index, multiset_space


@cache
def patterns(K: int, i: int) -> tuple[tuple[int, ...], ...]:
    """All K-bit patterns with i ones, ascending as bit strings."""
    return tuple(bits for bits in itertools.product((0, 1), repeat=K) if sum(bits) == i)


@cache
def lsplit_space(X: FinSet, Y: FinSet, K: int) -> FinSet:
    """The codomain of the list split: per part size i, C(K,i) copies of X^i (x) Y^{K-i}."""
    blocks = []
    for i in range(K + 1):
        copies = coproduct_finset(
            tuple(tensor_finset(power_finset(X, i), power_finset(Y, K - i)) for _ in patterns(K, i))
        )
        blocks.append(copies)
    return coproduct_finset(tuple(blocks))


@cache
def lsplit_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Classify a sequence over X + Y by part size, pattern, and subsequences."""
    n, m = len(X), len(Y)
    ranks = [{bits: j for j, bits in enumerate(patterns(K, i))} for i in range(K + 1)]
    sizes = [n**i * m ** (K - i) for i in range(K + 1)]
    starts = tuple(itertools.accumulate((len(r) * s for r, s in zip(ranks, sizes)), initial=0))

    def split(p: int) -> int:
        letters = word_letters(p, n + m, K)
        bits = tuple(int(a < n) for a in letters)
        i = sum(bits)
        xs = word_position((a for a in letters if a < n), n)
        ys = word_position((a - n for a in letters if a >= n), m)
        return starts[i] + ranks[i][bits] * sizes[i] + xs * m ** (K - i) + ys

    return index_map_kernel(power_finset(coproduct_finset((X, Y)), K), lsplit_space(X, Y, K), split)


@cache
def lsplit_inv_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Reconstitute the interleaved sequence from part size, pattern, and halves."""
    n, m = len(X), len(Y)
    dom, cod = lsplit_space(X, Y, K), power_finset(coproduct_finset((X, Y)), K)
    targets = []
    for i in range(K + 1):
        for bits in patterns(K, i):
            for x, y in itertools.product(range(n**i), range(m ** (K - i))):
                xs, ys = iter(word_letters(x, n, i)), iter(word_letters(y, m, K - i))
                targets.append(word_position((next(xs) if b else n + next(ys) for b in bits), n + m))
    return Kernel(dom, cod, PointRows(cod, tuple(targets)))


@cache
def msplit_space(X: FinSet, Y: FinSet, K: int) -> FinSet:
    """The split-multiset carrier: per part size i, M[i](X) (x) M[K-i](Y)."""
    return coproduct_finset(
        tuple(tensor_finset(multiset_space(X, i), multiset_space(Y, K - i)) for i in range(K + 1))
    )


@cache
def accs_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Accumulate both halves of every split block, forgetting the pattern."""
    dom, cod = lsplit_space(X, Y, K), msplit_space(X, Y, K)

    def positions(Z: FinSet, k: int) -> list[int]:
        # the M[k](Z) position of each word of Z^k, from the count of each letter in it
        rank, n = multiset_index(len(Z), k), len(Z)
        return [rank[tuple(map(word_letters(w, n, k).count, range(n)))] for w in range(n**k)]

    targets, start = [], 0
    for i in range(K + 1):
        xs, ys, width = positions(X, i), positions(Y, K - i), len(multiset_index(len(Y), K - i))
        targets += [start + x * width + y for x in xs for y in ys] * len(patterns(K, i))
        start += len(multiset_index(len(X), i)) * width
    return Kernel(dom, cod, PointRows(cod, tuple(targets)))


@cache
def msplit_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Split a multiset over X + Y into its X part and Y part: the coproduct lists the X block first.

    The X part's size picks the block, whose pairs are row-major.
    """
    XY = coproduct_finset((X, Y))
    dom = multiset_space(XY, K)
    cod = msplit_space(X, Y, K)
    n = len(X)
    ranks = [(multiset_index(n, i), multiset_index(len(Y), K - i)) for i in range(K + 1)]
    starts = tuple(itertools.accumulate((len(rx) * len(ry) for rx, ry in ranks), initial=0))

    def split(v: tuple[int, ...]) -> int:
        xs = v[:n]
        i = sum(xs)
        rx, ry = ranks[i]
        return starts[i] + rx[xs] * len(ry) + ry[v[n:]]

    return Kernel(dom, cod, PointRows(cod, tuple(map(split, count_vectors(len(XY), K)))))


@cache
def msplit_inv_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Merge an (X part, Y part) pair back into one multiset over X + Y."""
    XY = coproduct_finset((X, Y))
    dom, cod = msplit_space(X, Y, K), multiset_space(XY, K)
    rank, n, m = multiset_index(len(XY), K), len(X), len(Y)
    targets = (rank[vx + vy] for i in range(K + 1) for vx in count_vectors(n, i) for vy in count_vectors(m, K - i))
    return Kernel(dom, cod, PointRows(cod, tuple(targets)))
