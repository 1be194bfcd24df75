"""Splitting sequences and multisets over a two-part alphabet.

A sequence over ``X + Y`` is equivalent to: how many entries came from
``X``, which positions they sat in (the interleaving pattern), and the
two subsequences.  Patterns are indexed in ascending lexicographic
order of their bit strings (entry 1 marking an ``X`` position, leftmost
position most significant), which pins the copower blocks down to a
concrete bijection.  Collapsing the pattern information accumulates the
two halves and yields the multiset split isomorphism

    M[K](X + Y)  ~=  (+)_i  M[i](X) (x) M[K-i](Y).
"""

from __future__ import annotations

import itertools

from .core import (
    FinSet,
    Kernel,
    Label,
    PointRows,
    Tagged,
    cache,
    coproduct_finset,
    kernel_from_function,
    power_finset,
    tensor_finset,
    tuple_of,
    untuple,
)
from .multisets import acc_of_seq, count_vectors, multiset_index, multiset_space


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
    XY = coproduct_finset((X, Y))
    dom = power_finset(XY, K)
    cod = lsplit_space(X, Y, K)

    def split(t: Label) -> Label:
        coords = tuple_of(K, t)
        bits = tuple(1 if c.tag == 0 else 0 for c in coords)
        i = sum(bits)
        j = patterns(K, i).index(bits)
        xs = tuple(c.value for c in coords if c.tag == 0)
        ys = tuple(c.value for c in coords if c.tag == 1)
        return Tagged(i, Tagged(j, (untuple(i, xs), untuple(K - i, ys))))

    return kernel_from_function(dom, cod, split)


@cache
def lsplit_inv_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Reconstitute the interleaved sequence from part size, pattern, and halves."""
    XY = coproduct_finset((X, Y))
    dom = lsplit_space(X, Y, K)
    cod = power_finset(XY, K)

    def weave(z: Label) -> Label:
        i, inner = z.tag, z.value
        bits = patterns(K, i)[inner.tag]
        xs = list(tuple_of(i, inner.value[0]))
        ys = list(tuple_of(K - i, inner.value[1]))
        coords = tuple(Tagged(0, xs.pop(0)) if b else Tagged(1, ys.pop(0)) for b in bits)
        return untuple(K, coords)

    return kernel_from_function(dom, cod, weave)


@cache
def msplit_space(X: FinSet, Y: FinSet, K: int) -> FinSet:
    """The split-multiset carrier: per part size i, M[i](X) (x) M[K-i](Y)."""
    return coproduct_finset(
        tuple(tensor_finset(multiset_space(X, i), multiset_space(Y, K - i)) for i in range(K + 1))
    )


@cache
def accs_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Accumulate both halves of every split block, forgetting the pattern."""
    dom = lsplit_space(X, Y, K)
    cod = msplit_space(X, Y, K)

    def accumulate(z: Label) -> Label:
        i, inner = z.tag, z.value
        xs, ys = inner.value
        return Tagged(i, (acc_of_seq(X, tuple_of(i, xs)), acc_of_seq(Y, tuple_of(K - i, ys))))

    return kernel_from_function(dom, cod, accumulate)


@cache
def msplit_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Split a multiset over X + Y into its X part and Y part: the coproduct lists the X block first.

    The X part's size picks the block, whose pairs are row-major.
    """
    XY = coproduct_finset((X, Y))
    dom = multiset_space(XY, K)
    cod = msplit_space(X, Y, K)
    n = len(X)
    ranks = [(multiset_index(X, i), multiset_index(Y, K - i)) for i in range(K + 1)]
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
    rank = multiset_index(XY, K)
    return Kernel(dom, cod, PointRows(cod, tuple(rank[mx.counts + my.counts] for mx, my in (z.value for z in dom))))
