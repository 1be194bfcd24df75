"""Sums and zips of multisets, and the graded multiplication.

The binary operations all follow the same recipe: arrange the multisets
into tuples, perform the corresponding list operation (concatenation or
positionwise zip), and accumulate back.  The pointwise count arithmetic
gives the same kernels in closed form; agreement between the two is
part of the law suite.
"""

from __future__ import annotations

import itertools

from .core import (
    FinSet,
    Kernel,
    PointRows,
    _radix,
    cache,
    kernel_compose,
    kernel_tensor,
    power_finset,
    reindex_kernel,
    tensor_finset,
)
from .multisets import Multiset, acc_kernel, add_table, arr_kernel, multiset_space, sum_rows


@cache
def concat_iso(X: FinSet, K: int, L: int) -> Kernel:
    """The concatenation bijection X^K (x) X^L -> X^{K+L}: a re-indexing under the canonical orders."""
    return reindex_kernel(tensor_finset(power_finset(X, K), power_finset(X, L)), power_finset(X, K + L))


@cache
def stack_iso(X: FinSet, K: int, L: int) -> Kernel:
    """The K-fold concatenation bijection (X^L)^K -> X^{K*L}: a re-indexing under the canonical orders."""
    return reindex_kernel(power_finset(power_finset(X, L), K), power_finset(X, K * L))


@cache
def zip_iso(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """The positionwise pairing bijection X^K (x) Y^K -> (X (x) Y)^K: a re-indexing under the canonical orders.

    Read in base |X|*|Y|, let the x-word have value a and the y-word value b;
    their zip, whose j-th digit is x_j*|Y| + y_j, has value a*|Y| + b.
    """
    dom = tensor_finset(power_finset(X, K), power_finset(Y, K))
    cod = power_finset(tensor_finset(X, Y), K)
    m, n = len(X), len(Y)
    xs, ys = _radix((range(m),) * K, m * n), _radix((range(n),) * K, m * n)
    return Kernel(dom, cod, PointRows(cod, tuple(a * n + b for a in xs for b in ys)))


def msum(phi: Multiset, psi: Multiset) -> Multiset:
    """Pointwise sum of two multisets over the same base."""
    if phi.base != psi.base:
        raise ValueError("multiset sum needs a common base")
    return Multiset(phi.base, tuple(a + b for a, b in zip(phi.counts, psi.counts)))


@cache
def msum_kernel(X: FinSet, K: int, L: int) -> Kernel:
    """Multiset addition as a deterministic kernel M[K](X) (x) M[L](X) -> M[K+L](X)."""
    MK, ML = multiset_space(X, K), multiset_space(X, L)
    dom, cod = tensor_finset(MK, ML), multiset_space(X, K + L)
    return Kernel(dom, cod, PointRows(cod, tuple(itertools.chain.from_iterable(add_table(len(X), K, L)))))


@cache
def mzip_kernel(X: FinSet, Y: FinSet, K: int) -> Kernel:
    """Multizip: couple two equal-size multisets by a uniformly arranged pairing.

    Computed as the composite accumulate . zip . (arrange (x) arrange), its two
    maps composed first to relabel the tensor's factors; no closed form is used.
    """
    acc_zip = kernel_compose(acc_kernel(tensor_finset(X, Y), K), zip_iso(X, Y, K))
    return kernel_compose(acc_zip, kernel_tensor(arr_kernel(X, K), arr_kernel(Y, K)))


@cache
def ksum_kernel(X: FinSet, K: int, L: int) -> Kernel:
    """The K-fold iterated sum (M[L](X))^K -> M[K*L](X): a fold of additions of M[L] over each word."""
    dom, cod = power_finset(multiset_space(X, L), K), multiset_space(X, K * L)
    return Kernel(dom, cod, sum_rows(cod, len(X), K, L))


@cache
def mu_kernel(X: FinSet, K: int, L: int) -> Kernel:
    """Graded multiplication M[K](M[L](X)) -> M[K*L](X).

    An outer multiset flattens to the sum of the inner multisets of its
    representative word, folded through the steps of :func:`ksum_kernel`.
    """
    ML = multiset_space(X, L)
    dom = multiset_space(ML, K)
    cod = multiset_space(X, K * L)
    # (state, last letter) per prefix: representative words ascend, so in carrier order
    # each prefix takes the letters from its last one on
    states = [(0, 0)]
    for j in range(K):
        step = add_table(len(X), j * L, L)
        states = [(step[r][s], s) for r, last in states for s in range(last, len(ML))]
    return Kernel(dom, cod, PointRows(cod, tuple(r for r, _ in states)))
