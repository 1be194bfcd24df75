"""Multinomial and hypergeometric kernels, each in two independent forms.

The categorical composites (copy, run independently, accumulate;
respectively iterate draw-and-delete) are the primary definitions and
are what the law suite composes with.  The textbook probability mass
functions are implemented separately as oracles, with ``int`` numerators
on the count vectors of :func:`count_vectors` over one ``int``
denominator; exact agreement of the two forms is itself a registered law.
"""

from __future__ import annotations

import math
from functools import reduce

from .core import (
    FinSet,
    Kernel,
    LazyRows,
    _row,
    cache,
    copy_kernel,
    identity_kernel,
    kernel_compose,
    kernel_compose_all,
    kernel_power,
)
from .multisets import acc_kernel, count_vectors, dd_kernel, multiset_space


@cache
def multinomial_kernel(f: Kernel, K: int) -> Kernel:
    """Draw K times with replacement from f: the composite acc . f^K . copy."""
    return kernel_compose_all(acc_kernel(f.codomain, K), kernel_power(f, K), copy_kernel(f.domain, K))


def multinomial_pmf_kernel(f: Kernel, K: int) -> Kernel:
    """Closed-form multinomial: P(m) = K!/prod(m_y!) * prod f(x)(y)^m_y, over den**K for a row over den."""
    M = multiset_space(f.codomain, K)
    draws = count_vectors(len(f.codomain), K)
    positions = tuple(range(len(draws)))
    # each draw's multinomial coefficient K!/prod(m_y!), shared by every row
    coefficients = [math.factorial(K) // math.prod(map(math.factorial, m)) for m in draws]
    rows = []
    for p in f.rows:
        weight = dict(zip(p.indices, p.nums))
        nums = tuple(c * math.prod(weight.get(y, 0) ** k for y, k in enumerate(m)) for c, m in zip(coefficients, draws))
        rows.append(_row(M, positions, nums, p.den**K))
    return Kernel(f.domain, M, tuple(rows))


@cache
def hypergeometric_kernel(X: FinSet, L: int, K: int) -> Kernel:
    """Draw K from a size-L urn without replacement: M[L](X) -> M[K](X).

    Closed form: P(m | urn) = prod_x C(urn_x, m_x) / C(L, K), which is 0
    unless m <= urn; each row is built on first use.
    The equivalent repeated draw-and-delete chain is available as
    :func:`hypergeometric_chain_kernel`; the two agree exactly.
    """
    if L < K:
        raise ValueError("cannot draw more than the urn holds (need L >= K)")
    Min = multiset_space(X, L)  # built first, so an oversized urn is refused with the urn's size
    Mout = multiset_space(X, K)
    urns, draws = count_vectors(len(X), L), count_vectors(len(X), K)
    positions, denom = tuple(range(len(draws))), math.comb(L, K)

    def row(i: int):
        return _row(Mout, positions, tuple(math.prod(map(math.comb, urns[i], m)) for m in draws), denom)

    return Kernel(Min, Mout, LazyRows(len(Min), row))


@cache
def hypergeometric_chain_kernel(X: FinSet, L: int, K: int) -> Kernel:
    """The same map as repeated draw-and-delete, L - K single draws.

    Composed from the draw end, dd_K . (dd_(K+1) . ...) taken as
    ((dd_K . dd_(K+1)) . ...): the same composite by associativity, and
    every kernel composed on the way has its rows over M[K](X), not over
    the larger M[L-1](X), ..., M[K+1](X).
    """
    if L < K:
        raise ValueError("cannot draw more than the urn holds (need L >= K)")
    urns = multiset_space(X, L)  # built first, so an oversized urn is refused before any draw is built
    if L == K:
        return identity_kernel(urns)
    return reduce(kernel_compose, (dd_kernel(X, size) for size in range(K, L)))
