"""Multinomial and hypergeometric kernels, each in two independent forms.

The categorical composites (copy, run independently, accumulate;
respectively iterate draw-and-delete) are the primary definitions and
are what the law suite composes with.  The textbook probability mass
functions are implemented separately as oracles; exact agreement of the
two forms is itself a registered law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .core import (
    Dist,
    FinSet,
    Kernel,
    copy_kernel,
    identity_kernel,
    kernel_compose,
    kernel_compose_all,
    kernel_power,
)
from .multisets import acc_kernel, dd_kernel, multiset_space


@cache
def multinomial_kernel(f: Kernel, K: int) -> Kernel:
    """Draw K times with replacement from f: the composite acc . f^K . copy."""
    return kernel_compose_all(acc_kernel(f.codomain, K), kernel_power(f, K), copy_kernel(f.domain, K))


def multinomial_pmf_kernel(f: Kernel, K: int) -> Kernel:
    """Closed-form multinomial: P(m) = K!/prod(m_y!) * prod f(x)(y)^m_y."""
    M = multiset_space(f.codomain, K)
    k_fact = math.factorial(K)
    rows = []
    for x in f.domain:
        p = f.row(x)
        items = []
        for m in M:
            w = Fraction(k_fact, math.prod(math.factorial(c) for c in m.counts))
            for y, c in m.items():
                w *= p.weight(y) ** c
            items.append((m, w))
        rows.append(Dist(M, items))
    return Kernel(f.domain, M, tuple(rows))


@cache
def hypergeometric_kernel(X: FinSet, L: int, K: int) -> Kernel:
    """Draw K from a size-L urn without replacement: M[L](X) -> M[K](X).

    Closed form: P(m | urn) = prod_x C(urn_x, m_x) / C(L, K) for m <= urn.
    The equivalent repeated draw-and-delete chain is available as
    :func:`hypergeometric_chain_kernel`; the two agree exactly.
    """
    if L < K:
        raise ValueError("cannot draw more than the urn holds (need L >= K)")
    Min = multiset_space(X, L)
    Mout = multiset_space(X, K)
    denom = math.comb(L, K)
    rows = []
    for urn in Min:
        items = []
        for m in Mout:
            if all(c <= u for c, u in zip(m.counts, urn.counts)):
                num = math.prod(math.comb(u, c) for u, c in zip(urn.counts, m.counts))
                items.append((m, Fraction(num, denom)))
        rows.append(Dist(Mout, items))
    return Kernel(Min, Mout, tuple(rows))


@cache
def hypergeometric_chain_kernel(X: FinSet, L: int, K: int) -> Kernel:
    """The same map as repeated draw-and-delete, L - K single draws."""
    if L < K:
        raise ValueError("cannot draw more than the urn holds (need L >= K)")
    k = identity_kernel(multiset_space(X, L))
    for size in range(L - 1, K - 1, -1):
        k = kernel_compose(dd_kernel(X, size), k)
    return k
