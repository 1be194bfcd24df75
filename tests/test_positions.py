"""The builders that work on carrier positions against label-level twins.

acc, arr, perm, zip, mu, msum, ksum, msplit and its inverse find their
targets from count vectors and mixed-radix positions.  Each twin below
builds the same kernel the label way: it makes every multiset or tuple
and looks it up in the codomain.  The twins use next-permutation for
the arrangements, ``acc_of_seq`` for the accumulation and ``msum`` for
the sums.
"""

from fractions import Fraction as F

import pytest

from finstoch import (
    Multiset,
    Tagged,
    acc_kernel,
    acc_of_seq,
    arr_kernel,
    coproduct_finset,
    kernel_compose_all,
    kernel_equal,
    kernel_from_function,
    kernel_tensor,
    ksum_kernel,
    make_finset,
    msplit_inv_kernel,
    msplit_kernel,
    msplit_space,
    msum,
    msum_kernel,
    multiset_space,
    mu_kernel,
    mzip_kernel,
    perm_kernel,
    power_finset,
    tensor_finset,
    zip_iso,
)
from finstoch.core import Dist, Kernel, tuple_of, untuple

BASES = [make_finset("abc"[:n]) for n in range(4)]
OTHERS = [make_finset("xyz"[:n]) for n in range(4)]
KS = range(5)


def arrangements(m):
    """The distinct orderings of m's representative word, in lexicographic order."""
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


def eager_acc(X, K):
    return kernel_from_function(power_finset(X, K), multiset_space(X, K), lambda t: acc_of_seq(X, tuple_of(K, t)))


def eager_arr(X, K):
    P = power_finset(X, K)

    def row(m):
        words = list(arrangements(m))
        return Dist(P, [(untuple(K, w), F(1, len(words))) for w in words])

    M = multiset_space(X, K)
    return Kernel(M, P, tuple(map(row, M)))


def eager_perm(X, K):
    P, M = power_finset(X, K), multiset_space(X, K)
    arr = eager_arr(X, K)
    return Kernel(P, P, tuple(arr.rows[M.index[acc_of_seq(X, tuple_of(K, t))]] for t in P))


def eager_zip(X, Y, K):
    dom = tensor_finset(power_finset(X, K), power_finset(Y, K))
    cod = power_finset(tensor_finset(X, Y), K)
    return kernel_from_function(dom, cod, lambda p: untuple(K, tuple(zip(tuple_of(K, p[0]), tuple_of(K, p[1])))))


def eager_mu(X, K, L):
    def flatten(outer):
        counts = [0] * len(X)
        for inner, c in outer.items():
            for i, v in enumerate(inner.counts):
                counts[i] += c * v
        return Multiset(X, tuple(counts))

    return kernel_from_function(multiset_space(multiset_space(X, L), K), multiset_space(X, K * L), flatten)


def eager_msplit(X, Y, K):
    n = len(X)

    def split(m):
        xs = m.counts[:n]
        return Tagged(sum(xs), (Multiset(X, xs), Multiset(Y, m.counts[n:])))

    return kernel_from_function(multiset_space(coproduct_finset((X, Y)), K), msplit_space(X, Y, K), split)


def eager_msplit_inv(X, Y, K):
    XY = coproduct_finset((X, Y))

    def merge(z):
        mx, my = z.value
        return Multiset(XY, mx.counts + my.counts)

    return kernel_from_function(msplit_space(X, Y, K), multiset_space(XY, K), merge)


def eager_msum(X, K, L):
    dom = tensor_finset(multiset_space(X, K), multiset_space(X, L))
    return kernel_from_function(dom, multiset_space(X, K + L), lambda p: msum(p[0], p[1]))


def eager_ksum(X, K, L):
    def total(t):
        out = Multiset(X, (0,) * len(X))
        for m in tuple_of(K, t):
            out = msum(out, m)
        return out

    return kernel_from_function(power_finset(multiset_space(X, L), K), multiset_space(X, K * L), total)


def eager_mzip(X, Y, K):
    return kernel_compose_all(
        eager_acc(tensor_finset(X, Y), K), eager_zip(X, Y, K), kernel_tensor(eager_arr(X, K), eager_arr(Y, K))
    )


@pytest.mark.parametrize("X", BASES, ids=len)
def test_acc_arr_perm_match_twins(X):
    for K in KS:
        assert kernel_equal(acc_kernel(X, K), eager_acc(X, K)), K
        assert kernel_equal(arr_kernel(X, K), eager_arr(X, K)), K
        assert kernel_equal(perm_kernel(X, K), eager_perm(X, K)), K


@pytest.mark.parametrize("X", BASES, ids=len)
def test_zip_and_msplit_match_twins(X):
    for Y in OTHERS:
        for K in KS:
            assert kernel_equal(zip_iso(X, Y, K), eager_zip(X, Y, K)), (Y, K)
            assert kernel_equal(msplit_kernel(X, Y, K), eager_msplit(X, Y, K)), (Y, K)
            assert kernel_equal(msplit_inv_kernel(X, Y, K), eager_msplit_inv(X, Y, K)), (Y, K)


@pytest.mark.parametrize("X", BASES, ids=len)
def test_mu_matches_twin(X):
    for K in KS:
        for L in KS:
            assert kernel_equal(mu_kernel(X, K, L), eager_mu(X, K, L)), (K, L)


@pytest.mark.parametrize("X", BASES, ids=len)
def test_msum_and_ksum_match_twins(X):
    for K in KS:
        for L in KS:
            assert kernel_equal(msum_kernel(X, K, L), eager_msum(X, K, L)), (K, L)
            assert kernel_equal(ksum_kernel(X, K, L), eager_ksum(X, K, L)), (K, L)


def test_mzip_matches_twin_composite():
    for X in BASES[:3]:
        for Y in OTHERS[:3]:
            for K in range(4):
                assert kernel_equal(mzip_kernel(X, Y, K), eager_mzip(X, Y, K)), (X, Y, K)


def test_kernel_scale_sizes_match_twins():
    X3, Y3 = make_finset(["x0", "x1", "x2"]), make_finset(["y0", "y1", "y2"])
    four, two = make_finset("abcd"), make_finset("ab")
    assert kernel_equal(arr_kernel(four, 7), eager_arr(four, 7))
    assert kernel_equal(zip_iso(X3, two, 5), eager_zip(X3, two, 5))
    assert kernel_equal(mzip_kernel(X3, two, 5), eager_mzip(X3, two, 5))
    assert kernel_equal(mu_kernel(X3, 4, 4), eager_mu(X3, 4, 4))
    assert kernel_equal(msplit_kernel(X3, Y3, 8), eager_msplit(X3, Y3, 8))
