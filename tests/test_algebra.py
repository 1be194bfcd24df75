"""Concatenation, sums, zips, and the graded multiplication."""

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finstoch import (
    Multiset,
    acc_kernel,
    arr_kernel,
    concat_iso,
    identity_kernel,
    is_deterministic,
    kernel_compose,
    kernel_compose_all,
    kernel_equal,
    kernel_tensor,
    ksum_kernel,
    make_finset,
    msum,
    msum_kernel,
    mu_kernel,
    multiset_space,
    mzip_kernel,
    permutation_kernel,
    reindex_kernel,
    stack_iso,
    tensor_finset,
    zip_iso,
)
from finstoch import multisets
from finstoch.core import FinSet, Permutation
from label_tuples import tuple_of, untuple

AB = make_finset(["a", "b"])
CD = make_finset(["c", "d"])
ABC = make_finset(["a", "b", "c"])


class TestConcat:
    def test_left_unit(self):
        k = concat_iso(AB, 0, 2)
        assert k.row(((), ("a", "b"))).support == (("a", "b"),)

    def test_pairs(self):
        assert concat_iso(AB, 1, 1).row(("a", "b")).support == (("a", "b"),)

    def test_associative_on_all_triples(self):
        lhs = kernel_compose(
            concat_iso(AB, 2, 1), kernel_tensor(concat_iso(AB, 1, 1), identity_kernel(AB))
        )
        rhs = kernel_compose_all(
            concat_iso(AB, 1, 2),
            kernel_tensor(identity_kernel(AB), concat_iso(AB, 1, 1)),
            reindex_kernel(lhs.domain, tensor_finset(AB, tensor_finset(AB, AB))),
        )
        assert kernel_equal(lhs, rhs)

    def test_bijection(self):
        k = concat_iso(AB, 2, 1)
        assert is_deterministic(k)
        assert len({row.support[0] for row in k.rows}) == len(k.domain)


class TestReindexings:
    # concat and stack are re-indexings under the canonical orders; read
    # label by label, each row is the point mass at the joined tuple
    def test_concat_rows_are_concatenations(self):
        for K in range(7):
            for L in range(7 - K):
                k = concat_iso(ABC, K, L)
                for (a, b), row in zip(k.domain, k.rows):
                    assert row.items == ((untuple(K + L, tuple_of(K, a) + tuple_of(L, b)), 1),)

    def test_stack_rows_are_flattenings(self):
        for K, L in itertools.product(range(7), repeat=2):
            if K * L > 6:
                continue
            k = stack_iso(ABC, K, L)
            for t, row in zip(k.domain, k.rows):
                flat = tuple(c for block in tuple_of(K, t) for c in tuple_of(L, block))
                assert row.items == ((untuple(K * L, flat), 1),)


class TestMsum:
    def test_pointwise_addition(self):
        total = msum(Multiset(AB, (2, 0)), Multiset(AB, (1, 1)))
        assert total == Multiset(AB, (3, 1))

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            msum(Multiset(AB, (1, 0)), Multiset(CD, (1, 0)))

    def test_unit_and_commutativity(self):
        phi = Multiset(AB, (2, 1))
        empty = Multiset(AB, (0, 0))
        assert msum(phi, empty) == phi
        assert msum(phi, Multiset(AB, (0, 2))) == msum(Multiset(AB, (0, 2)), phi)

    def test_kernel_matches_arrangement_composite(self):
        K, L = 2, 1
        composite = kernel_compose_all(
            acc_kernel(AB, K + L),
            concat_iso(AB, K, L),
            kernel_tensor(arr_kernel(AB, K), arr_kernel(AB, L)),
        )
        assert kernel_equal(msum_kernel(AB, K, L), composite)
        assert is_deterministic(composite)


class TestZip:
    def test_k0_unit(self):
        assert zip_iso(AB, CD, 0).row(((), ())).support == ((),)

    def test_pairs_positionwise(self):
        row = zip_iso(AB, CD, 2).row((("a", "b"), ("c", "d")))
        assert row.support == ((("a", "c"), ("b", "d")),)

    def test_swap_equivariance(self):
        sigma = Permutation((1, 0))
        lhs = kernel_compose(
            permutation_kernel(tensor_finset(AB, CD), sigma), zip_iso(AB, CD, 2)
        )
        rhs = kernel_compose(
            zip_iso(AB, CD, 2),
            kernel_tensor(permutation_kernel(AB, sigma), permutation_kernel(CD, sigma)),
        )
        assert kernel_equal(lhs, rhs)


class TestMzip:
    def test_point_mass_inputs(self):
        row = mzip_kernel(AB, CD, 2).row((Multiset(AB, (2, 0)), Multiset(CD, (2, 0))))
        assert row.support == (Multiset(tensor_finset(AB, CD), (2, 0, 0, 0)),)

    def test_one_sided_mix(self):
        row = mzip_kernel(AB, CD, 2).row((Multiset(AB, (1, 1)), Multiset(CD, (2, 0))))
        # (a,c) and (b,c) once each, deterministically
        XY = tensor_finset(AB, CD)
        expected = Multiset(XY, (1, 0, 1, 0))
        assert row.support == (expected,)

    def test_two_sided_mix_splits_evenly(self):
        row = mzip_kernel(AB, CD, 2).row((Multiset(AB, (1, 1)), Multiset(CD, (1, 1))))
        XY = tensor_finset(AB, CD)
        coupled = Multiset(XY, (1, 0, 0, 1))  # {(a,c), (b,d)}
        crossed = Multiset(XY, (0, 1, 1, 0))  # {(a,d), (b,c)}
        assert row.as_dict == {coupled: F(1, 2), crossed: F(1, 2)}

    def test_matches_exhaustive_pairing_oracle(self):
        # oracle: enumerate all arrangement pairs and tally the zipped multisets
        K = 3
        XY = tensor_finset(AB, CD)
        mz = mzip_kernel(AB, CD, K)
        for mx in multiset_space(AB, K):
            for my in multiset_space(CD, K):
                ax = set(itertools.permutations(mx.word()))
                ay = set(itertools.permutations(my.word()))
                tally = Counter()
                for tx in ax:
                    for ty in ay:
                        pairs = tuple(zip(tx, ty))
                        counts = Counter(pairs)
                        key = Multiset(XY, tuple(counts.get(e, 0) for e in XY))
                        tally[key] += F(1, len(ax) * len(ay))
                assert mz.row((mx, my)).as_dict == dict(tally)


class TestKsumMu:
    def test_ksum_adds_componentwise(self):
        row = ksum_kernel(AB, 2, 2).row((Multiset(AB, (1, 1)), Multiset(AB, (2, 0))))
        assert row.support == (Multiset(AB, (3, 1)),)

    def test_ksum_k1_identity_like(self):
        k = ksum_kernel(AB, 1, 2)
        assert kernel_equal(k, identity_kernel(multiset_space(AB, 2)))

    def test_ksum_l0_point_mass(self):
        k = ksum_kernel(AB, 2, 0)
        assert all(row.support == (Multiset(AB, (0, 0)),) for row in k.rows)

    def test_mu_flattens_with_multiplicity(self):
        inner_space = multiset_space(AB, 2)
        mixed = Multiset(AB, (1, 1))
        outer = Multiset(inner_space, tuple(2 if m == mixed else 0 for m in inner_space))
        row = mu_kernel(AB, 2, 2).row(outer)
        assert row.support == (Multiset(AB, (2, 2)),)

    def test_mu_weighted_sum(self):
        inner_space = multiset_space(AB, 2)
        two_a = Multiset(AB, (2, 0))
        mixed = Multiset(AB, (1, 1))
        outer = Multiset(inner_space, tuple(1 if m in (two_a, mixed) else 0 for m in inner_space))
        row = mu_kernel(AB, 2, 2).row(outer)
        assert row.support == (Multiset(AB, (3, 1)),)

    def test_mu_unit(self):
        lhs = kernel_compose(mu_kernel(AB, 1, 3), acc_kernel(multiset_space(AB, 3), 1))
        assert kernel_equal(lhs, identity_kernel(multiset_space(AB, 3)))

    def test_stack_and_ksum_square(self):
        K, L = 2, 2
        from finstoch import kernel_power

        lhs = kernel_compose(ksum_kernel(AB, K, L), kernel_power(acc_kernel(AB, L), K))
        rhs = kernel_compose(acc_kernel(AB, K * L), stack_iso(AB, K, L))
        assert kernel_equal(lhs, rhs)

    def test_mu_lists_no_outer_multiset(self, monkeypatch):
        listed, outer = [], []
        counted, built = FinSet.counted.__func__, multisets.Multiset.__init__

        def listing(cls, size, build):
            return counted(cls, size, lambda: listed.append(size) or build())

        def recorded(self, base, counts):
            built(self, base, counts)
            if len(base) == 15:
                outer.append(self)

        monkeypatch.setattr(FinSet, "counted", classmethod(listing))
        monkeypatch.setattr(multisets.Multiset, "__init__", recorded)
        X = make_finset(["mu-a", "mu-b", "mu-c"])  # labels no other test builds, so no cache hit
        k = mu_kernel(X, 4, 4)
        assert len(k.domain) == 3060 and len(k.codomain) == 153
        assert sum(len(row.items) for row in k.rows) == 3060
        assert 3060 not in listed and outer == []
        assert 153 in listed  # the codomain, whose labels the rows read
        assert len(k.domain.elements) == 3060  # reading the domain lists it, where both patches see it
        assert 3060 in listed and len(outer) == 3060

    def test_determinism(self):
        assert is_deterministic(msum_kernel(AB, 1, 2))
        assert is_deterministic(ksum_kernel(AB, 2, 1))
        assert is_deterministic(mu_kernel(AB, 2, 2))


def count_vectors(n, total):
    if n == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in count_vectors(n - 1, total - c):
            yield (c,) + rest


@given(st.integers(0, 4), st.integers(0, 4))
def test_msum_commutes_everywhere(i, j):
    for u in count_vectors(2, i):
        for v in count_vectors(2, j):
            assert msum(Multiset(AB, u), Multiset(AB, v)) == msum(Multiset(AB, v), Multiset(AB, u))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_msum_associates(i, j, k):
    u, v, w = Multiset(AB, (i, 0)), Multiset(AB, (1, j)), Multiset(AB, (0, k))
    assert msum(msum(u, v), w) == msum(u, msum(v, w))
