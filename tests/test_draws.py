"""Multinomial and hypergeometric kernels against independent oracles."""

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from finstoch import (
    Multiset,
    acc_kernel,
    acc_of_seq,
    arr_kernel,
    constant_kernel,
    dd_kernel,
    dirac,
    hypergeometric_chain_kernel,
    hypergeometric_kernel,
    identity_kernel,
    kernel_compose,
    kernel_equal,
    make_dist,
    make_finset,
    mset_map,
    multinomial_kernel,
    multinomial_pmf_kernel,
    multiset_space,
    mzip_kernel,
    power_finset,
    state_kernel,
)
from finstoch.core import FinSet, Kernel

HT = make_finset(["h", "t"])
AB = make_finset(["a", "b"])
ABC = make_finset(["a", "b", "c"])


def multinomial_oracle(dist, K):
    """Brute force: weight every length-K tuple and accumulate."""
    X = dist.carrier
    tally = Counter()
    for t in itertools.product(X.elements, repeat=K):
        w = F(1)
        for c in t:
            w *= dist.weight(c)
        tally[acc_of_seq(X, t)] += w
    return {m: w for m, w in tally.items() if w}


def mset_map_oracle(f, m):
    """Brute force: send each ball of m through f independently and accumulate."""
    word = [x for x, c in m.items() for _ in range(c)]
    tally = Counter()
    for ys in itertools.product(f.codomain.elements, repeat=len(word)):
        w = F(1)
        for x, y in zip(word, ys):
            w *= f.row(x).weight(y)
        tally[acc_of_seq(f.codomain, ys)] += w
    return {m: w for m, w in tally.items() if w}


def hypergeometric_oracle(urn, K):
    """Brute force: draw sequences without replacement, position-uniformly."""
    X = urn.base
    tally = Counter()

    def go(remaining, taken, weight):
        if len(taken) == K:
            tally[acc_of_seq(X, tuple(taken))] += weight
            return
        total = remaining.size
        for x, c in remaining.items():
            go(remaining.minus(x), taken + [x], weight * F(c, total))

    go(urn, [], F(1))
    return {m: w for m, w in tally.items() if w}


class TestMultinomial:
    def test_fair_coin_k2(self):
        mn = multinomial_kernel(state_kernel(make_dist(HT, {"h": F(1, 2), "t": F(1, 2)})), 2)
        row = mn.rows[0]
        assert row.weight(Multiset(HT, (2, 0))) == F(1, 4)
        assert row.weight(Multiset(HT, (1, 1))) == F(1, 2)
        assert row.weight(Multiset(HT, (0, 2))) == F(1, 4)

    def test_fair_coin_k3(self):
        mn = multinomial_kernel(state_kernel(make_dist(HT, {"h": F(1, 2), "t": F(1, 2)})), 3)
        assert [w for _, w in mn.rows[0].items] == [F(1, 8), F(3, 8), F(3, 8), F(1, 8)]

    def test_biased_k2(self):
        mn = multinomial_kernel(state_kernel(make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})), 2)
        assert [w for _, w in mn.rows[0].items] == [F(1, 9), F(4, 9), F(4, 9)]

    def test_k1_mirrors_input(self):
        d = make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})
        mn = multinomial_kernel(state_kernel(d), 1)
        assert [w for _, w in mn.rows[0].items] == [F(1, 3), F(2, 3)]

    def test_matches_oracle(self):
        d = make_dist(ABC, {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)})
        for K in range(4):
            mn = multinomial_kernel(state_kernel(d), K)
            assert mn.rows[0].as_dict == multinomial_oracle(d, K)

    def test_closed_form_agrees_with_composite(self):
        f = constant_kernel(AB, make_dist(ABC, {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)}))
        for K in range(5):
            assert kernel_equal(multinomial_kernel(f, K), multinomial_pmf_kernel(f, K))

    def test_zero_weight_outcomes_absent(self):
        d = make_dist(AB, {"a": F(1), "b": F(0)})
        mn = multinomial_kernel(state_kernel(d), 3)
        assert mn.rows[0].support == (Multiset(AB, (3, 0)),)


class TestHypergeometric:
    def test_single_draw_urn(self):
        hg = hypergeometric_kernel(AB, 3, 2)
        row = hg.row(Multiset(AB, (2, 1)))
        assert row.as_dict == {Multiset(AB, (2, 0)): F(1, 3), Multiset(AB, (1, 1)): F(2, 3)}

    def test_equal_sizes_identity(self):
        assert kernel_equal(hypergeometric_kernel(AB, 2, 2), identity_kernel(multiset_space(AB, 2)))

    def test_zero_draws_point_mass(self):
        hg = hypergeometric_kernel(AB, 3, 0)
        assert all(row.support == (Multiset(AB, (0, 0)),) for row in hg.rows)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            hypergeometric_kernel(AB, 2, 3)
        with pytest.raises(ValueError):
            hypergeometric_chain_kernel(AB, 2, 3)

    def test_matches_sequential_oracle(self):
        for urn in multiset_space(ABC, 4):
            for K in range(5):
                hg = hypergeometric_kernel(ABC, 4, K)
                assert hg.row(urn).as_dict == hypergeometric_oracle(urn, K)

    def test_chain_agrees_with_closed_form(self):
        for L in range(6):
            for K in range(L + 1):
                assert kernel_equal(
                    hypergeometric_kernel(AB, L, K), hypergeometric_chain_kernel(AB, L, K)
                )

    @pytest.mark.parametrize("n", range(1, 4))
    def test_chain_equals_the_fold_from_the_urn(self, n):
        X = make_finset("abc"[:n])
        for L in range(7):
            for K in range(L + 1):
                fold = identity_kernel(multiset_space(X, L))
                for size in range(L - 1, K - 1, -1):
                    fold = kernel_compose(dd_kernel(X, size), fold)
                assert hypergeometric_chain_kernel(X, L, K) == fold

    def test_pure_urn(self):
        hg = hypergeometric_kernel(make_finset(["a"]), 3, 2)
        row = hg.rows[0]
        assert row == dirac(multiset_space(make_finset(["a"]), 2), Multiset(make_finset(["a"]), (2,)))


class TestRowsOnFirstUse:
    """The composites read only the rows of f^K that copy or the section selects."""

    PQR = make_finset(["p", "q", "r"])

    def kernel(self):
        rows = [(1, 2, 3), (4, 0, 1), (1, 1, 1)]
        return Kernel(self.PQR, ABC, tuple(
            make_dist(ABC, {y: F(n, sum(r)) for y, n in zip(ABC, r)}) for r in rows
        ))

    def test_multinomial_reads_the_diagonal(self, built_dists):
        f = self.kernel()
        multinomial_kernel.cache_clear()
        built_dists.clear()
        mn = multinomial_kernel(f, 6)
        # the row of f^6 . copy at x equals the row of f^6 at (x, ..., x), and
        # f's rows differ, so each distinct row on ABC^6 is one row of f^6
        power_rows = {d for d in built_dists if d.carrier == power_finset(ABC, 6)}
        assert len(power_rows) <= len(self.PQR)
        assert kernel_equal(mn, multinomial_pmf_kernel(f, 6))

    def test_mset_map_reads_the_representatives(self, built_dists):
        f = self.kernel()
        mset_map.cache_clear()
        built_dists.clear()
        mm = mset_map(f, 4)
        # as above, with the section's representative words in place of the diagonal
        power_rows = {d for d in built_dists if d.carrier == power_finset(ABC, 4)}
        assert len(power_rows) <= len(multiset_space(self.PQR, 4))
        for m in multiset_space(self.PQR, 4):
            assert mm.row(m).as_dict == mset_map_oracle(f, m)

    def test_acc_builds_no_dist(self, built_dists):
        acc_kernel.cache_clear()
        acc = acc_kernel(ABC, 4)
        assert len(acc.rows) == 81 and acc.is_point_masses()
        assert built_dists == []

    def test_mzip_builds_few_point_masses(self, built_dists):
        for builder in (mzip_kernel, acc_kernel, arr_kernel):
            builder.cache_clear()
        mzip_kernel(ABC, AB, 5)
        # zip and acc on (ABC x AB)^5 have 7,776 rows each; held as indices they
        # build none, acc . zip relabels the factors of arr (x) arr and builds none
        # of its 126 product rows, so what is left is the 27 rows of the two arr
        # kernels and the 126 rows of mzip
        assert len(built_dists) == 27 + 126
        assert sum(d.is_point_mass() for d in built_dists) == 59

    def test_hypergeometric_row_builds_one_dist(self, built_dists):
        hypergeometric_kernel.cache_clear()
        urn = Multiset(ABC, (2, 1, 1))
        hg = hypergeometric_kernel(ABC, 4, 2)
        row = hg.row(urn)
        assert hg.row(urn) is row
        assert len(built_dists) == 1 and built_dists[0] is row
        assert row.as_dict == hypergeometric_oracle(urn, 2)

    def test_hypergeometric_row_lists_neither_carrier(self, monkeypatch):
        listed = []
        counted = FinSet.counted.__func__

        def listing(cls, size, build):
            return counted(cls, size, lambda: listed.append(size) or build())

        monkeypatch.setattr(FinSet, "counted", classmethod(listing))
        X = make_finset(["hg-a", "hg-b", "hg-c", "hg-d"])  # labels no other test builds, so no cache hit
        hg = hypergeometric_kernel(X, 8, 3)
        assert (len(hg.domain), len(hg.codomain)) == (165, 20)
        row = hg.rows[17]
        assert sum(row.nums) == row.den and len(row.nums) > 1
        assert listed == []
        assert row.as_dict == hypergeometric_oracle(hg.domain.elements[17], 3)  # reading the row's labels lists both
        assert sorted(listed) == [20, 165]
