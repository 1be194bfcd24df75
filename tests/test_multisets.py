"""Multiset spaces and the quotient kernels acc, perm, eps, arr, Flrn, del, DD."""

import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finstoch import (
    Multiset,
    acc_kernel,
    acc_of_seq,
    arr_kernel,
    constant_kernel,
    copy_kernel,
    dd_kernel,
    del_kernel,
    dirac,
    epsilon_kernel,
    flrn_kernel,
    identity_kernel,
    is_deterministic,
    kernel_compose,
    kernel_equal,
    kernel_power,
    make_dist,
    make_finset,
    mset_map,
    multiset_space,
    perm_kernel,
    power_finset,
    reindex_kernel,
    section_kernel,
)
from finstoch.core import CarrierTooLarge, Dist, Kernel, carrier_limit, kernel_from_function
from finstoch.multisets import count_vectors, drop_kernel, multichoose, multiset_index
from label_tuples import tuple_of, untuple

AB = make_finset(["a", "b"])
ABC = make_finset(["a", "b", "c"])
EMPTY = make_finset([])


def seq_dist_oracle(X, K, weight_of_tuple):
    """Independent tally: push a tuple-level weight assignment through counting."""
    out = Counter()
    for t in itertools.product(X.elements, repeat=K):
        out[tuple(sorted(Counter(t).items()))] += weight_of_tuple(t)
    return {k: v for k, v in out.items() if v}


class TestSpaces:
    def test_sizes(self):
        assert len(multiset_space(ABC, 2)) == 6
        assert len(multiset_space(AB, 0)) == 1
        assert len(multiset_space(EMPTY, 3)) == 0
        assert len(multiset_space(EMPTY, 0)) == 1

    def test_enumeration_matches_word_order(self):
        words = [m.word() for m in multiset_space(AB, 2)]
        assert words == [("a", "a"), ("a", "b"), ("b", "b")]
        assert words == sorted(words)

    def test_no_duplicates(self):
        ms = list(multiset_space(ABC, 3))
        assert len(set(ms)) == len(ms) == 10

    def test_count_vectors_in_descending_lexicographic_order(self):
        for n in range(5):
            X = make_finset([f"x{i}" for i in range(n)])
            for K in range(6):
                vectors = [v for v in itertools.product(range(K + 1), repeat=n) if sum(v) == K]
                assert [m.counts for m in multiset_space(X, K)] == sorted(vectors, reverse=True)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            Multiset(AB, (1,))
        with pytest.raises(ValueError):
            Multiset(AB, (-1, 2))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Multiset(AB, (1, 0)).minus("b"), "cannot remove 'b': count is zero"),
            (lambda: multichoose(-1, 0), "multichoose takes naturals"),
            (lambda: multiset_space(AB, -1), "multichoose takes naturals"),
            (lambda: drop_kernel(AB, 2, 0), r"drop index 0 out of range 1\.\.3"),
        ],
        ids=["minus-at-zero", "multichoose", "space", "drop-index"],
    )
    def test_bad_input_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_hash_follows_equality(self):
        built_apart = Multiset(make_finset(["a", "b"]), (2, 1))
        counted = acc_of_seq(AB, ("b", "a", "a"))
        assert built_apart == counted and hash(built_apart) == hash(counted)
        assert hash(counted) == hash(counted)
        BA = make_finset(["b", "a"])
        assert Multiset(AB, (1, 1)) != Multiset(BA, (1, 1))
        assert len({Multiset(AB, (1, 1)), Multiset(BA, (1, 1)), Multiset(AB, (1, 1))}) == 2


    def test_enumeration_refused_before_it_starts(self):
        # M[400] over 4 colours has 10,827,401 count vectors; listing them would take minutes
        X = make_finset(["big-a", "big-b", "big-c", "big-d"])
        with carrier_limit(20000):
            with pytest.raises(CarrierTooLarge):
                count_vectors(4, 400)
            with pytest.raises(CarrierTooLarge):
                multiset_index(len(X), 400)
            with pytest.raises(CarrierTooLarge):
                count_vectors(1, 20001)  # one vector, but longer than the ceiling

    def test_count_vectors_are_the_carrier_order(self):
        for n in range(4):
            X = make_finset("abc"[:n])
            for K in range(5):
                assert count_vectors(n, K) == tuple(m.counts for m in multiset_space(X, K))
                assert multiset_index(len(X), K) == {m.counts: i for i, m in enumerate(multiset_space(X, K))}


class TestBagsOnPositions:
    """The builders that name outcomes by carrier position equal their definitions on labels."""

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("K", range(4))
    def test_builders_match_their_label_definitions(self, n, K):
        X = make_finset("abc"[:n])
        P, M = power_finset(X, K), multiset_space(X, K)
        P1, M1 = power_finset(X, K + 1), multiset_space(X, K + 1)
        assert section_kernel(X, K) == kernel_from_function(M, P, lambda m: untuple(K, m.word()))
        dropped = Kernel(P1, P, tuple(
            Dist(P, [(untuple(K, w[:i] + w[i + 1 :]), F(1, K + 1)) for i in range(K + 1)])
            for w in map(lambda t: tuple_of(K + 1, t), P1)
        ))
        assert del_kernel(X, K) == dropped
        drawn = Kernel(M1, M, tuple(Dist(M, [(m.minus(x), F(c, K + 1)) for x, c in m.items()]) for m in M1))
        assert dd_kernel(X, K) == drawn
        if K >= 1:
            coordinates = Kernel(P, X, tuple(Dist(X, [(c, F(1, K)) for c in tuple_of(K, t)]) for t in P))
            assert epsilon_kernel(X, K) == coordinates
            frequencies = Kernel(M, X, tuple(Dist(X, [(x, F(c, K)) for x, c in m.items()]) for m in M))
            assert flrn_kernel(X, K) == frequencies


class TestAccOfSeq:
    def test_counts_occurrences(self):
        m = acc_of_seq(AB, ("a", "b", "a", "b", "b"))
        assert m.counts == (2, 3)

    def test_empty(self):
        assert acc_of_seq(AB, ()).counts == (0, 0)

    def test_direct_counting(self):
        m = acc_of_seq(ABC, ("c", "a", "c"))
        assert m.counts == (1, 0, 2)

    @given(st.permutations(["a", "b", "a", "c", "b"]))
    def test_invariant_under_permutation(self, seq):
        assert acc_of_seq(ABC, tuple(seq)) == acc_of_seq(ABC, ("a", "a", "b", "b", "c"))


class TestAccKernel:
    def test_k1_is_bijection_onto_singletons(self):
        k = acc_kernel(AB, 1)
        supports = [row.support[0] for row in k.rows]
        assert supports == list(multiset_space(AB, 1))
        assert is_deterministic(k)

    def test_k0_unique_map(self):
        k = acc_kernel(AB, 0)
        assert len(k.domain) == 1 and len(k.codomain) == 1

    def test_surjective_on_rows(self):
        k = acc_kernel(AB, 3)
        assert {row.support[0] for row in k.rows} == set(multiset_space(AB, 3))


class TestPermKernel:
    def test_k1_identity(self):
        assert kernel_equal(perm_kernel(AB, 1), identity_kernel(AB))

    def test_k2_splits_evenly(self):
        row = perm_kernel(AB, 2).row(("a", "b"))
        assert row.as_dict == {("a", "b"): F(1, 2), ("b", "a"): F(1, 2)}

    def test_perm_after_copy_is_copy(self):
        lhs = kernel_compose(perm_kernel(AB, 3), copy_kernel(AB, 3))
        assert kernel_equal(lhs, copy_kernel(AB, 3))

    def test_matches_brute_force_average(self):
        # oracle: average the K! rearrangements of each tuple directly
        K = 3
        k = perm_kernel(AB, K)
        for t in power_finset(AB, K):
            tally = Counter()
            for images in itertools.permutations(range(K)):
                tally[tuple(t[j] for j in images)] += F(1, math.factorial(K))
            assert k.row(t).as_dict == dict(tally)


class TestEpsilon:
    def test_k1_identity(self):
        assert kernel_equal(epsilon_kernel(ABC, 1), identity_kernel(ABC))

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            epsilon_kernel(AB, 0)

    def test_average_of_coordinates(self):
        assert epsilon_kernel(AB, 2).row(("a", "b")).as_dict == {"a": F(1, 2), "b": F(1, 2)}

    def test_eps_after_copy_is_identity(self):
        lhs = kernel_compose(epsilon_kernel(ABC, 3), copy_kernel(ABC, 3))
        assert kernel_equal(lhs, identity_kernel(ABC))


class TestArr:
    def test_uniform_over_distinct_arrangements(self):
        m = Multiset(AB, (2, 3))
        row = arr_kernel(AB, 5).row(m)
        assert len(row.support) == 10
        assert set(row.as_dict.values()) == {F(1, 10)}

    def test_support_is_every_distinct_ordering(self):
        for n in range(1, 4):
            X = make_finset([f"x{i}" for i in range(n)])
            for K in range(6):
                for m in multiset_space(X, K):
                    orderings = set(itertools.permutations(m.word()))
                    support = {tuple_of(K, t) for t in arr_kernel(X, K).row(m).support}
                    assert support == orderings

    def test_single_arrangement_point_mass(self):
        row = arr_kernel(AB, 3).row(Multiset(AB, (3, 0)))
        assert row == dirac(power_finset(AB, 3), ("a", "a", "a"))

    def test_k1_inverts_acc(self):
        assert kernel_equal(
            kernel_compose(arr_kernel(AB, 1), acc_kernel(AB, 1)), identity_kernel(AB)
        )
        assert kernel_equal(arr_kernel(AB, 1), flrn_kernel(AB, 1))

    def test_mediates_perm(self):
        lhs = kernel_compose(arr_kernel(ABC, 3), acc_kernel(ABC, 3))
        assert kernel_equal(lhs, perm_kernel(ABC, 3))


class TestFlrn:
    def test_normalises_counts(self):
        row = flrn_kernel(AB, 5).row(Multiset(AB, (2, 3)))
        assert row.as_dict == {"a": F(2, 5), "b": F(3, 5)}

    def test_point_masses(self):
        assert flrn_kernel(AB, 1).row(Multiset(AB, (1, 0))) == dirac(AB, "a")
        assert flrn_kernel(AB, 4).row(Multiset(AB, (0, 4))) == dirac(AB, "b")

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            flrn_kernel(AB, 0)

    def test_mediates_eps(self):
        lhs = kernel_compose(flrn_kernel(AB, 3), acc_kernel(AB, 3))
        assert kernel_equal(lhs, epsilon_kernel(AB, 3))


class TestDel:
    def test_k0_is_discard(self):
        k = del_kernel(AB, 0)
        assert all(row.support == ((),) for row in k.rows)

    def test_drops_each_coordinate(self):
        row = del_kernel(AB, 1).row(("a", "b"))
        assert row.as_dict == {"a": F(1, 2), "b": F(1, 2)}

    def test_del_after_copy_is_copy(self):
        lhs = kernel_compose(del_kernel(AB, 2), copy_kernel(AB, 3))
        assert kernel_equal(lhs, copy_kernel(AB, 2))


class TestDD:
    def test_two_colour_example(self):
        row = dd_kernel(AB, 2).row(Multiset(AB, (2, 1)))
        assert row.as_dict == {Multiset(AB, (1, 1)): F(2, 3), Multiset(AB, (2, 0)): F(1, 3)}

    def test_singleton_point_masses(self):
        assert dd_kernel(AB, 0).row(Multiset(AB, (1, 0))).support == (Multiset(AB, (0, 0)),)
        assert dd_kernel(AB, 2).row(Multiset(AB, (3, 0))).support == (Multiset(AB, (2, 0)),)

    def test_matches_arrangement_oracle(self):
        # oracle: arrange, delete a uniform position, re-accumulate
        K = 3
        for m in multiset_space(AB, K):
            tally = Counter()
            arrangements = set(itertools.permutations(m.word()))
            for t in arrangements:
                for pos in range(K):
                    rest = acc_of_seq(AB, t[:pos] + t[pos + 1 :])
                    tally[rest] += F(1, len(arrangements) * K)
            assert dd_kernel(AB, K - 1).row(m).as_dict == dict(tally)

    def test_dd_square(self):
        lhs = kernel_compose(dd_kernel(AB, 2), acc_kernel(AB, 3))
        rhs = kernel_compose(acc_kernel(AB, 2), del_kernel(AB, 2))
        assert kernel_equal(lhs, rhs)


class TestFunctorAction:
    def test_deterministic_relabelling(self):
        CD = make_finset(["c", "d"])
        k = mset_map(reindex_kernel(AB, CD), 2)
        assert k.row(Multiset(AB, (1, 1))).support == (Multiset(CD, (1, 1)),)

    def test_naturality_square(self):
        CD = make_finset(["c", "d"])
        f = constant_kernel(AB, make_dist(CD, {"c": F(1, 3), "d": F(2, 3)}))
        lhs = kernel_compose(mset_map(f, 2), acc_kernel(AB, 2))
        rhs = kernel_compose(acc_kernel(CD, 2), kernel_power(f, 2))
        assert kernel_equal(lhs, rhs)

    def test_unit_map_not_natural(self):
        # the K-fold unit acc . copy[K] fails naturality: witness is a
        # fair-coin kernel out of a singleton, at K = 2
        one = make_finset(["x"])
        coin = constant_kernel(one, make_dist(AB, {"a": F(1, 2), "b": F(1, 2)}))
        unit_one = kernel_compose(acc_kernel(one, 2), copy_kernel(one, 2))
        unit_ab = kernel_compose(acc_kernel(AB, 2), copy_kernel(AB, 2))
        lhs = kernel_compose(mset_map(coin, 2), unit_one)
        rhs = kernel_compose(unit_ab, coin)
        assert not kernel_equal(lhs, rhs)
        # the independent pair spreads over mixed multisets, the copied one cannot
        mixed = Multiset(AB, (1, 1))
        assert lhs.rows[0].weight(mixed) == F(1, 2)
        assert rhs.rows[0].weight(mixed) == 0


class TestDeterminismClassification:
    def test_deterministic_family(self):
        assert is_deterministic(acc_kernel(ABC, 3))
        assert is_deterministic(copy_kernel(ABC, 3))
        assert is_deterministic(section_kernel(ABC, 2))

    def test_nondeterministic_family(self):
        assert not is_deterministic(perm_kernel(AB, 2))
        assert not is_deterministic(arr_kernel(AB, 2))
        assert not is_deterministic(flrn_kernel(AB, 2))
        assert not is_deterministic(del_kernel(AB, 1))
        assert not is_deterministic(dd_kernel(AB, 1))


@given(st.integers(0, 4))
def test_space_sizes_match_binomial(k):
    assert len(multiset_space(ABC, k)) == math.comb(3 + k - 1, k) if k else 1


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=6))
def test_acc_word_roundtrip(seq):
    m = acc_of_seq(ABC, tuple(seq))
    assert acc_of_seq(ABC, m.word()) == m
    assert m.word() == tuple(sorted(seq, key=ABC.index.__getitem__))


@given(st.integers(1, 4))
def test_flrn_rows_sum_to_one(k):
    for row in flrn_kernel(ABC, k).rows:
        assert sum(row.as_dict.values()) == 1


def weighted_draws(X, K):
    """arr, Flrn, eps, del and DD on X at size K, each row written out with its closed-form Fraction weight."""
    P, M = power_finset(X, K), multiset_space(X, K)
    P1, M1 = power_finset(X, K + 1), multiset_space(X, K + 1)
    kernels = {
        "arr": Kernel(M, P, tuple(
            Dist(P, [
                (untuple(K, t), F(math.prod(math.factorial(c) for c in m.counts), math.factorial(K)))
                for t in set(itertools.permutations(m.word()))
            ])
            for m in M
        )),
        "del": Kernel(P1, P, tuple(
            Dist(P, [(untuple(K, cs[:i] + cs[i + 1 :]), F(1, K + 1)) for i in range(K + 1)])
            for cs in (tuple_of(K + 1, t) for t in P1)
        )),
        "dd": Kernel(M1, M, tuple(Dist(M, [(m.minus(x), F(c, K + 1)) for x, c in m.items()]) for m in M1)),
    }
    if K >= 1:
        kernels["epsilon"] = Kernel(P, X, tuple(Dist(X, [(c, F(1, K)) for c in tuple_of(K, t)]) for t in P))
        kernels["flrn"] = Kernel(M, X, tuple(Dist(X, [(x, F(c, K)) for x, c in m.items()]) for m in M))
    return kernels


def test_draws_match_closed_form_weights():
    built = {"arr": arr_kernel, "del": del_kernel, "dd": dd_kernel, "epsilon": epsilon_kernel, "flrn": flrn_kernel}
    for n, K in itertools.product(range(4), range(5)):
        X = make_finset("abc"[:n])
        for name, expected in weighted_draws(X, K).items():
            assert kernel_equal(built[name](X, K), expected), (name, n, K)
