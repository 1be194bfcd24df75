"""Carriers, distributions, kernels, and the convex/monoidal structure."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from finstoch import (
    Permutation,
    Tagged,
    constant_kernel,
    convex_sum,
    copy_kernel,
    coprojection_kernel,
    coproduct_finset,
    cotuple,
    dirac,
    discard_kernel,
    fractional_series,
    identity_kernel,
    is_deterministic,
    kernel_compose,
    kernel_equal,
    kernel_power,
    kernel_tensor,
    make_dist,
    make_finset,
    number_finset,
    permutation_kernel,
    power_finset,
    projection_kernel,
    reindex_kernel,
    series_bullet,
    state_kernel,
    tensor_finset,
    uniform_state,
    unit_finset,
)
from finstoch.core import Dist, Kernel

AB = make_finset(["a", "b"])
ABC = make_finset(["a", "b", "c"])


def fair_ab():
    return make_dist(AB, {"a": F(1, 2), "b": F(1, 2)})


def biased_ab():
    return make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})


class TestFinSet:
    def test_construction_order(self):
        X = make_finset(["r", "g", "b"])
        assert X.elements == ("r", "g", "b")
        assert len(X) == 3

    def test_empty_is_initial(self):
        assert len(make_finset([])) == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_finset(["a", "a"])

    def test_product_coproduct_power_sizes(self):
        assert len(tensor_finset(AB, ABC)) == 6
        assert len(coproduct_finset((AB, ABC))) == 5
        assert len(power_finset(ABC, 3)) == 27
        assert len(power_finset(ABC, 0)) == 1

    def test_power_low_arities_collapse(self):
        assert power_finset(AB, 1) == AB
        assert power_finset(AB, 0) == unit_finset()
        assert power_finset(AB, 2) == tensor_finset(AB, AB)

    def test_power_order_is_mixed_radix(self):
        assert power_finset(AB, 2).elements == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))


class TestDist:
    def test_dirac(self):
        d = dirac(AB, "a")
        assert d.weights == (F(1), F(0))
        assert dirac(ABC, "c").weight("c") == 1

    def test_dirac_outside_carrier(self):
        with pytest.raises(ValueError):
            dirac(AB, "z")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_dist(AB, {"a": F(1, 2), "b": F(1, 3)})
        with pytest.raises(ValueError):
            make_dist(AB, {"a": F(3, 2), "b": F(-1, 2)})

    def test_zero_weights_pruned(self):
        d = make_dist(AB, {"a": F(1), "b": F(0)})
        assert d.support == ("a",)
        assert d == dirac(AB, "a")

    def test_repeated_labels_add(self):
        bag = (("a", F(1, 4)), ("a", F(1, 4)), ("b", F(1, 2)))
        assert Dist(AB, bag) == fair_ab()
        assert Dist(AB, iter(bag)).items == (("a", F(1, 2)), ("b", F(1, 2)))

    def test_label_summing_to_zero_leaves_support(self):
        d = Dist(AB, (("b", F(1, 3)), ("a", 1), ("b", F(-1, 3))))
        assert d.support == ("a",)
        assert d == dirac(AB, "a")

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 5)), min_size=1, max_size=12))
    def test_bag_equals_its_summed_mapping(self, pairs):
        total = sum(n for _, n in pairs)
        assume(total > 0)
        summed = {}
        for x, n in pairs:
            summed[x] = summed.get(x, 0) + n
        bag = [(x, F(n, total)) for x, n in pairs]
        assert Dist(ABC, bag) == make_dist(ABC, {x: F(n, total) for x, n in summed.items()})

    def test_uniform_state(self):
        assert uniform_state(2).weights == (F(1, 2), F(1, 2))
        assert uniform_state(1).weights == (F(1),)
        with pytest.raises(ValueError):
            uniform_state(0)

    def test_uniform_tensor_is_uniform(self):
        pair = kernel_tensor(state_kernel(uniform_state(6)), state_kernel(uniform_state(6)))
        relabel = reindex_kernel(pair.codomain, number_finset(36))
        lifted = kernel_compose(relabel, pair)
        assert lifted.rows[0] == uniform_state(36)


class TestKernel:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            Kernel(AB, AB, (dirac(AB, "a"),))  # one row missing
        with pytest.raises(ValueError):
            Kernel(AB, AB, (dirac(ABC, "a"), dirac(ABC, "b")))  # wrong carrier

    def test_identity_composition(self):
        f = constant_kernel(AB, biased_ab())
        assert kernel_equal(kernel_compose(identity_kernel(AB), f), f)
        assert kernel_equal(kernel_compose(f, identity_kernel(AB)), f)

    def test_discard_absorbs(self):
        f = constant_kernel(ABC, fair_ab())
        assert kernel_equal(kernel_compose(discard_kernel(AB), f), discard_kernel(ABC))

    def test_compose_matrix_product_by_hand(self):
        # generic 2x2 into a constant fair coin: every row becomes (1/2, 1/2)
        f = Kernel(
            AB, AB,
            (make_dist(AB, {"a": F(1, 4), "b": F(3, 4)}), make_dist(AB, {"a": F(2, 5), "b": F(3, 5)})),
        )
        g = constant_kernel(AB, fair_ab())
        expected = constant_kernel(AB, fair_ab())
        assert kernel_equal(kernel_compose(g, f), expected)

    def test_compose_domain_mismatch(self):
        with pytest.raises(ValueError):
            kernel_compose(identity_kernel(ABC), identity_kernel(AB))

    def test_tensor_identity(self):
        lhs = kernel_tensor(identity_kernel(AB), identity_kernel(ABC))
        assert kernel_equal(lhs, identity_kernel(tensor_finset(AB, ABC)))

    def test_tensor_of_diracs(self):
        X, Y = AB, make_finset(["c", "d"])
        k = kernel_tensor(state_kernel(dirac(X, "a")), state_kernel(dirac(Y, "c")))
        assert k.rows[0].support == (("a", "c"),)

    def test_tensor_weights(self):
        k = kernel_tensor(state_kernel(biased_ab()), state_kernel(fair_ab()))
        assert k.rows[0].weight(("a", "b")) == F(1, 3) * F(1, 2)

    def test_power_one_is_f(self):
        f = constant_kernel(AB, biased_ab())
        assert kernel_power(f, 1) is f

    def test_power_independent_rows(self):
        f = state_kernel(biased_ab())
        sq = kernel_power(f, 2)
        row = sq.rows[0]
        assert row.weight(("a", "a")) == F(1, 9)
        assert row.weight(("b", "b")) == F(4, 9)


class TestCotuple:
    def test_single_is_identity_on_tagging(self):
        f = constant_kernel(AB, fair_ab())
        k = cotuple([f])
        assert k.row(Tagged(0, "a")) == f.row("a")

    def test_case_split_of_diracs(self):
        k = cotuple([state_kernel(dirac(AB, "a")), state_kernel(dirac(AB, "b"))])
        assert k.row(Tagged(0, ())) == dirac(AB, "a")
        assert k.row(Tagged(1, ())) == dirac(AB, "b")
        assert is_deterministic(k)

    def test_codiagonal_is_discard(self):
        one = unit_finset()
        nabla = cotuple([identity_kernel(one)] * 3)
        assert kernel_equal(nabla, discard_kernel(coproduct_finset((one, one, one))))

    def test_empty_needs_codomain(self):
        with pytest.raises(ValueError):
            cotuple([])
        k = cotuple([], codomain=AB)
        assert len(k.domain) == 0

    def test_codomain_mismatch(self):
        with pytest.raises(ValueError):
            cotuple([identity_kernel(AB), identity_kernel(ABC)])

    def test_coprojections_deterministic(self):
        k = coprojection_kernel((AB, ABC), 1)
        assert is_deterministic(k)
        assert k.row("c").support == (Tagged(1, "c"),)


class TestCopyDiscardProject:
    def test_copy_one_is_identity(self):
        assert kernel_equal(copy_kernel(AB, 1), identity_kernel(AB))

    def test_copy_zero_is_discard(self):
        assert kernel_equal(copy_kernel(AB, 0), discard_kernel(AB))

    def test_copy_two_diagonal(self):
        assert copy_kernel(AB, 2).row("a").support == (("a", "a"),)

    def test_discard_on_unit_is_identity(self):
        assert kernel_equal(discard_kernel(unit_finset()), identity_kernel(unit_finset()))

    def test_discard_on_empty_has_no_rows(self):
        k = discard_kernel(make_finset([]))
        assert k.rows == ()

    def test_empty_domain_kernels_compose_vacuously(self):
        empty = make_finset([])
        k = Kernel(empty, AB, ())
        assert kernel_compose(discard_kernel(AB), k).rows == ()
        assert kernel_equal(kernel_compose(k, identity_kernel(empty)), k)

    def test_projection(self):
        assert projection_kernel(AB, 2, 2).row(("a", "b")).support == ("b",)
        assert kernel_equal(projection_kernel(AB, 1, 1), identity_kernel(AB))
        with pytest.raises(ValueError):
            projection_kernel(AB, 2, 3)

    def test_proj_after_copy_is_identity(self):
        k = kernel_compose(projection_kernel(AB, 2, 1), copy_kernel(AB, 2))
        assert kernel_equal(k, identity_kernel(AB))


class TestPermutation:
    def test_identity_kernel(self):
        sigma = Permutation.identity(3)
        assert kernel_equal(permutation_kernel(AB, sigma), identity_kernel(power_finset(AB, 3)))

    def test_swap(self):
        swap = Permutation((1, 0))
        assert permutation_kernel(AB, swap).row(("a", "b")).support == (("b", "a"),)

    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))

    def test_composition_matches_interpretation(self):
        # applying sigma then tau equals the interpreted composite, on all 2-tuples
        sigma, tau = Permutation((1, 0)), Permutation((1, 0))
        composite = kernel_compose(permutation_kernel(AB, tau), permutation_kernel(AB, sigma))
        assert kernel_equal(composite, permutation_kernel(AB, sigma.compose(tau)))

    @given(st.permutations(range(3)))
    def test_inverse(self, images):
        p = Permutation(tuple(images))
        assert p.compose(p.inverse()).images == (0, 1, 2)


class TestConvex:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convex_sum(uniform_state(2), [identity_kernel(AB)])

    def test_constant_collection(self):
        f = constant_kernel(AB, biased_ab())
        assert kernel_equal(convex_sum(uniform_state(3), [f, f, f]), f)
        assert kernel_equal(
            convex_sum(fractional_series((1, 3)), [identity_kernel(AB)] * 2), identity_kernel(AB)
        )

    def test_mix_of_diracs_is_fair(self):
        k = convex_sum(
            uniform_state(2), [state_kernel(dirac(AB, "a")), state_kernel(dirac(AB, "b"))]
        )
        assert k.rows[0] == fair_ab()

    def test_series_bullet(self):
        r = fractional_series((1, 2))
        s = uniform_state(2)
        assert series_bullet(r, s).weights == (F(1, 6), F(1, 6), F(1, 3), F(1, 3))
        assert series_bullet(uniform_state(2), uniform_state(3)) == uniform_state(6)
        assert series_bullet(r, uniform_state(1)) == r

    def test_bullet_transpose(self):
        r = fractional_series((1, 2))
        s = uniform_state(2)
        rs, sr = series_bullet(r, s), series_bullet(s, r)
        n, m = len(r.carrier), len(s.carrier)
        transposed = tuple(sr.weights[j * n + i] for i in range(n) for j in range(m))
        assert rs.weights == transposed

    def test_fractional_series(self):
        assert fractional_series((1, 3, 2)).weights == (F(1, 6), F(1, 2), F(1, 3))
        assert fractional_series((1,)).weights == (F(1),)
        assert fractional_series((2, 2)) == uniform_state(2)
        with pytest.raises(ValueError):
            fractional_series((0, 0))


class TestDeterminism:
    def test_dirac_rows_deterministic(self):
        assert is_deterministic(identity_kernel(ABC))
        assert is_deterministic(state_kernel(dirac(AB, "a")))

    def test_fair_coin_not_deterministic(self):
        assert not is_deterministic(state_kernel(fair_ab()))

    @given(st.data())
    def test_matches_point_mass_characterisation(self, data):
        dom = make_finset(["p", "q", "r"][: data.draw(st.integers(1, 3))])
        cod = make_finset(["a", "b", "c"][: data.draw(st.integers(1, 3))])
        rows = []
        for _ in dom:
            if data.draw(st.booleans()):
                rows.append(dirac(cod, data.draw(st.sampled_from(cod.elements))))
            else:
                nums = data.draw(st.lists(st.integers(0, 4), min_size=len(cod), max_size=len(cod)))
                assume(sum(nums) > 0)
                rows.append(make_dist(cod, {y: F(n, sum(nums)) for y, n in zip(cod, nums)}))
        k = Kernel(dom, cod, tuple(rows))
        assert is_deterministic(k) == k.is_point_masses()


class TestKernelEqual:
    def test_reflexive(self):
        f = constant_kernel(AB, biased_ab())
        assert kernel_equal(f, f)

    def test_distinguishes_weights(self):
        assert not kernel_equal(state_kernel(fair_ab()), state_kernel(biased_ab()))

    def test_distinguishes_carriers(self):
        assert not kernel_equal(identity_kernel(AB), identity_kernel(ABC))


@given(st.integers(1, 30), st.integers(1, 6))
def test_uniform_series_weights(n, _k):
    s = uniform_state(n)
    assert sum(s.weights) == 1
    assert len(set(s.weights)) == 1


@given(st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(lambda v: sum(v) > 0))
def test_fractional_series_normalises(nums):
    s = fractional_series(tuple(nums))
    assert sum(s.weights) == 1
    assert s.weights == tuple(F(v, sum(nums)) for v in nums)


@given(st.permutations(range(4)))
def test_permutation_kernels_are_bijections(images):
    sigma = Permutation(tuple(images))
    k = permutation_kernel(AB, sigma)
    seen = {row.support[0] for row in k.rows}
    assert len(seen) == len(k.domain)
