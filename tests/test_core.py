"""Carriers, distributions, kernels, and the convex/monoidal structure."""

import gc
import itertools
import math
import sys
import threading
import time
import weakref
from contextlib import nullcontext
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from finstoch import (
    CarrierTooLarge,
    Permutation,
    Tagged,
    acc_kernel,
    arr_kernel,
    carrier_limit,
    constant_kernel,
    convex_sum,
    copy_kernel,
    coprojection_kernel,
    coproduct_finset,
    cotuple,
    dirac,
    discard_kernel,
    fractional_series,
    hypergeometric_chain_kernel,
    identity_kernel,
    index_map_kernel,
    is_deterministic,
    kernel_compose,
    kernel_compose_all,
    kernel_equal,
    kernel_from_function,
    kernel_power,
    kernel_tensor,
    make_dist,
    make_finset,
    mset_map,
    msplit_kernel,
    mu_kernel,
    multinomial_kernel,
    mzip_kernel,
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
from finstoch import multisets
from finstoch.core import (
    Dist,
    FinSet,
    Kernel,
    PointRows,
    frequency_kernel,
    unchecked_weights,
    word_letters,
    word_position,
)
from finstoch.laws import make_kernel
from finstoch.multisets import Multiset, flrn_kernel, multiset_space
from label_tuples import tuple_of, untuple

AB = make_finset(["a", "b"])
ABC = make_finset(["a", "b", "c"])


def fair_ab():
    return make_dist(AB, {"a": F(1, 2), "b": F(1, 2)})


def biased_ab():
    return make_dist(AB, {"a": F(1, 3), "b": F(2, 3)})


def random_kernel(data, dom_labels="pqr", cod_labels="abc"):
    """A random kernel between carriers of 1-3 elements with rational rows, some of them point masses."""
    dom = make_finset(dom_labels[: data.draw(st.integers(1, 3))])
    cod = make_finset(cod_labels[: data.draw(st.integers(1, 3))])
    return random_kernel_between(data, dom, cod)


def random_kernel_between(data, dom, cod):
    rows = []
    for _ in dom:
        if data.draw(st.booleans()):
            rows.append(dirac(cod, data.draw(st.sampled_from(cod.elements))))
        else:
            nums = data.draw(st.lists(st.integers(0, 4), min_size=len(cod), max_size=len(cod)))
            assume(sum(nums) > 0)
            rows.append(make_dist(cod, {y: F(n, sum(nums)) for y, n in zip(cod, nums)}))
    return Kernel(dom, cod, tuple(rows))


def eager_power(f, K):
    """f^K with every row built up front, weight of (y_1..y_K) at (x_1..x_K) being prod f(x_i)(y_i)."""
    dom, cod = power_finset(f.domain, K), power_finset(f.codomain, K)
    rows = tuple(
        make_dist(cod, {
            y: math.prod((f.row(a).weight(b) for a, b in zip(tuple_of(K, x), tuple_of(K, y))), start=F(1))
            for y in cod
        })
        for x in dom
    )
    return Kernel(dom, cod, rows)


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


class TestCountedCarriers:
    """Powers, tensors, coproducts and multiset spaces know their size without a list, and list their labels once."""

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("K", range(4))
    def test_counted_carriers_match_their_listed_twins(self, n, K):
        X, Y = make_finset("abc"[:n]), make_finset("pq")
        carriers = (power_finset(X, K), tensor_finset(X, power_finset(Y, K)), multiset_space(X, K))
        for c in carriers + (coproduct_finset((X, power_finset(Y, K), X)),):
            twin = FinSet(tuple(c.elements))
            assert len(c) == len(twin) == len(c.elements)
            assert c.elements == twin.elements
            assert c.index == twin.index
            assert c == twin and twin == c
            assert hash(c) == hash(twin)

    def test_power_and_tensor_agree_element_wise(self):
        X = make_finset(["counted-a", "counted-b"])  # labels no other test builds, so neither is listed yet
        square, pairs = power_finset(X, 2), tensor_finset(X, X)
        assert square is not pairs
        assert square == pairs and hash(square) == hash(pairs)

    def test_size_without_a_list_and_labels_listed_once(self):
        calls = []

        def build():
            calls.append(1)
            return ("p", "q", "r")

        c = FinSet.counted(3, build)
        assert len(c) == 3 and c == c and calls == []
        assert c.elements == ("p", "q", "r")
        assert list(c) == ["p", "q", "r"] and "q" in c and c.index["r"] == 2
        assert c == make_finset("pqr") and hash(c) == hash(make_finset("pqr"))
        assert calls == [1]

    def test_builder_let_go_once_listed(self):
        held = Holder()
        alive = weakref.ref(held)
        c = FinSet.counted(1, lambda held=held: ("only",))
        del held
        assert alive() is not None
        assert c.elements == ("only",)
        assert alive() is None

    def test_labels_listed_from_threads_are_the_listed_labels(self):
        expected = tuple(itertools.product("abc", repeat=4))

        def build():
            time.sleep(0)  # let another thread in while the labels are listed
            return tuple(itertools.product("abc", repeat=4))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                c, seen = FinSet.counted(81, build), []

                def read():
                    seen.append((c.elements, c.index[("c", "c", "c", "c")], hash(c)))

                threads = [threading.Thread(target=read) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert seen == [(expected, 80, hash(FinSet(expected)))] * 6
                assert c.elements == expected and "_build" not in vars(c)
        finally:
            sys.setswitchinterval(switch)

    def test_counted_carrier_checked_against_the_ceiling_when_made(self):
        with carrier_limit(10):
            with pytest.raises(CarrierTooLarge):
                FinSet.counted(11, lambda: pytest.fail("a refused carrier must not be listed"))
            with pytest.raises(CarrierTooLarge):
                power_finset(ABC, 3)
            with pytest.raises(CarrierTooLarge):
                tensor_finset(ABC, power_finset(AB, 2))
            assert len(FinSet.counted(10, lambda: pytest.fail("not read"))) == 10


class TestWordCodec:
    """Word i of X^K, |X| = n, has the base-n digits of i as its letters, leftmost most significant."""

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("K", range(5))
    def test_letters_list_the_power_in_order(self, n, K):
        words = [word_letters(i, n, K) for i in range(n**K)]
        assert words == list(itertools.product(range(n), repeat=K))
        assert [word_position(w, n) for w in words] == list(range(n**K))


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


WEIGHTS = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def bags(carrier):
    """(label, weight) lists over the carrier, with repeated labels, zeros and any signs or totals."""
    return st.lists(st.tuples(st.sampled_from(carrier.elements), WEIGHTS), max_size=8)


def summed(carrier, bag):
    """The canonical items of a bag in Fraction arithmetic: totals per label, zeros dropped, carrier order."""
    totals = {}
    for x, w in bag:
        totals[x] = totals.get(x, F(0)) + w
    return tuple((x, totals[x]) for x in carrier if totals.get(x, 0) != 0)


def assert_canonical(d, items):
    """d reads as items, held on ascending positions over a denominator sharing no factor with every numerator."""
    assert d.items == items
    assert list(d.indices) == [d.carrier.index[x] for x, _ in items] == sorted(set(d.indices))
    assert d.den > 0 and math.gcd(d.den, *d.nums) == 1


class TestCanonicalRow:
    """A row is carrier indices with int numerators over one denominator; checked against Fraction references."""

    @given(st.data())
    def test_bags_are_canonical(self, data):
        bag, other = data.draw(bags(ABC)), data.draw(bags(ABC))
        with unchecked_weights():
            d = Dist(ABC, bag)
            same = Dist(ABC, bag[::-1] + [(x, w - w) for x, w in other])
            d_other = Dist(ABC, other)
        assert_canonical(d, summed(ABC, bag))
        assert_canonical(d_other, summed(ABC, other))
        assert same == d and hash(same) == hash(d)
        assert (d == d_other) == (d.items == d_other.items)
        if d == d_other:
            assert hash(d) == hash(d_other)

    @given(st.data())
    def test_frequency_rows_are_relative_frequencies(self, data):
        dom = make_finset("pqr"[: data.draw(st.integers(0, 3))])
        cod = make_finset("abcd"[: data.draw(st.integers(1, 4))])
        counts = st.tuples(st.integers(0, len(cod) - 1), st.integers(1, 6))
        bag_of = [data.draw(st.lists(counts, min_size=1, max_size=8)) for _ in dom]
        k = frequency_kernel(dom, cod, lambda i: iter(bag_of[i]))
        assert k.domain == dom and k.codomain == cod
        for i, x in enumerate(dom):
            total = sum(c for _, c in bag_of[i])
            expected = Dist(cod, [(cod.elements[y], F(c, total)) for y, c in bag_of[i]])
            assert k.row(x) == expected
            assert_canonical(k.row(x), expected.items)

    def test_point_masses_share_one_weight(self):
        a, b = dirac(AB, "a"), dirac(ABC, "c")
        assert a.items == (("a", 1),) and b.items == (("c", 1),)
        assert a.items[0][1] is b.items[0][1]

    def test_unchecked_rows_keep_their_items(self):
        two = (("a", F(3, 2)), ("b", F(1, 2)))
        negative = (("a", F(3, 2)), ("b", F(-1, 2)))
        with unchecked_weights():
            assert Dist(AB, two).items == two
            assert Dist(AB, negative).items == negative
            assert Dist(AB, ()).items == ()
        with pytest.raises(ValueError, match="sum to exactly 1"):
            Dist(AB, two)
        with pytest.raises(ValueError, match="negative weight"):
            Dist(AB, negative)

    @pytest.mark.parametrize("checked", [True, False])
    def test_items_with_repeated_numerators(self, checked):
        ABCD = make_finset("abcd")
        weights = [F(1, 6), F(1, 3), F(1, 6), F(1, 3)] if checked else [F(1, 6), F(-1, 3), F(1, 6), F(1, 6)]
        with nullcontext() if checked else unchecked_weights():
            d = Dist(ABCD, zip("abcd", weights))
        labels = ABCD.elements
        assert d.items == tuple((labels[i], F(n, d.den)) for i, n in zip(d.indices, d.nums))
        assert d.items == tuple(zip("abcd", weights))
        assert all(type(w) is F for _, w in d.items)

    @given(st.data(), st.booleans())
    def test_operations_match_fraction_references(self, data, checked):
        # checked: stochastic rows; unchecked: rows of any sign and total
        def kernel(dom, cod):
            if checked:
                return random_kernel_between(data, dom, cod)
            with unchecked_weights():
                return Kernel(dom, cod, tuple(Dist(cod, data.draw(bags(cod))) for _ in dom))

        P = make_finset("pqr"[: data.draw(st.integers(1, 3))])
        A = make_finset("abc"[: data.draw(st.integers(1, 3))])
        B = make_finset("stu"[: data.draw(st.integers(1, 3))])
        f, g = kernel(P, A), kernel(A, B)
        fs = [kernel(P, A) for _ in range(data.draw(st.integers(1, 3)))]
        r = fractional_series(data.draw(st.lists(st.integers(1, 4), min_size=len(fs), max_size=len(fs))))
        K = data.draw(st.integers(0, 3))
        with nullcontext() if checked else unchecked_weights():
            composite, tensor = kernel_compose(g, f), kernel_tensor(f, g)
            power, mixture = kernel_power(f, K), convex_sum(r, fs)
            for x in P:
                bag = [(z, w * v) for y, w in f.row(x).items for z, v in g.row(y).items]
                assert_canonical(composite.row(x), summed(B, bag))
                bag = [(y, w * v) for w, h in zip(r.weights, fs) for y, v in h.row(x).items]
                assert_canonical(mixture.row(x), summed(A, bag))
            for x, y in tensor.domain:
                bag = [((a, b), w * v) for a, w in f.row(x).items for b, v in g.row(y).items]
                assert_canonical(tensor.row((x, y)), summed(tensor.codomain, bag))
            for xs in power.domain:
                combos = itertools.product(*(f.row(c).items for c in tuple_of(K, xs)))
                bag = [(untuple(K, [y for y, _ in c]), math.prod((w for _, w in c), start=F(1))) for c in combos]
                assert_canonical(power.row(xs), summed(power.codomain, bag))


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

    @pytest.mark.parametrize("kind", ["generic", "const", "collapse", "iso"])
    def test_tensor_square_is_the_power_and_the_zeroth_power_the_unit(self, kind):
        # kernel_tensor and kernel_power share one product builder, deterministic or not
        unit = identity_kernel(unit_finset())
        for n, m in itertools.product(range(1, 4), repeat=2):
            if kind == "iso" and n != m:
                continue
            f = make_kernel(kind, make_finset("abc"[:n]), make_finset("pqr"[:m]))
            assert kernel_tensor(f, f) == kernel_power(f, 2)  # pairs and 2-tuples: the carriers agree
            zeroth = kernel_power(f, 0)
            assert zeroth == unit and hash(zeroth) == hash(unit) and zeroth.is_point_masses()


class CountingLabel:
    """A label that counts the calls of its ``__eq__``."""

    calls = 0

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        CountingLabel.calls += 1
        return isinstance(other, CountingLabel) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Holder:
    """An object a weak reference can point at."""


class CountingTuple(tuple):
    """A tuple of labels that counts the calls of its ``__eq__``."""

    calls = 0

    def __eq__(self, other):
        CountingTuple.calls += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def value_pairs():
    """(class name, value, an equal value built apart, a field name) for each of the six value classes."""
    def dist():
        return make_dist(make_finset("ab"), {"a": F(1, 3), "b": F(2, 3)})

    def kernel():
        return Kernel(make_finset("pq"), make_finset("ab"), (dist(), dist()))

    return [
        ("Tagged", Tagged(0, "a"), Tagged(0, "a"), "tag"),
        ("FinSet", make_finset("abc"), make_finset(list("abc")), "elements"),
        ("Dist", dist(), dist(), "den"),
        ("Permutation", Permutation((1, 0, 2)), Permutation(tuple([1, 0, 2])), "images"),
        ("Kernel", kernel(), kernel(), "rows"),
        ("Multiset", Multiset(make_finset("ab"), (2, 1)), Multiset(make_finset("ab"), (2, 1)), "counts"),
    ]


VALUE_PAIRS = pytest.mark.parametrize("name, value, twin, field", value_pairs(), ids=[p[0] for p in value_pairs()])


def one_field_twins():
    """(value class, a value, per annotated field a twin of the value that differs in that field alone)."""
    quarters = {"a": F(1, 4), "b": F(3, 4)}
    with unchecked_weights():
        fifths = Dist(ABC, (("a", F(1, 5)), ("b", F(3, 5))))  # the numerators of quarters over 5
    rows, BA = PointRows(AB, (0, 1)), make_finset("ba")
    return [
        (Tagged, Tagged(0, "a"), {"tag": Tagged(1, "a"), "value": Tagged(0, "b")}),
        (FinSet, AB, {"elements": BA}),
        (Dist, make_dist(ABC, quarters), {
            "carrier": make_dist(make_finset("abd"), quarters),
            "indices": make_dist(ABC, {"a": F(1, 4), "c": F(3, 4)}),
            "nums": make_dist(ABC, {"a": F(3, 4), "b": F(1, 4)}),
            "den": fifths,
        }),
        (Permutation, Permutation((0, 1)), {"images": Permutation((1, 0))}),
        (Kernel, Kernel(AB, AB, rows), {
            "domain": Kernel(BA, AB, rows),
            "codomain": Kernel(AB, BA, rows),  # lazy rows are not checked against the codomain
            "rows": Kernel(AB, AB, PointRows(AB, (1, 0))),
        }),
        (Multiset, Multiset(AB, (1, 0)), {"base": Multiset(BA, (1, 0)), "counts": Multiset(AB, (0, 1))}),
    ]


class TestValueClasses:
    """Tagged, FinSet, Dist, Permutation, Kernel and Multiset are immutable values."""

    @VALUE_PAIRS
    def test_equal_values_built_apart(self, name, value, twin, field):
        assert value is not twin
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1

    @VALUE_PAIRS
    def test_fields_cannot_be_assigned(self, name, value, twin, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before and value == twin

    @pytest.mark.parametrize("cls, value, twins", one_field_twins(), ids=[c.__name__ for c, _, _ in one_field_twins()])
    def test_every_field_takes_part_in_equality(self, cls, value, twins):
        fields = tuple(vars(cls)["__annotations__"])
        assert tuple(twins) == fields
        for field, twin in twins.items():
            assert [getattr(twin, f) == getattr(value, f) for f in fields] == [f != field for f in fields]
            assert value != twin and twin != value and not value == twin, field

    def test_values_differ_from_their_fields(self):
        assert Tagged(0, "a") != (0, "a")
        assert Tagged(0, "a") != Tagged(1, "a")
        assert make_finset("ab") != ("a", "b")
        assert Permutation((0, 1)) != (0, 1)
        assert Multiset(AB, (1, 1)) != Multiset(make_finset("ba"), (1, 1))

    def test_reprs(self):
        assert repr(Permutation((1, 0, 2))) == "Permutation(images=(1, 0, 2))"
        assert repr(Tagged(1, "a")) == "#1:'a'"
        assert repr(make_finset("ab")) == "FinSet('a', 'b')"
        assert repr(fair_ab()) == "Dist('a': 1/2, 'b': 1/2)"
        assert repr(identity_kernel(ABC)) == "Kernel(3->3)"
        assert repr(Multiset(AB, (2, 1))) == "2|a|+1|b|"

    def test_carrier_compared_with_itself_walks_nothing(self):
        X = FinSet(CountingTuple(CountingLabel(i) for i in range(50)))
        CountingLabel.calls = CountingTuple.calls = 0
        assert X == X and not X != X
        assert X == FinSet(X.elements)
        assert kernel_equal(identity_kernel(X), identity_kernel(X))
        assert CountingLabel.calls == 0
        assert CountingTuple.calls == 0  # the element tuples are compared by identity first


class TestFrequencyRowsOnFirstUse:
    """frequency_kernel builds each row when it is first read."""

    def test_one_row_read_calls_the_bag_once(self, monkeypatch):
        calls = []
        real = multisets.frequency_kernel

        def counted(domain, codomain, counts):
            def bag(i):
                calls.append(i)
                return counts(i)

            return real(domain, codomain, bag)

        monkeypatch.setattr(multisets, "frequency_kernel", counted)
        X = make_finset(["lazy-r", "lazy-g", "lazy-b"])  # labels no other test builds, so no cache hit
        urn = Multiset(X, (2, 0, 3))
        k = flrn_kernel(X, 5)
        assert calls == []
        assert k.row(urn) == make_dist(X, {"lazy-r": F(2, 5), "lazy-b": F(3, 5)})
        assert k.row(urn) is k.row(urn)
        assert calls == [multiset_space(X, 5).index[urn]]

    @pytest.mark.parametrize("n, K", [(1, 1), (2, 3), (3, 4)])
    def test_lazy_kernel_equals_its_eager_twin(self, n, K):
        X = make_finset("abc"[:n])
        M = multiset_space(X, K)
        eager = Kernel(M, X, tuple(make_dist(X, {x: F(c, K) for x, c in m.items()}) for m in M))
        assert kernel_equal(flrn_kernel(X, K), eager)
        assert kernel_equal(eager, flrn_kernel(X, K))
        assert hash(flrn_kernel(X, K)) == hash(eager)

    def test_bag_let_go_once_every_row_is_read(self):
        held = Holder()
        alive = weakref.ref(held)
        k = frequency_kernel(ABC, AB, lambda i, held=held: [(0, 1), (1, 2)])
        del held
        k.row("c")
        k.row("a")
        assert alive() is not None
        k.row("b")
        assert alive() is None
        assert k.rows == (make_dist(AB, {"a": F(1, 3), "b": F(2, 3)}),) * 3

    def test_rows_read_from_threads_are_the_eager_rows(self):
        P = power_finset(ABC, 3)

        def bag(i):
            time.sleep(0)  # let another thread in while the row is built
            return [(ABC.index[c], j + 1) for j, c in enumerate(P.elements[i])]

        eager = tuple(Dist(ABC, [(ABC.elements[c], F(n, 6)) for c, n in bag(i)]) for i in range(len(P)))
        n = len(P)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                k, seen = frequency_kernel(P, ABC, bag), []

                def read(start):
                    seen.append([(i % n, k.rows[i % n]) for i in range(start, start + n)])

                # two threads read in step, so rows are built twice; two start half-way
                threads = [threading.Thread(target=read, args=(s // 2 * n // 2,)) for s in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 4
                assert all(dict(rows) == dict(enumerate(eager)) for rows in seen)
                assert k.rows == eager
        finally:
            sys.setswitchinterval(switch)

    def test_label_outside_the_codomain_raises_when_read(self):
        k = frequency_kernel(AB, ABC, lambda i: [(0, 1), (3, 1)] if i == 1 else [(0, 1)])
        assert k.row("a") == dirac(ABC, "a")
        with pytest.raises(ValueError):
            k.row("b")

    def test_negative_position_raises_when_read(self):
        # a negative position would index the codomain from its end
        k = frequency_kernel(AB, ABC, lambda i: [(-1, 1), (0, 1)] if i == 0 else [(2, 1)])
        assert k.row("b") == dirac(ABC, "c")
        with pytest.raises(ValueError):
            k.row("a")


class TestLazyRows:
    """kernel_power builds its rows on first use; they read as the tuple of all rows."""

    def square(self):
        return kernel_power(Kernel(AB, AB, (biased_ab(), fair_ab())), 2)

    @given(st.data(), st.integers(0, 3))
    def test_power_equals_eager_product_of_rows(self, data, K):
        f = random_kernel(data)
        eager = eager_power(f, K)
        assert kernel_equal(kernel_power(f, K), eager)
        assert kernel_equal(eager, kernel_power(f, K))
        assert kernel_power(f, K).rows == eager.rows
        assert eager.rows == kernel_power(f, K).rows
        assert hash(kernel_power(f, K)) == hash(eager)

        @cache
        def first_seen(k):
            return k

        assert first_seen(eager) is eager
        assert first_seen(kernel_power(f, K)) is eager
        assert first_seen.cache_info().hits == 1

    def test_indexing(self):
        sq = self.square()
        eager = eager_power(Kernel(AB, AB, (biased_ab(), fair_ab())), 2)
        assert len(sq.rows) == 4
        assert sq.rows[-1] == eager.rows[3] == sq.row(("b", "b"))
        assert sq.rows[-4] == eager.rows[0]
        assert sq.rows[1:3] == eager.rows[1:3]
        assert isinstance(sq.rows[1:3], tuple)
        assert list(sq.rows) == list(eager.rows)
        with pytest.raises(IndexError):
            sq.rows[4]
        with pytest.raises(IndexError):
            sq.rows[-5]

    def test_row_is_built_once(self, built_dists):
        sq = self.square()
        built_dists.clear()
        first = sq.rows[2]
        assert sq.rows[2] is first
        assert sq.rows[-2] is first
        assert len(built_dists) == 1 and built_dists[0] is first

    def test_reading_every_row_compares_no_rows(self, monkeypatch):
        compared = []
        equal = Dist.__eq__

        def counted(self, other):
            compared.append(other)
            return equal(self, other)

        monkeypatch.setattr(Dist, "__eq__", counted)
        power = kernel_power(multisets.arr_kernel(ABC, 2), 3)
        rows = list(power.rows)
        assert len(rows) == len(set(map(id, rows))) == 216
        assert compared == []

    def test_validation_setting_captured_when_made(self):
        with unchecked_weights():
            f = Kernel(AB, AB, (Dist(AB, (("a", F(2)),)), fair_ab()))  # row a weighs 2
            made_inside = kernel_power(f, 2)
            read_inside = tuple(kernel_power(f, 2).rows)
        made_outside = kernel_power(f, 2)
        # made inside and read outside: unchecked, as if read inside
        assert made_inside.rows == read_inside
        assert made_inside.row(("a", "a")).weight(("a", "a")) == 4
        # made outside and read inside: checked, as if read outside
        with unchecked_weights():
            with pytest.raises(ValueError):
                made_outside.rows[0]


def test_builds_leave_no_cyclic_garbage():
    # an unread product and a fold's prefix memo are freed by reference counts alone
    X, Y = make_finset(["gc-x0", "gc-x1", "gc-x2"]), make_finset(["gc-y0", "gc-y1", "gc-y2"])
    FOUR, TWO = make_finset(["gc-a", "gc-b", "gc-c", "gc-d"]), make_finset(["gc-l0", "gc-l1"])
    f = Kernel(X, Y, tuple(make_dist(Y, {y: F(i + j + 1, 3 * i + 6) for j, y in enumerate(Y)}) for i in range(3)))
    gc.disable()
    try:
        gc.collect()
        for K in range(2, 6):
            tuple(multinomial_kernel(f, K).rows)
            tuple(mset_map(f, K).rows)
        kernel_power(f, 3)
        for k in (
            hypergeometric_chain_kernel(FOUR, 8, 3),
            mzip_kernel(X, TWO, 5),
            mu_kernel(X, 4, 4),
            arr_kernel(FOUR, 7),
            msplit_kernel(X, Y, 8),
        ):
            tuple(k.rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


def random_point_kernel(data, dom, cod):
    """A random deterministic kernel dom -> cod, with its twin whose rows are a tuple of diracs."""
    fn = {x: data.draw(st.sampled_from(cod.elements)) for x in dom}
    return kernel_from_function(dom, cod, fn.__getitem__), Kernel(dom, cod, tuple(dirac(cod, fn[x]) for x in dom))


def assert_twins(k, eager):
    """k reads as eager in every comparison, and each is the other's cache key."""
    assert isinstance(eager.rows, tuple)
    assert k.rows == eager.rows and eager.rows == k.rows
    assert kernel_equal(k, eager) and kernel_equal(eager, k)
    assert hash(k) == hash(eager)

    @cache
    def first_seen(kernel):
        return kernel

    assert first_seen(eager) is eager
    assert first_seen(k) is eager
    assert first_seen.cache_info().hits == 1


class TestPointRows:
    """Deterministic kernels hold codomain indices and build a row only when it is read."""

    @given(st.data())
    def test_operations_equal_their_eager_twins(self, data):
        P = make_finset("pqr"[: data.draw(st.integers(1, 3))])
        A = make_finset("abc"[: data.draw(st.integers(1, 3))])
        B = make_finset("stu"[: data.draw(st.integers(1, 3))])
        d, d_eager = random_point_kernel(data, P, A)
        e, e_eager = random_point_kernel(data, A, B)
        d2, d2_eager = random_point_kernel(data, B, A)
        g_out, g_in = random_kernel_between(data, A, B), random_kernel_between(data, P, A)
        assert_twins(d, d_eager)
        assert_twins(kernel_compose(g_out, d), kernel_compose(g_out, d_eager))
        assert_twins(kernel_compose(e, g_in), kernel_compose(e_eager, g_in))
        K = data.draw(st.integers(0, 3))
        t = kernel_tensor(d_eager, e_eager)  # held by its factors: its rows listed make the eager twin
        point_cases = [
            (kernel_compose(e, d), kernel_compose(e_eager, d_eager)),
            (kernel_tensor(d, e), Kernel(t.domain, t.codomain, tuple(t.rows))),
            (cotuple([d, d2]), cotuple([d_eager, d2_eager])),
            (kernel_power(d, K), eager_power(d_eager, K)),
        ]
        for k, eager in point_cases:
            assert isinstance(k.rows, PointRows) and k.is_point_masses()
            assert_twins(k, eager)

    def test_compose_gathers_the_rows_of_g(self, built_dists):
        g = Kernel(AB, ABC, (make_dist(ABC, {"a": F(1, 2), "c": F(1, 2)}), make_dist(ABC, {"b": F(1)})))
        d = kernel_from_function(ABC, AB, {"a": "b", "b": "a", "c": "b"}.__getitem__)
        built_dists.clear()
        k = kernel_compose(g, d)
        assert [row is g.rows[i] for row, i in zip(k.rows, (1, 0, 1))] == [True, True, True]
        assert built_dists == []

    def test_one_point_mass_per_target(self, built_dists):
        d = copy_kernel(ABC, 0)
        assert isinstance(d.rows, PointRows) and d.is_point_masses()
        assert built_dists == []
        assert d.rows[0] is d.rows[1] is d.rows[2] == dirac(unit_finset(), ())
        assert len(built_dists) == 2  # the shared row and the dirac it is compared with

    def test_compared_without_building(self, built_dists):
        k = index_map_kernel(AB, ABC, lambda i: i)
        assert k == index_map_kernel(AB, ABC, lambda i: i)
        assert k.rows != index_map_kernel(AB, ABC, lambda i: 2 - i).rows
        assert k.rows != index_map_kernel(AB, AB, lambda i: i).rows
        assert built_dists == []

    def test_label_outside_codomain(self):
        with pytest.raises(ValueError, match="not in carrier"):
            kernel_from_function(AB, AB, lambda x: "c")

    @pytest.mark.parametrize("target", [-1, 3, 4])
    def test_index_outside_codomain(self, target):
        with pytest.raises(ValueError):
            index_map_kernel(AB, ABC, lambda i: target)

    def test_index_map(self):
        k = index_map_kernel(AB, ABC, lambda i: 2 - i)
        assert k.rows.targets == (2, 1)
        assert k.row("a") == dirac(ABC, "c")


class TestComposeAll:
    @given(st.data())
    def test_folds_to_either_bracketing(self, data):
        f = random_kernel(data)
        g = random_kernel_between(data, f.codomain, make_finset("stu"[: data.draw(st.integers(1, 3))]))
        h = random_kernel_between(data, g.codomain, make_finset("xyz"[: data.draw(st.integers(1, 3))]))
        composite = kernel_compose_all(h, g, f)
        assert kernel_equal(composite, kernel_compose(h, kernel_compose(g, f)))
        assert kernel_equal(composite, kernel_compose(kernel_compose(h, g), f))


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

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("K", range(4))
    def test_copy_matches_the_copier_on_labels(self, n, K):
        X = make_finset("abc"[:n])
        labelled = kernel_from_function(X, power_finset(X, K), lambda x: untuple(K, (x,) * K))
        assert copy_kernel(X, K) == labelled

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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: number_finset(-1), ValueError, "interpreted numbers are nonnegative"),
        (lambda: power_finset(AB, -1), ValueError, "power exponent must be nonnegative"),
        (lambda: copy_kernel(AB, -1), ValueError, "power exponent must be nonnegative"),
        (lambda: make_dist(AB, {"a": 0.5, "b": F(1, 2)}), TypeError, "exact rationals, got float"),
        (lambda: fair_ab().weight("z"), ValueError, "label 'z' not in carrier"),
        (lambda: fractional_series((1, -1)), ValueError, "entries are naturals"),
        (lambda: Permutation((1, 0)).compose(Permutation((0,))), ValueError, "size mismatch"),
        (lambda: cotuple([identity_kernel(AB)], codomain=ABC), ValueError, "codomain mismatch"),
        (lambda: convex_sum(uniform_state(2), [identity_kernel(AB), identity_kernel(ABC)]), ValueError, "share domain"),
    ],
    ids=["number", "power", "copy", "float-weight", "weight-outside", "negative-series", "compose-sizes",
         "cotuple-codomain", "convex-carriers"],
)
def test_bad_input_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestDeterminism:
    def test_dirac_rows_deterministic(self):
        assert is_deterministic(identity_kernel(ABC))
        assert is_deterministic(state_kernel(dirac(AB, "a")))

    def test_fair_coin_not_deterministic(self):
        assert not is_deterministic(state_kernel(fair_ab()))

    @given(st.data())
    def test_matches_point_mass_characterisation(self, data):
        k = random_kernel(data)
        assert is_deterministic(k) == k.is_point_masses()


class TestBuilderCaches:
    """A cached carrier or kernel is reused only under the ceiling and the weight check it was built under."""

    def test_kernel_built_unbounded_is_refused_under_a_ceiling(self):
        assert len(acc_kernel(ABC, 5).domain) == 243
        with carrier_limit(100):
            with pytest.raises(CarrierTooLarge):
                acc_kernel(ABC, 5)

    def test_unchecked_kernel_is_not_reused_when_checked(self):
        with unchecked_weights():
            heavy = state_kernel(Dist(AB, (("a", F(2)),)))  # row weighs 2
            assert multinomial_kernel(heavy, 2).rows[0].nums == (4,)
        with pytest.raises(ValueError):
            multinomial_kernel(heavy, 2)

    def test_weight_check_off_keeps_the_ceiling(self):
        with carrier_limit(100), unchecked_weights():
            with pytest.raises(CarrierTooLarge):
                acc_kernel(ABC, 5)

    def test_ceiling_keeps_the_weight_check_off(self):
        with unchecked_weights(), carrier_limit(100):
            assert Dist(AB, (("a", F(2)),)).nums == (2,)  # row weighs 2

    def test_ceiling_reads_the_weight_check_when_entered(self):
        limit = carrier_limit(100)  # made while the check is on
        with unchecked_weights(), limit:
            assert Dist(AB, (("a", F(2)),)).nums == (2,)
            with pytest.raises(CarrierTooLarge):
                acc_kernel(ABC, 5)


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
