"""The builders that work on carrier positions against label-level twins.

acc, arr, perm, zip, mu, msum, ksum, msplit and its inverse find their
targets from count vectors and mixed-radix positions; projection,
permutation, swap, coprojection, copy, drop, del, epsilon, the list
split and its inverse read and write the positions of words through
``word_letters`` and ``word_position``, and accs counts their letters;
the multinomial and hypergeometric closed forms
compute ``int`` numerators on count vectors.  Each twin below builds
the same kernel the label way: it makes every multiset or tuple and
looks it up in the codomain.  The twins use next-permutation for the
arrangements, ``acc_of_seq`` for the accumulation, ``msum`` for the
sums and ``Fraction`` weights for the closed forms.

Tensors and powers hold their rows by their factors, and a
deterministic map after them relabels the factors; acc and ksum after a
power run through the step tables of ``add_table``.  The composites
below are checked against the same composites with every product row
built and listed first, and the step-table targets against count-vector
sums.
"""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstoch import (
    Multiset,
    Tagged,
    acc_kernel,
    acc_of_seq,
    accs_kernel,
    arr_kernel,
    copy_kernel,
    coprojection_kernel,
    coproduct_finset,
    del_kernel,
    epsilon_kernel,
    hypergeometric_kernel,
    kernel_compose,
    kernel_compose_all,
    kernel_equal,
    kernel_from_function,
    kernel_power,
    kernel_tensor,
    ksum_kernel,
    lsplit_inv_kernel,
    lsplit_kernel,
    make_finset,
    msplit_inv_kernel,
    msplit_kernel,
    msplit_space,
    mset_map,
    msum,
    msum_kernel,
    multiset_space,
    mu_kernel,
    multinomial_kernel,
    multinomial_pmf_kernel,
    mzip_kernel,
    perm_kernel,
    permutation_kernel,
    power_finset,
    projection_kernel,
    swap_kernel,
    tensor_finset,
    zip_iso,
)
from finstoch import multisets
from finstoch.core import Dist, FinSet, Kernel, all_permutations, cached_field, index_map_kernel, word_letters
from finstoch.laws import KERNEL_KINDS, GridSpec, make_kernel, run_laws
from finstoch.multisets import add_table, count_vectors, drop_kernel, multichoose, section_kernel
from finstoch.split import lsplit_space, patterns
from label_tuples import tuple_of, untuple

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


def eager_lsplit(X, Y, K):
    def split(t):
        coords = tuple_of(K, t)
        bits = tuple(1 if c.tag == 0 else 0 for c in coords)
        i = sum(bits)
        xs = tuple(c.value for c in coords if c.tag == 0)
        ys = tuple(c.value for c in coords if c.tag == 1)
        return Tagged(i, Tagged(patterns(K, i).index(bits), (untuple(i, xs), untuple(K - i, ys))))

    return kernel_from_function(power_finset(coproduct_finset((X, Y)), K), lsplit_space(X, Y, K), split)


def eager_lsplit_inv(X, Y, K):
    def weave(z):
        i, inner = z.tag, z.value
        xs = list(tuple_of(i, inner.value[0]))
        ys = list(tuple_of(K - i, inner.value[1]))
        coords = tuple(Tagged(0, xs.pop(0)) if b else Tagged(1, ys.pop(0)) for b in patterns(K, i)[inner.tag])
        return untuple(K, coords)

    return kernel_from_function(lsplit_space(X, Y, K), power_finset(coproduct_finset((X, Y)), K), weave)


def eager_accs(X, Y, K):
    def accumulate(z):
        i, (xs, ys) = z.tag, z.value.value
        return Tagged(i, (acc_of_seq(X, tuple_of(i, xs)), acc_of_seq(Y, tuple_of(K - i, ys))))

    return kernel_from_function(lsplit_space(X, Y, K), msplit_space(X, Y, K), accumulate)


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


def eager_projection(X, K, i):
    return kernel_from_function(power_finset(X, K), X, lambda t: tuple_of(K, t)[i - 1])


def eager_permutation(X, sigma):
    K, P = sigma.size, power_finset(X, sigma.size)
    return kernel_from_function(P, P, lambda t: untuple(K, sigma.apply(tuple_of(K, t))))


def eager_swap(X, Y):
    return kernel_from_function(tensor_finset(X, Y), tensor_finset(Y, X), lambda p: (p[1], p[0]))


def eager_coprojection(parts, i):
    return kernel_from_function(parts[i], coproduct_finset(parts), lambda x: Tagged(i, x))


def eager_copy(X, K):
    return kernel_from_function(X, power_finset(X, K), lambda x: untuple(K, (x,) * K))


def eager_drop(X, K, i):
    def drop(t):
        coords = tuple_of(K + 1, t)
        return untuple(K, coords[: i - 1] + coords[i:])

    return kernel_from_function(power_finset(X, K + 1), power_finset(X, K), drop)


def eager_del(X, K):
    P, Q = power_finset(X, K + 1), power_finset(X, K)

    def row(t):
        coords = tuple_of(K + 1, t)
        return Dist(Q, [(untuple(K, coords[:j] + coords[j + 1 :]), F(1, K + 1)) for j in range(K + 1)])

    return Kernel(P, Q, tuple(map(row, P)))


def eager_epsilon(X, K):
    P = power_finset(X, K)
    return Kernel(P, X, tuple(Dist(X, [(x, F(1, K)) for x in tuple_of(K, t)]) for t in P))


def eager_multinomial_pmf(f, K):
    M = multiset_space(f.codomain, K)
    rows = []
    for x in f.domain:
        p = f.row(x)
        items = []
        for m in M:
            w = F(math.factorial(K), math.prod(math.factorial(c) for c in m.counts))
            for y, c in m.items():
                w *= p.weight(y) ** c
            items.append((m, w))
        rows.append(Dist(M, items))
    return Kernel(f.domain, M, tuple(rows))


def eager_hypergeometric(X, L, K):
    Min, Mout = multiset_space(X, L), multiset_space(X, K)

    def row(urn):
        items = []
        for m in Mout:
            if all(c <= u for c, u in zip(m.counts, urn.counts)):
                num = math.prod(math.comb(u, c) for u, c in zip(urn.counts, m.counts))
                items.append((m, F(num, math.comb(L, K))))
        return Dist(Mout, items)

    return Kernel(Min, Mout, tuple(map(row, Min)))


def skewed_kernel(X, Y):
    """A kernel X -> Y whose i-th row weighs the j-th element of Y as (j + 1) ** (i + 1): unequal entries in each row."""

    def row(i):
        weights = [(j + 1) ** (i + 1) for j in range(len(Y))]
        return Dist(Y, [(y, F(w, sum(weights))) for y, w in zip(Y, weights)])

    return Kernel(X, Y, tuple(map(row, range(len(X)))))


@pytest.mark.parametrize("X", BASES, ids=len)
def test_word_maps_match_twins(X):
    for K in KS:
        assert kernel_equal(copy_kernel(X, K), eager_copy(X, K)), K
        for i in range(1, K + 1):
            assert kernel_equal(projection_kernel(X, K, i), eager_projection(X, K, i)), (K, i)
        for sigma in all_permutations(K):
            assert kernel_equal(permutation_kernel(X, sigma), eager_permutation(X, sigma)), sigma
        if K >= 1:
            assert kernel_equal(epsilon_kernel(X, K), eager_epsilon(X, K)), K
    for K in range(4):
        assert kernel_equal(del_kernel(X, K), eager_del(X, K)), K
        for i in range(1, K + 2):
            assert kernel_equal(drop_kernel(X, K, i), eager_drop(X, K, i)), (K, i)


@pytest.mark.parametrize("X", BASES, ids=len)
def test_swap_and_coprojections_match_twins(X):
    for Y in OTHERS:
        assert kernel_equal(swap_kernel(X, Y), eager_swap(X, Y)), Y
        parts = (Y, X, Y)
        for i in range(len(parts)):
            assert kernel_equal(coprojection_kernel(parts, i), eager_coprojection(parts, i)), (Y, i)


@pytest.mark.parametrize("X", BASES[1:], ids=len)
def test_closed_forms_match_fraction_twins(X):
    for L in range(7):
        for K in range(L + 1):
            assert kernel_equal(hypergeometric_kernel(X, L, K), eager_hypergeometric(X, L, K)), (L, K)
    for Y in OTHERS[1:]:
        f = skewed_kernel(X, Y)
        for K in KS:
            assert kernel_equal(multinomial_pmf_kernel(f, K), eager_multinomial_pmf(f, K)), (Y, K)


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
            if len(Y) <= 2:
                assert kernel_equal(lsplit_kernel(X, Y, K), eager_lsplit(X, Y, K)), (Y, K)
                assert kernel_equal(lsplit_inv_kernel(X, Y, K), eager_lsplit_inv(X, Y, K)), (Y, K)
                assert kernel_equal(accs_kernel(X, Y, K), eager_accs(X, Y, K)), (Y, K)


def test_split_builders_read_no_carrier_index(monkeypatch, cold_caches):
    # every target is found by arithmetic on positions, so no carrier builds its label-to-position dict
    read = []
    real = FinSet.__dict__["index"].fn

    def index(carrier):
        read.append(len(carrier))
        return real(carrier)

    monkeypatch.setattr(FinSet, "index", cached_field(index))
    X, Y = make_finset("abc"), make_finset("xy")
    for K in range(5):
        for builder in (lsplit_kernel, lsplit_inv_kernel, accs_kernel, msplit_inv_kernel):
            builder(X, Y, K)
            assert read == [], (builder.__name__, K)


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


# Factored products and the fused fold --------------------------------------------


def listed(k):
    """k with every row built and held in a tuple: a composite over it reads whole product rows."""
    return Kernel(k.domain, k.codomain, tuple(k.rows))


def grid_or_drawn_kernel(data, X, Y):
    """A kernel X -> Y: one of the law grid's kinds, or rows of drawn naturals over their sum."""
    kinds = [kind for kind in KERNEL_KINDS if kind != "iso" or len(X) == len(Y)]
    kind = data.draw(st.sampled_from(kinds + ["drawn"]))
    if kind != "drawn":
        return make_kernel(kind, X, Y)
    rows = []
    for _ in X:
        nums = data.draw(st.lists(st.integers(0, 4), min_size=len(Y), max_size=len(Y)).filter(any))
        rows.append(Dist(Y, [(y, F(v, sum(nums))) for y, v in zip(Y, nums) if v]))
    return Kernel(X, Y, tuple(rows))


def largest_k(base, cap):
    """The largest K <= 5 with base ** K <= cap."""
    return max(K for K in range(6) if base**K <= cap)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fold_after_a_power_equals_the_expanded_composite(data):
    X, Y = BASES[data.draw(st.integers(1, 3))], OTHERS[data.draw(st.integers(1, 3))]
    K = data.draw(st.integers(0, 5))
    f = grid_or_drawn_kernel(data, X, Y)
    acc, power = acc_kernel(Y, K), kernel_power(f, K)
    for gather, composite in ((section_kernel(X, K), mset_map(f, K)), (copy_kernel(X, K), multinomial_kernel(f, K))):
        picked = kernel_compose(power, gather)
        expanded = kernel_compose(acc, listed(picked))
        assert kernel_compose(acc, picked) == expanded
        assert composite == expanded
    if len(power.rows) * len(Y) ** K <= 3000:
        assert kernel_compose(acc, power) == kernel_compose(acc, listed(power))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ksum_after_a_power_equals_the_expanded_composite(data):
    X, Y = BASES[data.draw(st.integers(1, 3))], OTHERS[data.draw(st.integers(1, 3))]
    L = data.draw(st.integers(0, 3))
    inner = mset_map(grid_or_drawn_kernel(data, X, Y), L)
    K = data.draw(st.integers(0, largest_k(len(inner.domain) * len(inner.codomain), 5000)))
    power = kernel_power(inner, K)
    ksum = ksum_kernel(Y, K, L)
    assert kernel_compose(ksum, power) == kernel_compose(ksum, listed(power))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_acc_zip_after_arr_tensor_equals_the_expanded_composite(n, m):
    X, Y = BASES[n], OTHERS[m]
    for K in range(largest_k(n * m, 8000) + 1):
        tensor = kernel_tensor(arr_kernel(X, K), arr_kernel(Y, K))
        expanded = kernel_compose(acc_kernel(tensor_finset(X, Y), K), kernel_compose(zip_iso(X, Y, K), listed(tensor)))
        assert mzip_kernel(X, Y, K) == expanded, K


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deterministic_map_after_a_product_relabels_its_factors(data):
    A, B = BASES[data.draw(st.integers(1, 3))], OTHERS[data.draw(st.integers(1, 3))]
    C, D = BASES[data.draw(st.integers(1, 3))], OTHERS[data.draw(st.integers(1, 3))]
    Z = make_finset("uvw"[: data.draw(st.integers(1, 3))])

    def random_map(dom):
        targets = data.draw(st.lists(st.integers(0, len(Z) - 1), min_size=len(dom), max_size=len(dom)))
        return index_map_kernel(dom, Z, targets.__getitem__)

    f, h = grid_or_drawn_kernel(data, A, C), grid_or_drawn_kernel(data, B, D)
    K = data.draw(st.integers(0, 3))
    for product in (kernel_tensor(f, h), kernel_power(f, K)):
        g = random_map(product.codomain)
        assert kernel_compose(g, product) == kernel_compose(g, listed(product))
        # two deterministic maps composed first relabel the factors once, as mzip's acc and zip do
        swap = index_map_kernel(Z, Z, lambda z: len(Z) - 1 - z)
        both = kernel_compose(swap, g)
        assert kernel_compose(both, product) == kernel_compose(swap, kernel_compose(g, listed(product)))


def count_sum(n, vectors):
    """The pointwise sum of count vectors over an n-element base."""
    return tuple(map(sum, zip((0,) * n, *vectors)))


@pytest.mark.parametrize("n", range(5))
def test_step_tables_add_count_vectors(n):
    X = make_finset("abcd"[:n])

    def position(v):
        return count_vectors(n, sum(v)).index(v)

    for k in range(5):
        for L in range(5):
            sums = tuple(
                tuple(position(count_sum(n, (r, s))) for s in count_vectors(n, L)) for r in count_vectors(n, k)
            )
            assert add_table(n, k, L) == sums, (k, L)
    units = count_vectors(n, 1)
    for K in range(5):
        acc = acc_kernel(X, K).rows.targets
        assert acc == tuple(position(count_sum(n, [units[j] for j in word_letters(w, n, K)])) for w in range(n**K))
        for L in range(5):
            inner, size = count_vectors(n, L), multichoose(n, L)
            if size**K <= 5000:
                words = (word_letters(w, size, K) for w in range(size**K))
                sums = tuple(position(count_sum(n, [inner[s] for s in word])) for word in words)
                assert ksum_kernel(X, K, L).rows.targets == sums, (K, L)
            if multichoose(size, K) <= 5000:
                outers = count_vectors(size, K)
                sums = tuple(position(count_sum(n, [inner[s] for s, c in enumerate(v) for _ in range(c)])) for v in outers)
                assert mu_kernel(X, K, L).rows.targets == sums, (K, L)


def clear_builder_caches():
    """Clear every builder cache of the loaded finstoch modules, found by its ``cache_clear``."""
    for name, module in list(sys.modules.items()):
        if name == "finstoch" or name.startswith("finstoch."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    """Builder caches cleared before and after the test, so no kernel built from a mutant outlives it."""
    clear_builder_caches()
    yield
    clear_builder_caches()


def test_a_swapped_step_table_entry_shows_in_targets_fused_rows_and_laws(monkeypatch, cold_caches):
    AB = make_finset("ab")
    f = make_kernel("generic", AB, AB)
    acc, fused = acc_kernel(AB, 2).rows.targets, mset_map(f, 2).rows
    clear_builder_caches()
    real = multisets.add_table

    def swapped(n, k, L):
        # one-letter additions from M[1] over two colours: row 0 (one a) sends a and b to each other's sum
        table = real(n, k, L)
        if (n, k, L) != (2, 1, 1):
            return table
        first = list(table[0])
        first[0], first[1] = first[1], first[0]
        return (tuple(first),) + table[1:]

    monkeypatch.setattr(multisets, "add_table", swapped)
    assert acc_kernel(AB, 2).rows.targets != acc
    assert mset_map(f, 2).rows != fused
    grid = GridSpec(x_sizes=(1, 2), y_sizes=(1, 2), k_values=(0, 1, 2), number_sizes=(1, 2))
    laws = ["Lemma3.2.acc_natural", "Thm7.3.acc_hom", "Thm7.3.ksum_square"]
    report = run_laws(grid, selection=laws)
    assert {r.law_id for r in report.results if r.failure_count} == set(laws)
