"""List split, accumulate-both-halves, multiset split, and multichoose."""

import math

from hypothesis import given
from hypothesis import strategies as st

from finstoch import (
    Multiset,
    Tagged,
    acc_kernel,
    accs_kernel,
    coproduct_finset,
    identity_kernel,
    is_deterministic,
    kernel_compose,
    kernel_equal,
    lsplit_inv_kernel,
    lsplit_kernel,
    make_finset,
    msplit_inv_kernel,
    msplit_kernel,
    msplit_space,
    multichoose,
    multiset_space,
    power_finset,
)
from finstoch.split import lsplit_space, patterns

X2 = make_finset(["x", "p"])
Y2 = make_finset(["y", "q"])
X1 = make_finset(["x"])
Y1 = make_finset(["y"])


class TestMultichoose:
    def test_values(self):
        assert multichoose(3, 2) == 6
        assert multichoose(4, 0) == 1
        assert multichoose(1, 7) == 1
        assert multichoose(0, 0) == 1
        assert multichoose(0, 3) == 0

    def test_matches_space_sizes(self):
        for n in range(6):
            base = make_finset([f"e{i}" for i in range(n)])
            for K in range(7):
                assert multichoose(n, K) == len(multiset_space(base, K))

    def test_pascal_style_recurrence(self):
        for n in range(1, 6):
            for K in range(6):
                assert multichoose(n + 1, K) == sum(multichoose(n, i) for i in range(K + 1))


class TestPatterns:
    def test_ascending_bitstrings(self):
        assert patterns(2, 1) == ((0, 1), (1, 0))
        assert patterns(3, 2) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_counts(self):
        for K in range(5):
            for i in range(K + 1):
                assert len(patterns(K, i)) == math.comb(K, i)


class TestLsplit:
    def test_k0_iso_between_singletons(self):
        k = lsplit_kernel(X2, Y2, 0)
        assert len(k.domain) == 1 and len(k.codomain) == 1

    def test_singleton_alphabet_blocks(self):
        # four sequences over {x} + {y} at K = 2: xx, xy, yx, yy
        k = lsplit_kernel(X1, Y1, 2)
        x, y = Tagged(0, "x"), Tagged(1, "y")
        assert k.row((x, x)).support[0].tag == 2
        assert k.row((y, y)).support[0].tag == 0
        xy = k.row((x, y)).support[0]
        yx = k.row((y, x)).support[0]
        assert xy.tag == yx.tag == 1
        assert xy.value.tag != yx.value.tag  # distinct pattern copies

    def test_block_sizes_realise_binomial_theorem(self):
        for K in range(4):
            space = lsplit_space(X2, Y2, K)
            assert len(space) == (len(X2) + len(Y2)) ** K

    def test_round_trips(self):
        K = 2
        dom = power_finset(coproduct_finset((X2, Y2)), K)
        assert len(dom) == 16
        fwd, back = lsplit_kernel(X2, Y2, K), lsplit_inv_kernel(X2, Y2, K)
        assert kernel_equal(kernel_compose(back, fwd), identity_kernel(dom))
        assert kernel_equal(kernel_compose(fwd, back), identity_kernel(lsplit_space(X2, Y2, K)))

    def test_is_bijection(self):
        k = lsplit_kernel(X2, Y2, 2)
        assert is_deterministic(k)
        images = {row.support[0] for row in k.rows}
        assert len(images) == len(k.domain) == len(k.codomain)


class TestAccs:
    def test_k0(self):
        k = accs_kernel(X2, Y2, 0)
        assert len(k.domain) == 1 and len(k.codomain) == 1

    def test_collapses_pattern_copies(self):
        # sequences sharing part size and sub-multisets hit the same image
        k = kernel_compose(accs_kernel(X1, Y1, 2), lsplit_kernel(X1, Y1, 2))
        x, y = Tagged(0, "x"), Tagged(1, "y")
        assert k.row((x, y)) == k.row((y, x))

    def test_invariant_under_sequence_permutations(self):
        from finstoch import permutation_kernel
        from finstoch.core import all_permutations

        XY = coproduct_finset((X2, Y2))
        base = kernel_compose(accs_kernel(X2, Y2, 2), lsplit_kernel(X2, Y2, 2))
        for sigma in all_permutations(2):
            lhs = kernel_compose(base, permutation_kernel(XY, sigma))
            assert kernel_equal(lhs, base)


class TestMsplit:
    def test_splits_counts_by_tag(self):
        XY = coproduct_finset((X1, Y1))
        m = Multiset(XY, (2, 1))  # 2|x| + 1|y|
        out = msplit_kernel(X1, Y1, 3).row(m).support[0]
        assert out.tag == 2
        left, right = out.value
        assert left == Multiset(X1, (2,))
        assert right == Multiset(Y1, (1,))

    def test_pure_right_multiset_lands_in_block_zero(self):
        XY = coproduct_finset((X1, Y1))
        m = Multiset(XY, (0, 3))
        assert msplit_kernel(X1, Y1, 3).row(m).support[0].tag == 0

    def test_round_trips_up_to_k3(self):
        for K in range(4):
            fwd = msplit_kernel(X2, Y2, K)
            back = msplit_inv_kernel(X2, Y2, K)
            M = multiset_space(coproduct_finset((X2, Y2)), K)
            assert kernel_equal(kernel_compose(back, fwd), identity_kernel(M))
            assert kernel_equal(kernel_compose(fwd, back), identity_kernel(msplit_space(X2, Y2, K)))

    def test_defining_triangle(self):
        for K in range(4):
            lhs = kernel_compose(
                msplit_kernel(X2, Y2, K), acc_kernel(coproduct_finset((X2, Y2)), K)
            )
            rhs = kernel_compose(accs_kernel(X2, Y2, K), lsplit_kernel(X2, Y2, K))
            assert kernel_equal(lhs, rhs)

    def test_cardinality_shadow(self):
        for K in range(5):
            total = len(multiset_space(coproduct_finset((X2, Y2)), K))
            assert total == sum(
                multichoose(len(X2), i) * multichoose(len(Y2), K - i) for i in range(K + 1)
            )
        assert is_deterministic(msplit_kernel(X2, Y2, 2))


def _split_by_walking(X, Y, m):
    # the split read label by label off the coproduct tags
    xcounts = [0] * len(X)
    ycounts = [0] * len(Y)
    for lab, c in m.items():
        if lab.tag == 0:
            xcounts[X.index[lab.value]] += c
        else:
            ycounts[Y.index[lab.value]] += c
    return Tagged(sum(xcounts), (Multiset(X, tuple(xcounts)), Multiset(Y, tuple(ycounts))))


def _merge_by_walking(X, Y, z):
    XY = coproduct_finset((X, Y))
    mx, my = z.value
    counts = {Tagged(0, x): c for x, c in zip(X, mx.counts)}
    counts.update({Tagged(1, y): c for y, c in zip(Y, my.counts)})
    return Multiset(XY, tuple(counts[lab] for lab in XY))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6))
def test_msplit_agrees_with_label_walk(nx, ny, K):
    X = make_finset([f"x{i}" for i in range(nx)])
    Y = make_finset([f"y{i}" for i in range(ny)])
    fwd, back = msplit_kernel(X, Y, K), msplit_inv_kernel(X, Y, K)
    assert [row.support for row in fwd.rows] == [(_split_by_walking(X, Y, m),) for m in fwd.domain]
    assert [row.support for row in back.rows] == [(_merge_by_walking(X, Y, z),) for z in back.domain]
