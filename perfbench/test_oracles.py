"""Hand-computed cases for the benchmark's oracles.

Run with ``python3 -m pytest -q perfbench/test_oracles.py``.
"""

from fractions import Fraction as F

import oracles as o
from oracles import Bag, Tag, bag


def test_hypergeometric_readme_example():
    # finstoch hypergeometric --urn a:2,b:1 --draws 2
    got = o.hypergeometric([("a", 2), ("b", 1)], 2)
    assert got == {bag("ab", (2, 0)): F(1, 3), bag("ab", (1, 1)): F(2, 3)}


def test_multinomial_readme_example():
    # finstoch multinomial --dist h:1/2,t:1/2 --k 2
    got = o.multinomial([("h", F(1, 2)), ("t", F(1, 2))], 2)
    assert got == {bag("ht", (2, 0)): F(1, 4), bag("ht", (1, 1)): F(1, 2), bag("ht", (0, 2)): F(1, 4)}


def test_multinomial_skips_zero_weights():
    got = o.multinomial([("a", F(1)), ("b", F(0))], 3)
    assert got == {bag("ab", (3, 0)): F(1)}


def test_draw_delete():
    got = o.draw_delete([("a", 2), ("b", 1)])
    assert got == {bag("ab", (1, 1)): F(2, 3), bag("ab", (2, 0)): F(1, 3)}


def test_flrn():
    assert o.flrn([("a", 2), ("b", 3)]) == {"a": F(2, 5), "b": F(3, 5)}


def test_arrangements_are_uniform_over_distinct_words():
    got = o.arrangements([("a", 2), ("b", 1)])
    assert got == {("a", "a", "b"): F(1, 3), ("a", "b", "a"): F(1, 3), ("b", "a", "a"): F(1, 3)}


def test_mzip_readme_example():
    # finstoch mzip --left a:1,b:1 --right c:1,d:1
    got = o.mzip([("a", 1), ("b", 1)], [("c", 1), ("d", 1)])
    diagonal = Bag(frozenset({(("a", "c"), 1), (("b", "d"), 1)}))
    anti = Bag(frozenset({(("a", "d"), 1), (("b", "c"), 1)}))
    assert got == {diagonal: F(1, 2), anti: F(1, 2)}


def test_mzip_with_repeats():
    # left 2|a|, right 1|c|+1|d|: the only coupling pairs a with c and a with d
    got = o.mzip([("a", 2)], [("c", 1), ("d", 1)])
    assert got == {Bag(frozenset({(("a", "c"), 1), (("a", "d"), 1)})): F(1)}


def test_mset_map_row_convolves_colours():
    rows = {"x": [("u", F(1, 2)), ("v", F(1, 2))], "y": [("u", F(1)), ("v", F(0))]}
    got = o.mset_map_row(rows, [("x", 1), ("y", 1)])
    assert got == {bag("uv", (2, 0)): F(1, 2), bag("uv", (1, 1)): F(1, 2)}


def test_msplit_readme_example():
    # finstoch msplit --urn x:2,y:1 --left x  prints  #2:(2|x|,1|y|): 1
    got = o.msplit([("x", 2)], [("y", 1)])
    assert got == {Tag(2, (bag("x", (2,)), bag("y", (1,)))): F(1)}
    (label,) = got
    assert o.render(label, {"x": 0, "y": 1}) == "#2:(2|x|,1|y|)"


def test_flatten():
    got = o.flatten("ab", [((1, 0), 2), ((0, 1), 1)])
    assert got == {bag("ab", (2, 1)): F(1)}


def test_render():
    order = {"a": 0, "b": 1}
    assert o.render(bag("ab", (2, 1)), order) == "2|a|+1|b|"
    assert o.render(bag("ab", (0, 0)), order) == "0"
    assert o.render(("a", "b"), order) == "(a,b)"


def test_count_vectors():
    assert sorted(o.count_vectors(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(o.count_vectors(0, 0)) == [()]
    assert list(o.count_vectors(0, 1)) == []


def _stochastic(kernel):
    return all(sum(row.values()) == 1 for row in kernel.values())


def test_kernels_have_one_stochastic_row_per_urn():
    rows = {"x": [("u", F(1, 3)), ("v", F(2, 3))], "y": [("u", F(1, 4)), ("v", F(3, 4))]}
    cases = [
        (o.multinomial_kernel(rows, 3), 2),
        (o.mset_map_kernel(rows, 3), 4),  # multichoose(2, 3)
        (o.hypergeometric_kernel("abc", 4, 2), 15),  # multichoose(3, 4)
        (o.mzip_kernel("ab", "cd", 2), 9),
        (o.mu_kernel("ab", 2, 2), 6),  # multichoose(multichoose(2, 2), 2)
        (o.arr_kernel("ab", 3), 4),
        (o.msplit_kernel("a", "bc", 2), 6),
    ]
    for kernel, rows_expected in cases:
        assert len(kernel) == rows_expected
        assert _stochastic(kernel)


def test_mu_kernel_example():
    # outer 2 * (1|a|+1|b|) over inner size-2 urns flattens to 2|a|+2|b|
    k = o.mu_kernel("ab", 2, 2)
    outer = bag([bag("ab", (2, 0)), bag("ab", (1, 1)), bag("ab", (0, 2))], (0, 2, 0))
    assert k[outer] == {bag("ab", (2, 2)): F(1)}


def test_hypergeometric_chain_single_draw_is_draw_delete():
    urn = [("a", 3), ("b", 1), ("c", 2)]
    assert o.hypergeometric(urn, 5) == o.draw_delete(urn)
