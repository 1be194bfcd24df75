"""The equational law catalogue and its exhaustive grid runner.

Every law is a pair of kernel expressions built from the same instance
data (carriers, sizes, kernels, permutations, convex series); the
runner evaluates both sides on every applicable grid point and demands
exact equality.  Each law is a builder registered with ``@law``, in the
order of the project catalogue in docs/LAWS.md; an id like
``Thm8.3.flrn`` names one clause of one catalogued result.

Laws deliberately call the operation modules through their module
namespace (``multisets.dd_kernel`` and so on), so that mutation tests
can swap a single operation for a corrupted one and watch the suite
catch it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from typing import Callable, Iterator, Sequence

from . import algebra, draws, multisets, split
from .core import (
    DEFAULT_CARRIER_LIMIT,
    CarrierTooLarge,
    Dist,
    FinSet,
    Frozen,
    Kernel,
    Permutation,
    all_permutations,
    cache,
    carrier_limit,
    convex_sum,
    copy_kernel,
    coprojection_kernel,
    coproduct_finset,
    cotuple,
    discard_kernel,
    fractional_series,
    frequency_kernel,
    identity_kernel,
    index_map_kernel,
    is_deterministic,
    kernel_compose,
    kernel_compose_all,
    kernel_power,
    kernel_tensor,
    make_finset,
    number_finset,
    permutation_kernel,
    power_finset,
    projection_kernel,
    reindex_kernel,
    series_bullet,
    state_kernel,
    swap_kernel,
    tensor_finset,
    uniform_state,
    unit_finset,
)

# ---------------------------------------------------------------------------
# Value classes

class _Record(Frozen):
    """A :class:`Frozen` value built from its annotated fields, by position or keyword.

    A field assigned in the class body takes that value by default.  With
    ``as_dict`` and ``replace`` this is all the runner's value classes used
    of a frozen dataclass, without its import.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__["__annotations__"])
        cls._field_set = frozenset(cls._fields)
        cls._required = frozenset(field for field in cls._fields if not hasattr(cls, field))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)} positional arguments")
        given = dict(zip(fields, args))
        given.update(kwargs)  # a keyword repeating a positional field leaves given short
        if len(given) < len(args) + len(kwargs) or not self._required <= given.keys() <= self._field_set:
            bad = (given.keys() - self._field_set) | (self._required - given.keys())  # unknown or missing
            bad |= kwargs.keys() & fields[: len(args)]  # repeated
            raise TypeError(f"{type(self).__name__} got unknown, repeated or missing fields {', '.join(sorted(bad))}")
        vars(self).update(given)  # a defaulted field not given is read from the class

    def as_dict(self) -> dict:
        """The fields by name, in declared order."""
        return {field: getattr(self, field) for field in self._fields}

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{**self.as_dict(), **changes})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"


# ---------------------------------------------------------------------------
# Grid

class GridSpec(_Record):
    """Bounds for the instance grid the laws are quantified over."""

    x_sizes: tuple[int, ...] = (1, 2, 3)
    y_sizes: tuple[int, ...] = (1, 2)
    k_values: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_values: tuple[int, ...] = (1, 2)
    number_sizes: tuple[int, ...] = (1, 2, 3, 4)
    kl_cap: int = 6
    k_plus_l_cap: int = 5
    kln_cap: int = 8
    carrier_limit: int = DEFAULT_CARRIER_LIMIT

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        least = {"x_sizes": 1, "y_sizes": 1, "number_sizes": 1, "k_values": 0, "n_values": 0}
        most = {"x_sizes": len(_X_ATOMS), "y_sizes": len(_Y_ATOMS)}  # one carrier per size, from the atom pools
        for name, low in least.items():
            sizes = getattr(self, name)
            if any(size < low for size in sizes):
                raise ValueError(f"{name} entries must be at least {low}, got {sizes!r}")
            if any(size > most.get(name, size) for size in sizes):
                raise ValueError(f"{name} entries must be at most {most[name]}, got {sizes!r}")


_X_ATOMS = ("a", "b", "c", "d")
_Y_ATOMS = ("u", "v", "w")

# generic, const and collapse type between any two nonempty grid
# carriers; an iso only between carriers of one size.
KERNEL_KINDS = ("generic", "const", "collapse", "iso")
_TOTAL_KINDS = KERNEL_KINDS[:3]

_SERIES = (
    uniform_state(2),
    uniform_state(3),
    fractional_series((1, 2)),
    fractional_series((1, 3, 2)),
)

_NUMS = ((1,), (1, 2), (2, 2), (1, 3, 2))


def perms_for(k: int) -> tuple[Permutation, ...]:
    """All permutations up to size 3; from size 4, the transpositions and one k-cycle."""
    if k <= 3:
        return all_permutations(k)
    swaps = []
    for i in range(k):
        for j in range(i + 1, k):
            images = list(range(k))
            images[i], images[j] = images[j], images[i]
            swaps.append(Permutation(tuple(images)))
    return tuple(swaps) + (Permutation(tuple(range(1, k)) + (0,)),)


@cache
def make_kernel(kind: str, dom: FinSet, cod: FinSet) -> Kernel:
    """One of the four grid kernel generators on nonempty carriers; an iso needs carriers of one size."""
    if kind == "iso":
        return reindex_kernel(dom, cod)
    if kind == "const":
        # one fully supported row with pairwise distinct weights 1 : 2 : ... : |cod|
        return frequency_kernel(dom, cod, lambda i: enumerate(range(1, len(cod) + 1)))
    if kind == "collapse":
        return index_map_kernel(dom, cod, lambda j: min(j, len(cod) - 1))
    if kind == "generic":
        # geometric rows with a distinct prime ratio per row: every entry
        # of the matrix is a different fraction, so coefficient mix-ups
        # that symmetric inputs would mask show up as inequalities
        primes = (2, 3, 5, 7, 11, 13)
        if len(dom) > len(primes):
            raise ValueError("generic kernels are only generated for small domains")
        return frequency_kernel(dom, cod, lambda i: enumerate(primes[i] ** j for j in range(len(cod))))
    raise ValueError(f"unknown kernel kind {kind!r}")


class Instance(_Record):
    """One grid point: the universally quantified data a law is built from."""

    grid: GridSpec
    X: FinSet | None = None
    Y: FinSet | None = None
    K: int | None = None
    L: int | None = None
    N: int | None = None
    n: int | None = None
    m: int | None = None
    nums: tuple[int, ...] | None = None
    fkind: str | None = None
    gkind: str | None = None
    sigma: Permutation | None = None
    tau: Permutation | None = None
    rho: Permutation | None = None
    r: Dist | None = None
    s: Dist | None = None

    def __init__(self, grid: GridSpec, **dims) -> None:
        # one per grid point, so no generic binding: a dimension not given is None, read from the class
        if not dims.keys() <= self._field_set:
            raise TypeError(f"Instance got an unknown field among {', '.join(dims)}")
        vars(self).update(dims, grid=grid)

    def f(self) -> Kernel:
        return make_kernel(self.fkind, self.X, self.Y)

    def g(self) -> Kernel:
        """Second kernel generator, typed Y -> X."""
        return make_kernel(self.gkind, self.Y, self.X)

    def kernel_list(self, count: int, dom: FinSet, cod: FinSet) -> list[Kernel]:
        """A deterministic mix of generator kinds, for convex-sum laws."""
        return [make_kernel(_TOTAL_KINDS[t % len(_TOTAL_KINDS)], dom, cod) for t in range(count)]

    def describe(self) -> str:
        bits = []
        for name in self._fields[1:]:  # every field but the grid
            v = getattr(self, name)
            if isinstance(v, FinSet):
                v = "{" + ",".join(str(e) for e in v) + "}"
            elif isinstance(v, Permutation):
                v = v.images
            elif isinstance(v, Dist):
                v = "(" + ",".join(str(w) for w in v.weights) + ")"
            if v is not None:
                bits.append(f"{name}={v}")
        return " ".join(bits)


def _dim_values(name: str, grid: GridSpec, partial: dict) -> Sequence:
    if name == "X":
        return [make_finset(_X_ATOMS[:k]) for k in grid.x_sizes]
    if name == "Y":
        return [make_finset(_Y_ATOMS[:k]) for k in grid.y_sizes]
    if name == "K":
        return grid.k_values
    if name == "L":
        return grid.k_values
    if name == "N":
        return grid.n_values
    if name == "n":
        return grid.number_sizes
    if name == "m":
        return grid.number_sizes[:3]
    if name == "nums":
        return _NUMS
    if name in ("fkind", "gkind"):
        return KERNEL_KINDS if len(partial["X"]) == len(partial["Y"]) else _TOTAL_KINDS
    if name == "sigma" or name == "tau":
        return perms_for(partial["K"])
    if name == "rho":
        return perms_for(partial["n"])
    if name == "r" or name == "s":
        return _SERIES
    raise ValueError(f"unknown grid dimension {name!r}")


def iter_instances(grid: GridSpec, dims: tuple[str, ...]) -> Iterator[Instance]:
    """Enumerate the sub-grid spanned by the named dimensions, in a fixed order."""

    def go(remaining: tuple[str, ...], partial: dict) -> Iterator[dict]:
        if not remaining:
            yield partial
            return
        name = remaining[0]
        for value in _dim_values(name, grid, partial):
            yield from go(remaining[1:], {**partial, name: value})

    for assignment in go(dims, {}):
        yield Instance(grid=grid, **assignment)


# ---------------------------------------------------------------------------
# Laws

Check = tuple[object, object]

# A builder evaluates both sides of a law on one instance: one Check or a
# list of Checks.  Builders are total on the points the runner passes
# them; only the runner turns a point down.
Builder = Callable[[Instance], object]


class Law(_Record):
    """One executable equation: id, statement, grid dimensions, builder."""

    id: str
    ref: str
    dims: tuple[str, ...]
    build: Builder
    applies: Callable[[Instance], bool] | None = None


# Every catalogued law by id, in catalogue order (the order of the @law
# builders below, which docs/LAWS.md follows).
_LAWS: dict[str, Law] = {}


def law(
    law_id: str,
    ref: str,
    dims: tuple[str, ...],
    applies: Callable[[Instance], bool] | None = None,
) -> Callable[[Builder], Builder]:
    """Register the decorated builder as the law ``law_id``; ids are unique."""
    if law_id in _LAWS:
        raise ValueError(f"duplicate law id {law_id!r}")

    def register(build: Builder) -> Builder:
        _LAWS[law_id] = Law(law_id, ref, dims, build, applies)
        return build

    return register


def law_registry() -> tuple[Law, ...]:
    """All catalogued laws, in a fixed order; ids are unique."""
    return tuple(_LAWS.values())


def law_by_id(law_id: str) -> Law:
    """The law with this id; KeyError if there is none."""
    try:
        return _LAWS[law_id]
    except KeyError:
        raise KeyError(f"unknown law id {law_id!r}") from None


# Shared small constructions --------------------------------------------------


def _assoc_reindex(A: FinSet, B: FinSet, C: FinSet) -> Kernel:
    """((A (x) B) (x) C) -> (A (x) (B (x) C)); order-preserving relabelling."""
    return reindex_kernel(tensor_finset(tensor_finset(A, B), C), tensor_finset(A, tensor_finset(B, C)))


def _proj1(A: FinSet, B: FinSet) -> Kernel:
    return index_map_kernel(tensor_finset(A, B), A, lambda p: p // len(B))


def _proj2(A: FinSet, B: FinSet) -> Kernel:
    return index_map_kernel(tensor_finset(A, B), B, lambda p: p % len(B))


def _accs_via_codiagonal(X: FinSet, Y: FinSet, K: int) -> Kernel:
    # Alternative construction of accs: per part size, collapse the
    # pattern copies with a codiagonal, then accumulate both halves once.
    parts = tuple(
        tensor_finset(multisets.multiset_space(X, i), multisets.multiset_space(Y, K - i)) for i in range(K + 1)
    )
    branches = []
    for i in range(K + 1):
        block = tensor_finset(power_finset(X, i), power_finset(Y, K - i))
        codiag = cotuple([identity_kernel(block)] * len(split.patterns(K, i)))
        acc_pair = kernel_tensor(multisets.acc_kernel(X, i), multisets.acc_kernel(Y, K - i))
        branches.append(kernel_compose_all(coprojection_kernel(parts, i), acc_pair, codiag))
    return cotuple(branches)


def _msplit_inv_composite(X: FinSet, Y: FinSet, K: int) -> Kernel:
    XY = coproduct_finset((X, Y))
    k1 = coprojection_kernel((X, Y), 0)
    k2 = coprojection_kernel((X, Y), 1)
    branches = []
    for i in range(K + 1):
        inject = kernel_tensor(multisets.mset_map(k1, i), multisets.mset_map(k2, K - i))
        branches.append(kernel_compose(algebra.msum_kernel(XY, i, K - i), inject))
    return cotuple(branches)


def _fractional_composite(nums: tuple[int, ...]) -> Kernel:
    """The uniform state on the total, each outcome collapsed to the block of ``nums`` it falls in."""
    bounds = tuple(itertools.accumulate(nums))
    total = bounds[-1]
    collapse = index_map_kernel(number_finset(total), number_finset(len(nums)), lambda i: bisect.bisect_right(bounds, i))
    return kernel_compose(collapse, state_kernel(uniform_state(total)))


def _distribute_iso(X: FinSet, n: int) -> Kernel:
    """X (x) n -> X + ... + X, the canonical distributivity bijection: (x, k) goes to x in block k."""
    dom = tensor_finset(X, number_finset(n))
    cod = coproduct_finset((X,) * n)
    return index_map_kernel(dom, cod, lambda p: p % n * len(X) + p // n)


def _convex_sum_composite(r: Dist, fs: Sequence[Kernel]) -> Kernel:
    """The textbook composite: copy in the series, distribute, case split."""
    X = fs[0].domain
    n = len(r.carrier)
    into_pair = reindex_kernel(X, tensor_finset(X, unit_finset()))
    spread = kernel_tensor(identity_kernel(X), state_kernel(r))
    return kernel_compose_all(cotuple(list(fs)), _distribute_iso(X, n), spread, into_pair)


# Catalogue ------------------------------------------------------------------


@law("Comonoid.proj_copy", "proj_1 . copy = id", ("X",))
def proj_copy(i: Instance):
    return (kernel_compose(projection_kernel(i.X, 2, 1), copy_kernel(i.X, 2)), identity_kernel(i.X))


@law("Comonoid.copy_swap", "swap . copy = copy", ("X",))
def copy_swap(i: Instance):
    return (kernel_compose(swap_kernel(i.X, i.X), copy_kernel(i.X, 2)), copy_kernel(i.X, 2))


@law("Comonoid.copy_assoc", "(copy (x) id) . copy = (id (x) copy) . copy", ("X",))
def copy_assoc(i: Instance):
    d = copy_kernel(i.X, 2)
    lhs = kernel_compose(kernel_tensor(d, identity_kernel(i.X)), d)
    rhs = kernel_compose_all(
        reindex_kernel(tensor_finset(i.X, tensor_finset(i.X, i.X)), lhs.codomain),
        kernel_tensor(identity_kernel(i.X), d),
        d,
    )
    return (lhs, rhs)


@law("Def4.1.perm_fixed", "sigma . unif_n = unif_n", ("n", "rho"))
def perm_fixed(i: Instance):
    return (
        kernel_compose(
            index_map_kernel(number_finset(i.n), number_finset(i.n), lambda j: i.rho.images[j]),
            state_kernel(uniform_state(i.n)),
        ),
        state_kernel(uniform_state(i.n)),
    )


@law("Def4.1.tensor_mult", "unif_n (x) unif_m = unif_nm", ("n", "m"))
def unif_tensor(i: Instance):
    sn, sm = state_kernel(uniform_state(i.n)), state_kernel(uniform_state(i.m))
    pair = kernel_tensor(sn, sm)
    lhs = kernel_compose_all(
        reindex_kernel(pair.codomain, number_finset(i.n * i.m)),
        pair,
        reindex_kernel(unit_finset(), pair.domain),
    )
    return (lhs, state_kernel(uniform_state(i.n * i.m)))


@law("Sec4.bullet_comm", "r * s = s * r up to transposition", ("r", "s"))
def bullet_comm(i: Instance):
    rs = series_bullet(i.r, i.s)
    sr = series_bullet(i.s, i.r)
    n, m = len(i.r.carrier), len(i.s.carrier)

    def transpose(p: int) -> int:
        j, ii = divmod(p, n)
        return ii * m + j

    lhs = state_kernel(rs)
    rhs = kernel_compose(
        index_map_kernel(number_finset(m * n), number_finset(n * m), transpose),
        state_kernel(sr),
    )
    return (lhs, rhs)


@law("Lemma4.2.comp_right", "(sum_i r.f_i) . g = sum_i r.(f_i . g)", ("X", "Y", "r", "gkind"))
def comp_right(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    g = i.g()
    lhs = kernel_compose(convex_sum(i.r, fs), g)
    rhs = convex_sum(i.r, [kernel_compose(fk, g) for fk in fs])
    return (lhs, rhs)


@law("Lemma4.2.comp_left", "h . (sum_i r.f_i) = sum_i r.(h . f_i)", ("X", "Y", "r", "gkind"))
def comp_left(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    h = i.g()
    lhs = kernel_compose(h, convex_sum(i.r, fs))
    rhs = convex_sum(i.r, [kernel_compose(h, fk) for fk in fs])
    return (lhs, rhs)


@law("Lemma4.2.tensor_right", "sum_i r.(f_i (x) g) = (sum_i r.f_i) (x) g", ("X", "Y", "r", "gkind"))
def par_right(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    g = i.g()
    lhs = convex_sum(i.r, [kernel_tensor(fk, g) for fk in fs])
    rhs = kernel_tensor(convex_sum(i.r, fs), g)
    return (lhs, rhs)


@law("Lemma4.2.tensor_left", "sum_i r.(g (x) f_i) = g (x) (sum_i r.f_i)", ("X", "Y", "r", "gkind"))
def par_left(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    g = i.g()
    lhs = convex_sum(i.r, [kernel_tensor(g, fk) for fk in fs])
    rhs = kernel_tensor(g, convex_sum(i.r, fs))
    return (lhs, rhs)


@law("Lemma4.2.constant", "sum_i r.f = f", ("X", "Y", "r", "fkind"))
def constant(i: Instance):
    f = i.f()
    return (convex_sum(i.r, [f] * len(i.r.carrier)), f)


@law("Lemma4.2.double", "(sum_j s.g_j) . (sum_i r.f_i) = sum_ji (s*r).(g_j . f_i)", ("X", "Y", "r", "s"))
def double_sum(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    gs = i.kernel_list(len(i.s.carrier), i.Y, i.X)
    lhs = kernel_compose(convex_sum(i.s, gs), convex_sum(i.r, fs))
    rhs = convex_sum(series_bullet(i.s, i.r), [kernel_compose(gj, fi) for gj in gs for fi in fs])
    return (lhs, rhs)


@law("Chk.fractional_series", "fractional series = codiagonal cotuple after unif", ("nums",))
def fractional_check(i: Instance):
    return (
        state_kernel(fractional_series(i.nums)),
        _fractional_composite(i.nums),
    )


@law("Chk.convex_composite", "convex sum = distribute-and-case composite", ("X", "Y", "r"))
def convex_composite(i: Instance):
    fs = i.kernel_list(len(i.r.carrier), i.X, i.Y)
    return (convex_sum(i.r, fs), _convex_sum_composite(i.r, fs))


@law("Chk.det_char", "f commutes with copy iff rows are point masses", ("X", "Y", "fkind"))
def det_char(i: Instance):
    f = i.f()
    return (is_deterministic(f), f.is_point_masses())


@law("Chk.det_coproj", "coprojections are deterministic", ("X", "Y"))
def det_coproj(i: Instance):
    return [
        (is_deterministic(coprojection_kernel((i.X, i.Y), 0)), True),
        (is_deterministic(coprojection_kernel((i.X, i.Y), 1)), True),
    ]


@law("Chk.det_cotuple", "cotuples of deterministic kernels are deterministic", ("X", "Y"))
def det_cotuple(i: Instance):
    a = make_kernel("collapse", i.X, i.Y)
    b = make_kernel("collapse", i.Y, i.Y)
    return (is_deterministic(cotuple([a, b])), True)


@law("Lemma3.2.acc_perm", "acc . sigma = acc", ("X", "K", "sigma"))
def acc_perm(i: Instance):
    return (
        kernel_compose(multisets.acc_kernel(i.X, i.K), permutation_kernel(i.X, i.sigma)),
        multisets.acc_kernel(i.X, i.K),
    )


@law("Lemma3.2.acc_natural", "M[K](f) . acc = acc . f^K", ("X", "Y", "K", "fkind"))
def acc_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.mset_map(f, i.K), multisets.acc_kernel(i.X, i.K))
    rhs = kernel_compose(multisets.acc_kernel(i.Y, i.K), kernel_power(f, i.K))
    return (lhs, rhs)


@law("Eq1.perm_sum", "perm = sum over S_K of unif_{K!}.sigma", ("X", "K"))
def perm_sum(i: Instance):
    return (
        multisets.perm_kernel(i.X, i.K),
        convex_sum(
            uniform_state(math.factorial(i.K)),
            [permutation_kernel(i.X, s) for s in all_permutations(i.K)],
        ),
    )


@law("Eq2.eps_sum", "eps = sum over coordinates of unif_K.proj_i", ("X", "K"), applies=lambda i: i.K >= 1)
def eps_sum(i: Instance):
    return (
        multisets.epsilon_kernel(i.X, i.K),
        convex_sum(uniform_state(i.K), [projection_kernel(i.X, i.K, j) for j in range(1, i.K + 1)]),
    )


@law("Lemma5.1.perm_natural", "perm . f^K = f^K . perm", ("X", "Y", "K", "fkind"))
def perm_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.perm_kernel(i.Y, i.K), kernel_power(f, i.K))
    rhs = kernel_compose(kernel_power(f, i.K), multisets.perm_kernel(i.X, i.K))
    return (lhs, rhs)


@law("Lemma5.1.perm_copy", "perm . copy[K] = copy[K]", ("X", "K"))
def perm_copy(i: Instance):
    return (
        kernel_compose(multisets.perm_kernel(i.X, i.K), copy_kernel(i.X, i.K)),
        copy_kernel(i.X, i.K),
    )


@law("Lemma5.1.acc_perm", "acc . perm = acc", ("X", "K"))
def acc_after_perm(i: Instance):
    return (
        kernel_compose(multisets.acc_kernel(i.X, i.K), multisets.perm_kernel(i.X, i.K)),
        multisets.acc_kernel(i.X, i.K),
    )


@law("Lemma5.2.eps_natural", "eps . f^K = f . eps", ("X", "Y", "K", "fkind"), applies=lambda i: i.K >= 1)
def eps_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.epsilon_kernel(i.Y, i.K), kernel_power(f, i.K))
    rhs = kernel_compose(f, multisets.epsilon_kernel(i.X, i.K))
    return (lhs, rhs)


@law("Lemma5.2.eps_one", "eps[1] = id", ("X",))
def eps_one(i: Instance):
    return (multisets.epsilon_kernel(i.X, 1), identity_kernel(i.X))


@law("Lemma5.2.eps_copy", "eps[K] . copy[K] = id", ("X", "K"), applies=lambda i: i.K >= 1)
def eps_copy(i: Instance):
    return (
        kernel_compose(multisets.epsilon_kernel(i.X, i.K), copy_kernel(i.X, i.K)),
        identity_kernel(i.X),
    )


@law("Def5.3.eps_invariant", "eps . tau = eps", ("X", "K", "tau"), applies=lambda i: i.K >= 1)
def eps_invariant(i: Instance):
    return (
        kernel_compose(multisets.epsilon_kernel(i.X, i.K), permutation_kernel(i.X, i.tau)),
        multisets.epsilon_kernel(i.X, i.K),
    )


@law("Def5.3.perm_invariant", "perm . tau = perm", ("X", "K", "tau"))
def perm_invariant(i: Instance):
    return (
        kernel_compose(multisets.perm_kernel(i.X, i.K), permutation_kernel(i.X, i.tau)),
        multisets.perm_kernel(i.X, i.K),
    )


@law("Def5.3.arr_mediates", "arr . acc = perm", ("X", "K"))
def arr_mediates(i: Instance):
    return (
        kernel_compose(multisets.arr_kernel(i.X, i.K), multisets.acc_kernel(i.X, i.K)),
        multisets.perm_kernel(i.X, i.K),
    )


@law("Def5.3.flrn_mediates", "Flrn . acc = eps", ("X", "K"), applies=lambda i: i.K >= 1)
def flrn_mediates(i: Instance):
    return (
        kernel_compose(multisets.flrn_kernel(i.X, i.K), multisets.acc_kernel(i.X, i.K)),
        multisets.epsilon_kernel(i.X, i.K),
    )


@law("Lemma5.4.flrn_natural", "Flrn . M[K](f) = f . Flrn", ("X", "Y", "K", "fkind"), applies=lambda i: i.K >= 1)
def flrn_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.flrn_kernel(i.Y, i.K), multisets.mset_map(f, i.K))
    rhs = kernel_compose(f, multisets.flrn_kernel(i.X, i.K))
    return (lhs, rhs)


@law("Lemma5.4.arr_natural", "arr . M[K](f) = f^K . arr", ("X", "Y", "K", "fkind"))
def arr_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.arr_kernel(i.Y, i.K), multisets.mset_map(f, i.K))
    rhs = kernel_compose(kernel_power(f, i.K), multisets.arr_kernel(i.X, i.K))
    return (lhs, rhs)


@law("Lemma5.4.acc_arr", "acc . arr = id", ("X", "K"))
def acc_arr(i: Instance):
    return (
        kernel_compose(multisets.acc_kernel(i.X, i.K), multisets.arr_kernel(i.X, i.K)),
        identity_kernel(multisets.multiset_space(i.X, i.K)),
    )


@law("Lemma5.4.perm_arr", "sigma . arr = arr", ("X", "K", "sigma"))
def perm_arr(i: Instance):
    return (
        kernel_compose(permutation_kernel(i.X, i.sigma), multisets.arr_kernel(i.X, i.K)),
        multisets.arr_kernel(i.X, i.K),
    )


@law("Lemma5.5.zero_final", "M[0](X) is final", ("X",))
def zero_final(i: Instance):
    M0 = multisets.multiset_space(i.X, 0)
    acc0 = multisets.acc_kernel(i.X, 0)
    bang = discard_kernel(M0)
    return [
        (kernel_compose(acc0, bang), identity_kernel(M0)),
        (kernel_compose(bang, acc0), identity_kernel(unit_finset())),
    ]


@law("Lemma5.5.one_iso", "acc[1] is iso with arr[1] = Flrn as inverse", ("X",))
def one_iso(i: Instance):
    acc1 = multisets.acc_kernel(i.X, 1)
    arr1 = multisets.arr_kernel(i.X, 1)
    return [
        (kernel_compose(acc1, arr1), identity_kernel(multisets.multiset_space(i.X, 1))),
        (kernel_compose(arr1, acc1), identity_kernel(i.X)),
        (arr1, multisets.flrn_kernel(i.X, 1)),
    ]


@law("Lemma5.5.unit_final", "M[K](1) is final", ("K",))
def unit_final(i: Instance):
    one = unit_finset()
    MK = multisets.multiset_space(one, i.K)
    point = kernel_compose(
        multisets.acc_kernel(one, i.K), reindex_kernel(one, power_finset(one, i.K))
    )
    bang = discard_kernel(MK)
    return [
        (len(MK), 1),
        (kernel_compose(point, bang), identity_kernel(MK)),
        (kernel_compose(bang, point), identity_kernel(one)),
    ]


@law("Lemma5.5.empty_initial", "M[K](0) is final for K=0 and initial for K>0", ("K",))
def empty_initial(i: Instance):
    return (len(multisets.multiset_space(make_finset(()), i.K)), 1 if i.K == 0 else 0)


@law("Lemma6.1.del_perm", "del . perm[K+1] = perm[K] . del", ("X", "K"))
def del_perm(i: Instance):
    return (
        kernel_compose(multisets.del_kernel(i.X, i.K), multisets.perm_kernel(i.X, i.K + 1)),
        kernel_compose(multisets.perm_kernel(i.X, i.K), multisets.del_kernel(i.X, i.K)),
    )


@law("Lemma6.1.eps_del", "eps[K] . del = eps[K+1]", ("X", "K"), applies=lambda i: i.K >= 1)
def eps_del(i: Instance):
    return (
        kernel_compose(multisets.epsilon_kernel(i.X, i.K), multisets.del_kernel(i.X, i.K)),
        multisets.epsilon_kernel(i.X, i.K + 1),
    )


@law("Lemma6.1.del_copy", "del . copy[K+1] = copy[K]", ("X", "K"))
def del_copy(i: Instance):
    return (
        kernel_compose(multisets.del_kernel(i.X, i.K), copy_kernel(i.X, i.K + 1)),
        copy_kernel(i.X, i.K),
    )


@law("Lemma6.1.del_perm_proj", "del . perm[K+1] = proj . perm[K+1]", ("X", "K"))
def del_perm_proj(i: Instance):
    return (
        kernel_compose(multisets.del_kernel(i.X, i.K), multisets.perm_kernel(i.X, i.K + 1)),
        kernel_compose(multisets.drop_kernel(i.X, i.K, i.K + 1), multisets.perm_kernel(i.X, i.K + 1)),
    )


@law("Lemma6.1.del_arr_proj", "del . arr[K+1] = proj . arr[K+1]", ("X", "K"))
def del_arr_proj(i: Instance):
    return (
        kernel_compose(multisets.del_kernel(i.X, i.K), multisets.arr_kernel(i.X, i.K + 1)),
        kernel_compose(multisets.drop_kernel(i.X, i.K, i.K + 1), multisets.arr_kernel(i.X, i.K + 1)),
    )


@law("Sec6.del_sum", "del = sum over positions of unif_{K+1}.drop_i", ("X", "K"))
def del_sum(i: Instance):
    return (
        multisets.del_kernel(i.X, i.K),
        convex_sum(
            uniform_state(i.K + 1),
            [multisets.drop_kernel(i.X, i.K, j) for j in range(1, i.K + 2)],
        ),
    )


@law("Eq3.dd_square", "DD . acc[K+1] = acc[K] . del", ("X", "K"))
def dd_square(i: Instance):
    return (
        kernel_compose(multisets.dd_kernel(i.X, i.K), multisets.acc_kernel(i.X, i.K + 1)),
        kernel_compose(multisets.acc_kernel(i.X, i.K), multisets.del_kernel(i.X, i.K)),
    )


@law("Prop6.2.flrn_dd", "Flrn . DD = Flrn", ("X", "K"), applies=lambda i: i.K >= 1)
def flrn_dd(i: Instance):
    return (
        kernel_compose(multisets.flrn_kernel(i.X, i.K), multisets.dd_kernel(i.X, i.K)),
        multisets.flrn_kernel(i.X, i.K + 1),
    )


@law("Prop6.2.arr_dd", "arr . DD = del . arr", ("X", "K"))
def arr_dd(i: Instance):
    return (
        kernel_compose(multisets.arr_kernel(i.X, i.K), multisets.dd_kernel(i.X, i.K)),
        kernel_compose(multisets.del_kernel(i.X, i.K), multisets.arr_kernel(i.X, i.K + 1)),
    )


@law(
    "Sec7.concat_assoc", "concat . (concat (x) id) = concat . (id (x) concat)",
    ("X", "K", "L", "N"),
    applies=lambda i: i.K + i.L + i.N <= i.grid.k_plus_l_cap,
)
def concat_assoc(i: Instance):
    X, K, L, N = i.X, i.K, i.L, i.N
    PK, PL, PN = power_finset(X, K), power_finset(X, L), power_finset(X, N)
    lhs = kernel_compose(
        algebra.concat_iso(X, K + L, N),
        kernel_tensor(algebra.concat_iso(X, K, L), identity_kernel(PN)),
    )
    rhs = kernel_compose_all(
        algebra.concat_iso(X, K, L + N),
        kernel_tensor(identity_kernel(PK), algebra.concat_iso(X, L, N)),
        _assoc_reindex(PK, PL, PN),
    )
    return (lhs, rhs)


@law(
    "Def7.1.sum_natural", "msum . (M[K](f) (x) M[L](f)) = M[K+L](f) . msum",
    ("X", "Y", "K", "L", "fkind"),
    applies=lambda i: i.K + i.L <= i.grid.k_plus_l_cap,
)
def sum_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(
        algebra.msum_kernel(i.Y, i.K, i.L),
        kernel_tensor(multisets.mset_map(f, i.K), multisets.mset_map(f, i.L)),
    )
    rhs = kernel_compose(multisets.mset_map(f, i.K + i.L), algebra.msum_kernel(i.X, i.K, i.L))
    return (lhs, rhs)


@law(
    "Lemma7.2.assoc", "msum . (msum (x) id) = msum . (id (x) msum)",
    ("X", "K", "L", "N"),
    applies=lambda i: i.K + i.L + i.N <= i.grid.k_plus_l_cap,
)
def sum_assoc(i: Instance):
    X, K, L, N = i.X, i.K, i.L, i.N
    MK, ML, MN = multisets.multiset_space(X, K), multisets.multiset_space(X, L), multisets.multiset_space(X, N)
    lhs = kernel_compose(
        algebra.msum_kernel(X, K + L, N),
        kernel_tensor(algebra.msum_kernel(X, K, L), identity_kernel(MN)),
    )
    rhs = kernel_compose_all(
        algebra.msum_kernel(X, K, L + N),
        kernel_tensor(identity_kernel(MK), algebra.msum_kernel(X, L, N)),
        _assoc_reindex(MK, ML, MN),
    )
    return (lhs, rhs)


@law("Lemma7.2.comm", "msum . swap = msum", ("X", "K", "L"), applies=lambda i: i.K + i.L <= i.grid.k_plus_l_cap)
def sum_comm(i: Instance):
    return (
        kernel_compose(
            algebra.msum_kernel(i.X, i.L, i.K),
            swap_kernel(multisets.multiset_space(i.X, i.K), multisets.multiset_space(i.X, i.L)),
        ),
        algebra.msum_kernel(i.X, i.K, i.L),
    )


@law("Lemma7.2.unit", "msum . (empty (x) id) = id", ("X", "K"))
def sum_unit(i: Instance):
    MK = multisets.multiset_space(i.X, i.K)
    M0 = multisets.multiset_space(i.X, 0)
    pad = reindex_kernel(MK, tensor_finset(M0, MK))
    return (kernel_compose(algebra.msum_kernel(i.X, 0, i.K), pad), identity_kernel(MK))


@law(
    "Thm7.3.acc_hom", "msum . (acc (x) acc) = acc . concat",
    ("X", "K", "L"),
    applies=lambda i: i.K + i.L <= i.grid.k_plus_l_cap,
)
def acc_hom(i: Instance):
    return (
        kernel_compose(
            algebra.msum_kernel(i.X, i.K, i.L),
            kernel_tensor(multisets.acc_kernel(i.X, i.K), multisets.acc_kernel(i.X, i.L)),
        ),
        kernel_compose(multisets.acc_kernel(i.X, i.K + i.L), algebra.concat_iso(i.X, i.K, i.L)),
    )


@law(
    "Thm7.3.ksum_square", "ksum . acc[L]^K = acc[K*L] . stack",
    ("X", "K", "L"),
    applies=lambda i: i.K * i.L <= i.grid.kl_cap,
)
def ksum_square(i: Instance):
    return (
        kernel_compose(algebra.ksum_kernel(i.X, i.K, i.L), kernel_power(multisets.acc_kernel(i.X, i.L), i.K)),
        kernel_compose(multisets.acc_kernel(i.X, i.K * i.L), algebra.stack_iso(i.X, i.K, i.L)),
    )


@law("Thm7.3.mu_square", "mu . acc[K] = ksum", ("X", "K", "L"), applies=lambda i: i.K * i.L <= i.grid.kl_cap)
def mu_square(i: Instance):
    return (
        kernel_compose(
            algebra.mu_kernel(i.X, i.K, i.L),
            multisets.acc_kernel(multisets.multiset_space(i.X, i.L), i.K),
        ),
        algebra.ksum_kernel(i.X, i.K, i.L),
    )


@law(
    "Thm7.3.ksum_natural", "ksum . M[L](f)^K = M[K*L](f) . ksum",
    ("X", "Y", "K", "L", "fkind"),
    applies=lambda i: i.K * i.L <= i.grid.kl_cap,
)
def ksum_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(algebra.ksum_kernel(i.Y, i.K, i.L), kernel_power(multisets.mset_map(f, i.L), i.K))
    rhs = kernel_compose(multisets.mset_map(f, i.K * i.L), algebra.ksum_kernel(i.X, i.K, i.L))
    return (lhs, rhs)


@law(
    "Thm7.3.mu_natural", "mu . M[K](M[L](f)) = M[K*L](f) . mu",
    ("X", "Y", "K", "L", "fkind"),
    applies=lambda i: i.K * i.L <= i.grid.kl_cap,
)
def mu_natural(i: Instance):
    f = i.f()
    lhs = kernel_compose(algebra.mu_kernel(i.Y, i.K, i.L), multisets.mset_map(multisets.mset_map(f, i.L), i.K))
    rhs = kernel_compose(multisets.mset_map(f, i.K * i.L), algebra.mu_kernel(i.X, i.K, i.L))
    return (lhs, rhs)


@law("Thm7.3.unit_left", "mu[1,K] . acc[1] = id", ("X", "K"))
def mu_unit_left(i: Instance):
    return (
        kernel_compose(
            algebra.mu_kernel(i.X, 1, i.K),
            multisets.acc_kernel(multisets.multiset_space(i.X, i.K), 1),
        ),
        identity_kernel(multisets.multiset_space(i.X, i.K)),
    )


@law("Thm7.3.unit_right", "mu[K,1] . M[K](acc[1]) = id", ("X", "K"))
def mu_unit_right(i: Instance):
    return (
        kernel_compose(
            algebra.mu_kernel(i.X, i.K, 1),
            multisets.mset_map(multisets.acc_kernel(i.X, 1), i.K),
        ),
        identity_kernel(multisets.multiset_space(i.X, i.K)),
    )


@law(
    "Thm7.3.assoc", "mu[K*L,N] . mu[K,L] = mu[K,L*N] . M[K](mu[L,N])",
    ("X", "K", "L", "N"),
    applies=lambda i: i.K * i.L * i.N <= i.grid.kln_cap,
)
def mu_assoc(i: Instance):
    X, K, L, N = i.X, i.K, i.L, i.N
    lhs = kernel_compose(
        algebra.mu_kernel(X, K * L, N),
        algebra.mu_kernel(multisets.multiset_space(X, N), K, L),
    )
    rhs = kernel_compose(
        algebra.mu_kernel(X, K, L * N),
        multisets.mset_map(algebra.mu_kernel(X, L, N), K),
    )
    return (lhs, rhs)


@law("Prop7.5.natural", "mzip . (M[K](f) (x) M[K](g)) = M[K](f (x) g) . mzip", ("X", "Y", "K", "fkind", "gkind"))
def mzip_natural(i: Instance):
    f, g = i.f(), i.g()
    lhs = kernel_compose(
        algebra.mzip_kernel(i.Y, i.X, i.K),
        kernel_tensor(multisets.mset_map(f, i.K), multisets.mset_map(g, i.K)),
    )
    rhs = kernel_compose(multisets.mset_map(kernel_tensor(f, g), i.K), algebra.mzip_kernel(i.X, i.Y, i.K))
    return (lhs, rhs)


@law("Prop7.5.arr_zip", "arr . mzip = zip . (arr (x) arr)", ("X", "Y", "K"))
def arr_zip(i: Instance):
    return (
        kernel_compose(multisets.arr_kernel(tensor_finset(i.X, i.Y), i.K), algebra.mzip_kernel(i.X, i.Y, i.K)),
        kernel_compose(
            algebra.zip_iso(i.X, i.Y, i.K),
            kernel_tensor(multisets.arr_kernel(i.X, i.K), multisets.arr_kernel(i.Y, i.K)),
        ),
    )


@law("Prop7.5.assoc", "mzip . (mzip (x) id) = mzip . (id (x) mzip)", ("X", "Y", "K"))
def mzip_assoc(i: Instance):
    X, Y, K = i.X, i.Y, i.K
    MX, MY = multisets.multiset_space(X, K), multisets.multiset_space(Y, K)
    lhs = kernel_compose(
        algebra.mzip_kernel(tensor_finset(X, Y), X, K),
        kernel_tensor(algebra.mzip_kernel(X, Y, K), identity_kernel(MX)),
    )
    relabel = multisets.mset_map(
        reindex_kernel(tensor_finset(X, tensor_finset(Y, X)), tensor_finset(tensor_finset(X, Y), X)),
        K,
    )
    rhs = kernel_compose_all(
        relabel,
        algebra.mzip_kernel(X, tensor_finset(Y, X), K),
        kernel_tensor(identity_kernel(MX), algebra.mzip_kernel(Y, X, K)),
        _assoc_reindex(MX, MY, MX),
    )
    return (lhs, rhs)


@law("Prop7.5.unit", "M[K](unpad) . mzip = proj_1 on M[K](1)", ("X", "K"))
def mzip_unit(i: Instance):
    X, K = i.X, i.K
    one = unit_finset()
    unpad = reindex_kernel(tensor_finset(X, one), X)
    lhs = kernel_compose(multisets.mset_map(unpad, K), algebra.mzip_kernel(X, one, K))
    rhs = _proj1(multisets.multiset_space(X, K), multisets.multiset_space(one, K))
    return (lhs, rhs)


@law("Prop7.5.proj1", "M[K](proj_1) . mzip = proj_1", ("X", "Y", "K"))
def mzip_proj1(i: Instance):
    return (
        kernel_compose(multisets.mset_map(_proj1(i.X, i.Y), i.K), algebra.mzip_kernel(i.X, i.Y, i.K)),
        _proj1(multisets.multiset_space(i.X, i.K), multisets.multiset_space(i.Y, i.K)),
    )


@law("Prop7.5.proj2", "M[K](proj_2) . mzip = proj_2", ("X", "Y", "K"))
def mzip_proj2(i: Instance):
    return (
        kernel_compose(multisets.mset_map(_proj2(i.X, i.Y), i.K), algebra.mzip_kernel(i.X, i.Y, i.K)),
        _proj2(multisets.multiset_space(i.X, i.K), multisets.multiset_space(i.Y, i.K)),
    )


@law("Prop7.5.dd", "DD . mzip = mzip . (DD (x) DD)", ("X", "Y", "K"))
def mzip_dd(i: Instance):
    return (
        kernel_compose(
            multisets.dd_kernel(tensor_finset(i.X, i.Y), i.K),
            algebra.mzip_kernel(i.X, i.Y, i.K + 1),
        ),
        kernel_compose(
            algebra.mzip_kernel(i.X, i.Y, i.K),
            kernel_tensor(multisets.dd_kernel(i.X, i.K), multisets.dd_kernel(i.Y, i.K)),
        ),
    )


@law("Chk.zip_perm", "sigma . zip = zip . (sigma (x) sigma)", ("X", "Y", "K", "sigma"))
def zip_perm(i: Instance):
    XY = tensor_finset(i.X, i.Y)
    lhs = kernel_compose(permutation_kernel(XY, i.sigma), algebra.zip_iso(i.X, i.Y, i.K))
    rhs = kernel_compose(
        algebra.zip_iso(i.X, i.Y, i.K),
        kernel_tensor(permutation_kernel(i.X, i.sigma), permutation_kernel(i.Y, i.sigma)),
    )
    return (lhs, rhs)


@law("Def8.1.mn_closed", "mn composite = mn closed form", ("X", "Y", "K", "fkind"))
def mn_closed(i: Instance):
    f = i.f()
    return (draws.multinomial_kernel(f, i.K), draws.multinomial_pmf_kernel(f, i.K))


@law("Def8.1.hg_closed", "hg closed form = iterated DD", ("X", "L", "K"), applies=lambda i: i.L >= i.K)
def hg_closed(i: Instance):
    return (
        draws.hypergeometric_kernel(i.X, i.L, i.K),
        draws.hypergeometric_chain_kernel(i.X, i.L, i.K),
    )


@law("Thm8.2.arr", "arr . mn[K](f) = f^K . copy[K]", ("X", "Y", "K", "fkind"))
def mn_arr(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.arr_kernel(i.Y, i.K), draws.multinomial_kernel(f, i.K))
    rhs = kernel_compose(kernel_power(f, i.K), copy_kernel(i.X, i.K))
    return (lhs, rhs)


@law("Thm8.2.flrn", "Flrn . mn[K](f) = f", ("X", "Y", "K", "fkind"), applies=lambda i: i.K >= 1)
def mn_flrn(i: Instance):
    f = i.f()
    return (kernel_compose(multisets.flrn_kernel(i.Y, i.K), draws.multinomial_kernel(f, i.K)), f)


@law("Thm8.2.dd", "DD . mn[K+1](f) = mn[K](f)", ("X", "Y", "K", "fkind"))
def mn_dd(i: Instance):
    f = i.f()
    lhs = kernel_compose(multisets.dd_kernel(i.Y, i.K), draws.multinomial_kernel(f, i.K + 1))
    rhs = draws.multinomial_kernel(f, i.K)
    return (lhs, rhs)


@law(
    "Thm8.2.mu", "mu . mn[K](mn[L](f)) = mn[K*L](f)",
    ("X", "Y", "K", "L", "fkind"),
    applies=lambda i: i.K * i.L <= i.grid.kl_cap,
)
def mn_mu(i: Instance):
    f = i.f()
    lhs = kernel_compose(
        algebra.mu_kernel(i.Y, i.K, i.L),
        draws.multinomial_kernel(draws.multinomial_kernel(f, i.L), i.K),
    )
    rhs = draws.multinomial_kernel(f, i.K * i.L)
    return (lhs, rhs)


@law(
    "Thm8.2.sum", "msum . (mn[K](f) (x) mn[L](f)) . copy = mn[K+L](f)",
    ("X", "Y", "K", "L", "fkind"),
    applies=lambda i: i.K + i.L <= i.grid.k_plus_l_cap,
)
def mn_sum(i: Instance):
    f = i.f()
    lhs = kernel_compose_all(
        algebra.msum_kernel(i.Y, i.K, i.L),
        kernel_tensor(draws.multinomial_kernel(f, i.K), draws.multinomial_kernel(f, i.L)),
        copy_kernel(i.X, 2),
    )
    rhs = draws.multinomial_kernel(f, i.K + i.L)
    return (lhs, rhs)


@law("Thm8.2.multizip", "mzip . (mn[K](f) (x) mn[K](g)) = mn[K](f (x) g)", ("X", "Y", "K", "fkind", "gkind"))
def mn_mzip(i: Instance):
    f, g = i.f(), i.g()
    lhs = kernel_compose(
        algebra.mzip_kernel(i.Y, i.X, i.K),
        kernel_tensor(draws.multinomial_kernel(f, i.K), draws.multinomial_kernel(g, i.K)),
    )
    rhs = draws.multinomial_kernel(kernel_tensor(f, g), i.K)
    return (lhs, rhs)


@law("Thm8.3.mn", "hg[L,K] . mn[L](f) = mn[K](f)", ("X", "Y", "L", "K", "fkind"), applies=lambda i: i.L >= i.K)
def hg_mn(i: Instance):
    f = i.f()
    lhs = kernel_compose(
        draws.hypergeometric_chain_kernel(i.Y, i.L, i.K),
        draws.multinomial_kernel(f, i.L),
    )
    rhs = draws.multinomial_kernel(f, i.K)
    return (lhs, rhs)


@law("Thm8.3.flrn", "Flrn . hg[L,K] = Flrn", ("X", "L", "K"), applies=lambda i: i.L >= i.K >= 1)
def hg_flrn(i: Instance):
    return (
        kernel_compose(
            multisets.flrn_kernel(i.X, i.K),
            draws.hypergeometric_chain_kernel(i.X, i.L, i.K),
        ),
        multisets.flrn_kernel(i.X, i.L),
    )


@law("Thm8.3.mzip", "hg . mzip = mzip . (hg (x) hg)", ("X", "Y", "L", "K"), applies=lambda i: i.L >= i.K)
def hg_mzip(i: Instance):
    XY = tensor_finset(i.X, i.Y)
    lhs = kernel_compose(
        draws.hypergeometric_chain_kernel(XY, i.L, i.K),
        algebra.mzip_kernel(i.X, i.Y, i.L),
    )
    rhs = kernel_compose(
        algebra.mzip_kernel(i.X, i.Y, i.K),
        kernel_tensor(
            draws.hypergeometric_chain_kernel(i.X, i.L, i.K),
            draws.hypergeometric_chain_kernel(i.Y, i.L, i.K),
        ),
    )
    return (lhs, rhs)


@law("Eq5.iso_left", "lsplit_inv . lsplit = id", ("X", "Y", "K"))
def lsplit_iso_left(i: Instance):
    return (
        kernel_compose(split.lsplit_inv_kernel(i.X, i.Y, i.K), split.lsplit_kernel(i.X, i.Y, i.K)),
        identity_kernel(power_finset(coproduct_finset((i.X, i.Y)), i.K)),
    )


@law("Eq5.iso_right", "lsplit . lsplit_inv = id", ("X", "Y", "K"))
def lsplit_iso_right(i: Instance):
    return (
        kernel_compose(split.lsplit_kernel(i.X, i.Y, i.K), split.lsplit_inv_kernel(i.X, i.Y, i.K)),
        identity_kernel(split.lsplit_space(i.X, i.Y, i.K)),
    )


@law("LemmaA.1.collapse", "accs . lsplit = (acc (x) acc after codiagonal) . lsplit", ("X", "Y", "K"))
def accs_collapse(i: Instance):
    return (
        kernel_compose(split.accs_kernel(i.X, i.Y, i.K), split.lsplit_kernel(i.X, i.Y, i.K)),
        kernel_compose(_accs_via_codiagonal(i.X, i.Y, i.K), split.lsplit_kernel(i.X, i.Y, i.K)),
    )


@law("LemmaA.1.perm", "accs . lsplit . sigma = accs . lsplit", ("X", "Y", "K", "sigma"))
def accs_lsplit_perm(i: Instance):
    return (
        kernel_compose_all(
            split.accs_kernel(i.X, i.Y, i.K),
            split.lsplit_kernel(i.X, i.Y, i.K),
            permutation_kernel(coproduct_finset((i.X, i.Y)), i.sigma),
        ),
        kernel_compose(split.accs_kernel(i.X, i.Y, i.K), split.lsplit_kernel(i.X, i.Y, i.K)),
    )


@law("Eq6.msplit_square", "msplit . acc = accs . lsplit", ("X", "Y", "K"))
def msplit_square(i: Instance):
    return (
        kernel_compose(
            split.msplit_kernel(i.X, i.Y, i.K),
            multisets.acc_kernel(coproduct_finset((i.X, i.Y)), i.K),
        ),
        kernel_compose(split.accs_kernel(i.X, i.Y, i.K), split.lsplit_kernel(i.X, i.Y, i.K)),
    )


@law("Eq7.msplit_inv", "msplit_inv = cotuple of msum . (M(inl) (x) M(inr))", ("X", "Y", "K"))
def msplit_inv(i: Instance):
    return (split.msplit_inv_kernel(i.X, i.Y, i.K), _msplit_inv_composite(i.X, i.Y, i.K))


@law("Prop5.6.iso_left", "msplit_inv . msplit = id", ("X", "Y", "K"))
def msplit_iso_left(i: Instance):
    return (
        kernel_compose(split.msplit_inv_kernel(i.X, i.Y, i.K), split.msplit_kernel(i.X, i.Y, i.K)),
        identity_kernel(multisets.multiset_space(coproduct_finset((i.X, i.Y)), i.K)),
    )


@law("Prop5.6.iso_right", "msplit . msplit_inv = id", ("X", "Y", "K"))
def msplit_iso_right(i: Instance):
    return (
        kernel_compose(split.msplit_kernel(i.X, i.Y, i.K), split.msplit_inv_kernel(i.X, i.Y, i.K)),
        identity_kernel(split.msplit_space(i.X, i.Y, i.K)),
    )


@law("Prop5.6.count", "|M[K](n)| = multichoose(n, K)", ("n", "K"))
def multiset_count(i: Instance):
    return (len(multisets.multiset_space(number_finset(i.n), i.K)), multisets.multichoose(i.n, i.K))


@law("Chk.multichoose_pascal", "multichoose(n+1, K) = sum_i<=K multichoose(n, i)", ("n", "K"))
def multichoose_pascal(i: Instance):
    return (multisets.multichoose(i.n + 1, i.K), sum(multisets.multichoose(i.n, j) for j in range(i.K + 1)))


@law("Chk.binomial_blocks", "lsplit block sizes realise the binomial theorem", ("X", "Y", "K"))
def block_sizes(i: Instance):
    checks: list[Check] = []
    total = 0
    for b in range(i.K + 1):
        expected = math.comb(i.K, b) * len(i.X) ** b * len(i.Y) ** (i.K - b)
        got = len(split.patterns(i.K, b)) * len(power_finset(i.X, b)) * len(power_finset(i.Y, i.K - b))
        checks.append((got, expected))
        total += got
    checks.append((total, (len(i.X) + len(i.Y)) ** i.K))
    checks.append((len(split.lsplit_space(i.X, i.Y, i.K)), total))
    return checks


@law("Prop5.6.card_shadow", "|M[K](X+Y)| = sum_i mc(|X|,i) * mc(|Y|,K-i)", ("X", "Y", "K"))
def card_shadow(i: Instance):
    return (
        len(multisets.multiset_space(coproduct_finset((i.X, i.Y)), i.K)),
        sum(multisets.multichoose(len(i.X), j) * multisets.multichoose(len(i.Y), i.K - j) for j in range(i.K + 1)),
    )


# ---------------------------------------------------------------------------
# Runner

_FAILURE_DETAIL_CAP = 10


class LawResult(_Record):
    law_id: str
    paper_ref: str
    instances: int
    passes: int
    failure_count: int
    failures: tuple[str, ...]
    skipped: int
    seconds: float

    def to_json(self) -> dict:
        return self.as_dict()


class Report(_Record):
    grid: GridSpec
    results: tuple[LawResult, ...]
    seconds: float

    @property
    def total_failures(self) -> int:
        return sum(r.failure_count for r in self.results)

    @property
    def total_instances(self) -> int:
        return sum(r.instances for r in self.results)

    @property
    def total_skipped(self) -> int:
        return sum(r.skipped for r in self.results)

    def first_failure(self) -> tuple[str, str] | None:
        for r in self.results:
            if r.failures:
                return (r.law_id, r.failures[0])
        return None

    def to_json(self) -> dict:
        return {
            "grid": self.grid.as_dict(),
            "laws": [r.to_json() for r in self.results],
            "total_instances": self.total_instances,
            "total_failures": self.total_failures,
            "total_skipped": self.total_skipped,
            "seconds": self.seconds,
        }

    def table(self) -> str:
        width = max((len(r.law_id) for r in self.results), default=10)
        lines = [f"{'law':<{width}}  {'cases':>6}  {'pass':>6}  {'fail':>6}  {'skip':>6}  {'time':>8}"]
        for r in self.results:
            lines.append(
                f"{r.law_id:<{width}}  {r.instances:>6}  {r.passes:>6}  "
                f"{r.failure_count:>6}  {r.skipped:>6}  {r.seconds:>7.2f}s"
            )
            for desc in r.failures:
                lines.append(f"{'':<{width}}  FAIL at {desc}")
        lines.append(
            f"{len(self.results)} laws, {self.total_instances} instances, "
            f"{self.total_failures} failures, {self.total_skipped} skipped, {self.seconds:.2f}s"
        )
        return "\n".join(lines)


def _run_law(law: Law, grid: GridSpec) -> LawResult:
    started = time.perf_counter()
    instances = passes = skipped = 0
    failures: list[str] = []
    for inst in iter_instances(grid, law.dims):
        if law.applies is not None and not law.applies(inst):
            continue
        try:
            result = law.build(inst)
        except CarrierTooLarge:
            skipped += 1
            continue
        checks = result if isinstance(result, list) else [result]
        instances += 1
        if all(lhs == rhs for lhs, rhs in checks):
            passes += 1
        else:
            failures.append(inst.describe())
    return LawResult(
        law_id=law.id,
        paper_ref=law.ref,
        instances=instances,
        passes=passes,
        failure_count=len(failures),
        failures=tuple(failures[:_FAILURE_DETAIL_CAP]),
        skipped=skipped,
        seconds=time.perf_counter() - started,
    )


def run_laws(
    grid: GridSpec | None = None,
    selection: Sequence[str] | None = None,
    jobs: int = 1,
) -> Report:
    """Evaluate laws over the grid, one after another, and report exact pass/fail counts.

    ``selection`` restricts to the given law ids (unknown ids raise).
    The runner is serial; ``jobs`` is kept for existing callers and
    accepts only 1.  The report content is deterministic for a fixed
    grid (timings aside).
    """
    if jobs != 1:
        raise ValueError(f"the law runner is serial: jobs must be 1, not {jobs!r}")
    grid = grid or GridSpec()
    if selection is None:
        chosen = law_registry()
    else:
        wanted = {law_by_id(law_id) for law_id in selection}
        chosen = tuple(law for law in law_registry() if law in wanted)
    started = time.perf_counter()
    with carrier_limit(grid.carrier_limit):
        results = tuple(_run_law(law, grid) for law in chosen)
    return Report(grid=grid, results=results, seconds=time.perf_counter() - started)
