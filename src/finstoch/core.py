"""Finite sets, exact-rational distributions, and stochastic kernels.

This is the ambient category everything else lives in: objects are
:class:`FinSet` values (finite, totally ordered carriers), morphisms are
:class:`Kernel` values (one exact probability distribution per input
element), and composition is the usual sum-over-intermediate-states
matrix product, carried out in :class:`fractions.Fraction` arithmetic so
that every equality test in the suite is exact.

Canonical orders are fixed once and for all:

* products ``X (x) Y`` are row-major (``x`` major, ``y`` minor),
* coproducts ``X + Y`` list the ``X`` block before the ``Y`` block,
* powers ``X^K`` are mixed-radix tuples, leftmost position most
  significant (so ``X^2`` and ``X (x) X`` coincide element for element).

With these conventions, equalities that are usually stated "up to
isomorphism" become literal kernel equalities, possibly after composing
with an explicit re-indexing kernel (:func:`reindex_kernel`).
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

Label = Hashable

ZERO = Fraction(0)
ONE = Fraction(1)

# Optional ceiling on carrier sizes, used by the law runner to skip
# instances that would blow up; None means unlimited.
_CARRIER_LIMIT: ContextVar[int | None] = ContextVar("finstoch_carrier_limit", default=None)

# Row-sum validation switch.  Only ever disabled by mutation tests that
# need to push deliberately broken kernels through the law checks.
_VALIDATE_WEIGHTS: ContextVar[bool] = ContextVar("finstoch_validate_weights", default=True)


class CarrierTooLarge(Exception):
    """A carrier exceeded the active size limit."""


@contextmanager
def carrier_limit(max_elements: int | None) -> Iterator[None]:
    """Bound the size of carriers constructed inside the block."""
    token = _CARRIER_LIMIT.set(max_elements)
    try:
        yield
    finally:
        _CARRIER_LIMIT.reset(token)


@contextmanager
def unchecked_weights() -> Iterator[None]:
    """Suspend row-sum validation inside the block (testing seam)."""
    token = _VALIDATE_WEIGHTS.set(False)
    try:
        yield
    finally:
        _VALIDATE_WEIGHTS.reset(token)


def _guard_size(n: int) -> None:
    limit = _CARRIER_LIMIT.get()
    if limit is not None and n > limit:
        raise CarrierTooLarge(f"carrier with {n} elements exceeds limit {limit}")


@dataclass(frozen=True)
class Tagged:
    """A coproduct element: summand index plus the inner label."""

    tag: int
    value: Label

    def __repr__(self) -> str:
        return f"#{self.tag}:{self.value!r}"


@dataclass(frozen=True)
class FinSet:
    """A finite set of distinct labels with a fixed total order.

    Labels are atoms (strings), pairs (product elements), tuples (power
    elements), :class:`Tagged` values (coproduct elements), or multisets
    over another FinSet.  The element order is part of the identity of
    the object: two FinSets are equal iff their element tuples are.
    """

    elements: tuple[Label, ...]

    def __post_init__(self) -> None:
        _guard_size(len(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("FinSet labels must be distinct")

    @cached_property
    def index(self) -> dict[Label, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, x: Label) -> bool:
        return x in self.index

    def __repr__(self) -> str:
        return f"FinSet{self.elements!r}"


def make_finset(labels: Iterable[Label]) -> FinSet:
    """Build a FinSet from labels in the given order; [] gives the initial object."""
    return FinSet(tuple(labels))


@cache
def unit_finset() -> FinSet:
    """The tensor unit: a one-element set whose sole element is the empty tuple."""
    return FinSet(((),))


@cache
def number_finset(n: int) -> FinSet:
    """The interpreted number: atoms "0" .. "n-1"."""
    if n < 0:
        raise ValueError("interpreted numbers are nonnegative")
    return FinSet(tuple(str(i) for i in range(n)))


@cache
def _tensor_finset_cached(X: FinSet, Y: FinSet) -> FinSet:
    return FinSet(tuple(itertools.product(X.elements, Y.elements)))


def tensor_finset(X: FinSet, Y: FinSet) -> FinSet:
    """Product carrier, row-major: (x, y) pairs with x major."""
    _guard_size(len(X) * len(Y))
    return _tensor_finset_cached(X, Y)


@cache
def _power_finset_cached(X: FinSet, K: int) -> FinSet:
    return FinSet(tuple(itertools.product(X.elements, repeat=K)))


def power_finset(X: FinSet, K: int) -> FinSet:
    """K-fold power; X^0 is the unit, X^1 is X itself, X^K is K-tuples."""
    if K < 0:
        raise ValueError("power exponent must be nonnegative")
    if K == 0:
        return unit_finset()
    if K == 1:
        return X
    _guard_size(len(X) ** K)
    return _power_finset_cached(X, K)


@cache
def _coproduct_finset_cached(parts: tuple[FinSet, ...]) -> FinSet:
    elems: list[Label] = []
    for i, part in enumerate(parts):
        elems.extend(Tagged(i, x) for x in part)
    return FinSet(tuple(elems))


def coproduct_finset(parts: tuple[FinSet, ...]) -> FinSet:
    """Coproduct carrier: tagged elements, block i listed before block i+1."""
    _guard_size(sum(len(p) for p in parts))
    return _coproduct_finset_cached(parts)


def tuple_of(K: int, x: Label) -> tuple[Label, ...]:
    """View an element of X^K as a K-tuple of labels."""
    if K == 0:
        return ()
    if K == 1:
        return (x,)
    return x  # type: ignore[return-value]


def untuple(K: int, coords: Sequence[Label]) -> Label:
    """Inverse of :func:`tuple_of`: pack K coordinates into an X^K element."""
    if K == 0:
        return ()
    if K == 1:
        return coords[0]
    return tuple(coords)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"weights must be exact rationals, got {type(v).__name__}")


@dataclass(frozen=True)
class Dist:
    """A finitely-supported probability distribution with exact weights.

    Built from any iterable of (label, weight) pairs: the weights of a
    repeated label add up, and labels whose total is zero are dropped.
    ``items`` holds the nonzero totals sorted by carrier position, so
    equality and hashing are canonical.  Weights are nonnegative
    Fractions summing to exactly 1.
    """

    carrier: FinSet
    items: tuple[tuple[Label, Fraction], ...]

    def __post_init__(self) -> None:
        index = self.carrier.index
        summed: dict[Label, Fraction] = {}
        for x, w in self.items:
            if x not in index:
                raise ValueError(f"label {x!r} not in carrier")
            w = _as_fraction(w)
            summed[x] = summed[x] + w if x in summed else w
        cleaned = sorted(((x, w) for x, w in summed.items() if w != 0), key=lambda xw: index[xw[0]])
        if _VALIDATE_WEIGHTS.get():
            if any(w < 0 for _, w in cleaned):
                raise ValueError("negative weight in distribution")
            if sum((w for _, w in cleaned), ZERO) != ONE:
                raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "items", tuple(cleaned))

    @cached_property
    def as_dict(self) -> dict[Label, Fraction]:
        return dict(self.items)

    def weight(self, x: Label) -> Fraction:
        if x not in self.carrier.index:
            raise ValueError(f"label {x!r} not in carrier")
        return self.as_dict.get(x, ZERO)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Dense weight vector aligned with the carrier order."""
        d = self.as_dict
        return tuple(d.get(x, ZERO) for x in self.carrier)

    @property
    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, _ in self.items)

    def is_point_mass(self) -> bool:
        return len(self.items) == 1 and self.items[0][1] == ONE

    def __repr__(self) -> str:
        body = ", ".join(f"{x!r}: {w}" for x, w in self.items)
        return f"Dist({body})"


def make_dist(carrier: FinSet, weights: Mapping[Label, Fraction | int]) -> Dist:
    return Dist(carrier, weights.items())


def dirac(X: FinSet, x: Label) -> Dist:
    """The point mass at x."""
    return Dist(X, ((x, ONE),))


def _number_state(weights: Sequence[Fraction]) -> Dist:
    # A state on the interpreted number len(weights): a convex series.
    return Dist(number_finset(len(weights)), ((str(i), w) for i, w in enumerate(weights)))


def uniform_state(n: int) -> Dist:
    """The uniform distribution over the interpreted number n; requires n >= 1."""
    if n < 1:
        raise ValueError("uniform states need at least one outcome")
    return _number_state((Fraction(1, n),) * n)


def fractional_series(nums: Sequence[int]) -> Dist:
    """The state (n_1/n, ..., n_k/n) on the number k, with n the total of the given naturals."""
    if any(v < 0 for v in nums):
        raise ValueError("fractional series entries are naturals")
    total = sum(nums)
    if total < 1:
        raise ValueError("fractional series needs a positive total")
    return _number_state(tuple(Fraction(v, total) for v in nums))


def series_bullet(r: Dist, s: Dist) -> Dist:
    """Row-major product of two states on numbers: weight (i, j) is r_i * s_j."""
    return _number_state(tuple(ri * sj for ri in r.weights for sj in s.weights))


@dataclass(frozen=True)
class Permutation:
    """A bijection on K positions, 0-indexed one-line notation.

    Acting on a tuple, output position i holds input position images[i].
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images must be a bijection on 0..K-1")

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, t: Sequence[Label]) -> tuple[Label, ...]:
        return tuple(t[j] for j in self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition self after other: (self . other)(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(k)))


def all_permutations(k: int) -> tuple[Permutation, ...]:
    return tuple(Permutation(p) for p in itertools.permutations(range(k)))


@dataclass(frozen=True)
class Kernel:
    """A stochastic map: one distribution over the codomain per domain element."""

    domain: FinSet
    codomain: FinSet
    rows: tuple[Dist, ...]

    def __post_init__(self) -> None:
        # size check runs here (not only in FinSet) so that reusing
        # cached carriers still respects an active carrier limit
        _guard_size(len(self.domain))
        _guard_size(len(self.codomain))
        if len(self.rows) != len(self.domain):
            raise ValueError("need exactly one row per domain element")
        for row in self.rows:
            if row.carrier != self.codomain:
                raise ValueError("row carrier differs from codomain")

    def row(self, x: Label) -> Dist:
        return self.rows[self.domain.index[x]]

    def is_point_masses(self) -> bool:
        return all(row.is_point_mass() for row in self.rows)

    def __repr__(self) -> str:
        return f"Kernel({len(self.domain)}->{len(self.codomain)})"


def kernel_from_function(domain: FinSet, codomain: FinSet, fn: Callable[[Label], Label]) -> Kernel:
    """The deterministic kernel x |-> dirac(fn(x))."""
    return Kernel(domain, codomain, tuple(dirac(codomain, fn(x)) for x in domain))


def identity_kernel(X: FinSet) -> Kernel:
    return kernel_from_function(X, X, lambda x: x)


def state_kernel(d: Dist) -> Kernel:
    """A distribution viewed as a kernel out of the unit object."""
    return Kernel(unit_finset(), d.carrier, (d,))


def constant_kernel(domain: FinSet, d: Dist) -> Kernel:
    return Kernel(domain, d.carrier, (d,) * len(domain))


def kernel_compose(g: Kernel, f: Kernel) -> Kernel:
    """The composite g after f (sum over intermediate states)."""
    if f.codomain != g.domain:
        raise ValueError("composition needs cod(f) == dom(g)")
    g_rows = g.rows
    mid_index = f.codomain.index
    rows = tuple(
        Dist(g.codomain, ((z, w * v) for y, w in row.items for z, v in g_rows[mid_index[y]].items))
        for row in f.rows
    )
    return Kernel(f.domain, g.codomain, rows)


def kernel_compose_all(*ks: Kernel) -> Kernel:
    """Compose right to left: kernel_compose_all(h, g, f) is h after g after f."""
    return reduce(kernel_compose, ks)


def kernel_tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition on row-major product carriers."""
    dom = tensor_finset(f.domain, g.domain)
    cod = tensor_finset(f.codomain, g.codomain)
    rows = []
    for rf in f.rows:
        for rg in g.rows:
            rows.append(Dist(cod, (((y, b), wf * wg) for y, wf in rf.items for b, wg in rg.items)))
    return Kernel(dom, cod, tuple(rows))


def kernel_power(f: Kernel, K: int) -> Kernel:
    """K independent copies of f, on power carriers."""
    if K < 0:
        raise ValueError("power exponent must be nonnegative")
    if K == 1:
        return f
    dom = power_finset(f.domain, K)
    cod = power_finset(f.codomain, K)
    rows = []
    for x in dom:
        bag = (
            (untuple(K, tuple(y for y, _ in combo)), math.prod((w for _, w in combo), start=ONE))
            for combo in itertools.product(*(f.row(c).items for c in tuple_of(K, x)))
        )
        rows.append(Dist(cod, bag))
    return Kernel(dom, cod, tuple(rows))


def cotuple(fs: Sequence[Kernel], codomain: FinSet | None = None) -> Kernel:
    """The case-analysis kernel out of the coproduct of the domains."""
    if not fs:
        if codomain is None:
            raise ValueError("empty cotuple needs an explicit codomain")
        return Kernel(coproduct_finset(()), codomain, ())
    cod = fs[0].codomain
    if codomain is not None and codomain != cod:
        raise ValueError("codomain mismatch")
    if any(f.codomain != cod for f in fs):
        raise ValueError("cotuple components must share a codomain")
    dom = coproduct_finset(tuple(f.domain for f in fs))
    rows = []
    for f in fs:
        rows.extend(f.rows)
    return Kernel(dom, cod, tuple(rows))


def coprojection_kernel(parts: tuple[FinSet, ...], i: int) -> Kernel:
    """The i-th coprojection into the coproduct of the given parts."""
    return kernel_from_function(parts[i], coproduct_finset(parts), lambda x: Tagged(i, x))


def copy_kernel(X: FinSet, K: int) -> Kernel:
    """The K-fold copier x |-> (x, ..., x); K = 0 is the discard map."""
    if K < 0:
        raise ValueError("copy arity must be nonnegative")
    return kernel_from_function(X, power_finset(X, K), lambda x: untuple(K, (x,) * K))


def discard_kernel(X: FinSet) -> Kernel:
    """The unique map to the unit object."""
    return kernel_from_function(X, unit_finset(), lambda x: ())


def projection_kernel(X: FinSet, K: int, i: int) -> Kernel:
    """Project the i-th coordinate (1-indexed) out of X^K."""
    if not 1 <= i <= K:
        raise ValueError(f"projection index {i} out of range 1..{K}")
    return kernel_from_function(power_finset(X, K), X, lambda t: tuple_of(K, t)[i - 1])


def permutation_kernel(X: FinSet, sigma: Permutation) -> Kernel:
    """The deterministic rearrangement of X^K induced by sigma."""
    K = sigma.size
    P = power_finset(X, K)
    return kernel_from_function(P, P, lambda t: untuple(K, sigma.apply(tuple_of(K, t))))


def index_map_kernel(X: FinSet, Y: FinSet, fn: Callable[[int], int]) -> Kernel:
    """Deterministic kernel sending the i-th element of X to the fn(i)-th of Y."""
    return Kernel(X, Y, tuple(dirac(Y, Y.elements[fn(i)]) for i in range(len(X))))


def reindex_kernel(X: FinSet, Y: FinSet) -> Kernel:
    """The canonical order-preserving relabelling between equinumerous carriers."""
    if len(X) != len(Y):
        raise ValueError("reindexing needs carriers of equal size")
    return index_map_kernel(X, Y, lambda i: i)


def swap_kernel(X: FinSet, Y: FinSet) -> Kernel:
    """The symmetry (x, y) |-> (y, x)."""
    return kernel_from_function(tensor_finset(X, Y), tensor_finset(Y, X), lambda p: (p[1], p[0]))


def convex_sum(r: Dist, fs: Sequence[Kernel]) -> Kernel:
    """The weighted mixture sum_i r_i * fs[i] of parallel kernels; r is a state on len(fs)."""
    if r.carrier != number_finset(len(fs)):
        raise ValueError("the series must be a state on the number of kernels")
    dom, cod = fs[0].domain, fs[0].codomain
    if any(f.domain != dom or f.codomain != cod for f in fs):
        raise ValueError("convex sum components must share domain and codomain")
    rows = tuple(
        Dist(cod, ((y, w * v) for w, f in zip(r.weights, fs) if w for y, v in f.rows[ix].items))
        for ix in range(len(dom))
    )
    return Kernel(dom, cod, rows)


def is_deterministic(f: Kernel) -> bool:
    """Whether f commutes with copying: (f (x) f) . copy == copy . f.

    In this model that holds exactly when every row is a point mass.
    """
    return kernel_equal(
        kernel_compose(kernel_tensor(f, f), copy_kernel(f.domain, 2)),
        kernel_compose(copy_kernel(f.codomain, 2), f),
    )


def kernel_equal(f: Kernel, g: Kernel) -> bool:
    """Exact equality: same carriers, identical normalized weights."""
    return f.domain == g.domain and f.codomain == g.codomain and f.rows == g.rows
