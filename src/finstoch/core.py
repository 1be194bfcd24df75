"""Finite sets, exact-rational distributions, and stochastic kernels.

This is the ambient category everything else lives in: objects are
:class:`FinSet` values (finite, totally ordered carriers), morphisms are
:class:`Kernel` values (one exact probability distribution per input
element), and composition is the usual sum-over-intermediate-states
matrix product.  A row is held as carrier indices with ``int``
numerators over one ``int`` denominator, so composition, tensor, power
and convex sums run on integers keyed by index and every equality test
in the suite is exact; labels and :class:`fractions.Fraction` weights
appear only where rows are built from or read as (label, weight) pairs,
and in :func:`kernel_from_function`, a public constructor no builder calls.
The uniform draws are relative frequencies of bags of outcomes
(:func:`frequency_kernel`): their builders compute no weights.  A
tensor or a power holds its rows by its factors (:class:`ProductRows`),
building each on its first read; a deterministic map after it relabels
the factors, and a fold such as acc runs over each word's prefixes.

Canonical orders are fixed once and for all:

* products ``X (x) Y`` are row-major (``x`` major, ``y`` minor),
* coproducts ``X + Y`` list the ``X`` block before the ``Y`` block,
* powers ``X^K`` are mixed-radix tuples, leftmost position most
  significant (so ``X^2`` and ``X (x) X`` coincide element for element);
  :func:`word_letters` and :func:`word_position` are the one codec
  between a word's position and its letters' positions.

With these conventions, equalities that are usually stated "up to
isomorphism" become literal kernel equalities, possibly after composing
with an explicit re-indexing kernel (:func:`reindex_kernel`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

Label = Hashable

ZERO = Fraction(0)
ONE = Fraction(1)

# The carrier ceiling of the law grid and of every CLI command.
DEFAULT_CARRIER_LIMIT = 20000

# The settings every builder cache is keyed by, as one (ceiling, check) pair: the ceiling on
# carrier sizes (None means unlimited), which the law runner uses to skip instances that would
# blow up and the CLI to refuse oversized queries, and the row-sum check, only ever turned off by
# mutation tests that push deliberately broken kernels through the law checks.
_SETTINGS: ContextVar[tuple[int | None, bool]] = ContextVar("finstoch_settings", default=(None, True))


class CarrierTooLarge(Exception):
    """A carrier exceeded the active size limit."""


@contextmanager
def carrier_limit(max_elements: int | None) -> Iterator[None]:
    """Bound the size of carriers constructed inside the block; the weight check stays as it was on entry.

    Builder caches are keyed by the ceiling, so a carrier is checked once, when it is built.
    """
    token = _SETTINGS.set((max_elements, _SETTINGS.get()[1]))
    try:
        yield
    finally:
        _SETTINGS.reset(token)


@contextmanager
def unchecked_weights() -> Iterator[None]:
    """Suspend row-sum validation inside the block (testing seam); the ceiling stays as it was on entry.

    Builder caches are keyed by this setting: a kernel built inside is never returned outside.
    """
    token = _SETTINGS.set((_SETTINGS.get()[0], False))
    try:
        yield
    finally:
        _SETTINGS.reset(token)


def cache(fn: Callable) -> Callable:
    """``functools.cache``, keyed also by the settings in force: the carrier ceiling and the weight check."""
    keyed = functools.cache(lambda settings, *args: fn(*args))

    @functools.wraps(fn)
    def cached(*args):
        return keyed(_SETTINGS.get(), *args)

    cached.cache_info, cached.cache_clear = keyed.cache_info, keyed.cache_clear
    return cached


def _guard_size(n: int) -> None:
    limit = _SETTINGS.get()[0]
    if limit is not None and n > limit:
        # past Python's int-to-str limit (4,300 digits) a size is named by the power of two below it
        size = n if n.bit_length() < 10000 else f"at least 2^{n.bit_length() - 1}"
        raise CarrierTooLarge(f"carrier with {size} elements exceeds limit {limit}")


def _guard_length(K: int) -> None:
    # over one colour, K-tuples and size-K multisets have a one-element carrier
    limit = _SETTINGS.get()[0]
    if limit is not None and K > limit:
        raise CarrierTooLarge(f"length {K} exceeds limit {limit}")


class cached_field:
    """``functools.cached_property`` without CPython 3.11's lock: threads first reading at once each compute it."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.fn(obj)
        return value


class Frozen:
    """Base of the immutable value classes: ``__init__`` sets each field once, with ``object.__setattr__``.

    That is what a frozen dataclass does, and unlike a write through
    ``__dict__`` it keeps the instance's compact attribute storage.
    ``==`` and ``hash`` are derived, as a dataclass derives them, from
    the fields the class annotates, in declared order: two values are
    equal when they have the same class and equal fields, tested by
    identity before ``==``.  A value hashes once, since every builder
    cache hashes its arguments on every call.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("__annotations__")
        if fields:  # a subclass that annotates nothing compares as its base
            cls._key = operator.attrgetter(*fields)

    def __eq__(self, other: object) -> bool:
        if self is other:  # identity first, then of the keys: a carrier sharing a label tuple walks no label
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        mine, theirs = key(self), key(other)
        return mine is theirs or mine == theirs

    @cached_field
    def _hash(self) -> int:
        return hash(self._key(self))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Tagged(Frozen):
    """A coproduct element: summand index plus the inner label."""

    tag: int
    value: Label

    def __init__(self, tag: int, value: Label) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __repr__(self) -> str:
        return f"#{self.tag}:{self.value!r}"


class FinSet(Frozen):
    """A finite set of distinct labels with a fixed total order.

    Labels are atoms (strings), pairs (product elements), tuples (power
    elements), :class:`Tagged` values (coproduct elements), or multisets
    over another FinSet.  The element order is part of the identity of
    the object: two FinSets are equal iff their element tuples are.  A
    counted carrier (:meth:`counted`) knows its size without a list and
    lists its labels on first read.
    """

    elements: tuple[Label, ...]

    def __init__(self, elements: tuple[Label, ...]) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_size", len(elements))
        _guard_size(len(elements))
        if len(set(elements)) != len(elements):
            raise ValueError("FinSet labels must be distinct")

    @classmethod
    def counted(cls, size: int, build: Callable[[], tuple[Label, ...]]) -> FinSet:
        """A carrier of ``size`` labels, distinct by construction, that ``build()`` lists on first read.

        Its size is checked against the ceiling now; its labels are listed
        once, by whichever of ``elements``, ``index``, iteration, ``==``
        against another carrier or ``hash`` comes first, and the carrier
        then lets go of ``build`` and of all it holds.
        """
        _guard_size(size)
        s = object.__new__(cls)
        vars(s).update(_size=size, _build=build)
        return s

    @cached_field
    def elements(self) -> tuple[Label, ...]:
        # reached only by a counted carrier not yet listed; threads that list it at once each build it, one is kept
        held = vars(self)
        build = held.get("_build")
        if build is not None:
            held["elements"] = build()
            held.pop("_build", None)
        return held["elements"]

    @cached_field
    def index(self) -> dict[Label, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def __len__(self) -> int:
        return self._size

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
def tensor_finset(X: FinSet, Y: FinSet) -> FinSet:
    """Product carrier, row-major: (x, y) pairs with x major; counted, so listed on first read."""
    return FinSet.counted(len(X) * len(Y), lambda: tuple(itertools.product(X.elements, Y.elements)))


@cache
def power_finset(X: FinSet, K: int) -> FinSet:
    """K-fold power; X^0 is the unit, X^1 is X itself, X^K is K-tuples, counted, so listed on first read."""
    if K < 0:
        raise ValueError("power exponent must be nonnegative")
    if K == 0:
        return unit_finset()
    if K == 1:
        return X
    _guard_length(K)
    return FinSet.counted(len(X) ** K, lambda: tuple(itertools.product(X.elements, repeat=K)))


@cache
def coproduct_finset(parts: tuple[FinSet, ...]) -> FinSet:
    """Coproduct carrier: tagged elements, block i listed before block i+1; counted, so listed on first read."""
    return FinSet.counted(sum(map(len, parts)), lambda: tuple(Tagged(i, x) for i, p in enumerate(parts) for x in p))


def word_letters(i: int, n: int, K: int) -> tuple[int, ...]:
    """The K letters, leftmost first, of the i-th word of X^K with |X| = n: the base-n digits of i."""
    letters = [0] * K
    for j in range(K - 1, -1, -1):
        i, letters[j] = divmod(i, n)
    return tuple(letters)


def word_position(letters: Iterable[int], n: int) -> int:
    """The position in X^K, |X| = n, of the word with these letters, leftmost first; inverse to :func:`word_letters`."""
    position = 0
    for letter in letters:
        position = position * n + letter
    return position


class Dist(Frozen):
    """A finitely-supported probability distribution with exact weights.

    Built from any iterable of (label, weight) pairs: the weights of a
    repeated label add up, and labels whose total is zero are dropped.
    Held as the ascending carrier ``indices`` of the support, ``int``
    numerators ``nums`` and one positive ``den`` sharing no factor with
    all of them, so equality and hashing are canonical; ``items`` gives
    (label, Fraction) pairs in carrier order.  Weights are nonnegative
    and sum to exactly 1.
    """

    carrier: FinSet
    indices: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    def __init__(self, carrier: FinSet, items: Iterable[tuple[Label, Fraction | int]]) -> None:
        index = carrier.index
        pairs = []
        for x, w in items:
            i = index.get(x)
            if i is None:
                raise ValueError(f"label {x!r} not in carrier")
            if not isinstance(w, (int, Fraction)):
                raise TypeError(f"weights must be exact rationals, got {type(w).__name__}")
            pairs.append((i, w))
        den = math.lcm(*(w.denominator for _, w in pairs))
        indices, nums = _tally((i, w.numerator * (den // w.denominator)) for i, w in pairs)
        vars(self).update(carrier=carrier, indices=indices, nums=nums, den=den)  # frozen: set in one step
        self.__post_init__()

    def __post_init__(self) -> None:
        # Every row passes through here once: drop zeros, reduce, check.
        indices, nums, den = self.indices, self.nums, self.den
        if 0 in nums:
            indices = tuple(i for i, n in zip(indices, nums) if n)
            nums = tuple(n for n in nums if n)
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(n // g for n in nums)
        if _SETTINGS.get()[1]:
            if nums and min(nums) < 0:
                raise ValueError("negative weight in distribution")
            if sum(nums) != den:
                raise ValueError("weights must sum to exactly 1")
        if den != self.den or len(nums) != len(self.nums):
            vars(self).update(indices=indices, nums=nums, den=den)

    @cached_field
    def items(self) -> tuple[tuple[Label, Fraction], ...]:
        if self.den == 1 and self.nums == (1,):  # a point mass: every one shares its weight
            return ((self.carrier.elements[self.indices[0]], ONE),)
        # one Fraction per distinct numerator: they are immutable, so entries share them
        weights = {n: Fraction(n, self.den) for n in set(self.nums)}
        return tuple(zip(map(self.carrier.elements.__getitem__, self.indices), map(weights.__getitem__, self.nums)))

    @cached_field
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
        labels = self.carrier.elements
        return tuple(labels[i] for i in self.indices)

    def is_point_mass(self) -> bool:
        return len(self.nums) == 1 and self.nums[0] == self.den

    def __repr__(self) -> str:
        body = ", ".join(f"{x!r}: {w}" for x, w in self.items)
        return f"Dist({body})"


def _tally(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (index, numerator) pairs summed per index: the indices in ascending order, and their totals."""
    sums: dict[int, int] = {}
    get = sums.get
    for z, v in pairs:
        sums[z] = get(z, 0) + v
    keys = sorted(sums)
    return tuple(keys), tuple(map(sums.__getitem__, keys))


def _row(carrier: FinSet, indices: tuple[int, ...], nums: tuple[int, ...], den: int) -> Dist:
    """The Dist with weights nums / den at ascending, distinct carrier positions."""
    d = object.__new__(Dist)
    vars(d).update(carrier=carrier, indices=indices, nums=nums, den=den)
    d.__post_init__()
    return d


def _mix(carrier: FinSet, weights: Dist, rows: Sequence[Dist]) -> Dist:
    """The row sum_j w_j * rows[j], for w the weights of ``weights``, over the rows' common denominator."""
    common = math.lcm(*(r.den for r in rows))
    scales = [w * (common // r.den) for w, r in zip(weights.nums, rows)]
    pairs = itertools.chain.from_iterable(zip(r.indices, [s * v for v in r.nums]) for s, r in zip(scales, rows))
    return _row(carrier, *_tally(pairs), weights.den * common)


def _radix(parts: Iterable[Sequence[int]], radix: int) -> list[int]:
    """Mixed-radix positions of every choice of one entry per part, leftmost part most significant."""
    out = [0]
    for part in parts:
        out = [a * radix + b for a in out for b in part]
    return out


def _expand(rows: Sequence[Dist], radix: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The positions on a mixed-radix carrier, numerators and denominator of the independent product of rows."""
    nums = [1]
    for r in rows:
        nums = [m * n for m in nums for n in r.nums]
    return tuple(_radix([r.indices for r in rows], radix)), tuple(nums), math.prod(r.den for r in rows)


def make_dist(carrier: FinSet, weights: Mapping[Label, Fraction | int]) -> Dist:
    return Dist(carrier, weights.items())


def frequency_kernel(
    domain: FinSet, codomain: FinSet, counts: Callable[[int], Iterable[tuple[int, int]]]
) -> Kernel:
    """Row i is the relative frequencies of the nonempty bag ``counts(i)`` of (codomain position, count > 0).

    Bags name the domain element and the outcomes by their carrier
    positions, so neither carrier is listed to build a row; repeats add
    up, and a position outside the codomain raises ``ValueError``. Each
    row is built when it is first read, so ``counts(i)`` runs only for
    the rows read, once each.
    """
    n = len(codomain)

    def row(i: int) -> Dist:
        indices, nums = _tally(counts(i))
        if indices and (indices[0] < 0 or indices[-1] >= n):
            raise ValueError(f"bag position outside range({n})")
        return _row(codomain, indices, nums, sum(nums))

    return Kernel(domain, codomain, LazyRows(len(domain), row))


def dirac(X: FinSet, x: Label) -> Dist:
    """The point mass at x."""
    return Dist(X, ((x, 1),))


def uniform_state(n: int) -> Dist:
    """The uniform distribution over the interpreted number n; requires n >= 1."""
    if n < 1:
        raise ValueError("uniform states need at least one outcome")
    return _row(number_finset(n), tuple(range(n)), (1,) * n, n)


def fractional_series(nums: Sequence[int]) -> Dist:
    """The state (n_1/n, ..., n_k/n) on the number k, with n the total of the given naturals."""
    if any(v < 0 for v in nums):
        raise ValueError("fractional series entries are naturals")
    total = sum(nums)
    if total < 1:
        raise ValueError("fractional series needs a positive total")
    return _row(number_finset(len(nums)), tuple(range(len(nums))), tuple(nums), total)


def series_bullet(r: Dist, s: Dist) -> Dist:
    """Row-major product of two states on numbers: weight (i, j) is r_i * s_j."""
    m = len(s.carrier)
    return _row(number_finset(len(r.carrier) * m), *_expand((r, s), m))


class Permutation(Frozen):
    """A bijection on K positions, 0-indexed one-line notation.

    Acting on a tuple, output position i holds input position images[i].
    """

    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection on 0..K-1")

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

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


class Rows:
    """Rows read by ``__len__`` and ``_read(i)``; slices, iteration, ``==`` and ``hash`` act on all rows as a tuple."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._read, range(*i.indices(len(self)))))
        return self._read(i)

    def __iter__(self) -> Iterator[Dist]:
        # not the default iteration by index, which would end quietly on an IndexError from a build
        return map(self._read, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, Rows)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


class LazyRows(Rows):
    """Kernel rows built on first use, each at most once.

    ``build(i)`` makes row i on the kernel's codomain, under the settings in force when the
    sequence was made.  Threads that first read a row at once may each build it; the rows they
    build are equal, and one is kept.  Once every row is built, the sequence lets go of ``build``
    and of all it holds.
    """

    __slots__ = ("_build", "_rows", "_unbuilt", "_settings")

    def __init__(self, n: int, build: Callable[[int], Dist]) -> None:
        self._build: Callable[[int], Dist] | None = build
        self._rows: list[Dist | None] = [None] * n
        self._unbuilt = n
        self._settings = _SETTINGS.get()

    def __len__(self) -> int:
        return len(self._rows)

    def _read(self, i: int) -> Dist:
        build = self._build  # read before the row: it is None only once every row is built
        row = self._rows[i]
        if row is None:
            token = _SETTINGS.set(self._settings)
            try:
                row = self._rows[i] = build(i % len(self._rows))
            finally:
                _SETTINGS.reset(token)
            self._unbuilt -= 1
            # a row two threads build at once counts twice; a scan by identity, calling no __eq__, is proof
            if self._unbuilt <= 0 and all(r is not None for r in self._rows):
                self._build = None
        return row


class PointRows(Rows):
    """Row i of a deterministic kernel: the point mass at ``codomain.elements[targets[i]]``, built once per target.

    Two ``PointRows`` compare by codomain and targets.  ``steps``, if given, fold each word s_1 .. s_K
    of dom = Y^K to its target: r_0 = 0, r_j = steps[j-1][r_(j-1)][s_j], targets[word] = r_K.
    """

    __slots__ = ("codomain", "targets", "steps", "_points")

    def __init__(self, codomain: FinSet, targets: tuple[int, ...], steps: tuple | None = None) -> None:
        self.codomain, self.targets, self.steps, self._points = codomain, targets, steps, {}

    def __len__(self) -> int:
        return len(self.targets)

    def _read(self, i: int) -> Dist:
        t = self.targets[i]
        row = self._points.get(t)
        if row is None:
            row = self._points[t] = _row(self.codomain, (t,), (1,), 1)
        return row

    def __eq__(self, other) -> bool:
        if isinstance(other, PointRows):
            return self.codomain == other.codomain and self.targets == other.targets
        return super().__eq__(other)

    __hash__ = Rows.__hash__


class ProductRows(LazyRows):
    """A tensor's or a power's rows, held by their factor rows ``parts``, each built on its first read.

    Row i multiplies one row per part, picked by the digits of ``words[i]`` in the parts' radices,
    on a codomain whose last factor has ``radix`` elements.
    """

    __slots__ = ("codomain", "radix", "parts", "words")

    def __init__(self, codomain: FinSet, radix: int, parts: tuple, words: Sequence[int]) -> None:
        self.codomain, self.radix, self.parts, self.words = codomain, radix, parts, words
        super().__init__(len(words), lambda i: _row(codomain, *self.expand(i)))

    def letters(self, i: int) -> tuple[int, ...]:
        w, out = self.words[i], []
        for part in reversed(self.parts):
            w, x = divmod(w, len(part))
            out.append(x)
        return tuple(reversed(out))

    def expand(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Row i's positions, numerators and denominator, from the parts."""
        return _expand([part[x] for part, x in zip(self.parts, self.letters(i))], self.radix)


class Kernel(Frozen):
    """A stochastic map: one distribution over the codomain per domain element."""

    domain: FinSet
    codomain: FinSet
    rows: tuple[Dist, ...] | Rows

    def __init__(self, domain: FinSet, codomain: FinSet, rows: tuple[Dist, ...] | Rows) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "rows", rows)
        if len(rows) != len(domain):
            raise ValueError("need exactly one row per domain element")
        if isinstance(rows, Rows):
            return  # built on the codomain by construction
        for row in rows:
            if row.carrier != codomain:
                raise ValueError("row carrier differs from codomain")

    def row(self, x: Label) -> Dist:
        return self.rows[self.domain.index[x]]

    def is_point_masses(self) -> bool:
        return isinstance(self.rows, PointRows) or all(row.is_point_mass() for row in self.rows)

    def __repr__(self) -> str:
        return f"Kernel({len(self.domain)}->{len(self.codomain)})"


def kernel_from_function(domain: FinSet, codomain: FinSet, fn: Callable[[Label], Label]) -> Kernel:
    """The deterministic kernel x |-> dirac(fn(x)), held as codomain indices."""
    ys = [fn(x) for x in domain]
    targets = tuple(map(codomain.index.get, ys))
    if None in targets:
        raise ValueError(f"label {ys[targets.index(None)]!r} not in carrier")
    return Kernel(domain, codomain, PointRows(codomain, targets))


def identity_kernel(X: FinSet) -> Kernel:
    return reindex_kernel(X, X)


def state_kernel(d: Dist) -> Kernel:
    """A distribution viewed as a kernel out of the unit object."""
    return Kernel(unit_finset(), d.carrier, (d,))


def constant_kernel(domain: FinSet, d: Dist) -> Kernel:
    return Kernel(domain, d.carrier, (d,) * len(domain))


def kernel_compose(g: Kernel, f: Kernel) -> Kernel:
    """The composite g after f (sum over intermediate states).

    A deterministic f gathers rows of g, and a product's stay factored; a deterministic g
    relabels the rows of f, a product's through its factors, and a fold runs over them (:func:`_fold_rows`).
    """
    if f.codomain != g.domain:
        raise ValueError("composition needs cod(f) == dom(g)")
    f_rows, g_rows, cod = f.rows, g.rows, g.codomain
    if isinstance(f_rows, PointRows):
        if isinstance(g_rows, PointRows):
            rows = PointRows(cod, tuple(map(g_rows.targets.__getitem__, f_rows.targets)))
        elif isinstance(g_rows, ProductRows):
            rows = ProductRows(cod, g_rows.radix, g_rows.parts, tuple(map(g_rows.words.__getitem__, f_rows.targets)))
        else:
            rows = tuple(map(g_rows.__getitem__, f_rows.targets))
    elif isinstance(g_rows, PointRows):
        if isinstance(f_rows, ProductRows) and g_rows.steps is not None and len(g_rows.steps) == len(f_rows.parts):
            return Kernel(f.domain, cod, _fold_rows(cod, g_rows.steps, f_rows))
        product = isinstance(f_rows, ProductRows)
        terms = map(f_rows.expand, range(len(f_rows))) if product else ((r.indices, r.nums, r.den) for r in f_rows)
        relabel = g_rows.targets.__getitem__
        rows = tuple(_row(cod, *_tally(zip(map(relabel, p), v)), d) for p, v, d in terms)
    else:
        rows = tuple(_mix(cod, row, [g_rows[y] for y in row.indices]) for row in f_rows)
    return Kernel(f.domain, cod, rows)


def _fold_rows(cod: FinSet, steps: tuple, product: ProductRows) -> tuple[Dist, ...]:
    """The rows of a fold after a product: a forward pass through ``steps`` over each word's prefixes, each once."""

    @functools.cache
    def after(prefix: tuple[int, ...]) -> tuple[dict[int, int], int]:
        if not prefix:
            return {0: 1}, 1
        (sums, den), j = after(prefix[:-1]), len(prefix) - 1
        row, step, out = product.parts[j][prefix[j]], steps[j], {}
        for r, v in sums.items():
            for t, u in zip(map(step[r].__getitem__, row.indices), row.nums):
                out[t] = out.get(t, 0) + v * u
        return out, den * row.den

    return tuple(_row(cod, *_tally(s.items()), d) for s, d in map(after, map(product.letters, range(len(product)))))


def kernel_compose_all(*ks: Kernel) -> Kernel:
    """Compose right to left: kernel_compose_all(h, g, f) is h after (g after f).

    Folding from the right lets a deterministic map on the right pick the
    rows of the kernels to its left before anything composes over them all.
    """
    return reduce(lambda f, g: kernel_compose(g, f), reversed(ks))


def _product(dom: FinSet, cod: FinSet, fs: Sequence[Kernel], n: int) -> Kernel:
    """fs side by side, the last with n outcomes: index targets if all are deterministic, else rows held by theirs."""
    if all(isinstance(f.rows, PointRows) for f in fs):
        return Kernel(dom, cod, PointRows(cod, tuple(_radix([f.rows.targets for f in fs], n))))
    return Kernel(dom, cod, ProductRows(cod, n, tuple(f.rows for f in fs), range(len(dom))))


def kernel_tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition on row-major product carriers."""
    return _product(tensor_finset(f.domain, g.domain), tensor_finset(f.codomain, g.codomain), (f, g), len(g.codomain))


def kernel_power(f: Kernel, K: int) -> Kernel:
    """K independent copies of f on power carriers; f^1 is f itself, f^0 the point map on the unit."""
    if K == 1:
        return f
    return _product(power_finset(f.domain, K), power_finset(f.codomain, K), (f,) * K, len(f.codomain))


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
    if all(isinstance(f.rows, PointRows) for f in fs):
        return Kernel(dom, cod, PointRows(cod, tuple(itertools.chain.from_iterable(f.rows.targets for f in fs))))
    rows = []
    for f in fs:
        rows.extend(f.rows)
    return Kernel(dom, cod, tuple(rows))


def coprojection_kernel(parts: tuple[FinSet, ...], i: int) -> Kernel:
    """The i-th coprojection into the coproduct of the given parts."""
    start = sum(map(len, parts[:i]))
    return index_map_kernel(parts[i], coproduct_finset(parts), lambda x: start + x)


def copy_kernel(X: FinSet, K: int) -> Kernel:
    """The K-fold copier x |-> (x, ..., x); K = 0 is the discard map."""
    if K < 0:
        raise ValueError("copy arity must be nonnegative")
    return index_map_kernel(X, power_finset(X, K), lambda i: word_position((i,) * K, len(X)))


def discard_kernel(X: FinSet) -> Kernel:
    """The unique map to the unit object."""
    return copy_kernel(X, 0)


def projection_kernel(X: FinSet, K: int, i: int) -> Kernel:
    """Project the i-th coordinate (1-indexed) out of X^K."""
    if not 1 <= i <= K:
        raise ValueError(f"projection index {i} out of range 1..{K}")
    return index_map_kernel(power_finset(X, K), X, lambda p: word_letters(p, len(X), K)[i - 1])


def permutation_kernel(X: FinSet, sigma: Permutation) -> Kernel:
    """The deterministic rearrangement of X^K induced by sigma."""
    K, n = sigma.size, len(X)
    P = power_finset(X, K)
    return index_map_kernel(P, P, lambda p: word_position(sigma.apply(word_letters(p, n, K)), n))


def index_map_kernel(X: FinSet, Y: FinSet, fn: Callable[[int], int]) -> Kernel:
    """Deterministic kernel sending the i-th element of X to the fn(i)-th of Y."""
    targets = tuple(operator.index(fn(i)) for i in range(len(X)))
    if not all(0 <= t < len(Y) for t in targets):
        raise ValueError(f"index map targets must lie in range({len(Y)})")
    return Kernel(X, Y, PointRows(Y, targets))


def reindex_kernel(X: FinSet, Y: FinSet) -> Kernel:
    """The canonical order-preserving relabelling between equinumerous carriers."""
    if len(X) != len(Y):
        raise ValueError("reindexing needs carriers of equal size")
    return index_map_kernel(X, Y, lambda i: i)


def swap_kernel(X: FinSet, Y: FinSet) -> Kernel:
    """The symmetry (x, y) |-> (y, x): the pair at x * |Y| + y goes to y * |X| + x."""
    return index_map_kernel(tensor_finset(X, Y), tensor_finset(Y, X), lambda p: p % len(Y) * len(X) + p // len(Y))


def convex_sum(r: Dist, fs: Sequence[Kernel]) -> Kernel:
    """The weighted mixture sum_i r_i * fs[i] of parallel kernels; r is a state on len(fs)."""
    if r.carrier != number_finset(len(fs)):
        raise ValueError("the series must be a state on the number of kernels")
    dom, cod = fs[0].domain, fs[0].codomain
    if any(f.domain != dom or f.codomain != cod for f in fs):
        raise ValueError("convex sum components must share domain and codomain")
    rows = tuple(_mix(cod, r, [fs[i].rows[ix] for i in r.indices]) for ix in range(len(dom)))
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
    return f == g
