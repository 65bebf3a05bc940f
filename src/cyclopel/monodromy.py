"""Monodromy data of cyclic covers of the line: validation, genus,
signature, Galois action, degeneration into trees of 3-point covers."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice
from math import gcd

from ._record import Record
from .cyclotomic import SUPPORTED_MODULI, units_mod
from .errors import (
    DisconnectedCover,
    InvariantViolation,
    MalformedDatum,
    NonCompactType,
    NonMaximalOrder,
    UnbalancedInertia,
    UnsupportedModulus,
    ZeroInertia,
)

__all__ = [
    "DegenerationTree",
    "MonodromyDatum",
    "Signature",
    "cm_algebra_check",
    "degenerate",
    "galois_act",
    "genus",
    "signature",
    "validate",
]


class MonodromyDatum(Record):
    """(m, N, a): a family of mu_m-covers of P^1 branched at N points with
    local inertia a(i) at the i-th point.  Constructing one validates it."""

    __slots__ = ("m", "a")
    m: int
    a: tuple[int, ...]

    def __post_init__(self):
        m, a = self.m, self.a
        if m not in SUPPORTED_MODULI:
            raise UnsupportedModulus(f"modulus {m} is outside the supported list")
        if len(a) < 3:
            raise MalformedDatum("a monodromy datum needs at least 3 branch points")
        if any(x % m == 0 for x in a):
            raise ZeroInertia("every inertia value must be nonzero mod m")
        if any(not 0 < x < m for x in a):
            raise MalformedDatum("inertia values must be reduced to [1, m-1]; use validate()")
        if sum(a) % m != 0:
            raise UnbalancedInertia("inertia values must sum to 0 mod m")
        g = 0
        for x in a:
            g = gcd(g, x % m)
        if gcd(g, m) != 1:
            raise DisconnectedCover(f"gcd of inertia values with m is {gcd(g, m)}, cover is disconnected")

    @property
    def N(self) -> int:
        return len(self.a)


def validate(m: int, a) -> MonodromyDatum:
    """Normalize raw inertia values into [1, m-1] and enforce the datum
    invariants, the modulus first since the reduction divides by it.  m and
    the values must be ints: int() would truncate a float, parse a str and
    take a bool."""
    a = tuple(a)
    for v in (m, *a):
        if type(v) is not int:
            what = f"{type(v).__name__} {v!r}"
            raise MalformedDatum(f"m and the inertia values must be ints, not {what}")
    if m not in SUPPORTED_MODULI:
        raise UnsupportedModulus(f"modulus {m} is outside the supported list")
    return MonodromyDatum(m, tuple(x % m for x in a))


def genus(datum: MonodromyDatum) -> int:
    """Genus of the (smooth) cover curve."""
    m, a = datum.m, datum.a
    tot = (datum.N - 2) * m - sum(gcd(x, m) for x in a)
    if tot % 2:
        raise InvariantViolation(f"Riemann-Hurwitz count {tot} is odd")
    return 1 + tot // 2


class Signature(Record):
    """f(n) = dimension of the zeta^n eigenspace of holomorphic
    differentials, indexed by all residues n mod m (f(0) = 0)."""

    __slots__ = ("m", "values")
    m: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.values) == self.m and self.values[0] == 0):
            raise InvariantViolation(
                f"signature needs {self.m} values starting with f(0) = 0, got {self.values}"
            )

    def __getitem__(self, n: int) -> int:
        return self.values[n % self.m]

    def total(self) -> int:
        return sum(self.values)

    def cm_type_members(self) -> frozenset[int]:
        """Residues coprime to m with f(n) = 1 (meaningful for 3-point data)."""
        return frozenset(n for n in units_mod(self.m) if self.values[n] == 1)


@lru_cache(maxsize=None)
def _signature_columns(m: int) -> tuple[tuple[int, ...], ...]:
    """Column x holds (-n * x) mod m for n = 0, ..., m-1: the summand of
    one inertia value x in every value of signature(), once per modulus."""
    return tuple(tuple((-n * x) % m for n in range(m)) for x in range(m))


def signature(datum: MonodromyDatum) -> Signature:
    """Eigenspace dimensions by the fractional-part formula
    f(n) = sum_i <-n a(i) / m> - 1, in integers: m <x / m> = x mod m."""
    m = datum.m
    sums = map(sum, zip(*map(_signature_columns(m).__getitem__, datum.a)))
    next(sums)  # f(0) = 0
    vals = [0]
    for n, s in enumerate(sums, 1):
        if s % m:
            raise InvariantViolation(f"signature value {s}/{m} at n = {n} is not integral")
        vals.append(s // m - 1)
    return Signature(m, tuple(vals))


def galois_act(i: int, datum: MonodromyDatum) -> MonodromyDatum:
    """sigma_i sends the family with inertia a to the one with i^-1 * a."""
    m = datum.m
    if gcd(i, m) != 1:
        raise ValueError(f"{i} is not a unit mod {m}")
    inv = pow(i, -1, m)
    return MonodromyDatum(m, tuple((inv * x) % m for x in datum.a))


def cm_algebra_check(triple: MonodromyDatum) -> tuple[int, ...]:
    """Divisors d > 1 of m dividing no inertia value of the triple.  The
    Jacobian of the 3-point cover has CM by the product of Q(zeta_d) over
    these d; a singleton {m} is the maximal-order single-field case."""
    if triple.N != 3:
        raise ValueError("cm_algebra_check needs a 3-point datum")
    m = triple.m
    return tuple(
        d for d in range(2, m + 1) if m % d == 0 and all(x % d != 0 for x in triple.a)
    )


class DegenerationTree(Record):
    """Result of degenerating an N-point family into r = N-2 three-point
    covers joined along a tree.  merge_pairs records the index pair fused at
    each step (indices into that step's inertia vector); merged_values the
    inserted inertia of the new node."""

    __slots__ = ("base", "triples", "merge_pairs", "merged_values")
    base: MonodromyDatum
    triples: tuple[MonodromyDatum, ...]
    merge_pairs: tuple[tuple[int, int], ...]
    merged_values: tuple[int, ...]


@lru_cache(maxsize=4096)
def _join_is_preferred(m: int, x: int, y: int) -> bool:
    # Prefer joining inertia values x, y when the component they form stays
    # inside the single-field maximal-order case with a simple CM-type; ties
    # are broken lexicographically by the caller.  Simple components make
    # the Hermitian-form argument unconditional, and this reproduces the
    # published degenerations.  The answer depends on (m, x, y) alone.
    from .cmfield import cm_type_from_triple, is_simple

    try:
        triple = _component_triple(m, x, y)
    except NonMaximalOrder:
        return False
    return is_simple(cm_type_from_triple(triple)).simple


@lru_cache(maxsize=4096)
def _component_triple(m: int, x: int, y: int) -> MonodromyDatum:
    """The component (x, y, -(x + y) mod m) a join emits, checked once per key:
    NonMaximalOrder unless its CM algebra is the single field Q(zeta_m); a
    failing triple raises again on every call, as lru_cache keeps no errors."""
    t = MonodromyDatum(m, (x, y, -(x + y) % m))
    if cm_algebra_check(t) != (m,):
        raise NonMaximalOrder(
            f"component {t.a} has CM algebra indexed by {cm_algebra_check(t)}; "
            "the mu_m-action does not extend to a single maximal order"
        )
    return t


@lru_cache(maxsize=None)
def _admissible(m: int) -> tuple[tuple[bool, ...], ...]:
    """Row x, column y: whether inertia values x and y join at a single
    node, gcd(x + y, m) == 1; once per modulus."""
    return tuple(tuple(gcd(x + y, m) == 1 for y in range(m)) for x in range(m))


def _choose_pair(m: int, a: list[int]) -> tuple[int, int] | None:
    """The lexicographically least admissible pair of a that is preferred,
    else the first admissible pair, else None.  Pairs are read off the
    admissibility table in lexicographic order, and only admissible ones
    are asked whether they are preferred, up to the first that is."""
    admissible = _admissible(m)
    first = None
    n = len(a)
    for i in range(n - 1):
        x = a[i]
        row = admissible[x]
        for j in compress(range(i + 1, n), map(row.__getitem__, islice(a, i + 1, None))):
            if _join_is_preferred(m, x, a[j]):
                return i, j
            if first is None:
                first = (i, j)
    return first


def degenerate(datum: MonodromyDatum) -> DegenerationTree:
    """Fuse branch points pairwise until only 3-point covers remain.

    A pair (i, j) is admissible when gcd(a(i)+a(j), m) = 1: the two sides of
    the join meet at gcd(a(i)+a(j), m) points, so any larger gcd creates a
    cycle in the dual graph and the limit curve is not of compact type.
    Among admissible pairs the lexicographically least preferred one is
    taken (see _join_is_preferred).  Every emitted triple must have
    single-field maximal-order CM, else NonMaximalOrder.
    """
    m = datum.m
    a = list(datum.a)
    triples: list[MonodromyDatum] = []
    pairs: list[tuple[int, int]] = []
    merged: list[int] = []

    # datum was validated when it was built, and every step keeps a valid:
    # the fused value s = a(i) + a(j) mod m is a unit (that is what
    # admissible means), so s is nonzero and in [1, m-1], the cover stays
    # connected and the sum mod m is unchanged.
    while len(a) > 3:
        choice = _choose_pair(m, a)
        if choice is None:
            raise NonCompactType(
                f"no branch-point pair of {tuple(a)} joins at a single node; "
                "every degeneration of this family has a cycle in its dual graph"
            )
        i, j = choice
        s = (a[i] + a[j]) % m
        triples.append(_component_triple(m, a[i], a[j]))
        pairs.append(choice)
        merged.append(s)
        del a[j], a[i]
        a.insert(0, s)

    triples.append(_component_triple(m, a[0], a[1]))  # a[2] == -(a[0] + a[1]) % m
    return DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))
