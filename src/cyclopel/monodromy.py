"""Monodromy data of cyclic covers of the line: validation, genus,
signature, Galois action, degeneration into trees of 3-point covers."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ._record import Record
from .cyclotomic import SUPPORTED_MODULI, modulus
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
        return frozenset(n for n in modulus(self.m).units if self.values[n] == 1)


def signature(datum: MonodromyDatum) -> Signature:
    """Eigenspace dimensions by the fractional-part formula
    f(n) = sum_i <-n a(i) / m> - 1, in integers: m <x / m> = x mod m,
    summed over the per-modulus columns of the inertia values.  A column
    packs its m values into one int, value n in bits 64n to 64n + 63, so
    one big-int sum adds every n at once.  A field sums at most N (m - 1),
    under 2^64 for any N whose values fit in memory, so no field carries
    into the next."""
    m = datum.m
    total = sum(map(modulus(m).columns.__getitem__, datum.a))
    vals = [0]  # f(0) = 0
    for n in range(1, m):
        s = (total >> (64 * n)) & 0xFFFF_FFFF_FFFF_FFFF
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
def _join(m: int, x: int, y: int) -> tuple:
    """(triple, preferred, CM-type, simplicity) of joining inertia values x
    and y, once per key.  The triple (x, y, -(x + y) mod m) is the
    component the join emits.  Its CM-type and simplicity are None when
    its CM algebra is not the single field Q(zeta_m); degenerate raises
    NonMaximalOrder wherever it emits such a triple.  The join is preferred
    when its triple has single-field maximal-order CM with a simple
    CM-type, ties broken lexicographically by the caller: simple
    components make the Hermitian-form argument unconditional, and this
    reproduces the published degenerations."""
    from .cmfield import cm_type_from_triple, is_simple

    t = MonodromyDatum(m, (x, y, -(x + y) % m))
    if cm_algebra_check(t) != (m,):
        return t, False, None, None
    phi = cm_type_from_triple(t)
    simplicity = is_simple(phi)
    return t, simplicity.simple, phi, simplicity


def _emit(m: int, x: int, y: int) -> MonodromyDatum:
    """The triple of the join of x and y; NonMaximalOrder unless its CM
    algebra is the single field Q(zeta_m)."""
    t, _, phi, _ = _join(m, x, y)
    if phi is None:
        raise NonMaximalOrder(
            f"component {t.a} has CM algebra indexed by {cm_algebra_check(t)}; "
            "the mu_m-action does not extend to a single maximal order"
        )
    return t


def _choose_pair(m: int, a: list[int]) -> tuple[int, int] | None:
    """The lexicographically least admissible pair of a that is preferred,
    else the least admissible pair, else None.  Both relations depend on
    the two values alone and are symmetric, so either pair (i, j) has i at
    the first position of its value and j at the first position after i
    of its own value.  So i visits the distinct values in order of first
    position, each asked only about the distinct values after it, in
    order of their first position after i, and the first value with a
    preferred partner ends the search: a step scans a once per distinct
    value it visits, not once per position.  The adjacent pair (0, 1) is
    the least of all, so when it is preferred no scan is needed."""
    admissible = modulus(m).admissible
    if admissible[a[0]][a[1]] and _join(m, a[0], a[1])[1]:
        return 0, 1
    first, seen, i = None, set(), 0
    while True:
        x = a[i]
        seen.add(x)
        row = admissible[x]
        later = dict.fromkeys(a[i + 1:])
        for y in later:
            if row[y]:
                if _join(m, x, y)[1]:
                    return i, a.index(y, i + 1)
                if first is None:
                    first = i, a.index(y, i + 1)
        # the values not seen yet first occur after i, in the order of later
        x = next((y for y in later if y not in seen), None)
        if x is None:
            return first
        i = a.index(x, i + 1)


def degenerate(datum: MonodromyDatum) -> DegenerationTree:
    """Fuse branch points pairwise until only 3-point covers remain.

    A pair (i, j) is admissible when gcd(a(i)+a(j), m) = 1: the two sides of
    the join meet at gcd(a(i)+a(j), m) points, so any larger gcd creates a
    cycle in the dual graph and the limit curve is not of compact type.
    Among admissible pairs the lexicographically least preferred one is
    taken (see _join).  Every emitted triple must have
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
        triples.append(_emit(m, a[i], a[j]))
        pairs.append(choice)
        merged.append(s)
        del a[j], a[i]
        a.insert(0, s)

    triples.append(_emit(m, a[0], a[1]))  # a[2] == -(a[0] + a[1]) % m
    return DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))
