"""CM-types of cyclotomic fields and simplicity of the associated abelian
varieties."""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .cyclotomic import units_mod
from .errors import InvariantViolation, SignatureNotBinary
from .monodromy import MonodromyDatum, signature

__all__ = [
    "CMType",
    "SimplicityReport",
    "cm_type_from_triple",
    "is_simple",
    "subgroups_mod",
]


class CMType(Record):
    """A choice of one embedding from each conjugate pair: subset of
    (Z/mZ)* containing exactly one of {n, m-n}."""

    __slots__ = ("m", "members")
    m: int
    members: frozenset[int]

    def __post_init__(self):
        units = set(units_mod(self.m))
        if not self.members <= units:
            raise InvariantViolation("CM-type members must be units mod m")
        for n in units:
            if (n in self.members) == ((self.m - n) in self.members):
                raise InvariantViolation(f"CM-type must contain exactly one of {n}, {self.m - n}")

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, n: int) -> bool:
        return n % self.m in self.members

    def conjugate(self) -> "CMType":
        return CMType(self.m, frozenset((self.m - n) for n in self.members))


@lru_cache(maxsize=4096)
def cm_type_from_triple(triple: MonodromyDatum) -> CMType:
    """CM-type of the Jacobian of a 3-point cover: the embeddings where the
    signature is 1.  Memoized per triple (a modulus has fewer than m^2);
    the result is immutable."""
    if triple.N != 3:
        raise ValueError("CM-types arise from 3-point covers")
    sig = signature(triple)
    bad = [n for n in units_mod(triple.m) if sig.values[n] not in (0, 1)]
    if bad:
        raise SignatureNotBinary(f"signature takes values outside {{0,1}} at {bad}")
    return CMType(triple.m, sig.cm_type_members())


@lru_cache(maxsize=None)
def subgroups_mod(m: int) -> tuple[tuple[int, ...], ...]:
    """All subgroups of (Z/mZ)*, each as a sorted tuple.  The group is
    abelian, so every subgroup is the product of its cyclic subgroups:
    start from the cyclic subgroups <g> and close under products HK."""
    cyclic = {frozenset({1})}
    for g in units_mod(m):
        h, x = [1], g
        while x != 1:
            h.append(x)
            x = (x * g) % m
        cyclic.add(frozenset(h))
    found = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        h = frontier.pop()
        for k in cyclic:
            if h <= k or k <= h:
                continue
            hk = frozenset((x * y) % m for x in h for y in k)
            if hk not in found:
                found.add(hk)
                frontier.append(hk)
    return tuple(sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t)))


class SimplicityReport(Record):
    """Whether the CM abelian variety with this type is simple.

    Non-simple iff the type is a union of cosets of some subgroup H of
    (Z/mZ)* with |H| > 1 whose fixed field is CM (i.e. m-1 not in H).
    For the simple case, separating_cosets records per eligible H one coset
    meeting both the type and its complement."""

    __slots__ = ("simple", "inducing_subgroup", "separating_cosets")
    simple: bool
    inducing_subgroup: tuple[int, ...] | None
    separating_cosets: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@lru_cache(maxsize=4096)
def is_simple(phi: CMType) -> SimplicityReport:
    """Simplicity of the CM-type with its witness.  Memoized per CM-type;
    the report is immutable."""
    m = phi.m
    separating: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for h in subgroups_mod(m):
        if len(h) == 1 or (m - 1) in h:
            continue
        witness = None
        for x in sorted(phi.members):
            coset = frozenset((x * y) % m for y in h)
            if not coset <= phi.members:
                witness = tuple(sorted(coset))
                break
        if witness is None:
            return SimplicityReport(False, h, ())
        separating.append((h, witness))
    return SimplicityReport(True, None, tuple(separating))
