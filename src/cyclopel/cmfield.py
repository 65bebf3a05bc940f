"""CM-types of cyclotomic fields and simplicity of the associated abelian
varieties."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .cyclotomic import units_mod
from .errors import InvariantViolation, SignatureNotBinary
from .monodromy import MonodromyDatum, signature

__all__ = [
    "CMType",
    "SimplicityReport",
    "cm_type_from_triple",
    "galois_act_cm",
    "is_simple",
    "subgroups_mod",
]


@dataclass(frozen=True)
class CMType:
    """A choice of one embedding from each conjugate pair: subset of
    (Z/mZ)* containing exactly one of {n, m-n}."""

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


def cm_type_from_triple(triple: MonodromyDatum) -> CMType:
    """CM-type of the Jacobian of a 3-point cover: the embeddings where the
    signature is 1."""
    if triple.N != 3:
        raise ValueError("CM-types arise from 3-point covers")
    sig = signature(triple)
    bad = [n for n in units_mod(triple.m) if sig.values[n] not in (0, 1)]
    if bad:
        raise SignatureNotBinary(f"signature takes values outside {{0,1}} at {bad}")
    return CMType(triple.m, sig.cm_type_members())


def galois_act_cm(i: int, phi: CMType) -> CMType:
    """sigma_i sends the CM-type Phi to i * Phi."""
    if gcd(i, phi.m) != 1:
        raise ValueError(f"{i} is not a unit mod {phi.m}")
    return CMType(phi.m, frozenset((i * n) % phi.m for n in phi.members))


@lru_cache(maxsize=None)
def subgroups_mod(m: int) -> tuple[tuple[int, ...], ...]:
    """All subgroups of (Z/mZ)*, each as a sorted tuple."""
    units = units_mod(m)
    found: set[frozenset[int]] = {frozenset({1})}
    frontier = [frozenset({1})]
    while frontier:
        h = frontier.pop()
        for g in units:
            if g in h:
                continue
            new = set(h)
            stack = [g]
            while stack:
                x = stack.pop()
                if x in new:
                    continue
                new.add(x)
                stack.extend((x * y) % m for y in new.copy())
            newf = frozenset(new)
            if newf not in found:
                found.add(newf)
                frontier.append(newf)
    return tuple(sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t)))


@dataclass(frozen=True)
class SimplicityReport:
    """Whether the CM abelian variety with this type is simple.

    Non-simple iff the type is a union of cosets of some subgroup H of
    (Z/mZ)* with |H| > 1 whose fixed field is CM (i.e. m-1 not in H).
    For the simple case, separating_cosets records per eligible H one coset
    meeting both the type and its complement."""

    simple: bool
    inducing_subgroup: tuple[int, ...] | None
    separating_cosets: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def is_simple(phi: CMType) -> SimplicityReport:
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
