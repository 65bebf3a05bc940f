"""Polarization elements beta: different generators, unit sign solving,
construction of beta for a CM-type, and the three polarization conditions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence, Union

from .cmfield import CMType
from .cyclotomic import Cyclo, real_embedding_reps
from .embeddings import (
    DEFAULT_PRECISION,
    SignVector,
    certified_sign_im,
    is_totally_positive,
    sign_vector,
)
from .errors import Indeterminate, InvariantViolation, Unsatisfiable, UnsupportedModulus

__all__ = [
    "BETA_FOR_TYPE_MODULI",
    "INDEPENDENT_SIGNS_MODULI",
    "ALMOST_INDEPENDENT_MODULI",
    "ConditionReport",
    "DifferentGenerator",
    "PolarizedCMPoint",
    "beta0",
    "beta_for_type",
    "equivalent_beta",
    "has_independent_signs",
    "reference_different_generator",
    "reference_different_inverse",
    "sign_matrix",
    "solve_sign_pattern",
    "unit_generators",
    "verify_conditions",
]

_ODD_PRIMES = frozenset({3, 5, 7, 11, 13, 17, 19})

# Totally real subfields with units of independent signs (narrow class
# number 1): prime powers and twice odd prime powers, within the supported
# moduli.  For these, every sign pattern is hit by a unit and the
# totally-positive-unit test for beta-equivalence is exact.
INDEPENDENT_SIGNS_MODULI = frozenset({3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 25, 27, 32})

# Narrow class number 2: exactly half of all sign patterns are realized.
ALMOST_INDEPENDENT_MODULI = frozenset({21})

# Moduli where beta_for_type runs: a closed-form different generator exists
# and the sign solve is guaranteed solvable.
BETA_FOR_TYPE_MODULI = frozenset({3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 27, 32})


def has_independent_signs(m: int) -> bool:
    return m in INDEPENDENT_SIGNS_MODULI


@dataclass(frozen=True)
class DifferentGenerator:
    """Closed-form generator beta0 of the different D_{F/Q}, purely
    imaginary (beta0 = -conj(beta0))."""

    m: int
    case: str
    element: Cyclo

    def __post_init__(self):
        assert self.element.is_integral
        assert self.element == -self.element.conj()


@lru_cache(maxsize=None)
def beta0(m: int) -> DifferentGenerator:
    """Different generator by closed form.  Cases, in match order: odd
    prime; 2^k; 3^k; product of two distinct odd primes."""
    if m in _ODD_PRIMES:
        z = Cyclo.zeta(m)
        el = m / (z ** ((m + 1) // 2) - z ** ((m - 1) // 2))
        return DifferentGenerator(m, "odd-prime", el)
    if m >= 4 and m & (m - 1) == 0:
        # i = zeta_m^(m/4)
        imag = Cyclo.zeta(m, m // 4)
        return DifferentGenerator(m, "power-of-two", -(m // 2) * imag)
    k, t = 0, m
    while t % 3 == 0:
        t //= 3
        k += 1
    if t == 1 and k >= 2:
        # sqrt(-3) = zeta_3 - zeta_3^2
        root = Cyclo.zeta(m, m // 3) - Cyclo.zeta(m, 2 * m // 3)
        return DifferentGenerator(m, "power-of-three", -(3 ** (k - 1)) * root)
    for p in range(3, m, 2):
        if m % p == 0 and p != m // p and (m // p) % 2 == 1 and _is_prime(p) and _is_prime(m // p):
            q = m // p
            z = Cyclo.zeta(m)
            num = z ** ((m + 1) // 2) - z ** ((m - 1) // 2)
            d1 = z ** ((q * (p + 1) // 2) % m) - z ** ((q * (p - 1) // 2) % m)
            d2 = z ** ((p * (q + 1) // 2) % m) - z ** ((p * (q - 1) // 2) % m)
            return DifferentGenerator(m, "two-odd-primes", m * num / (d1 * d2))
    raise UnsupportedModulus(f"no closed-form different generator for m = {m}")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


@lru_cache(maxsize=None)
def reference_different_generator(m: int) -> Cyclo:
    """beta0 as an element over modulus m, built from the odd part when
    m = 2 * (odd): the field and its different are unchanged there and no
    direct closed form exists."""
    if m % 4 == 2:
        return beta0(m // 2).element.to_modulus(m)
    return beta0(m).element


@lru_cache(maxsize=None)
def reference_different_inverse(m: int) -> Cyclo:
    """1 / reference_different_generator(m), inverted once per modulus."""
    return reference_different_generator(m).inverse()


@lru_cache(maxsize=None)
def unit_generators(m: int) -> tuple[Cyclo, ...]:
    """Generators of a finite-index, sign-surjectivity-preserving subgroup
    of the units of the real subfield F_0: -1 plus cyclotomic units.

    Odd m: (zeta^a - zeta^-a)/(zeta - zeta^-1), 2 <= a <= (m-1)/2 coprime.
    m = 0 mod 4: zeta^((1-a)/2) (zeta^a - 1)/(zeta - 1) = sin(pi a/m)/sin(pi/m)
    for odd a, 1 < a < m/2 coprime (the odd-m quotient form collapses when
    a and m share no odd structure, e.g. it equals 1 at m=8, a=3).
    m = 2 mod 4: the odd-part generators, rewritten over modulus m.
    """
    minus_one = -Cyclo.one(m)
    gens = [minus_one]
    if m % 2 == 1:
        z = Cyclo.zeta(m)
        base = z - z ** (m - 1)
        for a in range(2, (m - 1) // 2 + 1):
            if gcd(a, m) == 1:
                gens.append((z**a - z ** (m - a)) / base)
    elif m % 4 == 0:
        z = Cyclo.zeta(m)
        base = z - 1
        for a in range(3, m // 2, 2):
            if gcd(a, m) == 1:
                shift = ((1 - a) // 2) % m
                gens.append(Cyclo.zeta(m, shift) * (z**a - 1) / base)
    else:
        gens = [g.to_modulus(m) for g in unit_generators(m // 2)]
    for g in gens:
        assert g.is_real() and g.is_unit(), "generator is not a real unit"
    return tuple(gens)


def sign_matrix(m: int, start_prec: int = DEFAULT_PRECISION) -> tuple[SignVector, ...]:
    """Sign vectors of the unit generators, row per generator."""
    return tuple(sign_vector(g, start_prec) for g in unit_generators(m))


def _signs_to_bits(signs: SignVector) -> int:
    bits = 0
    for j, s in enumerate(signs):
        assert s in (-1, 1)
        if s < 0:
            bits |= 1 << j
    return bits


def solve_sign_pattern(
    target: SignVector,
    gens: Sequence[Cyclo],
    start_prec: int = DEFAULT_PRECISION,
) -> Union[Cyclo, Unsatisfiable]:
    """Find a product of generators whose real-embedding sign vector equals
    target.  GF(2) elimination, columns in ascending-representative order;
    on failure returns (not raises) Unsatisfiable carrying the cokernel
    dimension."""
    if not gens:
        raise ValueError("empty generator list")
    m = gens[0].m
    ncols = len(real_embedding_reps(m))
    if len(target) != ncols:
        raise ValueError(f"target has {len(target)} components, expected {ncols}")
    rows = [(_signs_to_bits(sign_vector(g, start_prec)), 1 << i) for i, g in enumerate(gens)]

    # forward elimination, pivot by lowest free column
    pivots: dict[int, tuple[int, int]] = {}
    for bits, combo in rows:
        for col in range(ncols):
            if not bits & (1 << col):
                continue
            if col in pivots:
                pbits, pcombo = pivots[col]
                bits ^= pbits
                combo ^= pcombo
            else:
                pivots[col] = (bits, combo)
                break

    tbits = _signs_to_bits(target)
    combo = 0
    for col in range(ncols):
        if tbits & (1 << col):
            if col not in pivots:
                return Unsatisfiable(
                    f"sign pattern {target} not realized by units for m = {m}",
                    cokernel_dim=ncols - len(pivots),
                )
            pbits, pcombo = pivots[col]
            tbits ^= pbits
            combo ^= pcombo
    assert tbits == 0
    u = Cyclo.one(m)
    for i, g in enumerate(gens):
        if combo & (1 << i):
            u = u * g
    return u


@dataclass(frozen=True)
class ConditionReport:
    """The three polarization conditions for (beta, Phi)."""

    generates_different: bool
    antisymmetric: bool
    signs_negative: bool

    def all_pass(self) -> bool:
        return self.generates_different and self.antisymmetric and self.signs_negative


def verify_conditions(
    beta: Cyclo, phi: CMType, start_prec: int = DEFAULT_PRECISION
) -> ConditionReport:
    """(1) beta generates D_{F/Q}, tested as beta/beta0 being a unit;
    (2) beta = -conj(beta), exact; (3) Im(sigma_n(beta)) < 0 for n in Phi,
    certified."""
    if beta.m != phi.m:
        raise ValueError("beta and Phi live over different moduli")
    ratio = beta * reference_different_inverse(beta.m)
    generates = ratio.is_integral and ratio.is_unit()
    anti = beta == -beta.conj()
    signs = all(certified_sign_im(beta, n, start_prec) == -1 for n in sorted(phi.members))
    return ConditionReport(generates, anti, signs)


@dataclass(frozen=True)
class PolarizedCMPoint:
    """beta = u0 * beta0 realizing the polarization for the CM-type Phi."""

    phi: CMType
    u0: Cyclo
    beta: Cyclo
    conditions: ConditionReport

    def xi(self) -> Cyclo:
        return self.beta.inverse()


@lru_cache(maxsize=None)
def beta_for_type(phi: CMType, start_prec: int = DEFAULT_PRECISION) -> PolarizedCMPoint:
    """Construct beta satisfying all three conditions for Phi by solving
    for the unit sign pattern: Im(sigma_n(u * beta0)) must be negative
    exactly at the representatives lying in Phi.  Memoized per (Phi,
    start_prec); the result is immutable."""
    m = phi.m
    if m not in BETA_FOR_TYPE_MODULI:
        raise UnsupportedModulus(
            f"beta construction needs a closed-form beta0 and independent signs; m = {m} has neither or only one"
        )
    b0 = beta0(m).element
    reps = real_embedding_reps(m)
    s0 = tuple(certified_sign_im(b0, n, start_prec) for n in reps)
    assert all(s != 0 for s in s0)
    want = tuple(-1 if n in phi else 1 for n in reps)
    target = tuple(w * s for w, s in zip(want, s0))
    u0 = solve_sign_pattern(target, unit_generators(m), start_prec)
    if isinstance(u0, Unsatisfiable):
        raise u0
    beta = u0 * b0
    report = verify_conditions(beta, phi, start_prec)
    if not report.all_pass():
        raise InvariantViolation(
            f"constructed beta fails its own conditions for the CM-type {phi.sorted_members()} mod {m}"
        )
    return PolarizedCMPoint(phi, u0, beta, report)


def equivalent_beta(beta: Cyclo, other: Cyclo, start_prec: int = DEFAULT_PRECISION) -> bool:
    """Whether beta and other give the same polarization class: their ratio
    is a totally positive unit of the real subfield.  Exact criterion on
    the independent-signs moduli; elsewhere only sufficient, and a negative
    outcome raises Indeterminate."""
    ratio = beta / other
    ok = (
        ratio.is_real()
        and ratio.is_integral
        and ratio.is_unit()
        and is_totally_positive(ratio, start_prec)
    )
    if ok:
        return True
    if has_independent_signs(beta.m):
        return False
    raise Indeterminate(
        f"totally-positive-unit test failed and is only sufficient for m = {beta.m}"
    )
