"""Polarization elements beta: different generators, unit sign solving,
construction of beta for a CM-type, the three polarization conditions, and
what an entry xi = 1/beta gives the Hermitian form: CM-type, Gram cell and
signature column."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from ._record import Record
from .cmfield import CMType
from .cyclotomic import Cyclo, element_str, modulus
from .embeddings import (
    DEFAULT_PRECISION,
    SignVector,
    certified_sign_im,
    certified_sign_real,
    is_totally_positive,
)
from .errors import (
    Indeterminate, InvariantViolation, NonIntegralForm, Unsatisfiable, UnsupportedModulus
)

__all__ = [
    "BETA_FOR_TYPE_MODULI",
    "ConditionReport",
    "DifferentGenerator",
    "PolarizedCMPoint",
    "beta0",
    "beta_for_type",
    "entry_cm_type",
    "equivalent_beta",
    "gram_determinant",
    "has_independent_signs",
    "reference_different_generator",
    "reference_different_inverse",
    "solve_sign_pattern",
    "unit_generators",
    "verify_conditions",
]

# Moduli where beta_for_type runs: a closed-form different generator exists
# and the sign solve is guaranteed solvable.
BETA_FOR_TYPE_MODULI = frozenset({3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 27, 32})


class DifferentGenerator(Record, hidden=("inverse", "signs"), derived=("signs",)):
    """Closed-form generator beta0 of the different D_{F/Q}, purely
    imaginary (beta0 = -conj(beta0)), with its inverse, certified by
    element * inverse = 1, and the certified signs of Im(sigma_n(beta0)) at
    modulus(m).reps, none of them 0."""

    __slots__ = ("m", "case", "element", "inverse", "signs")
    m: int
    case: str
    element: Cyclo
    inverse: Cyclo
    signs: SignVector

    def __post_init__(self):
        if not self.element.is_integral:
            raise InvariantViolation(f"different generator for m = {self.m} is not integral")
        if self.element != -self.element.conj():
            raise InvariantViolation(
                f"different generator for m = {self.m} is not purely imaginary"
            )
        if self.element * self.inverse != 1:
            raise InvariantViolation(f"given inverse of beta0 for m = {self.m} does not invert it")
        signs = tuple(certified_sign_im(self.element, n) for n in modulus(self.m).reps)
        if 0 in signs:
            raise InvariantViolation(f"beta0 has an embedding sign 0 mod {self.m}")
        object.__setattr__(self, "signs", signs)


@lru_cache(maxsize=64)
def beta0(m: int) -> DifferentGenerator:
    """Different generator and its inverse by closed form.  Cases, in match
    order: odd prime; 2^k; 3^k; product of two distinct odd primes (the
    only case that divides)."""
    if m % 2 and _is_prime(m):
        # beta0 = m / (zeta^h - zeta^(h-1)) = sum_{k<m} k zeta^(k-h+1) with
        # h = (m+1)/2, so the coefficient of zeta^j is (j + h - 1) mod m
        h = (m + 1) // 2
        el = Cyclo(m, [(j + h - 1) % m for j in range(m)])
        inv = Cyclo(m, [0] * (h - 1) + [-1, 1], m)  # (zeta^h - zeta^(h-1)) / m
        return DifferentGenerator(m, "odd-prime", el, inv)
    if m >= 4 and m & (m - 1) == 0:
        # i = zeta_m^(m/4); 1/beta0 = i/(m/2)
        imag = Cyclo.zeta(m, m // 4)
        return DifferentGenerator(m, "power-of-two", -(m // 2) * imag, Cyclo(m, imag.num, m // 2))
    k, t = 0, m
    while t % 3 == 0:
        t //= 3
        k += 1
    if t == 1 and k >= 2:
        # sqrt(-3) = zeta_3 - zeta_3^2; 1/beta0 = sqrt(-3)/m
        root = Cyclo.zeta(m, m // 3) - Cyclo.zeta(m, 2 * m // 3)
        return DifferentGenerator(m, "power-of-three", -(3 ** (k - 1)) * root, Cyclo(m, root.num, m))
    for p in range(3, m, 2):
        if m % p == 0 and p != m // p and (m // p) % 2 == 1 and _is_prime(p) and _is_prime(m // p):
            q = m // p
            z = Cyclo.zeta(m)
            num = z ** ((m + 1) // 2) - z ** ((m - 1) // 2)
            d1 = z ** ((q * (p + 1) // 2) % m) - z ** ((q * (p - 1) // 2) % m)
            d2 = z ** ((p * (q + 1) // 2) % m) - z ** ((p * (q - 1) // 2) % m)
            el = m * num / (d1 * d2)
            return DifferentGenerator(m, "two-odd-primes", el, el.inverse())
    raise UnsupportedModulus(f"no closed-form different generator for m = {m}")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def reference_different_generator(m: int) -> Cyclo:
    """beta0 as an element over modulus m, from the odd part's record when
    m = 2 * (odd): the field and its different are unchanged there and no
    direct closed form exists."""
    return beta0(m // 2 if m % 4 == 2 else m).element.to_modulus(m)


def reference_different_inverse(m: int) -> Cyclo:
    """1 / reference_different_generator(m), read off the same beta0 record."""
    return beta0(m // 2 if m % 4 == 2 else m).inverse.to_modulus(m)


def _closed_form_units(m: int) -> list[tuple[Cyclo, Cyclo]]:
    """(g, g^-1) for every generator of unit_generators(m), both from
    closed forms (Washington, Introduction to Cyclotomic Fields, 8.1),
    with b = a^-1 mod m:

    odd m: g_a = (zeta^a - zeta^-a)/(zeta - zeta^-1) = sum_{k<a} zeta^(a-1-2k)
        and g_a^-1 = sum_{k<b} zeta^(a(b-1-2k)), for 2 <= a <= (m-1)/2;
    m = 0 mod 4: g_a = zeta^((1-a)/2) (zeta^a - 1)/(zeta - 1)
        = zeta^((1-a)/2) sum_{k<a} zeta^k and g_a^-1 = zeta^((a-1)/2)
        sum_{k<b} zeta^(ak), for odd 1 < a < m/2 (the odd-m quotient form
        collapses when a and m share no odd structure, e.g. it equals 1
        at m=8, a=3);
    m = 2 mod 4: the pairs of the odd part, rewritten over modulus m.

    Each a is coprime to m; the first pair is (-1, -1)."""
    if m % 4 == 2:
        return [(g.to_modulus(m), h.to_modulus(m)) for g, h in _closed_form_units(m // 2)]

    def power_sum(exponents) -> Cyclo:
        lift = [0] * m
        for e in exponents:
            lift[e % m] += 1
        return Cyclo(m, lift)

    pairs = [(-Cyclo.one(m), -Cyclo.one(m))]
    if m % 2 == 1:
        for a in range(2, (m - 1) // 2 + 1):
            if gcd(a, m) == 1:
                b = pow(a, -1, m)
                pairs.append(
                    (
                        power_sum(a - 1 - 2 * k for k in range(a)),
                        power_sum(a * (b - 1 - 2 * k) for k in range(b)),
                    )
                )
    else:
        for a in range(3, m // 2, 2):
            if gcd(a, m) == 1:
                b = pow(a, -1, m)
                pairs.append(
                    (
                        power_sum((1 - a) // 2 + k for k in range(a)),
                        power_sum((a - 1) // 2 + a * k for k in range(b)),
                    )
                )
    return pairs


class _UnitTable(Record):
    """Per-modulus constants of the unit sign solve: the generators, their
    inverses, their sign vectors, the span of the sign rows and its rank.
    A sign row is a bit mask, bit j set for a negative sign at column j;
    span[row] is the bit mask of generators whose product realizes the
    row, or None when no product does, and 2^rank rows are realized."""

    __slots__ = ("gens", "inverses", "signs", "span", "rank")
    gens: tuple[Cyclo, ...]
    inverses: tuple[Cyclo, ...]
    signs: tuple[SignVector, ...]
    span: tuple[int | None, ...]
    rank: int


@lru_cache(maxsize=64)
def _unit_table(m: int) -> _UnitTable:
    """Build the unit table of modulus m once.  Each generator g is
    certified a real unit by g * g^-1 = 1 with both factors integral, so
    no inversion and no norm is needed; its signs are then certified at
    the real embeddings.  The span is the XOR closure of the sign rows,
    each reached row keeping the first generator mask that reached it."""
    pairs = _closed_form_units(m)
    for g, h in pairs:
        if not (g.is_integral and h.is_integral and g * h == 1 and g.is_real()):
            raise InvariantViolation(f"generator {g!r} is not a real unit")
    gens = tuple(g for g, _ in pairs)
    reps = modulus(m).reps
    signs = tuple(
        tuple(certified_sign_real(g, n, DEFAULT_PRECISION) for n in reps) for g in gens
    )
    span: list[int | None] = [None] * (1 << len(reps))
    span[0], reached = 0, [0]
    for i, s in enumerate(signs):
        bits = _signs_to_bits(s)
        for row in reached[:]:
            if span[row ^ bits] is None:
                span[row ^ bits] = span[row] | 1 << i
                reached.append(row ^ bits)
    rank = len(reached).bit_length() - 1
    return _UnitTable(gens, tuple(h for _, h in pairs), signs, tuple(span), rank)


def unit_generators(m: int) -> tuple[Cyclo, ...]:
    """Generators of a finite-index, sign-surjectivity-preserving subgroup
    of the units of the real subfield F_0: -1 plus the cyclotomic units of
    _closed_form_units."""
    return _unit_table(m).gens


def has_independent_signs(m: int) -> bool:
    """Whether units of the real subfield realize every sign pattern, read
    off the span of unit_generators(m): then the totally-positive-unit
    test for beta-equivalence is exact."""
    return _unit_table(m).rank == len(modulus(m).reps)


def _signs_to_bits(signs: SignVector) -> int:
    bits = 0
    for j, s in enumerate(signs):
        if s not in (-1, 1):
            raise InvariantViolation(f"sign {s} is not +-1")
        if s < 0:
            bits |= 1 << j
    return bits


def _solve_combo(target: SignVector, m: int) -> int | Unsatisfiable:
    """Bit mask of the unit generators of modulus m whose product has the
    sign vector target, looked up in the span of _unit_table(m), or
    Unsatisfiable carrying the cokernel dimension."""
    ncols = len(modulus(m).reps)
    if len(target) != ncols:
        raise ValueError(f"target has {len(target)} components, expected {ncols}")
    if any(s not in (-1, 1) for s in target):
        raise ValueError(f"target {target} has an entry other than +-1")
    table = _unit_table(m)
    combo = table.span[_signs_to_bits(target)]
    if combo is None:
        return Unsatisfiable(
            f"sign pattern {target} not realized by units for m = {m}",
            cokernel_dim=ncols - table.rank,
        )
    return combo


def _product(factors: Sequence[Cyclo], combo: int, m: int) -> Cyclo:
    """The product of the factors picked by the bits of combo, 1 if none."""
    picked = [f for i, f in enumerate(factors) if combo >> i & 1]
    out = picked[0] if picked else Cyclo.one(m)
    for f in picked[1:]:
        out = out * f
    return out


def solve_sign_pattern(target: SignVector, m: int) -> Cyclo | Unsatisfiable:
    """Find a product of unit_generators(m) whose real-embedding sign
    vector equals target, columns in ascending-representative order; on
    failure returns (not raises) Unsatisfiable carrying the cokernel
    dimension."""
    combo = _solve_combo(target, m)
    if isinstance(combo, Unsatisfiable):
        return combo
    return _product(_unit_table(m).gens, combo, m)


class ConditionReport(Record):
    """The three polarization conditions for (beta, Phi)."""

    __slots__ = ("generates_different", "antisymmetric", "signs_negative")
    generates_different: bool
    antisymmetric: bool
    signs_negative: bool

    def all_pass(self) -> bool:
        return self.generates_different and self.antisymmetric and self.signs_negative


def verify_conditions(
    beta: Cyclo, phi: CMType, start_prec: int = DEFAULT_PRECISION, inverse: Cyclo | None = None
) -> ConditionReport:
    """(1) beta generates D_{F/Q}, tested as beta/beta0 being a unit;
    (2) beta = -conj(beta), exact; (3) Im(sigma_n(beta)) < 0 for n in Phi,
    certified.

    Given beta's inverse, (1) needs no norm: an element of Z[zeta_m] is a
    unit exactly when its inverse is integral too, so (1) holds when
    beta/beta0 and inverse * beta0 are integral with product 1.  A wrong
    inverse fails (1).  Without it, (1) takes the norm of beta/beta0."""
    if beta.m != phi.m:
        raise ValueError("beta and Phi live over different moduli")
    ratio = beta * reference_different_inverse(beta.m)
    if inverse is None:
        generates = ratio.is_integral and ratio.is_unit()
    else:
        back = inverse * reference_different_generator(beta.m)
        generates = ratio.is_integral and back.is_integral and ratio * back == 1
    anti = beta == -beta.conj()
    signs = all(certified_sign_im(beta, n, start_prec) == -1 for n in sorted(phi.members))
    return ConditionReport(generates, anti, signs)


def entry_cm_type(xi: Cyclo, start_prec: int = DEFAULT_PRECISION) -> CMType:
    """CM-type carried by a diagonal entry: n with Im(sigma_n(1/xi)) < 0,
    equivalently Im(sigma_n(xi)) > 0.  Signs are certified at one n per
    conjugate pair: sigma_(m-n) is the complex conjugate of sigma_n, so
    sign(Im sigma_(m-n)(xi)) = -sign(Im sigma_n(xi))."""
    m = xi.m
    members = set()
    for n in modulus(m).reps:
        s = certified_sign_im(xi, n, start_prec)
        if s == 1:
            members.add(n)
        elif s == -1:
            members.add(m - n)
    return CMType(m, frozenset(members))


def _entry_column(xi: Cyclo, m: int, start_prec: int) -> tuple[int, ...]:
    """What the entry xi adds to the signature of a datum over Q(zeta_m):
    1 at each residue n mod m of exact order d = xi.m, n = (m/d) t with t a
    unit mod d, whose local index n mod d is in the CM-type of xi certified
    on xi's own embeddings; 0 elsewhere."""
    d = xi.m
    members = entry_cm_type(xi, start_prec).members
    values = [0] * m
    for t in modulus(d).units:
        n = m // d * t
        if n % d in members:
            values[n] = 1
    return tuple(values)


def _gram_cell(xi: Cyclo) -> tuple[tuple[int, ...], ...]:
    """Cell of the entry xi: the (a, b) entry is tr(xi zeta^(a-b)) =
    sum_i c_i tr(zeta^(i+a-b)) / den over the coefficients c_i of xi, read
    off the trace table of the modulus.  Raises NonIntegralForm when a
    value is not a rational integer and InvariantViolation when the cell
    is not skew."""
    m = xi.m
    facts = modulus(m)
    d, wrapped = facts.phi, facts.traces * 2
    values = []  # tr(xi zeta^k) for k = -(d - 1), ..., d - 1
    for k in range(-(d - 1), d):
        start = k % m
        num = sum(map(mul, xi.num, wrapped[start:start + d]))
        if num % xi.den:
            raise NonIntegralForm(
                f"tr(xi * zeta^{k}) = {Fraction(num, xi.den)} is not integral for entry "
                f"{element_str(xi)} at modulus {m}"
            )
        values.append(num // xi.den)
    down = values[::-1]  # from k = d - 1: row a is k = a, ..., a - d + 1
    if values != [-v for v in down]:
        raise InvariantViolation(
            f"pairing is not skew on the cell of entry {element_str(xi)} at modulus {m}"
        )
    return tuple(tuple(down[d - 1 - a:2 * d - 1 - a]) for a in range(d))


def gram_determinant(gram: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(gram)
    if n == 0:
        return 1
    m = [list(row) for row in gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row = m[k]
        p = row[k]
        for i in range(k + 1, n):
            r = m[i]
            c = r[k]
            for j in range(k + 1, n):
                r[j] = (r[j] * p - c * row[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


class PolarizedCMPoint(Record, hidden=("_xi", "cell", "det", "column")):
    """beta = u0 * beta0 realizing the polarization for the CM-type Phi, with
    its entry xi = 1/beta, the Gram cell of xi, that cell's determinant, and
    what xi adds to the signature of a form over Q(zeta_m)."""

    __slots__ = ("phi", "u0", "beta", "conditions", "_xi", "cell", "det", "column")
    phi: CMType
    u0: Cyclo
    beta: Cyclo
    conditions: ConditionReport
    _xi: Cyclo
    cell: tuple[tuple[int, ...], ...]
    det: int
    column: tuple[int, ...]

    def xi(self) -> Cyclo:
        """The Hermitian-form entry 1/beta, built by beta_for_type without
        inversion."""
        return self._xi


@lru_cache(maxsize=4096)
def beta_for_type(phi: CMType, start_prec: int = DEFAULT_PRECISION) -> PolarizedCMPoint:
    """Construct beta satisfying all three conditions for Phi by solving
    for the unit sign pattern: Im(sigma_n(u * beta0)) must be negative
    exactly at the representatives lying in Phi.  The solve picks a set of
    unit generators; u0 is their product, and xi = 1/beta is the product
    of their closed-form inverses with 1/beta0, certified by beta * xi = 1
    without any inversion, and condition (1) is certified by xi, without a
    norm; the point also holds xi's cell and column.
    Memoized per (Phi, start_prec); the result is immutable."""
    m = phi.m
    if m not in BETA_FOR_TYPE_MODULI:
        raise UnsupportedModulus(
            f"beta construction needs a closed-form beta0 and independent signs; m = {m} has neither or only one"
        )
    b0 = beta0(m)
    target = tuple(-s if n in phi else s for n, s in zip(modulus(m).reps, b0.signs))
    table = _unit_table(m)
    combo = _solve_combo(target, m)
    if isinstance(combo, Unsatisfiable):
        raise combo
    u0 = _product(table.gens, combo, m)
    beta = u0 * b0.element
    xi = _product(table.inverses, combo, m) * b0.inverse
    if beta * xi != 1:
        raise InvariantViolation(
            f"xi is not 1/beta for the CM-type {phi.sorted_members()} mod {m}"
        )
    report = verify_conditions(beta, phi, start_prec, xi)
    if not report.all_pass():
        raise InvariantViolation(
            f"constructed beta fails its own conditions for the CM-type {phi.sorted_members()} mod {m}"
        )
    cell = _gram_cell(xi)
    column = _entry_column(xi, m, start_prec)
    return PolarizedCMPoint(phi, u0, beta, report, xi, cell, gram_determinant(cell), column)


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
