"""Polarization elements beta: different generators, unit sign solving,
construction of beta for a CM-type, the three polarization conditions, and
the record of an entry xi = 1/beta of the Hermitian form: its CM-type,
signature column, its Gram cell's trace row and that cell's determinant."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul

from ._record import Record
from .cmfield import CMType
from .cyclotomic import Cyclo, _poly_divmod_monic, element_str, modulus
from .embeddings import SignVector, certified_sign_im, certified_signs_real, is_totally_positive
from .errors import (
    Indeterminate, InvariantViolation, NonIntegralForm, NotRealElement, Unsatisfiable,
    UnsupportedModulus,
)

__all__ = [
    "ConditionReport",
    "DifferentGenerator",
    "Entry",
    "PolarizedCMPoint",
    "beta0",
    "beta_for_type",
    "entry_cm_type",
    "equivalent_beta",
    "gram_determinant",
    "has_independent_signs",
    "hermitian_entry",
    "verify_conditions",
]

class DifferentGenerator(Record):
    """Generator beta0 of the different D_{F/Q}, purely imaginary
    (beta0 = -conj(beta0)), with its inverse, certified by element *
    inverse = 1."""

    __slots__ = ("m", "element", "inverse")
    m: int
    element: Cyclo
    inverse: Cyclo

    def __post_init__(self):
        if not self.element.is_integral:
            raise InvariantViolation(f"different generator for m = {self.m} is not integral")
        if self.element != -self.element.conj():
            raise InvariantViolation(
                f"different generator for m = {self.m} is not purely imaginary"
            )
        if self.element * self.inverse != 1:
            raise InvariantViolation(f"given inverse of beta0 for m = {self.m} does not invert it")


def beta0(m: int) -> DifferentGenerator:
    """Different generator of modulus m with its inverse, read off _constants(m)."""
    return _constants(m).beta0


def _different_generator(m: int) -> DifferentGenerator:
    """beta0 = s zeta^(1-h) Phi_m'(zeta) and 1/beta0 = s zeta^h g(zeta)/m,
    with h = phi(m)/2 and g = (x^m - 1)/Phi_m.  Z[zeta] = Z[x]/(Phi_m) is
    monogenic, so Phi_m'(zeta) generates the different (Washington,
    Introduction to Cyclotomic Fields, Prop. 2.1); differentiating
    x^m - 1 = Phi_m g at zeta gives Phi_m'(zeta) g(zeta) = m zeta^-1.
    Phi_m is palindromic of degree 2h, so zeta^(1-h) Phi_m'(zeta) is
    purely imaginary.  The sign s is 1 for squarefree m and -1 otherwise:
    it keeps beta0, and so every beta built on it, the classical closed
    form at odd primes, 2^k, 3^k and products of two odd primes, e.g.
    sum_{k<p} k zeta^(k-(p-1)/2) at a prime p, -(m/2) i at m = 2^k and
    -3^(k-1) sqrt(-3) at m = 3^k."""
    facts = modulus(m)
    h = facts.phi // 2
    s = 1 if all(m % (p * p) for p in range(2, m)) else -1
    g, _ = _poly_divmod_monic([-1] + [0] * (m - 1) + [1], facts.poly)
    element, inverse = [0] * m, [0] * m  # lifts mod x^m - 1, as zeta^m = 1
    for j, c in enumerate(facts.poly):  # zeta^(1-h) Phi_m'(zeta) = sum_j j c_j zeta^(j-h)
        element[(j - h) % m] += s * j * c
    for j, c in enumerate(g):
        inverse[(j + h) % m] += s * c
    return DifferentGenerator(m, Cyclo(m, element), Cyclo(m, inverse, m))


def _closed_form_units(m: int) -> list[tuple[Cyclo, Cyclo]]:
    """(g, g^-1) for generators g of a finite-index, sign-surjectivity-
    preserving subgroup of the units of the real subfield F_0, both from
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


class _Constants(Record):
    """Per-modulus constants of polarization: beta0 and the signs of
    Im(sigma_n(beta0)) at modulus(m).reps, the unit generators, their
    inverses, their sign vectors, the span of the sign rows and its rank.
    A sign row is a bit mask, bit j set for a negative sign at column j;
    span[row] is the bit mask of generators whose product realizes the
    row, or None when no product does, and 2^rank rows are realized."""

    __slots__ = ("beta0", "beta0_signs", "gens", "inverses", "signs", "span", "rank")
    beta0: DifferentGenerator
    beta0_signs: SignVector
    gens: tuple[Cyclo, ...]
    inverses: tuple[Cyclo, ...]
    signs: tuple[SignVector, ...]
    span: tuple[int | None, ...]
    rank: int


@lru_cache(maxsize=64)
def _constants(m: int) -> _Constants:
    """Build the constants of modulus m once.  beta0's signs are certified
    at the complex embeddings, none of them 0.  Each unit generator g is
    certified a real unit by g * g^-1 = 1 with both factors integral, so
    no inversion and no norm is needed; its signs are then certified at
    the real embeddings.  The span is the XOR closure of the sign rows,
    each reached row keeping the first generator mask that reached it."""
    reps = modulus(m).reps
    b0 = _different_generator(m)
    b0_signs = tuple(certified_sign_im(b0.element, n) for n in reps)
    if 0 in b0_signs:
        raise InvariantViolation(f"beta0 has an embedding sign 0 mod {m}")
    pairs = _closed_form_units(m)
    signs = []
    for g, h in pairs:
        if not (g.is_integral and h.is_integral and g * h == 1):
            raise InvariantViolation(f"generator {g!r} is not a real unit")
        try:
            signs.append(certified_signs_real(g, reps))
        except NotRealElement:
            raise InvariantViolation(f"generator {g!r} is not a real unit") from None
    gens = tuple(g for g, _ in pairs)
    span: list[int | None] = [None] * (1 << len(reps))
    span[0], reached = 0, [0]
    for i, s in enumerate(signs):
        bits = _signs_to_bits(s)
        for row in reached[:]:
            if span[row ^ bits] is None:
                span[row ^ bits] = span[row] | 1 << i
                reached.append(row ^ bits)
    rank = len(reached).bit_length() - 1
    return _Constants(
        b0, b0_signs, gens, tuple(h for _, h in pairs), tuple(signs), tuple(span), rank
    )


def has_independent_signs(m: int) -> bool:
    """Whether units of the real subfield realize every sign pattern, read
    off the span of the unit generators of modulus m: then the
    totally-positive-unit test for beta-equivalence is exact."""
    return _constants(m).rank == len(modulus(m).reps)


def _signs_to_bits(signs: SignVector) -> int:
    bits = 0
    for j, s in enumerate(signs):
        if s not in (-1, 1):
            raise InvariantViolation(f"sign {s} is not +-1")
        if s < 0:
            bits |= 1 << j
    return bits


def _solve_combo(target: SignVector, m: int) -> int:
    """Bit mask of the unit generators of modulus m whose product has the
    sign vector target, looked up in the span of _constants(m); raises
    Unsatisfiable, with the cokernel dimension, when no product has it."""
    ncols = len(modulus(m).reps)
    if len(target) != ncols:
        raise ValueError(f"target has {len(target)} components, expected {ncols}")
    if any(s not in (-1, 1) for s in target):
        raise ValueError(f"target {target} has an entry other than +-1")
    table = _constants(m)
    combo = table.span[_signs_to_bits(target)]
    if combo is None:
        raise Unsatisfiable(
            f"sign pattern {target} not realized by units for m = {m}",
            cokernel_dim=ncols - table.rank,
        )
    return combo


class ConditionReport(Record):
    """The three polarization conditions for (beta, Phi)."""

    __slots__ = ("generates_different", "antisymmetric", "signs_negative")
    generates_different: bool
    antisymmetric: bool
    signs_negative: bool

    def all_pass(self) -> bool:
        return self.generates_different and self.antisymmetric and self.signs_negative


def verify_conditions(beta: Cyclo, phi: CMType, *, inverse: Cyclo | None = None) -> ConditionReport:
    """(1) beta generates D_{F/Q}, tested as beta/beta0 being a unit;
    (2) beta = -conj(beta), exact; (3) Im(sigma_n(beta)) < 0 for n in Phi,
    certified.

    Given beta's inverse, (1) needs no norm: an element of Z[zeta_m] is a
    unit exactly when its inverse is integral too, so (1) holds when
    beta/beta0 and inverse * beta0 are integral with product 1.  A wrong
    inverse fails (1).  Without it, (1) takes the norm of beta/beta0."""
    if beta.m != phi.m:
        raise ValueError("beta and Phi live over different moduli")
    b0 = beta0(beta.m)
    ratio = beta * b0.inverse
    if inverse is None:
        generates = ratio.is_integral and ratio.is_unit()
    else:
        back = inverse * b0.element
        generates = ratio.is_integral and back.is_integral and ratio * back == 1
    anti = beta == -beta.conj()
    signs = all(certified_sign_im(beta, n) == -1 for n in sorted(phi.members))
    return ConditionReport(generates, anti, signs)


def entry_cm_type(xi: Cyclo) -> CMType:
    """CM-type carried by a diagonal entry: n with Im(sigma_n(1/xi)) < 0,
    equivalently Im(sigma_n(xi)) > 0.  Signs are certified at one n per
    conjugate pair: sigma_(m-n) is the complex conjugate of sigma_n, so
    sign(Im sigma_(m-n)(xi)) = -sign(Im sigma_n(xi))."""
    m = xi.m
    members = set()
    for n in modulus(m).reps:
        s = certified_sign_im(xi, n)
        if s == 1:
            members.add(n)
        elif s == -1:
            members.add(m - n)
    return CMType(m, frozenset(members))


def _entry_column(phi: CMType, m: int) -> tuple[int, ...]:
    """What an entry of CM-type phi over Q(zeta_d), d = phi.m, adds to the
    signature of a datum over Q(zeta_m): 1 at each residue n mod m of exact
    order d, n = (m/d) t with t a unit mod d, whose local index n mod d is
    in phi; 0 elsewhere."""
    d = phi.m
    values = [0] * m
    for t in modulus(d).units:
        n = m // d * t
        if n % d in phi.members:
            values[n] = 1
    return tuple(values)


def _gram_traces(xi: Cyclo) -> tuple[int, ...]:
    """Trace row of the entry xi: tr(xi zeta^k) = sum_i c_i tr(zeta^(i+k))
    / den for k = phi - 1 down to 1 - phi, over the coefficients c_i of xi,
    read off the trace table of the modulus; row a of the cell of xi,
    (a, b) -> tr(xi zeta^(a-b)), is its window of phi at phi - 1 - a.
    Raises NonIntegralForm when a value is not a rational integer and
    InvariantViolation when the cell is not skew."""
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
    if values != [-v for v in reversed(values)]:
        raise InvariantViolation(
            f"pairing is not skew on the cell of entry {element_str(xi)} at modulus {m}"
        )
    return tuple(reversed(values))


class _SkewCell(tuple):
    """Rows laid out from a certified trace row: gram_determinant skips their skew check."""

    __slots__ = ()


def gram_determinant(gram: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a skew-symmetric integer matrix, the square of
    its Pfaffian; any other matrix raises ValueError.

    Fraction-free Pfaffian elimination over the upper triangle, two
    indices per step: with pivot p = b[k][k+1] and the previous pivot q
    (1 at the first step), b[i][j] <- (p b[i][j] - b[k][i] b[k+1][j]
    + b[k+1][i] b[k][j]) / q for k+1 < i < j, a division that is exact by
    the Pfaffian analogue of Sylvester's identity (Knuth, Overlapping
    Pfaffians, Electron. J. Combin. 3(2), 1996).  A zero pivot swaps
    index k+1 with the first j where b[k][j] != 0, which flips the
    Pfaffian's sign; with no such j the Pfaffian is 0.  The last pivot is
    the Pfaffian.  Row i is held as b[i][n-1], ..., b[i][i+1], so the
    entries of rows k and k+1 in the columns of row i are their first
    n-1-i entries."""
    n = len(gram)
    # b + b^T = 0, a row and its column at a time, no Python loop; a _SkewCell is certified
    sums = map(any, map(map, repeat(add), gram, zip(*gram)))
    if type(gram) is not _SkewCell and (not set(map(len, gram)) <= {n} or any(sums)):
        raise ValueError("gram_determinant takes a skew-symmetric matrix")
    if n % 2:
        return 0
    rows = [list(row[:i:-1]) for i, row in enumerate(gram)]
    q = 1
    for k in range(0, n, 2):
        top, nxt = rows[k], rows[k + 1]
        p = top[-1]
        if p == 0:
            j = next((j for j in range(k + 2, n) if top[n - 1 - j]), None)
            if j is None:
                return 0
            # swap index s = k + 1 with j in the upper triangle: b[k][s] and
            # b[k][j] trade places, b[s][x] and b[x][j] trade places negated
            # for s < x < j, b[s][j] is negated, and the entries right of j
            # of rows s and j trade places
            s, lead = k + 1, nxt
            top[-1], top[n - 1 - j] = top[n - 1 - j], top[-1]
            for x in range(s + 1, j):
                mid = rows[x]
                lead[n - 1 - x], mid[n - 1 - j] = -mid[n - 1 - j], -lead[n - 1 - x]
            lead[n - 1 - j] = -lead[n - 1 - j]
            lead[:n - 1 - j], rows[j] = rows[j], lead[:n - 1 - j]
            p = top[-1]
        for i in range(k + 2, n):
            x, y = top[n - 1 - i], nxt[n - 1 - i]
            if q == 1:
                rows[i] = [p * v - x * w + y * u for v, w, u in zip(rows[i], nxt, top)]
            else:
                rows[i] = [(p * v - x * w + y * u) // q for v, w, u in zip(rows[i], nxt, top)]
        q = p
    return q * q


class _Made:
    """Slots of the values an Entry makes when they are first read; they
    are not fields of the record."""

    __slots__ = ("_traces", "_det")


class Entry(Record, _Made):
    """A diagonal entry xi of a Hermitian form with what it gives the form:
    its CM-type phi, certified on the embeddings of xi itself, and column,
    what it adds to the signature of a form over Q(zeta_m), m = xi.m.  The
    trace row of xi's Gram cell and that cell's determinant are made when
    first read, so an entry whose traces are not integral still has its
    CM-type, and its trace row raises on every read."""

    __slots__ = ("xi", "phi", "column")
    xi: Cyclo
    phi: CMType
    column: tuple[int, ...]

    @property
    def traces(self) -> tuple[int, ...]:
        """The trace row of the Gram cell of xi on Z[zeta_m], made by _gram_traces."""
        try:
            return self._traces
        except AttributeError:
            traces = _gram_traces(self.xi)
            object.__setattr__(self, "_traces", traces)
            return traces

    @property
    def det(self) -> int:
        """The determinant of the cell."""
        try:
            return self._det
        except AttributeError:
            t, h = self.traces, len(self.xi.num) - 1  # row a is the window at phi - 1 - a
            det = gram_determinant(_SkewCell(t[h - a:len(t) - a] for a in range(h + 1)))
            object.__setattr__(self, "_det", det)
            return det


@lru_cache(maxsize=4096)
def hermitian_entry(xi: Cyclo) -> Entry:
    """The Entry of xi with its certified CM-type, built once per entry:
    an assembled entry and an equal fixture entry are one record, whatever
    precision a report is rendered at."""
    phi = entry_cm_type(xi)
    return Entry(xi, phi, _entry_column(phi, xi.m))


class PolarizedCMPoint(Record):
    """beta = u0 * beta0 realizing the polarization for the CM-type Phi, with
    the Entry of xi = 1/beta, built by beta_for_type without inversion."""

    __slots__ = ("phi", "u0", "beta", "conditions", "entry")
    phi: CMType
    u0: Cyclo
    beta: Cyclo
    conditions: ConditionReport
    entry: Entry


@lru_cache(maxsize=4096)
def beta_for_type(phi: CMType) -> PolarizedCMPoint:
    """Construct beta satisfying all three conditions for Phi by solving
    for the unit sign pattern: Im(sigma_n(u * beta0)) must be negative
    exactly at the representatives lying in Phi.  The solve picks a set of
    unit generators; u0 is their product, and xi = 1/beta is the product
    of their closed-form inverses with 1/beta0, certified by beta * xi = 1
    without any inversion, and condition (1) is certified by xi, without a
    norm; the point holds the Entry of xi.  Runs where _constants(m) has
    independent unit signs, so every pattern is solvable.  Memoized per
    Phi; the result is immutable."""
    m, reps = phi.m, modulus(phi.m).reps
    table = _constants(m)
    if not has_independent_signs(m):
        raise UnsupportedModulus(
            f"beta construction needs independent unit signs; m = {m} has rank {table.rank} of {len(reps)}"
        )
    target = tuple(-s if n in phi else s for n, s in zip(reps, table.beta0_signs))
    combo = _solve_combo(target, m)
    picked = [i for i in range(len(table.gens)) if combo >> i & 1]
    u0 = Cyclo.product(m, [table.gens[i] for i in picked])
    beta = u0 * table.beta0.element
    xi = Cyclo.product(m, [table.inverses[i] for i in picked] + [table.beta0.inverse])
    if beta * xi != 1:
        raise InvariantViolation(
            f"xi is not 1/beta for the CM-type {phi.sorted_members()} mod {m}"
        )
    report = verify_conditions(beta, phi, inverse=xi)
    if not report.all_pass():
        raise InvariantViolation(
            f"constructed beta fails its own conditions for the CM-type {phi.sorted_members()} mod {m}"
        )
    return PolarizedCMPoint(phi, u0, beta, report, hermitian_entry(xi))


def equivalent_beta(beta: Cyclo, other: Cyclo) -> bool:
    """Whether beta and other give the same polarization class: their ratio
    is a totally positive unit of the real subfield.  Exact criterion on
    the independent-signs moduli; elsewhere only sufficient, and a negative
    outcome raises Indeterminate."""
    ratio = beta / other
    ok = ratio.is_real() and ratio.is_integral and ratio.is_unit() and is_totally_positive(ratio)
    if ok:
        return True
    if has_independent_signs(beta.m):
        return False
    raise Indeterminate(
        f"totally-positive-unit test failed and is only sufficient for m = {beta.m}"
    )
