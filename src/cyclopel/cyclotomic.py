"""Exact arithmetic in cyclotomic fields Q(zeta_m) on the power basis.

Elements are vectors of big-integer coefficients over the basis
1, z, ..., z^(phi(m)-1) with z = zeta_m, together with a minimal positive
integer denominator.  All operations are exact.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from ._record import Record
from .errors import InvariantViolation, ParseError, UnsupportedModulus

__all__ = [
    "SUPPORTED_MODULI",
    "Cyclo",
    "Modulus",
    "element_str",
    "modulus",
    "parse_element",
    "relative_split",
]

# Moduli with full element arithmetic.  Class-number-sensitive operations
# (sign solving, assembly) impose their own narrower lists.
SUPPORTED_MODULI = frozenset({3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 21, 25, 27, 32})

# modulus(m) builds m x m tables, so it serves m up to the largest
# supported modulus and no further.
_MAX_MODULUS = max(SUPPORTED_MODULI)


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_monic(a: list[int], d: list[int] | tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by d, d monic with integer coefficients;
    exact over Z."""
    if not d or d[-1] != 1:
        raise InvariantViolation(f"divisor {d} is not monic")
    r = list(a)
    dd = len(d) - 1
    q = [0] * max(0, len(r) - dd)
    while len(r) > dd:
        c = r[-1]
        if c:
            off = len(r) - 1 - dd
            q[off] = c
            for j in range(dd):
                r[off + j] -= c * d[j]
        r.pop()
    return _poly_trim(q), _poly_trim(r)


# ---------------------------------------------------------------------------
# per-modulus facts


class Modulus(Record):
    """The facts of (Z/mZ)^* and Phi_m that every stage reads, built
    together by modulus(m)."""

    __slots__ = ("m", "units", "reps", "phi", "poly", "chain", "traces", "columns", "admissible",
                 "subgroups")
    m: int
    units: tuple[int, ...]  # the units of Z/mZ, ascending
    reps: tuple[int, ...]  # one n < m/2 per conjugate pair {n, m-n} of units: the real embeddings
    phi: int  # |(Z/mZ)^*|, with phi(1) = 1
    poly: tuple[int, ...]  # the coefficients of Phi_m, ascending
    chain: tuple[tuple[int, int], ...]  # the Galois chain, see _chain
    traces: tuple[int, ...]  # tr(zeta^j) for every residue j mod m
    columns: tuple[int, ...]  # x -> (-n * x) mod m for n < m in 64-bit fields, see monodromy.signature
    admissible: tuple[tuple[bool, ...], ...]  # x, y -> gcd(x + y, m) == 1: x and y join at one node
    subgroups: tuple[tuple[int, ...], ...]  # each subgroup of (Z/mZ)^* sorted, by size then entries


@lru_cache(maxsize=32)
def modulus(m: int) -> Modulus:
    """The Modulus record of m, 1 <= m <= _MAX_MODULUS, built once per
    modulus and process."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > _MAX_MODULUS:
        raise UnsupportedModulus(f"modulus {m} is above {_MAX_MODULUS}, which bounds its tables")
    units = tuple(k for k in range(1, m) if gcd(k, m) == 1)
    phi = 1 if m == 1 else len(units)
    poly = tuple(_phi_poly(m))
    # tr(zeta^j) depends on gcd(j, m) alone: zeta^j is conjugate to zeta^gcd
    by_gcd: dict[int, int] = {}
    for g in (gcd(j, m) for j in range(m)):
        if g not in by_gcd:
            acc = [0] * m
            for u in units:
                acc[(g * u) % m] += 1
            _, red = _poly_divmod_monic(acc, poly)
            if any(red[1:]):
                raise InvariantViolation(f"tr(zeta^{g}) not rational")
            by_gcd[g] = red[0] if red else 0
    return Modulus(
        m,
        units,
        tuple(n for n in units if 2 * n < m),
        phi,
        poly,
        _chain(m, units),
        tuple(by_gcd[gcd(j, m)] for j in range(m)),
        tuple(sum(((-n * x) % m) << (64 * n) for n in range(m)) for x in range(m)),
        tuple(tuple(gcd(x + y, m) == 1 for y in range(m)) for x in range(m)),
        _subgroups(m, units),
    )


def _phi_poly(m: int) -> list[int]:
    """Phi_m, by exact division of x^d - 1 by Phi_e over the proper
    divisors e of d, for each divisor d of m in ascending order."""
    polys: dict[int, list[int]] = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        num = [-1] + [0] * (d - 1) + [1]
        for e, p in polys.items():
            if d % e == 0:
                num, r = _poly_divmod_monic(num, p)
                if r:
                    raise InvariantViolation(f"Phi_{e} does not divide x^{d}-1 exactly")
        polys[d] = num
    return polys[m]


def _chain(m: int, units: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Generators g_i of (Z/m)^*, each with the order n_i of g_i modulo the
    subgroup of g_1, ..., g_(i-1), so that the n_i multiply to phi(m).
    Each takes the least unit of largest order modulo the subgroup built
    so far; on every supported modulus this needs as few multiplications
    in Cyclo._norm_and_other_conjugates as any chain."""
    sub, chain = {1}, []
    while len(sub) < len(units):
        best = (0, 0)
        for g in units:
            n, power = 1, g
            while power not in sub:
                power = power * g % m
                n += 1
            if n > best[1]:
                best = (g, n)
        g, n = best
        chain.append(best)
        sub = {h * pow(g, j, m) % m for h in sub for j in range(n)}
    return tuple(chain)


def _subgroups(m: int, units: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The subgroups of the abelian group (Z/mZ)^*: each is the product of
    its cyclic subgroups, so close the cyclic subgroups <g> under HK."""
    cyclic = {frozenset({1})}
    for g in units:
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


# ---------------------------------------------------------------------------


class Cyclo:
    """An element of Q(zeta_m): integer coefficient vector over the power
    basis plus a positive denominator in lowest terms."""

    __slots__ = ("m", "num", "den", "_hash")

    def __init__(self, m: int, num, den: int = 1):
        if m not in SUPPORTED_MODULI:
            raise UnsupportedModulus(f"modulus {m} not supported for field arithmetic")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        facts = modulus(m)
        _, coeffs = _poly_divmod_monic([int(c) for c in num], facts.poly)
        coeffs += [0] * (facts.phi - len(coeffs))
        den = int(den)
        if den < 0:
            den = -den
            coeffs = [-c for c in coeffs]
        self._store(m, coeffs, den)

    @classmethod
    def _reduced(cls, m: int, lift: list[int], den: int) -> "Cyclo":
        """The element lift / den from a vector of ints that Cyclo
        arithmetic made over a supported m, of length phi(m) or m, and a
        positive den: no int() pass and no modulus check.  A length-m lift
        over a prime m folds its top slot into the others, as Phi_m = 1 +
        x + ... + x^(m-1); other moduli divide by Phi_m."""
        facts = modulus(m)
        phi = facts.phi
        if len(lift) > phi:
            if phi == m - 1:
                top = lift[phi]
                lift = [c - top for c in lift[:phi]]
            else:
                _, lift = _poly_divmod_monic(lift, facts.poly)
                lift += [0] * (phi - len(lift))
        x = object.__new__(cls)
        x._store(m, lift, den)
        return x

    def _store(self, m: int, coeffs: list[int], den: int) -> None:
        """Set the slots to coeffs / den, phi(m) coefficients over den > 0,
        in lowest terms."""
        g = den
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            coeffs = [c // g for c in coeffs]
        if not any(coeffs):
            den = 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", tuple(coeffs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclo is immutable")

    def __reduce__(self):  # the default slot restore would call the refusing __setattr__
        return Cyclo, (self.m, self.num, self.den)

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Cyclo":
        return cls(m, [])

    @classmethod
    def one(cls, m: int) -> "Cyclo":
        return cls(m, [1])

    @classmethod
    def from_int(cls, m: int, k: int) -> "Cyclo":
        return cls(m, [k])

    @classmethod
    def from_fraction(cls, m: int, q: Fraction) -> "Cyclo":
        return cls(m, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyclo":
        k %= m
        return cls(m, [0] * k + [1])

    # predicates -------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def is_real(self) -> bool:
        return self == self.conj()

    def is_unit(self) -> bool:
        """True iff the element is integral with norm +-1."""
        return self.den == 1 and abs(self.norm()) == 1

    # arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.m != self.m:
                raise ValueError(f"modulus mismatch: {self.m} vs {other.m}")
            return other
        if isinstance(other, int):
            return Cyclo.from_int(self.m, other)
        if isinstance(other, Fraction):
            return Cyclo.from_fraction(self.m, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self.den * o.den // gcd(self.den, o.den)
        fa, fb = d // self.den, d // o.den
        n = [fa * x + fb * y for x, y in zip(self.num, o.num)]
        return Cyclo._reduced(self.m, n, d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._reduced(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Cyclo._kronecker(self.m, (self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    @classmethod
    def product(cls, m: int, factors: Sequence["Cyclo"]) -> "Cyclo":
        """The product of the factors, each over modulus m, in one
        Kronecker pass; 1 for no factors."""
        for f in factors:
            if f.m != m:
                raise ValueError(f"modulus mismatch: {m} vs {f.m}")
        if not factors:
            return cls.one(m)
        return cls._kronecker(m, [f.num for f in factors], prod(f.den for f in factors))

    @staticmethod
    def _kronecker(m: int, nums: Sequence[tuple[int, ...]], den: int) -> "Cyclo":
        """prod(nums) / den by Kronecker substitution: each coefficient
        vector is packed into one integer in signed fields of width w, the
        integers are multiplied, the product is folded mod x^m - 1 on the
        integer itself, as 2^(w m) = 1 mod 2^(w m) - 1, and only its m
        fields are unpacked; Cyclo._reduced then reduces mod Phi_m.  A
        folded coefficient is at most prod ||f_i||_1 in absolute value,
        under 2^(w - 1), so the folded product is the residue of least
        absolute value mod 2^(w m) - 1."""
        bound = 1
        for f in nums:
            bound *= sum(map(abs, f))
        bits = bound.bit_length() + 1
        p = 1
        for f in nums:
            packed = 0
            for c in reversed(f):
                packed = (packed << bits) + c
            p *= packed
        width = bits * m
        modulus_ = (1 << width) - 1
        folded = 0
        while not -1 <= p <= modulus_:
            folded += p & modulus_
            p >>= width
        folded = (folded + p) % modulus_
        if folded > modulus_ >> 1:
            folded -= modulus_
        mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
        out = []
        for _ in range(m):
            c = folded & mask
            folded >>= bits
            if c >= half:
                c -= full
                folded += 1
            out.append(c)
        return Cyclo._reduced(m, out, den)

    def inverse(self) -> "Cyclo":
        """x^-1: the reciprocal of a rational x, else prod_{u != 1}
        sigma_u(x) / N(x), inverted along the Galois chain."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return Cyclo(self.m, [self.den], self.num[0])
        norm, others = self._norm_and_other_conjugates()
        return others * (1 / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyclo.one(self.m)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        """A rational element hashes as the int or Fraction it equals."""
        if self._hash is None:
            if self.is_rational():
                h = hash(Fraction(self.num[0], self.den))
            else:
                h = hash((self.m, self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __repr__(self):
        return f"Cyclo({self.m}, {element_str(self)!r})"

    # Galois -----------------------------------------------------------

    def galois(self, i: int) -> "Cyclo":
        """Image under sigma_i: zeta -> zeta^i, gcd(i, m) = 1.  Acts on the
        degree-< m lift, then reduces."""
        i %= self.m
        if gcd(i, self.m) != 1:
            raise ValueError(f"sigma_{i} is not a field automorphism mod {self.m}")
        lift = [0] * self.m
        for a, c in enumerate(self.num):
            if c:
                lift[(a * i) % self.m] += c
        return Cyclo._reduced(self.m, lift, self.den)

    def conj(self) -> "Cyclo":
        return self.galois(self.m - 1)

    # rational trace and norm -------------------------------------------

    def trace(self) -> Fraction:
        """tr_{Q(zeta_m)/Q}."""
        tv = modulus(self.m).traces
        return Fraction(sum(c * t for c, t in zip(self.num, tv)), self.den)

    def norm(self) -> Fraction:
        """N_{Q(zeta_m)/Q}."""
        return self._norm_and_other_conjugates()[0]

    def _norm_and_other_conjugates(self) -> tuple[Fraction, "Cyclo"]:
        """(N(x), prod_{u != 1} sigma_u(x)), u over the units of Z/mZ.

        Built level by level along modulus(m).chain.  At a level (g, n)
        with input y, the prefix products P(j) = prod_{i<j} sigma_g^i(y)
        double: P(2j) = P(j) sigma_g^j(P(j)) and P(j+1) = P(j) sigma_g^j(y).
        The level's other conjugates are sigma_g(P(n-1)); their product
        with y is the next level's input, and their product over all
        levels is prod_{u != 1} sigma_u(x)."""
        m = self.m
        y, others = self, None
        for g, n in modulus(m).chain:
            p, j = y, 1
            for bit in bin(n - 1)[3:]:
                p = p * p.galois(pow(g, j, m))
                j *= 2
                if bit == "1":
                    p = p * y.galois(pow(g, j, m))
                    j += 1
            level = p.galois(g)
            others = level if others is None else others * level
            y = y * level
        if not y.is_rational():
            raise InvariantViolation("norm failed to land in Q")
        return y.as_fraction(), others

    # change of modulus --------------------------------------------------

    def to_modulus(self, big_m: int) -> "Cyclo":
        """Rewrite over Q(zeta_M) for m | M, by zeta_m = zeta_M^(M/m)."""
        if big_m % self.m:
            raise ValueError(f"no supported identification of Q(zeta_{self.m}) inside Q(zeta_{big_m})")
        if big_m == self.m:
            return self
        k = big_m // self.m
        lift = [0] * big_m
        lift[:len(self.num) * k:k] = self.num
        return Cyclo(big_m, lift, self.den)


# ---------------------------------------------------------------------------
# relative structure of Q(zeta_3m) / Q(zeta_m), m odd and coprime to 3


def relative_split(x: Cyclo) -> tuple[Cyclo, Cyclo]:
    """For x in Q(zeta_3m) (m odd, coprime to 3) return (x1, x2) over
    Q(zeta_m) with x = x1 + x2 * zeta_3.  Each zeta_3m^k is
    zeta_3^(k m^-1 mod 3) * zeta_m^(k 3^-1 mod m), and zeta_3^2 folds
    into -1 - zeta_3."""
    big = x.m
    if big % 3 != 0 or (big // 3) % 3 == 0 or big % 2 == 0:
        raise ValueError(f"modulus {big} is not 3*m with m odd and coprime to 3")
    m = big // 3
    inv_m, inv_3 = pow(m, -1, 3), pow(3, -1, m)
    x1, x2 = [0] * m, [0] * m
    for k, c in enumerate(x.num):
        a, b = k * inv_m % 3, k * inv_3 % m
        if a == 0:
            x1[b] += c
        elif a == 1:
            x2[b] += c
        else:
            x1[b] -= c
            x2[b] -= c
    return Cyclo(m, x1, x.den), Cyclo(m, x2, x.den)


def _relative_conjugator(big: int) -> int:
    """The unit t mod 3m with t = 1 mod m and t = 2 mod 3 (generator of
    Gal(Q(zeta_3m)/Q(zeta_m)))."""
    m = big // 3
    for t in modulus(big).units:
        if t % m == 1 and t % 3 == 2:
            return t
    raise InvariantViolation("no relative conjugator found")


# ---------------------------------------------------------------------------
# strings


def element_str(x: Cyclo) -> str:
    """Canonical form: integer polynomial in z over a positive denominator,
    e.g. '(2*z - 1)/3', 'z^2', '-5'."""
    terms = []
    for a in range(len(x.num) - 1, -1, -1):
        c = x.num[a]
        if c == 0:
            continue
        if a == 0:
            body = str(abs(c))
        else:
            zpart = "z" if a == 1 else f"z^{a}"
            body = zpart if abs(c) == 1 else f"{abs(c)}*{zpart}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    first_neg, first = terms[0]
    s = ("-" if first_neg else "") + first
    for neg, body in terms[1:]:
        s += (" - " if neg else " + ") + body
    if x.den != 1:
        s = (f"({s})" if len(terms) > 1 else s) + f"/{x.den}"
    return s


# One token rule: ASCII digit runs, z and the operators; any other
# non-space character is an error.  A hostile string fails with ParseError
# instead of exhausting the stack, the memory or the clock: parentheses and
# unary minus nest at most _MAX_PARSE_DEPTH levels, and before a value is
# built the string is charged its estimated bits, _MAX_PARSE_BITS in all.
# With bits(x) the width of x's widest coefficient or denominator, a
# literal costs its bits, b^e costs e*bits(b), a*b costs bits(a) + bits(b)
# and a/b costs bits(a) + phi(m)*bits(b), as b's norm becomes a denominator.
_TOKEN = re.compile(r"[0-9]+|[z+*/^()-]|(\S)")
_MAX_PARSE_DEPTH = 100
_MAX_PARSE_BITS = 4096
# a longer digit run is rejected unread: unless zero-padded, it is over budget
_MAX_DIGITS = len(str(1 << _MAX_PARSE_BITS))


def _bits(x: Cyclo) -> int:
    return max(max(map(abs, x.num)).bit_length(), x.den.bit_length())


def parse_element(s: str, m: int) -> Cyclo:
    """Parse an element expression in the variable z = zeta_m.  Accepts
    + - * / ^ parentheses and implicit multiplication, e.g. '5/(z^3-z^2)'.
    Raises ParseError on malformed input, on division by zero, on nesting
    deeper than _MAX_PARSE_DEPTH and on a string that would build more
    than _MAX_PARSE_BITS bits."""
    toks = []
    for tok in _TOKEN.finditer(s):
        if tok[1]:
            raise ParseError(f"unexpected character {tok[1]!r} in element string")
        if len(tok[0]) > _MAX_DIGITS:
            raise ParseError(f"a {len(tok[0])}-digit number is wider than {_MAX_PARSE_BITS} bits")
        toks.append(tok[0])
    toks.append("")  # end of string
    pos = spent = 0

    def take() -> str:
        nonlocal pos
        if not toks[pos]:
            raise ParseError("element string ends early")
        pos += 1
        return toks[pos - 1]

    def charge(bits: int) -> None:
        nonlocal spent
        spent += bits
        if spent > _MAX_PARSE_BITS:
            raise ParseError(f"element string would build more than {_MAX_PARSE_BITS} bits")

    def atom(depth: int) -> Cyclo:
        if depth > _MAX_PARSE_DEPTH:
            raise ParseError(f"element string nests deeper than {_MAX_PARSE_DEPTH} levels")
        tok = take()
        if tok.isdigit():
            base = Cyclo.from_int(m, int(tok))
            charge(_bits(base))
        elif tok == "z":
            base = Cyclo.zeta(m)
        elif tok == "(":
            base = expr(depth + 1)
            if toks[pos] != ")":
                raise ParseError("missing closing parenthesis")
            take()
        elif tok == "-":
            return -atom(depth + 1)
        else:
            raise ParseError(f"unexpected token {tok!r}")
        if toks[pos] == "^":
            take()
            tok = take()
            if not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            e = int(tok)
            charge(e * _bits(base))
            base = base**e
        return base

    def term(depth: int) -> Cyclo:
        out = atom(depth)
        while toks[pos] in ("*", "/", "z", "("):
            op = take() if toks[pos] in ("*", "/") else "*"
            rhs = atom(depth)
            if op == "*":
                charge(_bits(out) + _bits(rhs))
                out = out * rhs
            elif rhs.is_zero():
                raise ParseError("division by zero in element string")
            else:
                charge(_bits(out) + modulus(m).phi * _bits(rhs))
                out = out / rhs
        return out

    def expr(depth: int) -> Cyclo:
        out = term(depth)
        while toks[pos] in ("+", "-"):
            op = take()
            rhs = term(depth)
            out = out + rhs if op == "+" else out - rhs
        return out

    result = expr(0)
    if toks[pos]:
        raise ParseError("trailing tokens in element string")
    return result
