"""Certified complex embeddings of cyclotomic elements.

sigma_n sends zeta_m to exp(2 pi i n / m).  Signs are certified in integer
fixed point: for each (m, prec) a table holds integer bounds
lo <= 2^prec cos(2 pi k / m) <= hi, and the same for sin, at every residue
k, so den * 2^prec * Im(sigma_n(x)) (or Re) lies in an exact integer
interval.  A sign is certified when that interval excludes 0; otherwise the
precision doubles, from DEFAULT_PRECISION up to PRECISION_CAP.  Zero is
decided exactly, and only when the interval at DEFAULT_PRECISION contains
0.  The tables come from integers alone: pi by Machin's formula, cos and
sin by their Taylor series and angle addition, each value a ball
(midpoint, radius) whose radius counts every truncation.

embed() encloses sigma_n(x) in a rectangle with exact dyadic endpoints at a
given precision, for decimal rendering only, by Horner's rule on an
enclosure of the root in a plain-integer interval kernel: a value is a pair
(M, E) meaning M * 2^E, and each result is rounded outward once.  The enclosures of zeta_m at the
default precision are committed as integer literals; any other root is
computed, once, by the interval library the literals were taken from, which
is imported only then.  No shared numeric state is read or written.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from ._record import Record
from .cyclotomic import Cyclo, modulus
from .errors import InvariantViolation, NotRealElement, PrecisionExhausted

__all__ = [
    "DEFAULT_PRECISION",
    "PRECISION_CAP",
    "ComplexInterval",
    "SignVector",
    "certified_sign_im",
    "certified_signs_real",
    "embed",
    "is_totally_positive",
]

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096


class ComplexInterval(Record):
    """Axis-aligned rectangle with exact dyadic rational endpoints."""

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")
    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def __post_init__(self):
        if not (self.re_lo <= self.re_hi and self.im_lo <= self.im_hi):
            raise InvariantViolation("interval endpoints are out of order")


SignVector = tuple[int, ...]


# Extra bits of the fixed-point balls each trig table is rounded from.
_TRIG_GUARD_BITS = 32


def _pi_ball(w: int) -> tuple[int, int]:
    """(P, r) with |2^w pi - P| <= r, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).  The j-th term of atan(1/x) is
    2^w / x^(2j+1) / (2j+1), each truncation off by less than 3, and the
    series stops at the first power that truncates to 0, which bounds the
    alternating tail by 2."""
    total = radius = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, j, s = (1 << w) // x, 0, 0
        while power:
            s += -(power // (2 * j + 1)) if j & 1 else power // (2 * j + 1)
            power //= x * x
            j += 1
        total += weight * s
        radius += abs(weight) * (3 * j + 2)
    return total, radius


def _cos_sin(t: int, r: int, w: int) -> tuple[int, int, int]:
    """(c, s, radius): |2^w cos(x) - c| and |2^w sin(x) - s| are at most
    radius for every x within r / 2^w of t / 2^w, for 0 < t < 4 * 2^w.

    Taylor series at x = t / 2^w, cos and sin taking turns: the n-th term
    v is 2^w x^n / n! within rv.  Past n = 2x each term is at most half the
    one before, so the first term that truncates to 0 bounds the tail by
    its rv; the Lipschitz bound 1 of cos and sin adds r."""
    c = v = 1 << w
    s = n = rv = 0
    while v or n << w < 2 * t:
        n += 1
        v = (v * t >> w) // n
        rv = (rv * t >> w) // n + 4
        if n & 1:
            s += -v if n & 2 else v
        else:
            c += -v if n & 2 else v
        r += rv
    return c, s, r + rv


@lru_cache(maxsize=256)
def _trig_table(m: int, prec: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(cos, sin), each a pair (sums, widths): for integer bounds
    lo <= 2^prec cos(2 pi k / m) <= hi, sums[k] = lo + hi and
    widths[k] = hi - lo, and the same for sin, rounded outward from balls
    at prec + _TRIG_GUARD_BITS bits whose radius stays under half a unit
    of 2^-prec, so hi - lo <= 2.  Both lists run over k < m^2, residue
    k mod m at index k, so that the entries at i * n mod m for i < phi(m)
    and 0 < n < m are the slice [:phi(m) * n:n].  pi is computed once;
    the angles 2 pi k / m for k <= m/2 step by angle addition from k = 1.
    Residues above m/2 are mirrored: cos(2 pi (m-k) / m) = cos(2 pi k / m)
    and sin(2 pi (m-k) / m) = -sin(2 pi k / m)."""
    g = _TRIG_GUARD_BITS
    w = prec + g
    pi, r_pi = _pi_ball(w)
    c1, s1, r1 = _cos_sin(2 * pi // m, 2 * r_pi // m + 2, w)
    c, s, r = 1 << w, 0, 0
    cos, sin = [(1 << prec, 1 << prec)], [(0, 0)]
    for _ in range(m // 2):
        c, s, r = (
            (c * c1 - s * s1) >> w,
            (s * c1 + c * s1) >> w,
            ((abs(c) + abs(s)) * r1 + (abs(c1) + abs(s1) + 2 * r1) * r >> w) + 2,
        )
        if 2 * r >= 1 << g:
            raise InvariantViolation(f"trig table for m={m} at {prec} bits is too wide")
        cos.append(((c - r) >> g, -((-c - r) >> g)))
        sin.append(((s - r) >> g, -((-s - r) >> g)))
    for k in range(m // 2 + 1, m):
        lo, hi = sin[m - k]
        cos.append(cos[m - k])
        sin.append((-hi, -lo))
    return tuple(
        (tuple(lo + hi for lo, hi in part) * m, tuple(hi - lo for lo, hi in part) * m)
        for part in (cos, sin)
    )


def _fixed_point_sign(x: Cyclo, n: int, part: int, is_zero: Callable[[], bool]) -> int:
    """Certified sign of Re (part 0) or Im (part 1) of sigma_n(x): den *
    2^prec times it lies in the integer interval [lo, hi], with
    2 lo = S - W and 2 hi = S + W for the two dot products
    S = sum_i c_i (lo_i + hi_i) and W = sum_i |c_i| (hi_i - lo_i) over
    the table entries at residues i * n, the interval of summing c_i
    [lo_i, hi_i] with the bounds swapped where c_i < 0.  It excludes 0
    exactly when |S| > W; as hi_i - lo_i <= 2, W <= 2 ||c||_1, so W is
    summed only when |S| does not exceed that.  The exact zero test
    is_zero runs only when the interval at DEFAULT_PRECISION contains 0;
    if it fails, the precision doubles until the interval excludes 0."""
    m = x.m
    if gcd(n, m) != 1:
        raise ValueError(f"sigma_{n} is not an embedding of Q(zeta_{m})")
    step = n % m
    num = x.num
    end = len(num) * step
    width_bound = 2 * sum(map(abs, num))
    prec = DEFAULT_PRECISION
    while prec <= PRECISION_CAP:
        sums, widths = _trig_table(m, prec)[part]
        mid = sum(map(mul, num, sums[:end:step]))
        if abs(mid) > width_bound or abs(mid) > sum(map(mul, map(abs, num), widths[:end:step])):
            return 1 if mid > 0 else -1
        if prec == DEFAULT_PRECISION and is_zero():
            return 0
        prec *= 2
    part_name = "Im" if part else "Re"
    raise PrecisionExhausted(
        f"sign of {part_name}(sigma_{n}) undecided at {PRECISION_CAP} bits; "
        "the exact zero test already ruled out zero, so this is a bug"
    )


# The enclosure of zeta_m = exp(2 pi i / m) at DEFAULT_PRECISION that embed
# evaluates on: ((re_lo, re_hi), (im_lo, im_hi)), each endpoint M * 2^E as
# (M, E), from the interval cos and sin of the interval pi * 2 / m at 64
# bits.  Those enclosures are a few units wide, not the tightest, so they
# are data rather than recomputed; tests/test_embeddings.py regenerates them.
_ROOTS = {
    3: (((-9223372036854775811, -64), (-18446744073709551607, -65)),
        ((15975348984942515099, -64), (499229655779453597, -59))),
    4: (((-4267615245585081135, -127), (7089564414062235241, -126)),
        ((18446744073709551615, -64), (1, 0))),
    5: (((11400714819323198485, -65), (5700357409661599245, -64)),
        ((8771948077865237881, -63), (4385974038932618941, -62))),
    6: (((18446744073709551613, -65), (9223372036854775811, -64)),
        ((3993837246235628775, -62), (15975348984942515103, -64))),
    7: (((11501356807455935333, -64), (1437669600931991917, -61)),
        ((3605561316464170519, -62), (7211122632928341039, -63))),
    8: (((3260954456333195553, -62), (13043817825332782213, -64)),
        ((13043817825332782211, -64), (13043817825332782213, -64))),
    9: (((883189111956446361, -60), (14131025791303141779, -64)),
        ((11857338529639097691, -64), (5928669264819548847, -63))),
    10: (((7461864723258187525, -63), (3730932361629093763, -62)),
         ((2710681029835013083, -62), (5421362059670026167, -63))),
    11: (((15518388621240814939, -64), (15518388621240814941, -64)),
         ((9973062795404532203, -64), (9973062795404532205, -64))),
    13: (((8166890346874381177, -63), (16333780693748762355, -64)),
         ((8572629419813891793, -64), (17145258839627783589, -65))),
    16: (((17042569291174129989, -64), (8521284645587064995, -63)),
         ((3529631669043774883, -63), (7059263338087549767, -64))),
    17: (((17201076571663533935, -64), (1075067285728970871, -60)),
         ((6663732564914827773, -64), (13327465129829655549, -65))),
    19: (((17447248598153497357, -64), (8723624299076748679, -63)),
         ((11979296018576264355, -65), (5989648009288132179, -64))),
    21: (((17627206992133499897, -64), (8813603496066749949, -63)),
         ((2718636633379786319, -63), (5437273266759572639, -64))),
    25: (((17867205687444439841, -64), (8933602843722219921, -63)),
         ((9175037404499564299, -65), (18350074808999128603, -66))),
    27: (((2243688712477730379, -61), (17949509699821843033, -64)),
         ((17016447787685905339, -66), (8508223893842952671, -65))),
    32: (((9046147529429926059, -63), (18092295058859852119, -64)),
         ((14395124965956408753, -66), (14395124965956408755, -66))),
}


@lru_cache(maxsize=256)
def _root(m: int, k: int, prec: int):
    """The enclosure of zeta_m^k = exp(2 pi i k / m) that embed evaluates
    on at prec bits, in the form of _ROOTS: the committed literal for k = 1
    at DEFAULT_PRECISION, else the complex interval cos(t) + i sin(t) of
    t = pi * 2k / m in a private interval context at prec."""
    if k == 1 and prec == DEFAULT_PRECISION:
        return _ROOTS[m]
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = prec
    t = (ctx.pi * (2 * k)) / m
    return tuple(
        tuple((-man if sign else man, exp) for sign, man, exp, _ in part)
        for part in ctx.mpc(ctx.cos(t), ctx.sin(t))._mpci_
    )


def _round(M: int, E: int, prec: int, up: bool) -> tuple[int, int]:
    """M * 2^E rounded to prec significant bits, up (toward +inf) or down."""
    s = M.bit_length() - prec
    if s <= 0:
        return M, E
    return (-(-M >> s) if up else M >> s), E + s


def _mul(a, b):
    """The exact interval a * b: its endpoints are two of the four endpoint
    products, picked by the signs of the endpoints."""
    ((p, e), (q, f)), ((r, g), (s, h)) = a, b
    if p >= 0:
        if r >= 0:
            return (p * r, e + g), (q * s, f + h)
        if s <= 0:
            return (q * r, f + g), (p * s, e + h)
        return (q * r, f + g), (q * s, f + h)
    if q <= 0:
        if r >= 0:
            return (p * s, e + h), (q * r, f + g)
        if s <= 0:
            return (q * s, f + h), (p * r, e + g)
        return (p * s, e + h), (p * r, e + g)
    if r >= 0:
        return (p * s, e + h), (q * s, f + h)
    if s <= 0:
        return (q * r, f + g), (p * r, e + g)
    lo = min((p * s, e + h), (q * r, f + g), key=_fraction)
    return lo, max((p * r, e + g), (q * s, f + h), key=_fraction)


def _fraction(v: tuple[int, int]) -> Fraction:
    """The exact value of (M, E)."""
    M, E = v
    return Fraction(M << E) if E >= 0 else Fraction(M, 1 << -E)


def _quo(a: tuple[int, int], b: tuple[int, int], prec: int, up: bool) -> tuple[int, int]:
    """a / b for b > 0, rounded to prec bits: the integer quotient carries
    more than prec bits, so rounding it again rounds the exact quotient."""
    (M, E), (N, F) = a, b
    k = max(0, prec + 1 + N.bit_length() - M.bit_length())
    q = -(-(M << k) // N) if up else (M << k) // N
    return _round(q, E - F - k, prec, up)


def _div(a, b, prec: int):
    """The interval a / b for an interval b > 0, rounded outward to prec
    bits: which endpoint of b divides which endpoint of a follows the signs
    of a."""
    lo, hi = a
    if lo[0] >= 0:
        return _quo(lo, b[1], prec, False), _quo(hi, b[0], prec, True)
    if hi[0] <= 0:
        return _quo(lo, b[0], prec, False), _quo(hi, b[1], prec, True)
    return _quo(lo, b[0], prec, False), _quo(hi, b[0], prec, True)


def _outward(a, prec: int):
    """The interval a rounded outward to prec bits."""
    return _round(*a[0], prec, False), _round(*a[1], prec, True)


def embed(x: Cyclo, n: int, prec: int = DEFAULT_PRECISION) -> ComplexInterval:
    """Enclosure of sigma_n(x) at the given working precision (bits), for
    rendering; signs are certified by certified_sign_im/certified_signs_real.

    Horner's rule on the root's enclosure, acc <- acc * root + c, then
    acc / den, with the roundings of complex interval arithmetic at prec:
    a product's endpoint products are exact and its difference and sum are
    rounded, each Horner step inline with no call but _mul; the quotient
    by the real den takes den^2 and den * acc rounded at prec + 20 bits,
    then their quotient at prec.  A directed rounding has one result, so
    the box is bit for bit the one any correct implementation of these
    steps gives."""
    if not 8 <= prec <= PRECISION_CAP:
        raise ValueError(f"embedding precision {prec} is outside 8..{PRECISION_CAP} bits")
    if gcd(n, x.m) != 1:
        raise ValueError(f"sigma_{n} is not an embedding of Q(zeta_{x.m})")
    if x.is_rational():
        q = x.as_fraction()
        return ComplexInterval(q, q, Fraction(0), Fraction(0))
    root_re, root_im = _root(x.m, n % x.m, prec)
    re = im = ((0, 0), (0, 0))
    for c in reversed(x.num):
        # re + i im <- (re + i im) * root + c.  Each endpoint is an exact
        # sum of two endpoint products, taken at the lesser exponent, then
        # rounded to prec bits: down at a lower endpoint, up at an upper.
        (a, e), (b, f) = _mul(re, root_re)
        (p, g), (q, h) = _mul(im, root_im)
        if e > h:  # [a - q, b - p]
            lo, lo_e = (a << (e - h)) - q, h
        else:
            lo, lo_e = a - (q << (h - e)), e
        s = lo.bit_length() - prec
        if s > 0:
            lo, lo_e = lo >> s, lo_e + s
        if f > g:
            hi, hi_e = (b << (f - g)) - p, g
        else:
            hi, hi_e = b - (p << (g - f)), f
        s = hi.bit_length() - prec
        if s > 0:
            hi, hi_e = -(-hi >> s), hi_e + s
        (i_lo, i_lo_e), (i_hi, i_hi_e) = _mul(re, root_im)
        (p, g), (q, h) = _mul(im, root_re)
        if i_lo_e > g:  # [i_lo + p, i_hi + q]
            i_lo, i_lo_e = (i_lo << (i_lo_e - g)) + p, g
        else:
            i_lo += p << (g - i_lo_e)
        s = i_lo.bit_length() - prec
        if s > 0:
            i_lo, i_lo_e = i_lo >> s, i_lo_e + s
        if i_hi_e > h:
            i_hi, i_hi_e = (i_hi << (i_hi_e - h)) + q, h
        else:
            i_hi += q << (h - i_hi_e)
        s = i_hi.bit_length() - prec
        if s > 0:
            i_hi, i_hi_e = -(-i_hi >> s), i_hi_e + s
        im = (i_lo, i_lo_e), (i_hi, i_hi_e)
        if c:  # + [c, c], c rounded outward to prec bits first
            s = max(0, c.bit_length() - prec)
            c_lo, c_hi = c >> s, -(-c >> s)
            if lo_e > s:
                lo, lo_e = (lo << (lo_e - s)) + c_lo, s
            else:
                lo += c_lo << (s - lo_e)
            s_lo = lo.bit_length() - prec
            if s_lo > 0:
                lo, lo_e = lo >> s_lo, lo_e + s_lo
            if hi_e > s:
                hi, hi_e = (hi << (hi_e - s)) + c_hi, s
            else:
                hi += c_hi << (s - hi_e)
            s_hi = hi.bit_length() - prec
            if s_hi > 0:
                hi, hi_e = -(-hi >> s_hi), hi_e + s_hi
        re = (lo, lo_e), (hi, hi_e)
    if x.den != 1:
        den = _outward(((x.den, 0), (x.den, 0)), prec)
        wp = prec + 20
        square = _outward(_mul(den, den), wp)
        re = _div(_outward(_mul(re, den), wp), square, prec)
        im = _div(_outward(_mul(im, den), wp), square, prec)
    return ComplexInterval(_fraction(re[0]), _fraction(re[1]), _fraction(im[0]), _fraction(im[1]))


def certified_sign_im(x: Cyclo, n: int) -> int:
    """Sign of Im(sigma_n(x)) in {-1, 0, +1}, certified.

    Nonzero signs are certified in fixed point with precision doubling
    from DEFAULT_PRECISION.  Zero is decided exactly, once the interval at
    DEFAULT_PRECISION contains 0: sigma_n(x) is real iff x equals its own
    conjugate (conjugation commutes with every sigma_n).
    """
    return _fixed_point_sign(x, n, 1, lambda: x == x.conj())


def certified_signs_real(x: Cyclo, ns: Sequence[int]) -> SignVector:
    """Signs of the real embeddings tau_n, n in ns, of a conjugation-fixed
    element, its reality checked once."""
    if not x.is_real():
        raise NotRealElement("element is not fixed by conjugation")
    return tuple(_fixed_point_sign(x, n, 0, x.is_zero) for n in ns)


def is_totally_positive(u: Cyclo) -> bool:
    """Whether the conjugation-fixed u is positive at every real
    embedding, its reality checked once."""
    if not u.is_real():
        raise NotRealElement("element is not fixed by conjugation")
    if u.is_zero():
        return False
    return all(_fixed_point_sign(u, n, 0, u.is_zero) > 0 for n in modulus(u.m).reps)
