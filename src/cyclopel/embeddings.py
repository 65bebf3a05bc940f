"""Certified complex embeddings of cyclotomic elements.

sigma_n sends zeta_m to exp(2 pi i n / m).  Signs are certified in integer
fixed point: for each (m, prec) a table holds integer bounds
lo <= 2^prec cos(2 pi k / m) <= hi, and the same for sin, at every residue
k, so den * 2^prec * Im(sigma_n(x)) (or Re) lies in an exact integer
interval.  A sign is certified when that interval excludes 0; otherwise the
precision doubles.  Zero is decided exactly, and only when the interval at
the start precision contains 0.  embed() encloses sigma_n(x) in
a rectangle with exact dyadic endpoints, for decimal rendering, by raw
mpmath libmpi calls on a cached enclosure of the root.  Interval
evaluation runs in private mpmath contexts of fixed precision, so the
shared mpmath.iv precision is never written.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import fzero, from_int, mpci_add, mpci_div, mpci_mul, round_ceiling, round_floor

from ._record import Record
from .cyclotomic import Cyclo, modulus
from .errors import InvariantViolation, NotRealElement, PrecisionExhausted

__all__ = [
    "DEFAULT_PRECISION",
    "PRECISION_CAP",
    "ComplexInterval",
    "SignVector",
    "certified_sign_im",
    "certified_sign_real",
    "embed",
    "is_totally_positive",
]

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096


def _mpf_to_fraction(raw) -> Fraction:
    """Exact value of an mpf endpoint from its (sign, man, exp, bc) tuple."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError("non-finite interval endpoint")
    v = Fraction(man)
    v = v * Fraction(2) ** exp if exp >= 0 else v / Fraction(2) ** (-exp)
    return -v if sign else v


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


# Extra bits of the enclosure each trig table is rounded from.
_TRIG_GUARD_BITS = 16


@lru_cache(maxsize=32)
def _interval_context(prec: int) -> MPIntervalContext:
    """A private mpmath interval context at a fixed working precision.
    It is never changed after construction, so concurrent callers at
    different precisions cannot disturb each other."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _scaled_bounds(enclosure, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * v <= hi for every v in an mpmath interval."""
    lo, hi = enclosure._mpi_
    scale = 1 << prec
    return floor(_mpf_to_fraction(lo) * scale), ceil(_mpf_to_fraction(hi) * scale)


@lru_cache(maxsize=256)
def _trig_table(m: int, prec: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(cos, sin): for every residue k mod m, integer bounds (lo, hi) with
    lo <= 2^prec cos(2 pi k / m) <= hi, and the same for sin, rounded
    outward from an enclosure at prec + _TRIG_GUARD_BITS bits.  Residues
    above m/2 are mirrored: cos(2 pi (m-k) / m) = cos(2 pi k / m) and
    sin(2 pi (m-k) / m) = -sin(2 pi k / m)."""
    ctx = _interval_context(prec + _TRIG_GUARD_BITS)
    cos, sin = [], []
    for k in range(m // 2 + 1):
        t = (ctx.pi * (2 * k)) / m
        cos.append(_scaled_bounds(ctx.cos(t), prec))
        sin.append(_scaled_bounds(ctx.sin(t), prec))
    for k in range(m // 2 + 1, m):
        lo, hi = sin[m - k]
        cos.append(cos[m - k])
        sin.append((-hi, -lo))
    return tuple(cos), tuple(sin)


def _fixed_point_sign(
    x: Cyclo, n: int, start_prec: int, part: int, is_zero: Callable[[], bool]
) -> int:
    """Certified sign of Re (part 0) or Im (part 1) of sigma_n(x): den *
    2^prec times it lies in the integer interval sum_i c_i [lo, hi] over
    the table entries at residues i * n, with the bounds swapped where
    c_i < 0.  The exact zero test is_zero runs only when the
    start-precision interval contains 0; if it fails, the precision
    doubles until the interval excludes 0."""
    m = x.m
    if gcd(n, m) != 1:
        raise ValueError(f"sigma_{n} is not an embedding of Q(zeta_{m})")
    if start_prec > PRECISION_CAP:
        raise ValueError(f"start precision {start_prec} exceeds the cap of {PRECISION_CAP} bits")
    prec = first = max(8, start_prec)
    while prec <= PRECISION_CAP:
        bounds = _trig_table(m, prec)[part]
        lo = hi = 0
        for i, c in enumerate(x.num):
            if c > 0:
                b_lo, b_hi = bounds[(i * n) % m]
                lo += c * b_lo
                hi += c * b_hi
            elif c < 0:
                b_lo, b_hi = bounds[(i * n) % m]
                lo += c * b_hi
                hi += c * b_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if prec == first and is_zero():
            return 0
        prec *= 2
    part_name = "Im" if part else "Re"
    raise PrecisionExhausted(
        f"sign of {part_name}(sigma_{n}) undecided at {PRECISION_CAP} bits; "
        "the exact zero test already ruled out zero, so this is a bug"
    )


@lru_cache(maxsize=256)
def _root(m: int, k: int, prec: int):
    """The raw mpmath complex interval (_mpci_) enclosing zeta_m^k =
    exp(2 pi i k / m), as the private context at prec computes it."""
    ctx = _interval_context(prec)
    t = (ctx.pi * (2 * k)) / m
    return ctx.mpc(ctx.cos(t), ctx.sin(t))._mpci_


_IV_ZERO = (fzero, fzero)


def embed(x: Cyclo, n: int, prec: int = DEFAULT_PRECISION) -> ComplexInterval:
    """Enclosure of sigma_n(x) at the given working precision (bits), for
    rendering; signs are certified by certified_sign_im/certified_sign_real.

    Horner's rule on the cached root, by the libmpi calls that
    acc * root + c and acc / den make in an interval context at prec, in
    the same order, so the box is bit for bit the context's."""
    if not 8 <= prec <= PRECISION_CAP:
        raise ValueError(f"embedding precision {prec} is outside 8..{PRECISION_CAP} bits")
    if gcd(n, x.m) != 1:
        raise ValueError(f"sigma_{n} is not an embedding of Q(zeta_{x.m})")
    if x.is_rational():
        q = x.as_fraction()
        return ComplexInterval(q, q, Fraction(0), Fraction(0))
    root = _root(x.m, n % x.m, prec)
    acc = (_IV_ZERO, _IV_ZERO)
    for c in reversed(x.num):
        c_iv = (from_int(c, prec, round_floor), from_int(c, prec, round_ceiling))
        acc = mpci_add(mpci_mul(acc, root, prec), (c_iv, _IV_ZERO), prec)
    den_iv = (from_int(x.den, prec, round_floor), from_int(x.den, prec, round_ceiling))
    re, im = mpci_div(acc, (den_iv, _IV_ZERO), prec)
    return ComplexInterval(
        _mpf_to_fraction(re[0]),
        _mpf_to_fraction(re[1]),
        _mpf_to_fraction(im[0]),
        _mpf_to_fraction(im[1]),
    )


def certified_sign_im(x: Cyclo, n: int, start_prec: int = DEFAULT_PRECISION) -> int:
    """Sign of Im(sigma_n(x)) in {-1, 0, +1}, certified.

    Nonzero signs are certified in fixed point with precision doubling.
    Zero is decided exactly, once the start-precision interval contains 0:
    sigma_n(x) is real iff x equals its own conjugate (conjugation
    commutes with every sigma_n).
    """
    return _fixed_point_sign(x, n, start_prec, 1, lambda: x == x.conj())


def certified_sign_real(x: Cyclo, n: int, start_prec: int = DEFAULT_PRECISION) -> int:
    """Sign of the real embedding tau_n of a conjugation-fixed element."""
    if not x.is_real():
        raise NotRealElement("element is not fixed by conjugation")
    return _fixed_point_sign(x, n, start_prec, 0, x.is_zero)


def is_totally_positive(u: Cyclo, start_prec: int = DEFAULT_PRECISION) -> bool:
    if u.is_zero():
        return False
    return all(
        certified_sign_real(u, n, start_prec) > 0 for n in modulus(u.m).reps
    )
