"""Certified complex-interval evaluation of the embeddings and exact sign
decisions for real and imaginary parts."""

from __future__ import annotations

import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

import cyclopel
from cyclopel.cyclotomic import SUPPORTED_MODULI, Cyclo, modulus
from cyclopel.embeddings import (
    PRECISION_CAP,
    DEFAULT_PRECISION,
    _ROOTS,
    _div,
    _fraction,
    _mul,
    _root,
    _round,
    _trig_table,
    certified_sign_im,
    certified_sign_real,
    embed,
    is_totally_positive,
)
from cyclopel.errors import NotRealElement
import cyclopel.embeddings
from oracles import NotUnit, context_horner, exact_horner, rounded, sign_vector


def random_element(rng, m, bound=8):
    return Cyclo(m, [rng.randint(-bound, bound) for _ in range(modulus(m).phi)],
                 rng.randint(1, 4))


def mp_value(x, n, dps=60):
    """Independent floating evaluation of the n-th embedding."""
    with mpmath.workdps(dps):
        root = mpmath.e ** (2j * mpmath.pi * n / x.m)
        num = mpmath.mpc(0)
        for k, c in reversed(list(enumerate(x.num))):
            num = num * root + int(c)
        return num / int(x.den)


def as_fraction(mpf, scale=2**120):
    with mpmath.workdps(90):
        return Fraction(int(mpmath.floor(mpf * scale)), scale)


def test_embed_fourth_root_contains_i():
    iv = embed(Cyclo.zeta(4), 1, 64)
    assert iv.re_lo <= 0 <= iv.re_hi and iv.im_lo <= 1 <= iv.im_hi
    assert iv.re_hi - iv.re_lo < Fraction(1, 2**60)
    assert iv.im_hi - iv.im_lo < Fraction(1, 2**60)


def test_embed_sqrt_minus_three():
    z = Cyclo.zeta(3)
    iv = embed(z - z**2, 1, 64)
    assert iv.re_lo <= 0 <= iv.re_hi
    with mpmath.workdps(50):
        approx = as_fraction(mpmath.sqrt(3))
    mid = (iv.im_lo + iv.im_hi) / 2
    assert abs(mid - approx) < Fraction(1, 2**50)


def test_embed_rational_is_degenerate_point():
    q = Fraction(3, 7)
    iv = embed(Cyclo.from_fraction(5, q), 2, 64)
    assert iv.re_lo == iv.re_hi == q
    assert iv.im_lo == iv.im_hi == 0


def test_embed_matches_independent_float_evaluation():
    rng = random.Random(31)
    for m in (5, 7, 9, 21):
        for _ in range(15):
            x = random_element(rng, m)
            n = rng.choice(modulus(m).units)
            iv = embed(x, n, 64)
            v = mp_value(x, n)
            slack = Fraction(1, 2**100)
            assert iv.re_lo - slack <= as_fraction(v.real) <= iv.re_hi + slack
            assert iv.im_lo - slack <= as_fraction(v.imag) <= iv.im_hi + slack


@pytest.mark.parametrize("prec", (8, 53, 64, 192, 1024, 4096))
def test_embed_is_the_context_horner_box(prec):
    # every unit n of every modulus, taking turns between small
    # coefficients and 300-bit ones over a denominator above 2^20, where
    # the division rounds at prec + 20 bits
    rng = random.Random(prec)
    for m in sorted(SUPPORTED_MODULI):
        for k, n in enumerate(modulus(m).units):
            bound, den = ((9, rng.randint(1, 9)), (2**300, rng.randint(2**20, 3**40)))[k % 2]
            x = Cyclo(m, [rng.randint(-bound, bound) for _ in range(modulus(m).phi)], den)
            if not x.is_rational():
                assert embed(x, n, prec) == context_horner(x, n, prec)


@pytest.mark.parametrize("prec", (8, 53, 64, 192, 1024, 4096))
def test_embed_is_the_exact_horner_box(prec):
    # two units of every modulus: small coefficients over a small den, and
    # 300-bit ones over a den above 2^20
    rng = random.Random(1000 + prec)
    for m in sorted(SUPPORTED_MODULI):
        for k, n in enumerate(rng.sample(modulus(m).units, 2)):
            bound, den = ((9, rng.randint(1, 9)), (2**300, rng.randint(2**20, 3**40)))[k]
            x = Cyclo(m, [rng.randint(-bound, bound) for _ in range(modulus(m).phi)], den)
            assert embed(x, n, prec) == exact_horner(x, n, prec), (x, n)


def test_embed_rounds_a_near_cancelling_sum(monkeypatch):
    # On the point root R + iT, z^2 takes Horner's rule to R^2 - T^2, where
    # R^2 = (2^126 + 2^64 + 1) * 2^-128 is wider than 64 bits and T^2 lies
    # 118 bits below it with a last bit 102 places further down: the
    # shape in which an adder that drops the small operand rounds the
    # wrong way.  The floor of the exact difference is below that of R^2.
    R, T = (2**63 + 1, -64), (2**55 + 1, -115)
    monkeypatch.setattr(cyclopel.embeddings, "_root", lambda m, k, prec: ((R, R), (T, T)))
    r, t = _fraction(R), _fraction(T)
    assert rounded(r * r - t * t, 64, False) < rounded(r * r, 64, False)
    x = Cyclo.zeta(5, 2)
    box = embed(x, 1, 64)
    assert box == exact_horner(x, 1, 64)
    assert box.re_lo == rounded(r * r - t * t, 64, False)
    assert box.re_hi == rounded(r * r - t * t, 64, True)


def _random_value(rng, sign):
    """(M, E) of the given sign (0 for zero), 1 to 150 bits, exponent -200..40."""
    if sign == 0:
        return 0, rng.randint(-200, 40)
    return sign * rng.randint(1, 2 ** rng.randint(1, 150)), rng.randint(-200, 40)


def _random_interval(rng):
    """An interval of (M, E) endpoints: positive, negative or straddling 0,
    with zero endpoints and points among them."""
    a, b = sorted(
        (_random_value(rng, rng.choice((-1, 0, 1))) for _ in range(2)), key=_fraction
    )
    return (a, a) if rng.random() < 0.1 else (a, b)


def test_kernel_operations_round_the_exact_results():
    # every sign case of the product and the quotient, against exact
    # rationals and the directed roundings they define
    rng = random.Random(59)
    for _ in range(3000):
        prec = rng.choice((8, 53, 64, 200))
        a, b = _random_interval(rng), _random_interval(rng)
        M, E = _random_value(rng, rng.choice((-1, 0, 1)))
        for up in (False, True):
            assert _fraction(_round(M, E, prec, up)) == rounded(_fraction((M, E)), prec, up)
        products = [_fraction(x) * _fraction(y) for x in a for y in b]
        assert tuple(map(_fraction, _mul(a, b))) == (min(products), max(products))
        if _fraction(b[0]) > 0:
            quotients = [_fraction(x) / _fraction(y) for x in a for y in b]
            lo, hi = _div(a, b, prec)
            assert _fraction(lo) == rounded(min(quotients), prec, False)
            assert _fraction(hi) == rounded(max(quotients), prec, True)


def test_embed_precision_is_bounded():
    # each is refused before any root is computed
    x = Cyclo.zeta(19)
    misses = _root.cache_info().misses
    for prec in (7, PRECISION_CAP + 1, 0, -64, 10**6):
        with pytest.raises(ValueError, match="outside 8..4096"):
            embed(x, 1, prec)
    assert _root.cache_info().misses == misses
    assert embed(x, 1, 8) == context_horner(x, 1, 8)
    assert embed(x, 1, PRECISION_CAP) == context_horner(x, 1, PRECISION_CAP)


def test_interval_soundness_under_refinement():
    # the 4x-precision re-evaluation must land inside the coarse interval
    rng = random.Random(37)
    cases = 0
    while cases < 1000:
        m = rng.choice((3, 5, 7, 8, 16, 21))
        x = random_element(rng, m)
        n = rng.choice(modulus(m).units)
        coarse = embed(x, n, 48)
        fine = embed(x, n, 192)
        assert coarse.re_lo <= fine.re_lo and fine.re_hi <= coarse.re_hi
        assert coarse.im_lo <= fine.im_lo and fine.im_hi <= coarse.im_hi
        cases += 1


def test_certified_sign_im_sqrt_minus_three():
    z = Cyclo.zeta(3)
    s = z - z**2
    assert certified_sign_im(s, 1) == 1
    assert certified_sign_im(s, 2) == -1


def test_start_precision_above_the_cap_is_rejected():
    x = Cyclo.zeta(5)
    assert certified_sign_im(x, 1, PRECISION_CAP) == 1
    with pytest.raises(ValueError, match="exceeds the cap"):
        certified_sign_im(x, 1, PRECISION_CAP + 1)
    with pytest.raises(ValueError, match="exceeds the cap"):
        certified_sign_real(x + x.conj(), 1, 2 * PRECISION_CAP)


def test_certified_sign_im_rational_is_zero():
    q = Cyclo.from_fraction(7, Fraction(-5, 3))
    for n in modulus(7).units:
        assert certified_sign_im(q, n) == 0


def test_certified_sign_im_on_different_generator():
    z = Cyclo.zeta(5)
    beta1 = 5 / (z**3 - z**2)
    assert certified_sign_im(beta1, 2) == -1
    assert certified_sign_im(beta1, 4) == -1
    assert certified_sign_im(beta1, 1) == 1
    assert certified_sign_im(beta1, 3) == 1


def test_sign_antisymmetry_identities():
    rng = random.Random(41)
    for m in (5, 7, 16):
        for _ in range(20):
            x = random_element(rng, m)
            n = rng.choice(modulus(m).units)
            s = certified_sign_im(x, n)
            assert certified_sign_im(x.conj(), n) == -s
            assert certified_sign_im(x, m - n) == -s


def test_exact_zero_detection_for_real_combinations():
    # x + conj(x) is fixed by conjugation, so every imaginary part is exactly 0
    rng = random.Random(43)
    for _ in range(25):
        x = random_element(rng, 7)
        r = x + x.conj()
        for n in modulus(7).units:
            assert certified_sign_im(r, n) == 0


def test_certified_sign_real_spot_checks():
    z = Cyclo.zeta(5)
    w = z + z**4  # 2cos(72) > 0, image under sigma_2 is 2cos(144) < 0
    assert certified_sign_real(w, 1) == 1
    assert certified_sign_real(w, 2) == -1
    assert certified_sign_real(Cyclo.zero(5), 1) == 0


def test_totally_positive_constants():
    assert is_totally_positive(Cyclo.one(5))
    assert not is_totally_positive(Cyclo.from_int(5, -1))


def test_relative_norms_are_totally_positive():
    rng = random.Random(47)
    z = Cyclo.zeta(5)
    units = [z, -z**2, (z**3 - z**2) / (z - z**4), 1 + z + z**2]
    for u in units:
        if not u.is_unit():
            continue
        assert is_totally_positive(u * u.conj())


def test_totally_positive_requires_real_input():
    with pytest.raises(NotRealElement):
        is_totally_positive(Cyclo.zeta(5))


def test_sign_vector_constants():
    assert sign_vector(Cyclo.from_int(5, -1)) == (-1, -1)
    assert sign_vector(Cyclo.one(5)) == (1, 1)


def test_sign_vector_of_real_cyclotomic_unit():
    z = Cyclo.zeta(5)
    assert sign_vector(z + z**4) == (1, -1)


def test_sign_vector_rejects_non_units_and_non_real():
    with pytest.raises(NotUnit):
        sign_vector(Cyclo.from_int(5, 2))
    with pytest.raises(NotRealElement):
        sign_vector(Cyclo.zeta(5))


def test_sign_vector_is_multiplicative():
    rng = random.Random(53)
    z = Cyclo.zeta(7)
    gens = [Cyclo.from_int(7, -1),
            (z**2 - z**5) / (z - z**6),
            (z**3 - z**4) / (z - z**6)]
    for _ in range(30):
        u = rng.choice(gens)
        v = rng.choice(gens)
        su, sv = sign_vector(u), sign_vector(v)
        assert sign_vector(u * v) == tuple(a * b for a, b in zip(su, sv))


def test_sign_vector_length_matches_real_embedding_count():
    for m in (5, 7, 8, 21):
        assert len(sign_vector(Cyclo.from_int(m, -1))) == len(modulus(m).reps)
        assert len(modulus(m).reps) == modulus(m).phi // 2


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@st.composite
def sign_cases(draw):
    """(x, r, n, start_prec): x an element, r a real one, n a unit.  Half
    the cases cancel: with theta = 2 pi n / m and b = 2^bits,
    a = -round(2 b cos theta), Im sigma_n(a zeta + b zeta^2) =
    sin(theta) (a + 2 b cos theta) and sigma_n(a + b (zeta + 1/zeta)) =
    a + 2 b cos theta are tiny next to the coefficients, so low start
    precisions must double."""
    m = draw(st.sampled_from(sorted(SUPPORTED_MODULI)))
    n = draw(st.sampled_from(modulus(m).units))
    den = draw(st.integers(1, 6))
    bits = draw(st.sampled_from((0, 30, 90)))
    if bits:
        b = 1 << bits
        with mpmath.workdps(bits + 40):
            a = -int(mpmath.nint(2 * b * mpmath.cos(2 * mpmath.pi * n / m)))
        x = Cyclo(m, [0, a, b], den)
        r = Cyclo(m, [a], den) + b * (Cyclo.zeta(m) + Cyclo.zeta(m, -1)) / den
    else:
        x = Cyclo(m, [draw(st.integers(-9, 9)) for _ in range(modulus(m).phi)], den)
        r = x + x.conj()
    return x, r, n, draw(st.sampled_from((8, 16, 64, 256)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sign_cases())
def test_fixed_point_signs_match_high_precision_evaluation(case):
    x, r, n, start_prec = case
    v = mp_value(x, n, dps=200).imag
    expected = 0 if x == x.conj() else _sign(v)
    if expected:
        assert abs(v) > mpmath.mpf(10) ** -150
    assert certified_sign_im(x, n, start_prec) == expected
    w = mp_value(r, n, dps=200).real
    expected = 0 if r.is_zero() else _sign(w)
    if expected:
        assert abs(w) > mpmath.mpf(10) ** -150
    assert certified_sign_real(r, n, start_prec) == expected


def _sign_with_zero_test_first(x, n, start_prec, part):
    """The former ordering of the certified signs: the exact zero test
    first, then fixed-point intervals at doubling precision."""
    if (x == x.conj()) if part else x.is_zero():
        return 0
    prec = max(8, start_prec)
    while True:
        bounds = _trig_table(x.m, prec)[part]
        lo = hi = 0
        for i, c in enumerate(x.num):
            b_lo, b_hi = bounds[(i * n) % x.m]
            lo += c * (b_lo if c > 0 else b_hi)
            hi += c * (b_hi if c > 0 else b_lo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sign_cases())
def test_interval_first_signs_match_zero_test_first(case):
    # real elements must still give 0, near-cancelling ones must double
    x, r, n, start_prec = case
    for y in (x, r, x - x.conj(), Cyclo.zero(x.m)):
        assert certified_sign_im(y, n, start_prec) == _sign_with_zero_test_first(
            y, n, start_prec, 1
        )
    assert certified_sign_im(r, n, start_prec) == 0
    assert certified_sign_real(r, n, start_prec) == _sign_with_zero_test_first(
        r, n, start_prec, 0
    )


@pytest.mark.parametrize("prec", [8, 64, 128, 1024, 4096])
def test_trig_table_brackets_cos_and_sin(prec):
    for m in sorted(SUPPORTED_MODULI):
        cos, sin = _trig_table(m, prec)
        assert len(cos) == len(sin) == m
        with mpmath.workprec(prec + 128):
            for k in range(m):
                t = 2 * mpmath.pi * k / m
                for (lo, hi), v in ((cos[k], mpmath.cos(t)), (sin[k], mpmath.sin(t))):
                    assert lo <= v * 2**prec <= hi
                    assert hi - lo <= 2


def test_committed_roots_are_the_interval_context_enclosures():
    # each literal is the enclosure cos(t) + i sin(t) of t = pi * 2 / m in
    # an interval context at the default precision
    assert set(_ROOTS) == SUPPORTED_MODULI
    for m in sorted(SUPPORTED_MODULI):
        ctx = MPIntervalContext()
        ctx.prec = DEFAULT_PRECISION
        t = (ctx.pi * 2) / m
        parts = ctx.mpc(ctx.cos(t), ctx.sin(t))._mpci_
        assert _ROOTS[m] == tuple(
            tuple((-man if sign else man, exp) for sign, man, exp, _ in part) for part in parts
        ), m
        assert _root(m, 1, DEFAULT_PRECISION) is _ROOTS[m]


def test_embed_is_thread_safe_and_leaves_mpmath_precision_alone():
    z = Cyclo.zeta(19)
    x = (z**3 - z**16) / (z**2 - z**17) + Fraction(1, 3)
    precs = (64, 1024, 64, 1024)
    serial = {p: embed(x, 5, p) for p in set(precs)}
    assert serial[64] != serial[1024]
    before = mpmath.iv.prec
    results: list[list] = [[] for _ in precs]
    barrier = threading.Barrier(len(precs))

    def work(k):
        barrier.wait(timeout=30)
        for _ in range(40):
            results[k].append(embed(x, 5, precs[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(precs))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k, p in enumerate(precs):
        assert len(results[k]) == 40
        assert all(box == serial[p] for box in results[k])
    assert mpmath.iv.prec == before


def test_source_never_sets_shared_interval_precision():
    pattern = re.compile(r"\biv\.(prec|dps)\s*=|\biv\.work(prec|dps)\b")
    sources = sorted(Path(cyclopel.__file__).resolve().parent.glob("*.py"))
    assert sources
    for path in sources:
        assert not pattern.search(path.read_text(encoding="utf-8")), path.name
