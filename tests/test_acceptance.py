"""End-to-end acceptance checks: exhaustive small-modulus families, the
published family tables, the relative m = 7 point, composite fixtures,
unit sign surjectivity, a real-quadratic embedding at 10^-20, and fuzzed
invariant suites."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cyclopel
from cyclopel.cmfield import CMType, cm_type_from_triple, is_simple
from cyclopel.cyclotomic import Cyclo, modulus, parse_element
from cyclopel.embeddings import embed
from cyclopel.errors import Unsatisfiable
from cyclopel.monodromy import galois_act, genus, signature, validate
from cyclopel.peldatum import Block, HermitianDatum, assemble
from cyclopel.polarization import beta_for_type, equivalent_beta, verify_conditions
from cyclopel.verify import (
    default_corpus_path,
    equivalent_datum,
    load_corpus,
    m17_pipeline,
    verify_fixture,
)
from oracles import galois_act_signature, sign_vector, unit_for_signs


def pe(s, m):
    return parse_element(s, m)


XI3 = pe("(2*z + 1)/3", 3)
XI5_1 = pe("(z^3 - z^2)/5", 5)
XI5_2 = pe("(z^3 + z^2 + 2*z + 1)/5", 5)
Z7 = Cyclo.zeta(7)
XI7_1 = (Z7 - Z7**6) / 7
XI7_2 = (Z7**3 - Z7**4) / 7
XI7_3 = (Z7**2 - Z7**5) / 7
XI7_IN = ((Z7 - Z7**6) * (Z7**2 - Z7**5) / (Z7**3 - Z7**4)) / 7  # for the induced type


def diag(m, *entries):
    return HermitianDatum(m, (Block(m, tuple(entries)),))


def test_m3_families_exhaustive():
    # every family of degree-3 covers with at most 8 branch points gets
    # exactly f(1) entries 1/(-sqrt(-3)) and f(2) entries the negative
    checked = 0
    for n in range(3, 9):
        for a in itertools.product((1, 2), repeat=n):
            if sum(a) % 3 != 0:
                continue
            d = validate(3, a)
            sig = signature(d)
            r = assemble(d)
            entries = [x for b in r.hermitian.blocks for x in b.entries]
            assert len(entries) == genus(d)
            assert sum(1 for x in entries if x == XI3) == sig.values[1]
            assert sum(1 for x in entries if x == -XI3) == sig.values[2]
            checked += 1
    assert checked == 168


def test_m5_family_table():
    r = assemble(validate(5, (1, 1, 4, 4)))
    assert equivalent_datum(r.hermitian, diag(5, XI5_2, -XI5_2))

    r = assemble(validate(5, (1, 2, 3, 4)))
    assert equivalent_datum(r.hermitian, diag(5, -XI5_1, XI5_1))
    assert not equivalent_datum(r.hermitian, diag(5, XI5_2, -XI5_2))
    assert equivalent_datum(r.hermitian, diag(5, XI5_2, -XI5_2), allow_galois=True)

    r = assemble(validate(5, (1, 3, 3, 3)))
    assert equivalent_datum(r.hermitian, diag(5, XI5_1, XI5_2))

    r = assemble(validate(5, (2, 2, 2, 2, 2)))
    assert equivalent_datum(r.hermitian, diag(5, -XI5_1, -XI5_2, -XI5_1))


def test_m5_beta_table():
    b1 = XI5_1.inverse()
    b2 = XI5_2.inverse()
    table = {
        frozenset({2, 4}): b1,
        frozenset({1, 2}): b2,
        frozenset({1, 3}): -b1,
        frozenset({3, 4}): -b2,
    }
    for members, beta in table.items():
        point = beta_for_type(CMType(5, members))
        assert point.beta == beta
        assert equivalent_beta(point.beta, beta)


def test_m7_family_table():
    r = assemble(validate(7, (1, 1, 2, 3)))
    assert equivalent_datum(r.hermitian, diag(7, XI7_1, XI7_3))

    r = assemble(validate(7, (1, 1, 6, 6)))
    assert equivalent_datum(r.hermitian, diag(7, XI7_1, -XI7_1))

    r = assemble(validate(7, (1, 2, 5, 6)))
    assert equivalent_datum(r.hermitian, diag(7, XI7_1, -XI7_1))

    r = assemble(validate(7, (2, 4, 4, 4)))
    assert equivalent_datum(r.hermitian, diag(7, -XI7_2, XI7_IN))


def test_m7_beta_table_and_simplicity():
    b1, b2, b3 = XI7_1.inverse(), XI7_2.inverse(), XI7_3.inverse()
    b_in = XI7_IN.inverse()
    table = {
        frozenset({1, 2, 3}): b1,
        frozenset({1, 3, 5}): b2,
        frozenset({1, 4, 5}): b3,
        frozenset({4, 5, 6}): -b1,
        frozenset({2, 4, 6}): -b2,
        frozenset({2, 3, 6}): -b3,
        frozenset({1, 2, 4}): b_in,
        frozenset({3, 5, 6}): -b_in,
    }
    for members, beta in table.items():
        phi = CMType(7, members)
        assert verify_conditions(beta, phi).all_pass()
        point = beta_for_type(phi)
        assert equivalent_beta(point.beta, beta)

    assert not is_simple(CMType(7, frozenset({1, 2, 4}))).simple
    assert is_simple(CMType(21, frozenset({1, 2, 4, 8, 10, 16}))).simple


def test_m7_relative_point():
    r = m17_pipeline()
    z7 = Cyclo.zeta(7)
    pref = (z7**2 - z7**5) / 7
    assert r.base_matrix == (
        (pref * pe("z^4 + z^3 + 1", 7), pref * pe("-z^5 - z^4 - z^3 - z - 1", 7)),
        (pref * pe("z^5 + z", 7), pref * pe("z^4 + z^3 + 1", 7)),
    )
    u1 = z7**2 + z7**5
    v = (Cyclo.one(7) + z7**3 + z7**4).inverse()
    assert r.twisted_matrix == (
        (XI7_1 * v * u1, XI7_1 * v * -(z7**2)),
        (XI7_1 * v * -(z7**5), XI7_1 * v * u1),
    )
    assert r.z_conditions.generates_different
    assert r.z_conditions.antisymmetric
    assert r.z_conditions.signs_negative


def test_composite_fixtures():
    wanted = {"M[4]", "M[8]", "M[5]", "M[9]", "M[14]", "M[18]"}
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    assert wanted <= set(fixtures)
    for name in sorted(wanted):
        outcome = verify_fixture(fixtures[name])
        assert outcome.passed, (name, outcome.failures)


def test_unit_sign_surjectivity():
    for m in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27):
        ncols = len(modulus(m).reps)
        sample = []
        for target in itertools.product((1, -1), repeat=ncols):
            u = unit_for_signs(target, m)
            assert isinstance(u, Cyclo), (m, target)
            sample.append((u, target))
        for u, target in sample[:: max(1, len(sample) // 4)]:
            assert sign_vector(u) == target


def test_unit_sign_cokernel_m21():
    hits = 0
    for target in itertools.product((1, -1), repeat=6):
        res = unit_for_signs(target, 21)
        if isinstance(res, Unsatisfiable):
            assert res.cokernel_dim == 1
        else:
            hits += 1
    assert hits == 32  # index-2 image: cokernel of order exactly 2


def test_real_quadratic_ratio():
    box = embed(XI5_2 / XI5_1, 1, 128)
    with mpmath.workdps(120):
        golden = (1 + mpmath.sqrt(5)) / 2
        scale = 2**200
        golden_frac = Fraction(int(mpmath.floor(golden * scale)), scale)
    tol = Fraction(1, 10**20)
    mid = (box.re_lo + box.re_hi) / 2
    assert abs(mid + golden_frac) < tol
    assert box.re_hi - box.re_lo < tol and box.im_hi - box.im_lo < tol
    assert box.re_lo <= -golden_frac <= box.re_hi and box.im_lo <= 0 <= box.im_hi


# ---------------------------------------------------------------------------
# fuzzed invariant suites (>= 500 examples in total)


@st.composite
def data(draw, moduli=(3, 5, 7, 11), max_n=6):
    m = draw(st.sampled_from(moduli))
    n = draw(st.integers(3, max_n))
    a = [draw(st.integers(1, m - 1)) for _ in range(n - 1)]
    last = (-sum(a)) % m
    assume(last != 0)
    a.append(last)
    return validate(m, tuple(a))


@settings(max_examples=75, deadline=None, derandomize=True)
@given(data())
def test_property_signature_total_is_genus(d):
    assert signature(d).total() == genus(d)


@settings(max_examples=75, deadline=None, derandomize=True)
@given(data())
def test_property_conjugate_pairs_sum(d):
    sig = signature(d)
    for n in modulus(d.m).units:
        assert sig.values[n] + sig.values[d.m - n] == d.N - 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data(), st.integers(1, 10))
def test_property_signature_galois_equivariance(d, k):
    i = [n for n in modulus(d.m).units][k % len(modulus(d.m).units)]
    assert signature(galois_act(i, d)) == galois_act_signature(i, signature(d))


@st.composite
def elements(draw, moduli=(3, 5, 7, 11), count=1):
    m = draw(st.sampled_from(moduli))
    out = []
    for _ in range(count):
        coeffs = [draw(st.integers(-9, 9)) for _ in range(modulus(m).phi)]
        den = draw(st.integers(1, 6))
        out.append(Cyclo(m, coeffs, den))
    return out[0] if count == 1 else tuple(out)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(elements(count=2))
def test_property_ring_round_trips(pair):
    x, y = pair
    assert (x + y) - y == x
    assert x * y == y * x
    assume(not y.is_zero())
    assert (x * y) / y == x


@settings(max_examples=50, deadline=None, derandomize=True)
@given(elements())
def test_property_parse_round_trip(x):
    from cyclopel.cyclotomic import element_str

    assert parse_element(element_str(x), x.m) == x


@settings(max_examples=50, deadline=None, derandomize=True)
@given(elements())
def test_property_conjugation_and_doubling(x):
    assert x.conj().conj() == x
    assert (x + x.conj()).is_real()
    if 2 * x.m in (6, 10):  # the only doubled levels the arithmetic supports
        doubled = x.to_modulus(2 * x.m)
        assert doubled.m == 2 * x.m
        assert doubled.to_modulus(x.m) == x


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data(max_n=5))
def test_property_assembled_form(d):
    r = assemble(d)
    g = r.gram
    n = len(g)
    assert all(g[i][j] == -g[j][i] for i in range(n) for j in range(n))
    assert all(isinstance(v, int) for row in g for v in row)
    assert abs(r.gram_det) == 1
    assert r.form_sig == r.signature
    assert n == 2 * r.genus


@settings(max_examples=70, deadline=None, derandomize=True)
@given(data(max_n=4), st.integers(1, 10))
def test_property_assemble_galois_stability(d, k):
    units = modulus(d.m).units
    i = units[k % len(units)]
    r1 = assemble(d)
    r2 = assemble(galois_act(i, d))
    assert equivalent_datum(r1.hermitian, r2.hermitian, allow_galois=True)
    assert r2.signature == galois_act_signature(i, r1.signature)


def test_validation_survives_optimize():
    # python -O strips assert statements; every validation check in the
    # library raises explicitly, so these suites pass unchanged under -O
    tests = Path(__file__).resolve().parent
    src = str(Path(cyclopel.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    files = [
        "test_peldatum.py", "test_cmfield.py", "test_monodromy.py", "test_polarization.py",
        "test_verify.py",
    ]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / f) for f in files)],
        cwd=tests.parent,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
