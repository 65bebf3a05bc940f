"""Exact arithmetic in Q(zeta_m): ring ops, Galois action, traces, norms,
inversion, the relative degree-2 split, and the ascent from m to a multiple."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclopel.cyclotomic import (
    SUPPORTED_MODULI,
    Cyclo,
    Modulus,
    element_str,
    modulus,
    parse_element,
    relative_split,
)
from cyclopel.errors import CyclopelError, ParseError, UnsupportedModulus
import oracles
from oracles import relative_trace

X = sympy.Symbol("x")


def random_element(rng, m, bound=10, den_max=6):
    deg = modulus(m).phi
    num = [rng.randint(-bound, bound) for _ in range(deg)]
    return Cyclo(m, num, rng.randint(1, den_max))


def test_cyclotomic_poly_small_cases():
    assert modulus(3).poly == (1, 1, 1)
    assert modulus(4).poly == (1, 0, 1)


def test_cyclotomic_poly_degree_12_by_long_division():
    # (x^21 - 1)(x - 1) / ((x^3 - 1)(x^7 - 1)), exact division
    num = sympy.Poly((X**21 - 1) * (X - 1), X)
    den = sympy.Poly((X**3 - 1) * (X**7 - 1), X)
    quo, rem = sympy.div(num, den)
    assert rem.is_zero
    got = modulus(21).poly
    assert len(got) == 13
    assert got == tuple(int(c) for c in reversed(quo.all_coeffs()))


def test_cyclotomic_poly_matches_sympy_everywhere():
    for m in sorted(SUPPORTED_MODULI):
        want = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()
        assert modulus(m).poly == tuple(int(c) for c in reversed(want))


@pytest.mark.parametrize("m", sorted(SUPPORTED_MODULI | {1, 2, 14}))
def test_modulus_record_matches_reference_facts(m):
    # 1, 2 and 14 are no supported modulus, yet the record is defined there
    facts = modulus(m)
    assert {f: getattr(facts, f) for f in Modulus.__slots__} == {
        "m": m,
        "units": oracles.units_mod(m),
        "reps": oracles.real_embedding_reps(m),
        "phi": oracles.euler_phi(m),
        "poly": oracles.cyclotomic_poly(m),
        "chain": oracles.galois_chain(m),
        "traces": oracles.trace_table(m),
        "columns": oracles.signature_columns(m),
        "admissible": oracles.admissible(m),
        "subgroups": oracles.subgroups_mod(m),
    }


def test_modulus_builds_no_record_for_a_divisor():
    modulus.cache_clear()
    assert modulus(32).poly == (1,) + (0,) * 15 + (1,)
    assert modulus.cache_info().misses == 1
    with pytest.raises(ValueError):
        modulus(0)


def test_unsupported_modulus_rejected():
    for m in (12, 15, 23):
        with pytest.raises(UnsupportedModulus):
            Cyclo.zeta(m)


def test_product_of_inverse_roots_is_one():
    z = Cyclo.zeta(5)
    assert z * z**4 == Cyclo.one(5)


def test_square_root_minus_three_squares():
    z = Cyclo.zeta(3)
    s = z - z**2
    assert s * s == Cyclo.from_int(3, -3)


def _schoolbook_product(x, y):
    """(num, den) of x * y by the quadratic product of the coefficient
    vectors, long division by Phi_m and reduction to lowest terms."""
    m, phi = x.m, modulus(x.m).phi
    prod = [0] * (2 * phi - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    phi_m = modulus(m).poly
    for top in range(len(prod) - 1, phi - 1, -1):
        c = prod[top]
        for j, d in enumerate(phi_m):
            prod[top - phi + j] -= c * d
    num, den = prod[:phi], x.den * y.den
    g = gcd(den, *num)
    return tuple(c // g for c in num), den // g


def test_product_matches_schoolbook_on_every_modulus():
    # zero, units, small and 300-bit coefficients, denominators up to 3^40
    rng = random.Random(211)

    def element(m):
        bound = rng.choice((0, 1, 9, 2**20, 2**300))
        num = [rng.randint(-bound, bound) for _ in range(modulus(m).phi)]
        if rng.random() < 0.3:
            num = [c if rng.random() < 0.3 else 0 for c in num]
        return Cyclo(m, num, rng.choice((1, 3**40, rng.randint(1, 3**40))))

    for m in sorted(SUPPORTED_MODULI):
        zero, one = Cyclo.zero(m), Cyclo.one(m)
        cases = [(zero, zero), (zero, element(m)), (one, element(m))]
        cases += [(element(m), element(m)) for _ in range(200)]
        for x, y in cases:
            for p in (x * y, y * x):
                assert (p.num, p.den) == _schoolbook_product(x, y)


def test_product_of_many_factors_is_the_fold_of_pairwise_products():
    # k = 1..10 factors with mixed signs, zeros and denominators, one
    # Kronecker pass against the pairwise fold and the schoolbook product
    rng = random.Random(223)

    def element(m):
        bound = rng.choice((1, 9, 2**20, 2**90))
        num = [rng.randint(-bound, bound) for _ in range(modulus(m).phi)]
        if rng.random() < 0.3:
            num = [c if rng.random() < 0.3 else 0 for c in num]
        return Cyclo(m, num, rng.choice((1, 1, 2, m, rng.randint(1, 3**10))))

    for m in sorted(SUPPORTED_MODULI):
        assert Cyclo.product(m, []) == Cyclo.one(m)
        for k in range(1, 11):
            factors = [element(m) for _ in range(k)]
            if k > 2 and rng.random() < 0.2:
                factors[rng.randrange(k)] = Cyclo.zero(m)
            folded = factors[0]
            school = (folded.num, folded.den)
            for f in factors[1:]:
                folded = folded * f
                school = _schoolbook_product(Cyclo(m, school[0], school[1]), f)
            p = Cyclo.product(m, factors)
            assert (p.num, p.den) == (folded.num, folded.den) == school, (m, k)
    with pytest.raises(ValueError):
        Cyclo.product(5, [Cyclo.zeta(5), Cyclo.zeta(7)])


def test_arithmetic_results_equal_the_generic_constructor_on_every_modulus():
    # mul, galois, + and - build their results from vectors they made
    # themselves, without the generic constructor's checks; each result
    # must be the element Cyclo(m, list, den) builds from the same vector.
    # Denominators share factors with the coefficients, and zero vectors
    # over a denominator are among the inputs.
    rng = random.Random(223)

    def element(m):
        g = rng.choice((1, 2, 6, 12, 36))
        bound = rng.choice((0, 1, 9, 2**70))
        num = [g * rng.randint(-bound, bound) for _ in range(modulus(m).phi)]
        return Cyclo(m, num, g * rng.choice((1, 2, 3, 4, 9)))

    def same(x, vector, den):
        expected = Cyclo(x.m, vector, den)
        assert (x.num, x.den) == (expected.num, expected.den)
        assert x == expected and hash(x) == hash(expected)
        assert x.__reduce__() == expected.__reduce__()
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is Cyclo and (back.num, back.den) == (x.num, x.den) and back == x

    zeros = 0
    for m in sorted(SUPPORTED_MODULI):
        units = modulus(m).units
        for _ in range(40):
            x, y = element(m), element(m)
            lift = [0] * m
            for i, a in enumerate(x.num):
                for j, b in enumerate(y.num):
                    lift[(i + j) % m] += a * b
            same(x * y, lift, x.den * y.den)
            i = rng.choice(units)
            lift = [0] * m
            for k, c in enumerate(x.num):
                lift[k * i % m] += c
            same(x.galois(i), lift, x.den)
            same(x + y, [a * y.den + b * x.den for a, b in zip(x.num, y.num)], x.den * y.den)
            same(x - y, [a * y.den - b * x.den for a, b in zip(x.num, y.num)], x.den * y.den)
            same(-x, [-c for c in x.num], x.den)
            zeros += x.is_zero()
        zero = Cyclo(m, [0] * m, 36)
        assert (zero.num, zero.den) == ((0,) * modulus(m).phi, 1)
        same(zero * element(m), [0] * m, 36)
        same(x - x, [0] * modulus(m).phi, x.den ** 2)
    assert zeros > 0


def test_rational_elements_hash_as_the_numbers_they_equal():
    for m in (5, 16):
        for q in (3, -7, 0, Fraction(2, 9), Fraction(-5, 3)):
            x = Cyclo.from_fraction(m, Fraction(q))
            assert x == q and hash(x) == hash(q)
            assert q in {x} and x in {q}
            assert {x: "x"}[q] == "x"
    z = Cyclo.zeta(5)
    assert z not in {Cyclo.zeta(7)} and hash(z) == hash(z * 1)


def test_additive_identity():
    z = Cyclo.zeta(7)
    x = 2 * z**3 - z + 5
    assert x + Cyclo.zero(7) == x


def test_invert_one():
    assert Cyclo.one(9).inverse() == Cyclo.one(9)


def test_invert_two_i():
    i = Cyclo.zeta(4)
    assert (2 * i).inverse() == -i / 2


def test_invert_explicit_quotient():
    z = Cyclo.zeta(5)
    beta = 5 / (z**3 - z**2)
    assert beta.inverse() == (z**3 - z**2) / 5


def test_invert_round_trip_random():
    # 100 random nonzero elements per supported modulus
    rng = random.Random(11)
    for m in sorted(SUPPORTED_MODULI):
        for _ in range(100):
            x = random_element(rng, m)
            if x.is_zero():
                continue
            assert x * x.inverse() == Cyclo.one(m)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def test_rational_divisors_skip_the_norm_chain(monkeypatch):
    calls = []
    original = Cyclo._norm_and_other_conjugates

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclo, "_norm_and_other_conjugates", counted)
    z = Cyclo.zeta(19)
    x = z + 2
    assert x / 5 == Cyclo(19, [2, 1], 5) == x / Cyclo.from_int(19, 5)
    assert x / Fraction(2, 3) == Cyclo(19, [6, 3], 2) == x / Fraction(-2, -3)
    assert x / -4 == Cyclo(19, [-2, -1], 4)
    assert 3 / Cyclo.from_int(19, 6) == Cyclo.from_fraction(19, Fraction(1, 2))
    assert Fraction(1, 2) / Cyclo.from_fraction(19, Fraction(-3, 4)) == Cyclo(19, [-2], 3)
    assert Cyclo.from_int(19, 6).inverse() == Cyclo(19, [1], 6)
    assert Cyclo.from_fraction(19, Fraction(-3, 4)).inverse() == Cyclo(19, [-4], 3)
    q = Cyclo.from_fraction(19, Fraction(2, 3))
    assert q**-2 == Cyclo(19, [9], 4) and q**-1 == Cyclo(19, [3], 2)
    assert calls == []
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(19).inverse()
    for zero in (0, Fraction(0), Cyclo.zero(19)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / Cyclo.zero(19)
    with pytest.raises(ValueError, match="modulus mismatch"):
        x / Cyclo.from_int(5, 2)
    # a divisor outside Q is still inverted along the chain
    assert (x / z) * z == x and 5 / x * x == 5
    assert len(calls) == 2


def test_galois_identity():
    rng = random.Random(3)
    for m in (5, 8, 21):
        x = random_element(rng, m)
        assert x.galois(1) == x


def test_galois_sends_root_to_power():
    z = Cyclo.zeta(5)
    assert z.galois(2) == z**2


def test_galois_composition_inverse_pair_mod_7():
    # 4 * 2 = 8 = 1 mod 7, so sigma_4 after sigma_2 is the identity
    rng = random.Random(5)
    x = random_element(rng, 7)
    assert x.galois(2).galois(4) == x


def test_galois_composition_law_random():
    rng = random.Random(7)
    for m in (7, 9, 16, 21):
        units = modulus(m).units
        for _ in range(25):
            x = random_element(rng, m)
            i, j = rng.choice(units), rng.choice(units)
            assert x.galois(i).galois(j) == x.galois((i * j) % m)


def test_galois_rejects_non_coprime():
    with pytest.raises(ValueError):
        Cyclo.zeta(9).galois(3)


def test_trace_of_one_is_degree():
    assert Cyclo.one(5).trace() == 4


def test_trace_of_primitive_root():
    assert Cyclo.zeta(5).trace() == -1


def test_trace_of_rational_is_scaled():
    q = Fraction(3, 7)
    assert Cyclo.from_fraction(7, q).trace() == 6 * q


def test_trace_equals_conjugate_sum():
    rng = random.Random(13)
    for m in (5, 8, 9, 21):
        for _ in range(20):
            x = random_element(rng, m)
            total = Cyclo.zero(m)
            for n in modulus(m).units:
                total = total + x.galois(n)
            assert total.is_rational()
            assert total.as_fraction() == x.trace()


def test_norm_of_one_minus_root():
    assert (1 - Cyclo.zeta(5)).norm() == 5


def test_norm_of_unit_is_plus_minus_one():
    z = Cyclo.zeta(7)
    for u in (z, -z**3, z**2 + z**5, (z**4 - z**3) / (z - z**6)):
        assert u.is_unit()
        assert (1 - z).norm() == 7
        assert u.norm() in (1, -1)


def test_is_unit_examples():
    z = Cyclo.zeta(7)
    assert z.is_unit()
    assert not Cyclo.from_int(7, 2).is_unit()
    z5 = Cyclo.zeta(5)
    u2 = (z5**3 - z5**2) / (z5 - z5**4)
    assert u2.is_unit()
    assert u2.is_integral


def test_norm_matches_sympy_resultant():
    # N(A/den) = Res(Phi_m, A) / den^phi(m); Phi_m is monic of even degree,
    # so the resultant is the product of A over the roots of Phi_m
    rng = random.Random(23)
    for m in sorted(SUPPORTED_MODULI):
        phi_m = sympy.Poly(sympy.cyclotomic_poly(m, X), X)
        for _ in range(4):
            x = random_element(rng, m)
            if x.is_zero():
                continue
            num = sympy.Poly(list(reversed(x.num)), X)
            want = Fraction(int(sympy.resultant(phi_m, num)), x.den ** modulus(m).phi)
            assert x.norm() == want


def _product_of_other_conjugates(x):
    """prod_{u != 1} sigma_u(x) as phi(m) - 1 successive products."""
    out = Cyclo.one(x.m)
    for u in modulus(x.m).units[1:]:
        out = out * x.galois(u)
    return out


def nonzero_elements(m):
    """Nonzero elements of Q(zeta_m) with denominators, dense or sparse."""
    phi = modulus(m).phi
    coeffs = st.lists(st.integers(-20, 20), min_size=phi, max_size=phi)

    def build(num, sparse, den):
        if sparse:
            num = [c if k % 3 == 0 else 0 for k, c in enumerate(num)]
        if not any(num):
            num[0] = 1
        return Cyclo(m, num, den)

    return st.builds(build, coeffs, st.booleans(), st.integers(1, 12))


@pytest.mark.parametrize("m", sorted(SUPPORTED_MODULI))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_galois_chain_norm_and_inverse_match_oracles(m, data):
    x = data.draw(nonzero_elements(m))
    others = _product_of_other_conjugates(x)
    norm = (x * others).as_fraction()
    assert x._norm_and_other_conjugates() == (norm, others)
    assert x.norm() == norm
    assert x.inverse() == others * (1 / norm)
    assert x * x.inverse() == 1
    phi_m = sympy.Poly(sympy.cyclotomic_poly(m, X), X)
    num = sympy.Poly(list(reversed(x.num)), X)
    assert norm == Fraction(int(sympy.resultant(phi_m, num)), x.den ** modulus(m).phi)


@pytest.mark.parametrize("m", sorted(SUPPORTED_MODULI))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_trace_and_galois_match_sympy_reduction(m, data):
    # for x = p(z)/den, sigma_u(x) is p(X^u) mod Phi_m over den, and tr(x) is
    # the sum of those over the units u, a constant
    x = data.draw(nonzero_elements(m))
    phi_m = sympy.Poly(sympy.cyclotomic_poly(m, X), X)
    lifts = {
        u: sympy.Poly.from_dict({(a * u,): c for a, c in enumerate(x.num) if c}, X)
        for u in modulus(m).units
    }
    i = data.draw(st.sampled_from(modulus(m).units))
    want = [int(c) for c in reversed(sympy.rem(lifts[i], phi_m).all_coeffs())]
    assert x.galois(i) == Cyclo(m, want, x.den)
    trace = sympy.rem(sum(lifts.values(), sympy.Poly(0, X)), phi_m)
    assert trace.degree() <= 0
    assert x.trace() == Fraction(int(trace.coeff_monomial(1)), x.den)


# multiplications per _norm_and_other_conjugates; each equals the fewest
# over all chains of (Z/m)^*, found by exhaustive search
CHAIN_MULTIPLICATIONS = {
    3: 1, 4: 1, 5: 3, 6: 1, 7: 4, 8: 3, 9: 4, 10: 3, 11: 5, 13: 6, 16: 5,
    17: 7, 19: 6, 21: 6, 25: 7, 27: 6, 32: 7,
}


def test_galois_chain_decomposes_the_unit_group(monkeypatch):
    # each generator has the stated order modulo the earlier ones, and the
    # orders multiply to phi(m)
    for m in sorted(SUPPORTED_MODULI):
        chain = modulus(m).chain
        sub = {1}
        for g, n in chain:
            powers = [pow(g, j, m) for j in range(n + 1)]
            assert all(p not in sub for p in powers[1:n]) and powers[n] in sub
            sub = {h * p % m for h in sub for p in powers[:n]}
        assert sub == set(modulus(m).units)

    calls = []
    original = Cyclo.__mul__

    def counted(self, other):
        calls.append(self.m)
        return original(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    counts = {}
    for m in sorted(SUPPORTED_MODULI):
        x = Cyclo(m, range(1, modulus(m).phi + 1), 3)
        calls.clear()
        x._norm_and_other_conjugates()
        counts[m] = len(calls)
    assert counts == CHAIN_MULTIPLICATIONS


def test_one_minus_root_is_unit_exactly_off_prime_powers():
    # 1 - zeta_m has norm p when m is a power of the prime p, and is a unit
    # otherwise
    units = {m for m in SUPPORTED_MODULI if (1 - Cyclo.zeta(m)).is_unit()}
    assert units == {6, 10, 21}


def test_relative_trace_of_one():
    assert relative_trace(Cyclo.one(21)) == Cyclo.from_int(7, 2)


def test_relative_trace_of_cube_root():
    zeta3 = Cyclo.zeta(21, 7)
    assert relative_trace(zeta3) == Cyclo.from_int(7, -1)


def test_relative_trace_of_inverse_twist():
    z = Cyclo.zeta(21)
    alpha = (z**7 - z**14) * (z**2 - z**19)
    z7 = Cyclo.zeta(7)
    assert relative_trace(alpha.inverse()) == (z7**4 + z7**3) / (1 + z7 + z7**6)


def test_relative_split_round_trip():
    rng = random.Random(17)
    zeta3 = Cyclo.zeta(21, 7)
    for _ in range(50):
        x = random_element(rng, 21)
        x1, x2 = relative_split(x)
        assert x1.m == 7 and x2.m == 7
        assert x1.to_modulus(21) + x2.to_modulus(21) * zeta3 == x


def test_relative_split_requires_coprime_to_three():
    with pytest.raises(ValueError):
        relative_split(Cyclo.zeta(9))


def test_modulus_doubling_of_cube_root():
    # zeta_3 = zeta_6^2 = zeta_6 - 1
    up = Cyclo.zeta(3).to_modulus(6)
    z6 = Cyclo.zeta(6)
    assert up == z6 - 1
    assert element_str(up) == "z - 1"


def test_to_modulus_refuses_a_non_multiple():
    # Q(zeta_6) = Q(zeta_3), yet only the ascent from m to a multiple of m
    # is written
    for x, big_m in ((Cyclo.zeta(6), 3), (Cyclo.zeta(10), 5), (Cyclo.zeta(4), 6), (Cyclo.zeta(9), 3)):
        with pytest.raises(ValueError):
            x.to_modulus(big_m)
    assert Cyclo.zeta(6).to_modulus(6) == Cyclo.zeta(6)


def test_modulus_doubling_fixes_one():
    assert Cyclo.one(5).to_modulus(10) == Cyclo.one(10)


def test_modulus_doubling_of_sqrt_minus_three():
    # sqrt(-3) = zeta_3 - zeta_3^2 = zeta_6^2 - zeta_6^4 = 2*zeta_6 - 1
    z3 = Cyclo.zeta(3)
    s = z3 - z3**2
    assert s.to_modulus(6) == 2 * Cyclo.zeta(6) - 1
    assert s.to_modulus(6) ** 2 == -3


def test_modulus_doubling_is_ring_homomorphism():
    rng = random.Random(19)
    for m in (3, 5):
        for _ in range(30):
            x = random_element(rng, m)
            y = random_element(rng, m)
            assert (x * y).to_modulus(2 * m) == x.to_modulus(2 * m) * y.to_modulus(2 * m)
            assert (x + y).to_modulus(2 * m) == x.to_modulus(2 * m) + y.to_modulus(2 * m)


def test_parse_print_round_trip_random():
    rng = random.Random(23)
    for m in (3, 5, 7, 10, 21):
        for _ in range(40):
            x = random_element(rng, m)
            assert parse_element(element_str(x), m) == x


def test_parse_quotient_syntax():
    z = Cyclo.zeta(5)
    assert parse_element("5/(z^3-z^2)", 5) == 5 / (z**3 - z**2)
    assert parse_element("(z^3 - z^2)/5", 5) == (z**3 - z**2) / 5


def test_parse_bounds_nesting_and_powers():
    z = Cyclo.zeta(5)
    assert parse_element("(" * 100 + "z" + ")" * 100, 5) == z
    assert parse_element("-" * 100 + "z", 5) == z
    assert parse_element("z^4096", 5) == z
    for s in (
        "(" * 101 + "z" + ")" * 101,
        "(" * 5000 + "z" + ")" * 5000,
        "-" * 5000 + "z",
        "z^4097",
        "2^100000",
        "((2^100)^100)^100",
    ):
        with pytest.raises(ValueError):
            parse_element(s, 5)


def test_parse_errors_are_typed():
    assert issubclass(ParseError, CyclopelError) and issubclass(ParseError, ValueError)
    for s in ("z +* 1", "z^-1", "(z", "z)", "z#", "(" * 101 + "z" + ")" * 101, "z^4097"):
        with pytest.raises(ParseError):
            parse_element(s, 5)
    # truncated strings and division by zero
    for s in ("", "z+", "2^", "(", "1/0", "z/(z - z)"):
        with pytest.raises(ParseError):
            parse_element(s, 5)


def test_parse_accepts_ascii_digits_only():
    for s in ("z²", "z^١", "٣*z"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_element(s, 5)


def test_parse_rejects_digit_runs_wider_than_the_budget():
    for s in ("7" * 5000, "z^" + "7" * 5000):
        with pytest.raises(ParseError):
            parse_element(s, 5)


def test_parse_budget_charges_products_and_quotients():
    # z^e costs e bits, a product bits(a) + bits(b), a quotient
    # bits(a) + phi(m) bits(b); 4096 bits in all
    z = Cyclo.zeta(5)
    assert parse_element("z^4094*z", 5) == parse_element("z^4091/z", 5) == z**4095
    for s in ("z^4095*z", "z^4092/z"):
        with pytest.raises(ParseError, match="more than 4096 bits"):
            parse_element(s, 5)


HOSTILE_M32 = (
    "(z+1)^4096/(z+1)^4096*" * 300 + "1",
    "*".join(["(z+1)^4096"] * 100),
    "+".join(["(z+1)^4096"] * 372),
)


def test_parse_budget_stops_hostile_strings_early(monkeypatch):
    # each would spend seconds in big-integer products if let through; the
    # spy makes a miss fail fast instead
    calls = 0
    original = Cyclo.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise RuntimeError("more than 200 multiplications")
        return original(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    for s in HOSTILE_M32:
        calls = 0
        with pytest.raises(ParseError):
            parse_element(s, 32)


def test_canonical_form_is_idempotent():
    # reduction happens at construction; rebuilding from the printed form is stable
    rng = random.Random(29)
    for m in (7, 21):
        x = random_element(rng, m)
        s = element_str(x)
        assert element_str(parse_element(s, m)) == s
