"""Polarization elements: different generators, unit sign solving, the
three conditions, and equivalence of polarizations."""

from __future__ import annotations

import itertools
import random
from math import gcd

import pytest
import sympy

from cyclopel.cmfield import CMType
from cyclopel.cyclotomic import (
    SUPPORTED_MODULI,
    Cyclo,
    modulus,
    parse_element,
)
import cyclopel.polarization as Q
from cyclopel.embeddings import certified_sign_im
from cyclopel.errors import (
    Indeterminate, InvariantViolation, NonIntegralForm, Unsatisfiable, UnsupportedModulus
)
from cyclopel.monodromy import validate
from cyclopel.peldatum import Block, HermitianDatum, assemble, form_signature, gram_matrix
from cyclopel.polarization import (
    _constants,
    _signs_to_bits,
    _solve_combo,
    DifferentGenerator,
    beta0,
    beta_for_type,
    equivalent_beta,
    gram_determinant,
    has_independent_signs,
    verify_conditions,
)
import oracles
from oracles import galois_act_cm, sign_vector, unit_for_signs

BETA0_MODULI = (3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 21, 25, 27, 32)
# Moduli where beta_for_type runs: the unit signs are independent (21 has
# sign rank 5 of 6)
SERVED_MODULI = frozenset({3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 19, 25, 27, 32})
# The moduli of the classical closed forms of beta0: odd primes, 2^k, 3^k
# and products of two odd primes
CLOSED_FORM_MODULI = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 21, 27, 32)


def pe(m, s):
    return parse_element(s, m)


def test_different_generator_rejects_bad_elements():
    z = Cyclo.zeta(5)
    with pytest.raises(InvariantViolation):
        DifferentGenerator(5, (z - z**4) / 2, 2 / (z - z**4))
    with pytest.raises(InvariantViolation):
        DifferentGenerator(5, z + z**4, 1 / (z + z**4))
    with pytest.raises(InvariantViolation, match="does not invert it"):
        DifferentGenerator(5, beta0(5).element, Cyclo.one(5))


def test_beta0_cases_and_values():
    assert beta0(3).element == pe(3, "2*z + 1")
    assert beta0(4).element == pe(4, "-2*z")
    assert beta0(5).element == pe(5, "-z^3 + 3*z^2 + 2*z + 1")
    assert beta0(5).element == pe(5, "5/(z^3 - z^2)")
    assert beta0(7).element == pe(7, "-z^5 - 2*z^4 + 4*z^3 + 3*z^2 + 2*z + 1")
    assert beta0(7).element == pe(7, "7/(z^4 - z^3)")
    assert beta0(8).element == pe(8, "-4*z^2")
    assert beta0(9).element == pe(9, "-6*z^3 - 3")
    assert beta0(16).element == pe(16, "-8*z^4")
    assert beta0(21).element == pe(
        21,
        "z^11 - 3*z^9 + 4*z^8 + 8*z^6 - 7*z^5 + z^4 + 5*z^3 - 7*z^2 + 4*z + 2",
    )
    assert beta0(27).element == pe(27, "-18*z^9 - 9")


def test_beta0_unsupported():
    for m in (12, 23):
        with pytest.raises(UnsupportedModulus):
            beta0(m)


def test_beta0_matches_the_classical_closed_forms():
    # the one formula gives the element and inverse of each case formula
    assert [m for m in BETA0_MODULI if oracles.different_generator(m)] == list(CLOSED_FORM_MODULI)
    for m in CLOSED_FORM_MODULI:
        element, inverse = oracles.different_generator(m)
        assert beta0(m).element == element and beta0(m).inverse == inverse, m


def test_beta0_norm_is_the_discriminant():
    # |N(beta0)| = |disc Q(zeta_m)| = m^phi / prod_{p | m} p^(phi/(p-1))
    for m in BETA0_MODULI:
        phi = modulus(m).phi
        disc = m**phi
        for p in sympy.primefactors(m):
            disc //= p ** (phi // (p - 1))
        assert abs(beta0(m).element.norm()) == disc, m


def test_beta0_generates_different_oracle():
    # the different of Z[zeta_m] is (Phi_m'(zeta_m)); beta0 must be a unit
    # multiple of it
    x = sympy.symbols("x")
    for m in BETA0_MODULI:
        dpoly = sympy.Poly(sympy.diff(sympy.cyclotomic_poly(m, x), x), x)
        coeffs = [int(c) for c in reversed(dpoly.all_coeffs())]
        dgen = Cyclo(m, coeffs)
        ratio = beta0(m).element / dgen
        assert ratio.is_integral and ratio.is_unit(), m


def test_beta0_is_purely_imaginary():
    for m in BETA0_MODULI:
        el = beta0(m).element
        assert el == -el.conj()
        assert not el.is_zero()


def test_beta0_at_twice_odd_moduli():
    # Q(zeta_2n) = Q(zeta_n) for odd n: at 6 the formula gives beta0(3)
    # itself, at 10 a unit multiple of beta0(5)
    assert beta0(6).element == beta0(3).element.to_modulus(6)
    assert beta0(6).inverse == beta0(3).inverse.to_modulus(6)
    ratio = beta0(10).element * beta0(5).inverse.to_modulus(10)
    assert ratio != 1 and ratio.is_integral and ratio.is_unit()


def test_twice_odd_beta_for_type_matches_transport():
    # every polarized CM-type at 3 and 5, carried to the same field written
    # over 6 and 10, is in the class that beta_for_type solves for there
    for m in (3, 5):
        for phi in _cm_types(m):
            lifted, moved = oracles.twice_prime_transport(phi, beta_for_type(phi).beta)
            assert verify_conditions(moved, lifted).all_pass(), phi
            point = beta_for_type(lifted)
            assert point.conditions.all_pass()
            assert verify_conditions(point.beta, lifted).all_pass(), lifted
            assert equivalent_beta(point.beta, moved), lifted
    # the transport by hand: zeta_3 = zeta_6^2 = zeta_6 - 1, and zeta_5 =
    # zeta_10^2 with zeta_10^4 = zeta_10^3 - zeta_10^2 + zeta_10 - 1
    cases = [
        (3, {2}, "2*z + 1", {5}, "2*z - 1"),
        (5, {2, 4}, "5/(z^3 - z^2)", {7, 9}, "3*z^3 - z^2 + 4*z - 2"),
        (5, {1, 2}, "5/(z - z^4)", {1, 7}, "-z^3 - 3*z^2 + 2*z - 1"),
    ]
    for m, members, beta, lifted_members, moved in cases:
        lifted, got = oracles.twice_prime_transport(CMType(m, frozenset(members)), parse_element(beta, m))
        assert lifted == CMType(2 * m, frozenset(lifted_members))
        assert got == parse_element(moved, 2 * m)


def test_beta0_inverse_inverts_it():
    for m in BETA0_MODULI:
        assert beta0(m).inverse * beta0(m).element == 1
        assert beta0(m).inverse == beta0(m).element.inverse()


def test_unit_generators_shapes():
    g3 = _constants(3).gens
    assert len(g3) == 1 and g3[0] == -Cyclo.one(3)
    assert len(_constants(5).gens) == 2
    assert len(_constants(7).gens) == 3
    for m in (3, 4, 5, 6, 7, 8, 9, 16, 21):
        for g in _constants(m).gens:
            assert g.is_real() and g.is_unit() and g.is_integral


def _quotient_generators(m):
    """The unit generators as quotients of cyclotomic numbers, by division."""
    if m % 4 == 2:
        return [g.to_modulus(m) for g in _quotient_generators(m // 2)]
    z = Cyclo.zeta(m)
    gens = [-Cyclo.one(m)]
    if m % 2 == 1:
        for a in range(2, (m - 1) // 2 + 1):
            if gcd(a, m) == 1:
                gens.append((z**a - z ** (m - a)) / (z - z ** (m - 1)))
    else:
        for a in range(3, m // 2, 2):
            if gcd(a, m) == 1:
                gens.append(Cyclo.zeta(m, (1 - a) // 2) * (z**a - 1) / (z - 1))
    return gens


@pytest.mark.parametrize(
    "m", sorted(SERVED_MODULI | {m for m in SUPPORTED_MODULI if m % 4 == 2})
)
def test_closed_form_generator_inverses(m):
    table = _constants(m)
    assert list(table.gens) == _quotient_generators(m)
    assert len(table.inverses) == len(table.gens)
    for g, h in zip(table.gens, table.inverses):
        assert g.is_integral and h.is_integral
        assert g * h == 1
        assert h == g.inverse()


def test_sign_matrix_shape():
    rows = _constants(7).signs
    assert len(rows) == 3
    assert all(len(r) == len(modulus(7).reps) for r in rows)
    assert rows[0] == (-1, -1, -1)


def test_solve_sign_pattern_trivial():
    assert _solve_combo((1, 1), 5) == 0
    assert unit_for_signs((1, 1), 5) == Cyclo.one(5)


def test_solve_sign_pattern_minus_one():
    assert _solve_combo((-1, -1), 5) == 1  # the first generator, -1
    assert unit_for_signs((-1, -1), 5) == -Cyclo.one(5)


def test_solve_sign_pattern_rejects_wrong_length():
    with pytest.raises(ValueError):
        _solve_combo((1, 1), 7)


def test_solve_sign_pattern_rejects_entries_other_than_plus_minus_one():
    # a malformed target is the caller's fault, not a broken invariant
    for target in ((0, 1), (2, 1)):
        with pytest.raises(ValueError, match="other than"):
            _solve_combo(target, 5)
    # a generator row with a sign 0 would be an internal fault
    with pytest.raises(InvariantViolation):
        _signs_to_bits((0, 1))


def _eliminate(rows, ncols):
    """GF(2) forward elimination of the sign rows, pivot by lowest free
    column: column -> (reduced row bits, generator combo of that row)."""
    pivots = {}
    for i, bits in enumerate(rows):
        combo = 1 << i
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
    return pivots


def _back_substitute(pivots, tbits, ncols):
    """Generator combo realizing tbits, or None when some column of the
    target has no pivot."""
    combo = 0
    for col in range(ncols):
        if tbits & (1 << col):
            if col not in pivots:
                return None
            pbits, pcombo = pivots[col]
            tbits ^= pbits
            combo ^= pcombo
    assert tbits == 0
    return combo


@pytest.mark.parametrize("m", sorted(SUPPORTED_MODULI))
def test_span_lookup_matches_elimination(m):
    ncols = len(modulus(m).reps)
    rows = [_signs_to_bits(s) for s in _constants(m).signs]
    pivots = _eliminate(rows, ncols)
    for target in itertools.product((1, -1), repeat=ncols):
        expected = _back_substitute(pivots, _signs_to_bits(target), ncols)
        if expected is None:
            with pytest.raises(Unsatisfiable) as raised:
                _solve_combo(target, m)
            assert raised.value.cokernel_dim == ncols - len(pivots), target
        else:
            assert _solve_combo(target, m) == expected, target


def test_solve_sign_pattern_surjective_small():
    for m in (5, 7, 8):
        n = len(modulus(m).reps)
        for target in itertools.product((1, -1), repeat=n):
            u = unit_for_signs(target, m)
            assert isinstance(u, Cyclo)
            assert sign_vector(u) == target


def test_solve_sign_pattern_m21_half_reachable():
    n = len(modulus(21).reps)
    assert n == 6
    hits, misses = 0, 0
    for target in itertools.product((1, -1), repeat=n):
        u = unit_for_signs(target, 21)
        if isinstance(u, Unsatisfiable):
            assert u.cokernel_dim == 1
            misses += 1
        else:
            assert sign_vector(u) == target
            hits += 1
    assert hits == 32 and misses == 32


def test_independent_sign_constants():
    assert has_independent_signs(5)
    assert has_independent_signs(10)
    assert not has_independent_signs(21)
    assert {m for m in SUPPORTED_MODULI if has_independent_signs(m)} == SUPPORTED_MODULI - {21}
    assert 21 not in SERVED_MODULI
    with pytest.raises(UnsupportedModulus):
        has_independent_signs(23)


def test_verify_conditions_m3():
    root = pe(3, "2*z + 1")  # sqrt(-3)
    phi = CMType(3, frozenset({2}))
    rep = verify_conditions(root, phi)
    assert (rep.generates_different, rep.antisymmetric, rep.signs_negative) == (
        True,
        True,
        True,
    )
    assert rep.all_pass()
    rep = verify_conditions(-root, phi)
    assert (rep.generates_different, rep.antisymmetric, rep.signs_negative) == (
        True,
        True,
        False,
    )
    rep = verify_conditions(3 * root, phi)
    assert not rep.generates_different
    assert rep.antisymmetric and rep.signs_negative
    with pytest.raises(ValueError):
        verify_conditions(beta0(5).element, phi)


def test_certificate_by_inverse_agrees_with_the_norm_on_every_type():
    # every CM-type at every modulus where beta_for_type runs: condition (1)
    # by integral inverse, as beta_for_type takes it, is the norm test's
    # outcome, and so are the other two conditions, for the type and for
    # its conjugate (whose signs all fail)
    count = 0
    for m in sorted(SERVED_MODULI):
        for phi in _cm_types(m):
            point = beta_for_type(phi)
            beta, xi = point.beta, point.entry.xi
            for psi in (phi, phi.conjugate()):
                by_norm = verify_conditions(beta, psi)
                assert verify_conditions(beta, psi, inverse=xi) == by_norm, psi
            assert by_norm.generates_different and not by_norm.signs_negative
            assert point.conditions == verify_conditions(beta, phi)
            count += 1
    assert count == sum(2 ** (modulus(m).phi // 2) for m in SERVED_MODULI)


@pytest.mark.parametrize("m", sorted(SERVED_MODULI))
def test_certificate_refuses_a_wrong_inverse(m):
    # 2 * xi, and the xi of another type: condition (1) fails, the other
    # two stand
    phis = _cm_types(m)
    points = [beta_for_type(phi) for phi in phis[:2] + phis[-1:]]
    for point, other in zip(points, points[1:] + points[:1]):
        beta, phi = point.beta, point.phi
        for wrong in (2 * point.entry.xi, other.entry.xi, point.entry.xi / 2, -point.entry.xi):
            if wrong == point.entry.xi:
                continue
            report = verify_conditions(beta, phi, inverse=wrong)
            assert not report.generates_different, (phi, wrong)
            assert report.antisymmetric and report.signs_negative
    # a beta that does not generate the different fails whatever inverse
    # comes with it: here its true one
    point = points[0]
    report = verify_conditions(3 * point.beta, point.phi, inverse=point.entry.xi / 3)
    assert not report.generates_different


def test_cold_beta_for_type_takes_no_norm(monkeypatch):
    calls = []
    original = Cyclo._norm_and_other_conjugates

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclo, "_norm_and_other_conjugates", counted)
    oracles.clear_memos()
    rng = random.Random(71)
    for m in sorted(SERVED_MODULI):
        for phi in _cm_types(m, rng, 4):
            assert beta_for_type(phi).conditions.all_pass()
    assert calls == []
    # the norm test without an inverse still takes one
    phi = CMType(7, frozenset({1, 2, 4}))
    assert verify_conditions(beta_for_type(phi).beta, phi).all_pass()
    assert len(calls) == 1


def test_beta_for_type_m3():
    point = beta_for_type(CMType(3, frozenset({2})))
    assert point.u0 == Cyclo.one(3)
    assert point.beta == pe(3, "2*z + 1")
    assert point.conditions.all_pass()
    assert point.entry.xi == point.beta.inverse()


def _cm_types(m, rng=None, count=None):
    """Every CM-type mod m, or count of them drawn with rng."""
    reps = modulus(m).reps
    if rng is None:
        choices = itertools.product((False, True), repeat=len(reps))
    else:
        choices = ([rng.random() < 0.5 for _ in reps] for _ in range(count))
    return [CMType(m, frozenset(m - n if flip else n for n, flip in zip(reps, c))) for c in choices]


@pytest.mark.parametrize("m", [5, 7, 11, 13])
def test_point_xi_is_inverse_of_beta_for_every_type(m):
    for phi in _cm_types(m):
        point = beta_for_type(phi)
        assert point.entry.xi == point.beta.inverse()
        assert point.entry.xi * point.beta == 1


def test_point_cell_det_and_column_match_the_fixture_path():
    # the fixture path reads the point's own entry record, whose cell (laid
    # out from its trace row), determinant and column are those of the
    # one-entry datum
    rng = random.Random(97)
    phis = [phi for m in (3, 5, 7, 11, 13) for phi in _cm_types(m)]
    phis += [phi for m in (17, 19) for phi in _cm_types(m, rng, 40)]
    for phi in phis:
        entry = beta_for_type(phi).entry
        assert Q.hermitian_entry(entry.xi) is entry
        h = HermitianDatum(phi.m, (Block(phi.m, (entry.xi,)),))
        assert oracles.gram_cell(entry.xi) == gram_matrix(h), phi
        assert entry.det == gram_determinant(gram_matrix(h)) and abs(entry.det) == 1, phi
        assert entry.column == form_signature(h).values == oracles.form_signature(h).values, phi
    assert len(phis) == 2 + 4 + 8 + 32 + 64 + 2 * 40


def _cell(traces):
    """The cell laid out from a trace row: row a is its window at phi - 1 - a."""
    d = (len(traces) + 1) // 2
    return tuple(tuple(traces[d - 1 - a:2 * d - 1 - a]) for a in range(d))


def test_trace_row_lays_out_the_cell_of_cyclo_products(monkeypatch):
    # every CM-type at the served moduli up to 13 and 40 at 17 and 19: the
    # cell laid out from the entry's trace row is (a, b) -> tr(xi
    # zeta^(a-b)) by Cyclo products, and the entry's determinant, taken
    # without a second skew check, is Bareiss's on that cell
    rng = random.Random(113)
    phis = [phi for m in sorted(SERVED_MODULI) if m <= 13 for phi in _cm_types(m)]
    phis += list(dict.fromkeys(phi for m in (17, 19) for phi in _cm_types(m, rng, 40)))
    seen = []
    original = Q.gram_determinant
    monkeypatch.setattr(Q, "gram_determinant", lambda gram: seen.append(gram) or original(gram))
    oracles.clear_memos()
    cells = set()
    for phi in phis:
        entry = beta_for_type(phi).entry
        zeta, d = Cyclo.zeta(phi.m), modulus(phi.m).phi
        traces = {k: (entry.xi * zeta ** (k % phi.m)).trace() for k in range(1 - d, d)}
        cell = _cell(entry.traces)
        assert len(entry.traces) == 2 * d - 1, phi
        assert cell == tuple(tuple(traces[a - b] for b in range(d)) for a in range(d)), phi
        assert entry.det == oracles.bareiss_determinant(cell) == 1, phi
        cells.add(cell)
    assert len(phis) > 2 + 2 + 4 + 2 + 8 + 4 + 8 + 4 + 32 + 64 + 70
    # each first-seen determinant took its cell as a certified _SkewCell
    assert len(seen) == len(phis)
    assert all(type(gram) is Q._SkewCell and tuple(gram) in cells for gram in seen)


def test_gram_traces_fail_as_the_former_cell():
    # random entries at every supported modulus, purely imaginary ones with
    # denominators (some traces not integral) and arbitrary ones (not
    # skew): the trace row lays out the former cell, or raises its error
    # with its message
    rng = random.Random(127)
    kinds = set()
    for m in sorted(SUPPORTED_MODULI):
        for k in range(40):
            x = Cyclo(m, [rng.randint(-3, 3) for _ in range(m)], rng.choice((1, 1, 2, 3, m)))
            xi = x - x.conj() if k % 4 else x
            if xi.is_zero():
                continue
            try:
                want = oracles.gram_cell(xi)
            except (InvariantViolation, NonIntegralForm) as exc:
                with pytest.raises(type(exc)) as got:
                    Q._gram_traces(xi)
                assert str(got.value) == str(exc), (m, xi)
                kinds.add(type(exc))
                continue
            assert _cell(Q._gram_traces(xi)) == want, (m, xi)
            kinds.add(tuple)
    assert kinds == {tuple, InvariantViolation, NonIntegralForm}


def test_gram_determinant_checks_every_other_matrix():
    # only the cell of a certified trace row skips the check: a plain
    # matrix, even one laid out from a trace row, is checked
    entry = beta_for_type(CMType(7, frozenset({1, 2, 4}))).entry
    cell = _cell(entry.traces)
    assert gram_determinant(cell) == gram_determinant([list(row) for row in cell]) == 1
    bent = list(entry.traces)
    bent[0] += 1
    for bad in (_cell(bent), [list(row) for row in _cell(bent)], ((1, 0), (0, 1))):
        with pytest.raises(ValueError, match="skew-symmetric"):
            gram_determinant(bad)


def test_no_entry_holds_a_matrix():
    # after every CM-type at m = 19 is built, with its trace row and
    # determinant read, and a family assembled, each entry holds its
    # trace row, a flat tuple of 2 phi - 1 ints, and no tuple of tuples
    entries = [beta_for_type(phi).entry for phi in _cm_types(19)]
    r = assemble(validate(19, (1,) * 23 + (15,)))
    entries += [c.point.entry for c in r.components]
    assert len(entries) == 512 + 22
    for entry in entries:
        entry.traces, entry.det
        values = [getattr(entry, slot) for slot in type(entry).__slots__ + Q._Made.__slots__]
        assert not any(type(v) is tuple and any(type(x) is tuple for x in v) for v in values)
        assert type(entry._traces) is tuple and len(entry._traces) == 35
        assert all(type(t) is int for t in entry._traces)


def test_point_inverts_beta_once(monkeypatch):
    point = beta_for_type(CMType(7, frozenset({1, 2, 4})))
    calls = []
    original = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    assert point.entry.xi is point.entry.xi
    assert point.entry.xi * point.beta == 1
    assert calls == []


def test_cold_beta_for_type_reads_beta0_constants_off_its_record(monkeypatch):
    moduli = sorted(SERVED_MODULI)
    for m in moduli:
        beta0(m)  # the per-modulus records are built before the spies
    beta_for_type.cache_clear()
    Q.hermitian_entry.cache_clear()
    signed, inverted = [], []
    original_sign, original_inverse = Q.certified_sign_im, Cyclo.inverse

    def sign_spy(x, n):
        signed.append(x)
        return original_sign(x, n)

    def inverse_spy(self):
        inverted.append(self)
        return original_inverse(self)

    monkeypatch.setattr(Q, "certified_sign_im", sign_spy)
    monkeypatch.setattr(Cyclo, "inverse", inverse_spy)
    for m in moduli:
        signed.clear()
        phi = CMType(m, frozenset(modulus(m).reps))
        point = beta_for_type(phi)
        assert point.beta * point.entry.xi == 1
        # only beta's own signs (condition 3) and xi's (its signature
        # column) are certified, not beta0's
        assert signed == [point.beta] * len(phi.members) + [point.entry.xi] * len(phi.members)
    assert inverted == []


def test_beta_for_type_m5_table():
    b1 = pe(5, "5/(z^3 - z^2)")
    b2 = pe(5, "5/(z - z^4)")
    expect = {
        frozenset({2, 4}): b1,
        frozenset({1, 2}): b2,
        frozenset({1, 3}): -b1,
        frozenset({3, 4}): -b2,
    }
    for members, b in expect.items():
        point = beta_for_type(CMType(5, members))
        assert point.beta == b
        assert point.conditions.all_pass()


def test_beta_for_type_m7_table():
    b1 = pe(7, "7/(z - z^6)")
    b2 = pe(7, "7/(z^3 - z^4)")
    b3 = pe(7, "7/(z^2 - z^5)")
    exact = {
        frozenset({1, 2, 3}): b1,
        frozenset({4, 5, 6}): -b1,
        frozenset({2, 4, 6}): -b2,
    }
    up_to_unit = {
        frozenset({1, 3, 5}): b2,
        frozenset({1, 4, 5}): b3,
        frozenset({2, 3, 6}): -b3,
    }
    for members, b in exact.items():
        point = beta_for_type(CMType(7, members))
        assert point.beta == b
    for members, b in up_to_unit.items():
        point = beta_for_type(CMType(7, members))
        assert equivalent_beta(point.beta, b)
        assert point.conditions.all_pass()


def test_m7_galois_orbit_of_beta():
    # sigma_3 cycles the six primitive polarizations
    b1 = pe(7, "7/(z - z^6)")
    b2 = pe(7, "7/(z^3 - z^4)")
    b3 = pe(7, "7/(z^2 - z^5)")
    cycle = [b1, b2, b3, -b1, -b2, -b3]
    x = b1
    for expected in cycle[1:] + [b1]:
        x = x.galois(3)
        assert x == expected


def test_beta_for_type_m8():
    point = beta_for_type(CMType(8, frozenset({3, 7})))
    assert point.u0 == -Cyclo.one(8)
    assert point.beta == pe(8, "4*z^2")
    point = beta_for_type(CMType(8, frozenset({1, 3})))
    assert point.u0 == pe(8, "-z^3 + z + 1")
    assert point.beta == pe(8, "-4*z^3 - 4*z^2 - 4*z")
    assert equivalent_beta(point.beta, pe(8, "-4*z^3 + 4*z^2 - 4*z"))


def test_beta_for_type_unsupported():
    # the record of the modulus says what is missing
    with pytest.raises(UnsupportedModulus, match="independent unit signs; m = 21 has rank 5 of 6"):
        beta_for_type(CMType(21, frozenset(modulus(21).reps)))


def test_served_moduli_are_read_off_the_constants():
    assert {m for m in SUPPORTED_MODULI if has_independent_signs(m)} == SERVED_MODULI
    for m in SUPPORTED_MODULI:
        table = _constants(m)
        assert table.beta0 is beta0(m)
        assert table.beta0_signs == tuple(
            certified_sign_im(table.beta0.element, n) for n in modulus(m).reps
        )
        assert 0 not in table.beta0_signs


@pytest.mark.parametrize("m", [6, 10, 25])
def test_beta_for_type_serves_every_type_at_the_new_moduli(m):
    # no closed form of beta0 existed at 6, 10 and 25
    types = _cm_types(m)
    for phi in types:
        point = beta_for_type(phi)
        assert point.conditions.all_pass(), phi
        assert point.entry.phi == phi and abs(point.entry.det) == 1, phi
    assert len(types) == 2 ** (modulus(m).phi // 2)


def test_beta_for_type_random_moduli():
    rng = random.Random(101)
    for m in (9, 11, 13, 16):
        units = modulus(m).units
        pairs = sorted({frozenset({n, m - n}) for n in units}, key=min)
        for _ in range(4):
            members = frozenset(rng.choice(tuple(sorted(p))) for p in pairs)
            point = beta_for_type(CMType(m, members))
            assert point.conditions.all_pass()


def test_beta_for_type_is_memoized_per_type():
    phi = CMType(7, frozenset({1, 2, 4}))
    point = beta_for_type(phi)
    assert beta_for_type(CMType(7, frozenset({4, 2, 1}))) is point
    assert Q.hermitian_entry(point.entry.xi) is point.entry


def test_beta_galois_compatibility():
    # if beta polarizes Phi, sigma_j(beta) polarizes j^-1 Phi
    phi = CMType(7, frozenset({1, 2, 3}))
    beta = beta_for_type(phi).beta
    for j in modulus(7).units:
        moved = galois_act_cm(pow(j, -1, 7), phi)
        assert verify_conditions(beta.galois(j), moved).all_pass()
        assert equivalent_beta(beta_for_type(moved).beta, beta.galois(j))


def test_conjugate_type_gets_negated_beta():
    for m, members in ((5, {1, 2}), (7, {1, 3, 5}), (9, {1, 2, 4})):
        phi = CMType(m, frozenset(members))
        point = beta_for_type(phi)
        assert verify_conditions(-point.beta, phi.conjugate()).all_pass()
        assert equivalent_beta(beta_for_type(phi.conjugate()).beta, -point.beta)


def test_equivalent_beta_semantics():
    b = beta0(5).element
    u = _constants(5).gens[1]
    assert equivalent_beta(b, b)
    assert equivalent_beta(u * u * b, b)  # square of a real unit is totally positive
    assert not equivalent_beta(-b, b)
    assert not equivalent_beta(2 * b, b)
    assert not equivalent_beta(b * b, b)


def test_equivalent_beta_is_an_equivalence():
    # reflexive, symmetric, transitive across totally-positive-unit multiples
    rng = random.Random(109)
    b = beta0(7).element
    gens = _constants(7).gens
    pool = [b]
    for _ in range(4):
        u = gens[rng.randint(1, len(gens) - 1)]
        pool.append(pool[-1] * u * u)
    pool.append(-b)
    pool.append(3 * b)
    for x in pool:
        assert equivalent_beta(x, x)
        for y in pool:
            assert equivalent_beta(x, y) == equivalent_beta(y, x)
            for w in pool:
                if equivalent_beta(x, y) and equivalent_beta(y, w):
                    assert equivalent_beta(x, w)


def test_equivalent_beta_m21_only_sufficient():
    b = beta0(21).element
    assert equivalent_beta(b, b)
    with pytest.raises(Indeterminate):
        equivalent_beta(-b, b)
