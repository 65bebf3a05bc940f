"""Hermitian data: Gram matrices of the trace pairing, assembly for odd
prime moduli, equivalence, the m = 7 relative pipeline, and fixture
verification (the verification functions live in cyclopel.verify)."""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
import sympy

import cyclopel
import cyclopel.cmfield
import cyclopel.monodromy
from cyclopel.cmfield import CMType, is_simple
from cyclopel.cyclotomic import (
    SUPPORTED_MODULI,
    Cyclo,
    element_str,
    modulus,
    parse_element,
)
from cyclopel.errors import (
    Indeterminate,
    InvariantViolation,
    MalformedDatum,
    NonCompactType,
    NonIntegralForm,
    NonMaximalOrder,
    UnsupportedModulus,
)
from cyclopel.monodromy import Signature, signature, validate
import cyclopel.peldatum as P
import cyclopel.polarization as Q
import cyclopel.verify as V
from cyclopel.peldatum import (
    CERTAINTY_FORM_UNIQUENESS,
    CERTAINTY_SIMPLE,
    Block,
    FamilyResult,
    GramView,
    HermitianDatum,
    ASSEMBLE_MODULI,
    assemble,
    entry_cm_type,
    form_signature,
    gram_determinant,
    gram_matrix,
)
from cyclopel.polarization import (
    Entry,
    PolarizedCMPoint,
    beta0,
    beta_for_type,
    equivalent_beta,
)
from cyclopel.verify import (
    default_corpus_path,
    equivalent_datum,
    load_corpus,
    m17_pipeline,
    verify_fixture,
    _fixture_datum,
)
import oracles
from oracles import relative_trace


def pe(s, m):
    return parse_element(s, m)


XI3 = pe("(2*z + 1)/3", 3)  # 1 / (-sqrt(-3))
XI5_1 = pe("(z^3 - z^2)/5", 5)
XI5_2 = pe("(z^3 + z^2 + 2*z + 1)/5", 5)


def numeric_trace(x, dps=40):
    """Trace as the literal sum of all conjugate embeddings."""
    with mpmath.workdps(dps):
        tot = mpmath.mpc(0)
        for n in modulus(x.m).units:
            root = mpmath.e ** (2j * mpmath.pi * n / x.m)
            val = mpmath.mpc(0)
            for c in reversed(x.num):
                val = val * root + int(c)
            tot += val
        return tot / int(x.den)


def test_entry_cm_type():
    assert entry_cm_type(XI3).members == frozenset({1})
    assert entry_cm_type(-XI3).members == frozenset({2})
    assert entry_cm_type(XI5_1).members == frozenset({2, 4})
    assert entry_cm_type(-XI5_1).members == frozenset({1, 3})
    assert entry_cm_type(XI5_2).members == frozenset({1, 2})


def test_gram_m3_single_entries():
    g = gram_matrix(HermitianDatum(3, (Block(3, (XI3,)),)))
    assert g == ((0, 1), (-1, 0))
    assert gram_determinant(g) == 1
    g = gram_matrix(HermitianDatum(3, (Block(3, (-XI3,)),)))
    assert g == ((0, -1), (1, 0))


def test_gram_m3_two_entries():
    g = gram_matrix(HermitianDatum(3, (Block(3, (XI3, -XI3)),)))
    assert g == (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 0, 1, 0),
    )
    assert gram_determinant(g) == 1


def test_gram_m5_single_entry():
    g = gram_matrix(HermitianDatum(5, (Block(5, (XI5_1,)),)))
    assert g == (
        (0, 0, -1, 1),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (-1, 1, 0, 0),
    )
    assert gram_determinant(g) == 1


def test_gram_negation():
    h = HermitianDatum(5, (Block(5, (XI5_1, XI5_2)),))
    hn = HermitianDatum(5, (Block(5, (-XI5_1, -XI5_2)),))
    g, gn = gram_matrix(h), gram_matrix(hn)
    assert all(gn[i][j] == -g[i][j] for i in range(len(g)) for j in range(len(g)))


def test_gram_matches_numeric_trace():
    for m, xi in ((5, XI5_1), (7, pe("(z^4 - z^3)/7", 7))):
        g = gram_matrix(HermitianDatum(m, (Block(m, (xi,)),)))
        zeta = Cyclo.zeta(m)
        d = len(g)
        for a in range(d):
            for b in range(d):
                val = numeric_trace(xi * zeta ** ((a - b) % m))
                assert abs(val.imag) < 1e-25
                assert abs(val.real - g[a][b]) < 1e-25


def test_gram_skew_and_integral():
    rng = random.Random(103)
    for m in (3, 5, 7, 9):
        b0 = beta0(m).element
        for _ in range(5):
            entries = tuple(
                (b0 if rng.random() < 0.5 else -b0).inverse() for _ in range(rng.randint(1, 3))
            )
            g = gram_matrix(HermitianDatum(m, (Block(m, entries),)))
            n = len(g)
            assert all(g[i][j] == -g[j][i] for i in range(n) for j in range(n))
            assert abs(gram_determinant(g)) == 1


def test_gram_rejects_non_integral_form():
    h = HermitianDatum(3, (Block(3, (pe("(2*z + 1)/9", 3),)),))
    for _ in range(2):  # a failed cell is not cached
        with pytest.raises(NonIntegralForm):
            gram_matrix(h)


def test_gram_view_rows():
    fixtures = load_corpus(default_corpus_path())
    hs = [_fixture_datum(f) for f in fixtures]
    views = [_view(h) for h in hs]
    r = assemble(validate(7, (2, 4, 4, 4, 1, 6)))
    hs.append(r.hermitian)
    views.append(r.gram)
    assert any(len(h.blocks) > 1 for h in hs)
    for h, view in zip(hs, views):
        dense = gram_matrix(h)
        n = len(dense)
        assert len(view) == n == sum(len(cell) for cell in view.cells)
        assert tuple(view) == dense
        assert [view[i] for i in range(n)] == list(dense)
        assert [view[i - n] for i in range(n)] == list(dense)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                view[i]
        assert view == _view(h)


def _view(h):
    """The Gram view over the cells of the entries of h."""
    return GramView(tuple(e.cell for e in P._entries(h)))


def _skew(rng, n, choices):
    """A random n x n skew-symmetric matrix whose upper entries are drawn
    from choices, each a value or a callable giving one."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(choices)
            v = v() if callable(v) else v
            mat[i][j], mat[j][i] = v, -v
    return mat


def test_gram_determinant_oracle():
    assert gram_determinant(()) == 1
    assert gram_determinant(((0, 0), (0, 0))) == 0
    assert gram_determinant(((0, 3), (-3, 0))) == 9
    assert gram_determinant(((0, 1, 2), (-1, 0, 3), (-2, -3, 0))) == 0
    # the Pfaffian takes skew matrices only
    for bad in (((2, 0), (0, 3)), ((0, 1), (1, 0)), ((1,),), ((0, 1), (-1,)), ((0, 1, 0), (-1, 0, 0))):
        with pytest.raises(ValueError, match="skew-symmetric"):
            gram_determinant(bad)
    rng = random.Random(107)

    def gauss_det(rows):
        n = len(rows)
        m = [[Fraction(v) for v in row] for row in rows]
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return 0
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        assert det.denominator == 1
        return int(det)

    # the oracle is Bareiss on any square matrix
    for _ in range(100):
        n = rng.randint(1, 6)
        mat = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        assert oracles.bareiss_determinant(mat) == gauss_det(mat)
    # sparse skew matrices up to 20 x 20 force zero-pivot swaps; a repeated
    # or zero index makes one singular, and an odd order gives 0
    singular = swaps = 0
    for _ in range(1500):
        n = rng.randint(1, 20)
        mat = _skew(rng, n, (0, 0, 0, 0, lambda: rng.randint(-30, 30)))
        if n > 2 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            dup = rng.random() < 0.5  # index j becomes a copy of index i, or zero
            for k in range(n):
                v = mat[k][i] if dup and k not in (i, j) else 0
                mat[k][j], mat[j][k] = v, -v
        want = oracles.bareiss_determinant(mat)
        singular += want == 0
        swaps += n % 2 == 0 and mat[0][1] == 0
        assert gram_determinant(mat) == want, mat
        if n <= 6:
            assert want == gauss_det(mat)
        if n % 2:
            assert want == 0
    assert singular > 300 and swaps > 300


@pytest.mark.parametrize("m", [13, 17, 19])
def test_pfaffian_is_bareiss_on_every_cell(m):
    # the cell of every CM-type's entry, 2^(phi/2) of them
    reps = modulus(m).reps
    dets = set()
    for bits in range(1 << len(reps)):
        phi = CMType(m, frozenset(n if bits >> i & 1 else m - n for i, n in enumerate(reps)))
        cell = beta_for_type(phi).entry.cell
        det = gram_determinant(cell)
        assert det == oracles.bareiss_determinant(cell), phi
        dets.add(det)
    assert dets == {1}


def test_trace_table_matches_ramanujan_sums():
    # tr(zeta_m^j) = c_m(j) = sum over d | gcd(j, m) of mu(m/d) * d
    for m in sorted(SUPPORTED_MODULI):
        table = modulus(m).traces
        assert len(table) == m
        for j in range(m):
            g = gcd(j, m)
            ramanujan = sum(int(sympy.mobius(m // d)) * d for d in sympy.divisors(g))
            assert table[j] == ramanujan, (m, j)


def test_gram_cell_matches_cyclo_products():
    rng = random.Random(109)
    for m in sorted(SUPPORTED_MODULI):
        zeta = Cyclo.zeta(m)
        for den in (1, 1, 2, 3, m):
            x = Cyclo(m, [rng.randint(-3, 3) for _ in range(m)], den)
            xi = x - x.conj()
            if xi.is_zero():
                continue
            d = len(xi.num)
            old = {k: (xi * zeta ** (k % m)).trace() for k in range(-(d - 1), d)}
            h = HermitianDatum(m, (Block(m, (xi,)),))
            if any(v.denominator != 1 for v in old.values()):
                with pytest.raises(NonIntegralForm):
                    gram_matrix(h)
                continue
            g = gram_matrix(h)
            assert g == tuple(tuple(int(old[a - b]) for b in range(d)) for a in range(d))


def test_assembled_determinant_matches_dense_bareiss():
    fixtures = load_corpus(default_corpus_path())
    data = [validate(f["m"], f["a"]) for f in fixtures if f["m"] in ASSEMBLE_MODULI]
    data += [validate(19, (1,) * (n - 1) + (-(n - 1) % 19,)) for n in (6, 12)]
    for datum in data:
        r = assemble(datum)
        assert r.gram_det == gram_determinant(r.gram) == oracles.bareiss_determinant(r.gram)
    # the fixture data, multi-block ones included, are principally polarized
    hs = [_fixture_datum(f) for f in fixtures]
    assert any(len(h.blocks) > 1 for h in hs)
    for h in hs:
        g = gram_matrix(h)
        assert abs(gram_determinant(g)) == abs(oracles.bareiss_determinant(g)) == 1


def test_assemble_derives_each_entry_fact_once(monkeypatch):
    calls = {"_gram_cell": 0, "entry_cm_type": 0, "gram_determinant": 0}
    for name in calls:
        def spy(*args, _f=getattr(Q, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(Q, name, spy)
    P._component.cache_clear()
    beta_for_type.cache_clear()
    Q.hermitian_entry.cache_clear()
    datum = validate(19, (1,) * 23 + (15,))
    r = assemble(datum)
    assert len(r.components) == 22
    assert len(set(r.hermitian.blocks[0].entries)) == 11
    assert calls == {"_gram_cell": 11, "entry_cm_type": 11, "gram_determinant": 11}
    # cells, their determinants and what the entry types add to the form
    # signature are kept in the components' points for the rest of the process
    calls.update(_gram_cell=0, entry_cm_type=0, gram_determinant=0)
    assert assemble(datum) == r
    assert calls == {"_gram_cell": 0, "entry_cm_type": 0, "gram_determinant": 0}


def test_warm_assemble_redoes_no_triple_or_entry_work(monkeypatch):
    datum = validate(13, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10))
    r = assemble(datum)
    calls = {"triple signature": 0, "galois": 0, "is_simple": 0}
    original_signature = signature

    def spy_signature(d):
        calls["triple signature"] += d.N == 3
        return original_signature(d)

    for module in (cyclopel.monodromy, cyclopel.cmfield, P):
        monkeypatch.setattr(module, "signature", spy_signature)
    original_galois = Cyclo.galois

    def spy_galois(self, i):
        calls["galois"] += 1
        return original_galois(self, i)

    monkeypatch.setattr(Cyclo, "galois", spy_galois)

    def spy_is_simple(phi):
        calls["is_simple"] += 1
        return is_simple(phi)

    monkeypatch.setattr(cyclopel.cmfield, "is_simple", spy_is_simple)
    assert assemble(datum) == r
    assert calls == {"triple signature": 0, "galois": 0, "is_simple": 0}
    # the spies see work that is not memoized
    P._component.cache_clear()
    cyclopel.monodromy._join.cache_clear()
    assert assemble(datum) == r
    assert calls["triple signature"] > 0 and calls["galois"] == 0 and calls["is_simple"] > 0
    # an entry is conjugated only by the check of a Hermitian datum read off the family
    r.hermitian
    assert calls["galois"] == len(r.components)


def test_assemble_builds_no_block_and_reading_hermitian_checks_one(monkeypatch):
    checked = []
    original = Block.__post_init__
    monkeypatch.setattr(Block, "__post_init__", lambda self: checked.append(self) or original(self))
    datum = validate(13, (1, 2, 4, 5, 7, 7))
    oracles.clear_memos()
    r = assemble(datum)  # cold
    assert assemble(datum) == r  # warm
    assert checked == []
    h = r.hermitian
    assert checked == [h.blocks[0]]
    assert h.blocks[0].entries == tuple(c.point.entry.xi for c in r.components)
    # every read builds the datum afresh and checks it: an entry that is
    # not purely imaginary is refused
    c = r.components[0]
    p = c.point
    entry = Entry(Cyclo.zeta(13), p.entry.phi, p.entry.column)
    point = PolarizedCMPoint(p.phi, p.u0, p.beta, p.conditions, entry)
    args = list(r.__reduce__()[1])
    args[FamilyResult.__slots__.index("components")] = (
        P.ComponentResult(c.triple, c.phi, c.simplicity, point),
        *r.components[1:],
    )
    broken = FamilyResult(*args)
    assert broken != r  # a point's entry is one of its fields
    with pytest.raises(InvariantViolation, match="not purely imaginary"):
        broken.hermitian
    assert len(checked) == 2


def test_component_hashes_as_its_triple():
    d = validate(13, (1, 2, 4, 5, 7, 7))
    r = assemble(d)
    old = r.components[0]
    P._component.cache_clear()
    new = P._component(old.triple)
    assert new == old and new is not old
    assert hash(new) == hash(old) == hash(old.triple)
    assert assemble(d) == r


def test_warm_assemble_builds_one_signature(monkeypatch):
    # the summed entry columns are compared with the monodromy signature's
    # values, and that one record is both the family's signatures
    datum = validate(13, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10))
    assemble(datum)
    built = []
    original = Signature.__init__

    def spy_init(self, *values):
        built.append(values)
        original(self, *values)

    monkeypatch.setattr(Signature, "__init__", spy_init)
    r = assemble(datum)
    assert built == [(13, r.signature.values)]
    assert r.form_sig is r.signature


def test_warm_assemble_makes_no_inversion(monkeypatch):
    # per-modulus constants come from an earlier m = 19 family; every CM-type
    # of the measured family is then solved afresh
    assemble(validate(19, (1, 1, 8, 9)))
    beta_for_type.cache_clear()
    calls = []
    original = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    r = assemble(validate(19, (1,) * 23 + (15,)))
    assert len(r.components) == 22
    assert calls == []


def test_cold_assemble_makes_no_inversion(monkeypatch):
    # beta0 and 1/beta0 come from closed forms, so the first family of a
    # modulus, from empty memos, inverts nothing either
    calls = []
    original = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    for m, a in ((5, (1, 3, 3, 3)), (13, (1, 2, 3, 7)), (19, (1, 1, 8, 9))):
        oracles.clear_memos()
        assemble(validate(m, a))
    assert calls == []


# check -> (patch that forces it to fail, fragment of its message)
_BROKEN_INVARIANTS = {
    "cell skew": (
        "from types import SimpleNamespace; Q.modulus = lambda m, facts=Q.modulus: "
        "SimpleNamespace(phi=facts(m).phi, poly=facts(m).poly, reps=facts(m).reps, units=facts(m).units, "
        "traces=(5,) + (0,) * (m - 1))",
        "is not skew",
    ),
    "determinant": ("Q.gram_determinant = lambda cell: 2", "is not a unit"),
    "form signature": (
        "Q._entry_column = lambda phi, m: (0,) * m",
        "not the monodromy signature",
    ),
    "beta conditions": (
        "Q.verify_conditions = lambda beta, phi, inverse: Q.ConditionReport(True, True, False)",
        "fails its own conditions",
    ),
    "xi is 1/beta": (
        "object.__setattr__(Q.beta0(5), 'inverse', Q.Cyclo.one(5))",
        "xi is not 1/beta",
    ),
    "unit generators": (
        "Q._closed_form_units = lambda m: [(Q.Cyclo.one(m) * 2, Q.Cyclo.one(m))]",
        "is not a real unit",
    ),
}


def _invariant_violation_under_optimize(patch, call):
    """Run call in a python -O child after patch; return the child's
    (isinstance CyclopelError, isinstance AssertionError) line and the
    message of the InvariantViolation it raised."""
    code = textwrap.dedent(
        """
        import sys
        import cyclopel.peldatum as P
        import cyclopel.polarization as Q
        import cyclopel.verify as V
        from cyclopel.cmfield import CMType
        from cyclopel.cyclotomic import parse_element
        from cyclopel.errors import CyclopelError, InvariantViolation
        from cyclopel.monodromy import Signature, validate

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        {patch}
        try:
            {call}
        except InvariantViolation as exc:
            print(isinstance(exc, CyclopelError), isinstance(exc, AssertionError))
            print(exc)
            sys.exit(0)
        sys.exit("the call returned")
        """
    ).format(patch=patch, call=call)
    src = str(Path(cyclopel.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("check", sorted(_BROKEN_INVARIANTS))
def test_invariant_checks_survive_optimize(check):
    patch, fragment = _BROKEN_INVARIANTS[check]
    kinds, message = _invariant_violation_under_optimize(
        patch, "P.assemble(validate(5, (1, 3, 3, 3)))"
    )
    assert kinds == "True True"
    assert fragment in message


@pytest.mark.parametrize(
    "patch, call, fragment",
    [
        (
            "from cyclopel.cyclotomic import _poly_divmod_monic",
            "_poly_divmod_monic([1, 2, 3], [1, 2])",
            "is not monic",
        ),
        (
            "from cyclopel.embeddings import ComplexInterval",
            "ComplexInterval(1, 0, 0, 0)",
            "out of order",
        ),
        (
            "from cyclopel.cyclotomic import _relative_conjugator",
            "_relative_conjugator(3)",
            "no relative conjugator",
        ),
        (
            "V.relative_split = lambda x: (Q.Cyclo.one(7), Q.Cyclo.one(7))",
            "V.m17_pipeline()",
            "does not descend",
        ),
        ("xi = P.Cyclo.zeta(5)", "P.Block(5, (xi,))", "not purely imaginary"),
    ],
    ids=[
        "non-monic divisor",
        "inverted interval",
        "relative conjugator",
        "descent",
        "entry purely imaginary",
    ],
)
def test_arithmetic_checks_survive_optimize(patch, call, fragment):
    kinds, message = _invariant_violation_under_optimize(patch, call)
    assert kinds == "True True"
    assert fragment in message


def test_twice_odd_condition_check_survives_optimize():
    # beta_for_type re-verifies the beta it solves for at 6 as at any modulus
    kinds, message = _invariant_violation_under_optimize(
        "Q.verify_conditions = lambda beta, phi, inverse: Q.ConditionReport(True, True, False)",
        "Q.beta_for_type(CMType(6, frozenset({5})))",
    )
    assert kinds == "True True"
    assert "fails its own conditions for the CM-type (5,) mod 6" in message


def test_form_signature_values():
    h = HermitianDatum(5, (Block(5, (XI5_2, XI5_1)),))
    assert form_signature(h).values == (0, 1, 2, 0, 1)
    h = HermitianDatum(3, (Block(3, (XI3, -XI3)),))
    assert form_signature(h).values == (0, 1, 1)
    h = HermitianDatum(
        7,
        (Block(7, (pe("(z^4 - z^3)/7", 7), pe("(z^4 + z^3 + 2*z^2 + 2*z + 1)/7", 7))),),
    )
    assert form_signature(h).values == (0, 1, 2, 0, 2, 0, 1)
    h = HermitianDatum(
        10,
        (
            Block(5, (pe("(z^3 - z^2)/5", 5),)),
            Block(10, (pe("(-z^3 + z^2 - 2*z + 1)/5", 10), pe("(z^3 + z^2)/5", 10))),
        ),
    )
    assert form_signature(h).values == (0, 1, 1, 0, 1, 0, 0, 2, 0, 1)


def _random_imaginary(rng, d):
    """A nonzero purely imaginary element y - conj(y) of Q(zeta_d)."""
    while True:
        y = Cyclo(d, [rng.randint(-3, 3) for _ in range(d)], rng.randint(1, 4))
        xi = y - y.conj()
        if not xi.is_zero():
            return xi


def test_form_signature_matches_oracle():
    # random block-diagonal data over every supported modulus, with blocks
    # at its supported divisors and repeated entries, then the assembled
    # data of random families at every assembly modulus
    rng = random.Random(83)
    for m in sorted(SUPPORTED_MODULI):
        divisors = [d for d in sorted(SUPPORTED_MODULI) if m % d == 0]
        for _ in range(6):
            mods = sorted(rng.sample(divisors, rng.randint(1, len(divisors))))
            blocks = []
            for d in mods:
                entries = [_random_imaginary(rng, d) for _ in range(rng.randint(1, 3))]
                entries += rng.choices(entries, k=rng.randint(0, 2))
                blocks.append(Block(d, tuple(entries)))
            h = HermitianDatum(m, tuple(blocks))
            assert form_signature(h) == oracles.form_signature(h), h
    assembled = 0
    for m in sorted(ASSEMBLE_MODULI):
        for _ in range(4):
            a = [rng.randint(1, m - 1) for _ in range(rng.randint(3, 9))]
            if sum(a) % m == 0:
                continue
            try:
                r = assemble(validate(m, a + [-sum(a) % m]))
            except (NonCompactType, NonMaximalOrder):
                continue
            assert r.form_sig == oracles.form_signature(r.hermitian) == r.signature
            assert r.gram == _view(r.hermitian)
            assert tuple(r.gram) == gram_matrix(r.hermitian)
            assembled += 1
    assert assembled >= 14


def test_form_signature_matches_oracle_on_the_corpus():
    # some corpus blocks sit at divisor moduli: 3 in m = 6, 5 in m = 10
    for fixture in load_corpus(default_corpus_path()):
        h = _fixture_datum(fixture)
        got = form_signature(h)
        assert got == oracles.form_signature(h), fixture["name"]
        assert got.values == tuple(fixture["expected_signature"])


def test_form_signature_reads_each_entry_type_once(monkeypatch):
    # an entry's type is certified once per entry, into its Entry record,
    # and every later call reads it there
    h = HermitianDatum(5, (Block(5, (XI5_2, XI5_1, XI5_2)),))
    calls = []
    monkeypatch.setattr(Q, "entry_cm_type", lambda xi: calls.append(xi) or entry_cm_type(xi))
    Q.hermitian_entry.cache_clear()
    assert form_signature(h).values == (0, 2, 3, 0, 1)
    assert form_signature(h).values == (0, 2, 3, 0, 1)
    assert calls == [XI5_2, XI5_1]


def test_dimension_is_twice_genus():
    for fixture in load_corpus(default_corpus_path()):
        blocks = tuple(
            Block(int(mod), tuple(pe(s, int(mod)) for s in entries))
            for mod, entries in fixture["blocks"]
        )
        h = HermitianDatum(int(fixture["m"]), blocks)
        assert h.dimension() == 2 * sum(fixture["expected_signature"])


def test_assemble_m5_families():
    r = assemble(validate(5, (1, 3, 3, 3)))
    ents = [element_str(x) for b in r.hermitian.blocks for x in b.entries]
    assert ents == ["(z^3 + z^2 + 2*z + 1)/5", "(z^3 - z^2)/5"]
    assert r.certainty == CERTAINTY_SIMPLE
    assert r.gram_det == 1
    assert r.form_sig == r.signature == signature(r.datum)
    assert r.genus == 4 == r.signature.total()

    r = assemble(validate(5, (2, 2, 2, 2, 2)))
    ents = [element_str(x) for b in r.hermitian.blocks for x in b.entries]
    assert ents == ["(-z^3 + z^2)/5", "(-z^3 - z^2 - 2*z - 1)/5", "(-z^3 + z^2)/5"]
    assert r.certainty == CERTAINTY_SIMPLE


def test_assemble_certainty_tiers():
    # the (1,2,4) component is induced from a subfield, so form uniqueness
    # carries the argument for this family
    r = assemble(validate(7, (2, 4, 4, 4)))
    assert [c.simplicity.simple for c in r.components] == [True, False]
    assert r.certainty == CERTAINTY_FORM_UNIQUENESS
    assert assemble(validate(7, (1, 1, 2, 3))).certainty == CERTAINTY_SIMPLE
    # m = 13 and 19 always carry the caveat
    assert assemble(validate(13, (1, 1, 11))).certainty == CERTAINTY_FORM_UNIQUENESS


def test_assemble_unsupported_modulus():
    with pytest.raises(UnsupportedModulus):
        assemble(validate(9, (1, 2, 6)))


def test_assemble_degenerates_before_its_modulus_check():
    with pytest.raises(NonCompactType):
        assemble(validate(6, (1, 1, 1, 3)))


def test_equivalent_datum_basic():
    h1 = HermitianDatum(5, (Block(5, (XI5_1, XI5_2)),))
    assert equivalent_datum(h1, h1)
    swapped = HermitianDatum(5, (Block(5, (XI5_2, XI5_1)),))
    assert equivalent_datum(h1, swapped)
    short = HermitianDatum(5, (Block(5, (XI5_1,)),))
    assert not equivalent_datum(h1, short)
    with pytest.raises(ValueError):
        equivalent_datum(h1, HermitianDatum(3, (Block(3, (XI3,)),)))


def test_equivalent_datum_galois_twist():
    h1 = HermitianDatum(5, (Block(5, (XI5_1, XI5_2)),))
    h2 = HermitianDatum(5, (Block(5, (XI5_1, -XI5_2)),))
    assert not equivalent_datum(h1, h2)
    assert equivalent_datum(h1, h2, allow_galois=True)

    r = assemble(validate(5, (1, 2, 3, 4)))
    alt = HermitianDatum(5, (Block(5, (XI5_2, -XI5_2)),))
    assert not equivalent_datum(r.hermitian, alt)
    assert equivalent_datum(r.hermitian, alt, allow_galois=True)


def test_equivalent_datum_indeterminate_m21():
    xi = beta0(21).element.inverse()
    h1 = HermitianDatum(21, (Block(21, (xi,)),))
    h2 = HermitianDatum(21, (Block(21, (-xi,)),))
    assert equivalent_datum(h1, h1)
    with pytest.raises(Indeterminate):
        equivalent_datum(h1, h2)


def _match_by_backtracking(left, right):
    """The former _match_entries: search for a perfect matching on the
    pairs equivalent_beta accepts; None when none exists and some pair was
    Indeterminate."""
    n = len(left)
    edge = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            try:
                edge[i][j] = equivalent_beta(left[i], right[j])
            except Indeterminate:
                edge[i][j] = None
    used = [False] * n

    def place(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and edge[i][j]:
                used[j] = True
                if place(i + 1):
                    return True
                used[j] = False
        return False

    if place(0):
        return True
    if any(e is None for row in edge for e in row):
        return None
    return False


def _entry_pool(m):
    """Entries of a few classes: beta0^-1 times totally positive units
    (squares), and its negative and a non-square unit multiple."""
    xi = beta0(m).element.inverse()
    u = Q._constants(m).gens[1]
    return [xi, u * u * xi, -xi, -(u * u) * xi, u * xi, 2 * xi]


@pytest.mark.parametrize("m", [5, 7, 21])
def test_match_entries_agrees_with_backtracking(m):
    rng = random.Random(3 * m)
    pool = _entry_pool(m)
    for _ in range(60):
        n = rng.randint(1, 5)
        left = [rng.choice(pool) for _ in range(n)]
        right = rng.sample(left, n) if rng.random() < 0.4 else [rng.choice(pool) for _ in range(n)]
        assert V._match_entries(left, right) == _match_by_backtracking(left, right), (
            left,
            right,
        )


def test_match_entries_is_not_factorial():
    # 13 equal entries plus one entry of another class on each side: the
    # backtracking search took about 6.5 times longer per added entry
    xi = XI5_1
    left = [xi] * 13 + [-xi]
    right = [xi] * 13 + [2 * xi]
    t0 = time.perf_counter()
    assert V._match_entries(left, right) is False
    assert V._match_entries(left, list(reversed(left))) is True
    assert time.perf_counter() - t0 < 1.0


def test_m17_pipeline_closed_forms():
    r = m17_pipeline()
    z21 = Cyclo.zeta(21)
    z7 = Cyclo.zeta(7)

    assert r.phi.sorted_members() == (1, 2, 4, 8, 10, 16)
    assert r.phi_simplicity.simple
    assert r.beta3 == 7 / (z21**6 - z21**15)
    assert r.alpha == (z21**7 - z21**14) * (z21**2 - z21**19)
    assert r.z == -(r.beta3 * r.alpha)
    assert r.z == -beta0(21).element.galois(4)
    assert r.z_conditions.all_pass()

    assert r.a11 == pe("z^4 + z^3 + 1", 7)
    assert r.a12 == pe("-z^5 - z^4 - z^3 - z - 1", 7)
    assert r.a21 == pe("z^5 + z", 7)
    assert r.a11 == (z7**4 + z7**3) / (Cyclo.one(7) + z7 + z7**6)
    assert relative_trace(r.alpha.inverse()) == r.a11

    pref = (z7**2 - z7**5) / 7
    assert r.base_matrix == ((pref * r.a11, pref * r.a12), (pref * r.a21, pref * r.a11))
    assert r.twisted_matrix == tuple(
        tuple(x.galois(4) for x in row) for row in r.base_matrix
    )

    xi1 = (z7 - z7**6) / 7
    u1 = z7**2 + z7**5
    v = (Cyclo.one(7) + z7**3 + z7**4).inverse()
    assert r.twisted_matrix == (
        (xi1 * v * u1, xi1 * v * -(z7**2)),
        (xi1 * v * -(z7**5), xi1 * v * u1),
    )
    assert r.twisted_matrix[0][1].conj() == -r.twisted_matrix[1][0]


def test_m17_remark_ratio():
    # the diagonalized entry against the second table value
    z7 = Cyclo.zeta(7)
    xi = pe("(z^4 + z^3 + 2*z^2 + 2*z + 1)/7", 7)
    xi2 = (z7**3 - z7**4) / 7
    assert (-xi2) / xi == pe("-z^6 - z + 1", 7)


def test_verify_fixture_corpus_all_pass():
    fixtures = load_corpus(default_corpus_path())
    assert len(fixtures) == 17
    for fixture in fixtures:
        outcome = verify_fixture(fixture)
        assert outcome.passed, (outcome.name, outcome.failures)
        assert outcome.failures == ()


def test_verify_fixture_detects_flipped_entry():
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    bad = copy.deepcopy(fixtures["m5-1144"])
    bad["blocks"][0][1][0] = "(-z^3 - z^2 - 2*z - 1)/5"
    outcome = verify_fixture(bad)
    assert not outcome.passed
    assert outcome.failures[0] == (
        "condition (3): certified embedding signs give signature "
        "(0, 0, 0, 2, 2), disagreeing with the expected one at n = [1, 2, 3, 4]"
    )
    assert any("not equivalent" in f for f in outcome.failures)


def test_verify_fixture_detects_bad_generator():
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    bad = copy.deepcopy(fixtures["m3-1122"])
    bad["blocks"][0][1][0] = "(2*z + 1)/9"
    outcome = verify_fixture(bad)
    assert not outcome.passed
    assert any("condition (1)" in f for f in outcome.failures)


def test_verify_fixture_reports_real_entry():
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    bad = copy.deepcopy(fixtures["m5-1144"])
    bad["blocks"][0][1][0] = "z + z^4"
    outcome = verify_fixture(bad)
    assert outcome.failures == ("InvariantViolation: entry is not purely imaginary",)


def test_load_corpus_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="corpus must be an object with a 'fixtures' list"):
        load_corpus(p)
    p.write_text(json.dumps({"fixtures": [{"name": "x", "m": 3}]}))
    with pytest.raises(ValueError, match=r"missing fields \['N', 'a', 'blocks', 'expected_signature'\]"):
        load_corpus(p)


def test_load_corpus_errors_are_typed(tmp_path):
    p = tmp_path / "bad.json"
    for doc in ([1, 2], {"fixtures": [{"name": "x", "m": 3}]}, {"fixtures": [[1, 2]]}):
        p.write_text(json.dumps(doc))
        with pytest.raises(MalformedDatum):
            load_corpus(p)


def test_block_rejects_bad_entries():
    with pytest.raises(AssertionError):
        Block(3, ())
    with pytest.raises(AssertionError):
        Block(3, (Cyclo.one(3),))  # real, not purely imaginary
    with pytest.raises(AssertionError):
        Block(5, (XI3,))  # wrong modulus
    with pytest.raises(AssertionError):
        HermitianDatum(5, (Block(3, (XI3,)),))  # 3 does not divide 5
