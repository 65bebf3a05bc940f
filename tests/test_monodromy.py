"""Monodromy data: validation, genus, signature, Galois action, and the
compact-type degeneration into 3-point covers."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from itertools import chain
from fractions import Fraction
from math import floor, gcd
from types import SimpleNamespace

import pytest

import cyclopel.cmfield
import cyclopel.monodromy as M
from cyclopel.cyclotomic import SUPPORTED_MODULI, modulus
from cyclopel.errors import (
    DisconnectedCover,
    CyclopelError,
    InvariantViolation,
    MalformedDatum,
    NonCompactType,
    NonMaximalOrder,
    UnbalancedInertia,
    UnsupportedModulus,
    ZeroInertia,
)
from cyclopel.monodromy import (
    MonodromyDatum,
    Signature,
    cm_algebra_check,
    degenerate,
    galois_act,
    genus,
    signature,
    validate,
)
import oracles
from oracles import galois_act_signature


def random_datum(rng, moduli=(3, 5, 7, 11), max_n=8):
    """Uniform-ish valid datum: entries free, last one balances the sum."""
    while True:
        m = rng.choice(moduli)
        n = rng.randint(3, max_n)
        a = [rng.randint(1, m - 1) for _ in range(n - 1)]
        last = (-sum(a)) % m
        if last == 0:
            continue
        a.append(last)
        if gcd(*a, m) != 1:
            continue
        return validate(m, tuple(a))


def test_validate_accepts_table_row():
    d = validate(5, (1, 3, 3, 3))
    assert d.m == 5 and d.N == 4 and d.a == (1, 3, 3, 3)


def test_validate_normalizes_residues():
    assert validate(5, (6, 3, 3, 3)).a == (1, 3, 3, 3)
    assert validate(5, (-2, 3, 3, 1)).a == (3, 3, 3, 1)


def test_validate_rejects_unbalanced_sum():
    with pytest.raises(UnbalancedInertia):
        validate(5, (1, 1, 1))


def test_validate_rejects_disconnected_cover():
    with pytest.raises(DisconnectedCover):
        validate(6, (2, 2, 2))


def test_validate_rejects_zero_inertia():
    with pytest.raises(ZeroInertia):
        validate(5, (5, 2, 3))
    with pytest.raises(ZeroInertia):
        validate(7, (0, 3, 4))


def test_validate_rejects_short_and_unsupported():
    with pytest.raises(ValueError):
        validate(5, (2, 3))
    with pytest.raises(UnsupportedModulus):
        validate(23, (1, 1, 21))


def test_validate_checks_the_modulus_before_reducing_by_it():
    for m in (0, -5):
        with pytest.raises(UnsupportedModulus, match=f"modulus {m} is outside"):
            validate(m, (1, 2, 3))


def test_malformed_datum_is_typed():
    assert issubclass(MalformedDatum, CyclopelError) and issubclass(MalformedDatum, ValueError)
    with pytest.raises(MalformedDatum, match="at least 3 branch points"):
        validate(5, (2, 3))
    with pytest.raises(MalformedDatum, match="reduced"):
        MonodromyDatum(5, (6, 2, 2))
    # int() would truncate a float, parse a str and take a bool
    for m, a in (
        (5, [1.9, 1.2, 4.7, 4.1]),
        (5.5, (1, 1, 4, 4)),
        (5.0, (1, 1, 4, 4)),
        ("5", (1, 1, 4, 4)),
        (5, ("1", "1", "4", "4")),
        (5, (True, True, 4, 4)),
        (True, (1, 1, 1)),
    ):
        with pytest.raises(MalformedDatum, match="must be ints"):
            validate(m, a)


def test_genus_values():
    assert genus(validate(7, (2, 4, 4, 4))) == 6
    assert genus(validate(3, (1, 1, 2, 2))) == 2
    assert genus(validate(5, (4, 3, 3))) == 2


def test_signature_three_point_case():
    sig = signature(validate(7, (1, 1, 5)))
    assert sig.values == (0, 1, 1, 1, 0, 0, 0)


def test_signature_four_point_case():
    sig = signature(validate(5, (1, 3, 3, 3)))
    assert sig.values == (0, 1, 2, 0, 1)
    assert sig.values[0] == 0


def _fraction_signature(m, a):
    """The fractional-part formula f(n) = sum_i <-n a(i) / m> - 1 in
    Fractions, as a reference for the integer one."""
    vals = [0]
    for n in range(1, m):
        s = sum(Fraction(-n * x, m) - floor(Fraction(-n * x, m)) for x in a)
        assert s.denominator == 1
        vals.append(int(s) - 1)
    return tuple(vals)


def test_signature_matches_fraction_formula():
    rng = random.Random(61)
    for m in sorted(SUPPORTED_MODULI):
        for _ in range(25):
            d = random_datum(rng, moduli=(m,), max_n=9)
            assert signature(d).values == _fraction_signature(d.m, d.a)
    with pytest.raises(InvariantViolation):
        signature(SimpleNamespace(m=5, a=(1, 1, 1)))


def _raised(f, *args):
    """f(*args), or the type and message of the library error it raises."""
    try:
        return f(*args)
    except CyclopelError as exc:
        return type(exc), str(exc)


def test_signature_matches_oracle():
    # the per-modulus columns give the oracle's modular sums on every
    # supported modulus, and the same error on a non-integral value
    rng = random.Random(67)
    for m in sorted(SUPPORTED_MODULI):
        for _ in range(30):
            d = random_datum(rng, moduli=(m,), max_n=25)
            assert signature(d) == oracles.signature(d), d
    for bad in ((5, (1, 1, 1)), (8, (1, 2, 3, 4)), (21, (20, 1, 1))):
        d = SimpleNamespace(m=bad[0], a=bad[1])
        got = _raised(signature, d)
        assert got == _raised(oracles.signature, d)
        assert got[0] is InvariantViolation


def test_signature_reads_each_modulus_table_once():
    modulus.cache_clear()
    for m in (7, 8, 21):
        signature(validate(m, (1, 1, m - 2)))
        signature(validate(m, (1, 2, m - 3)))
    info = modulus.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    assert modulus(7).columns[3] == oracles.signature_columns(7)[3]


def test_signature_allocates_nothing_per_value():
    # one packed column per value: the sum holds m 64-bit fields, whatever N
    d = validate(17, (1,) * 199999 + (6,))
    expected = oracles.signature(d)
    tracemalloc.start()
    try:
        got = signature(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 2**20


def test_validate_copies_no_values():
    # the types are checked without a copy and the reduced values are built
    # once; the reduced tuple alone is 1.6 MB
    values = [1] * 199999 + [6]
    tracemalloc.start()
    try:
        d = validate(17, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == oracles.validate(17, values)
    assert peak < 2.5e6
    # values outside [1, m-1] are reduced in the same one pass
    values = [18] * 199999 + [-11]
    tracemalloc.start()
    try:
        d = validate(17, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == oracles.validate(17, values) and d.a[0] == 1 and d.a[-1] == 6
    assert peak < 2.5e6


def _validated(f, m, a):
    """f(m, a), or the type and message of what it raised."""
    try:
        return f(m, a)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def test_validate_keeps_the_order_of_its_checks():
    # inputs with several faults raise what the check-by-check reference
    # raises: the types (m first, then the values in order), the modulus,
    # the count, a zero, the sum and the gcd
    cases = [
        ("3", [1, 1.0, 1]), (3.0, [1, 1, 1]), (True, [1, 1, 1]), (3, [1, "a", 2.0]),
        (3, [1, True, 1]), (2, [1, "x"]), (12, [1, 1]), (64, [1, 2, 3]), (-3, [1, 1, 1]),
        (3, [3, 3]), (3, []), (3, [3, 1, 1]), (9, [3, 3, 6, 3]), (9, [3, 3, 3]),
        (9, [0, 3, 6]), (6, [2, 4, 2, 4]), (6, [-1, -1, 2]), (19, [-37, 20, 17]),
        (5, lambda: (x for x in (1, 2, 2))), (5, range(1, 4)), (5, (1, 2, 2)), (5, [6, 7, 7]),
        (5, 5), (None, None), (5, [2**70, 1, 4 - 2**70 % 5]), (13, [0] * 5),
    ]
    for m, a in cases:
        make = a if callable(a) else lambda: a  # a generator is consumed once
        assert _validated(validate, m, make()) == _validated(oracles.validate, m, make()), (m, a)
    rng = random.Random(29)
    pool = (0, 1, 2, 3, 4, 5, 6, 7, 9, 12, -1, -6, 2**65, True, 1.0, "1", None)
    for _ in range(3000):
        m = rng.choice((3, 4, 6, 7, 9, 12, 4.0))
        a = [rng.choice(pool) if rng.random() < 0.2 else rng.randint(-20, 20)
             for _ in range(rng.randint(0, 7))]
        for seq in (a, tuple(a)):
            assert _validated(validate, m, seq) == _validated(oracles.validate, m, seq), (m, seq)


def test_signature_rejects_malformed_values():
    with pytest.raises(InvariantViolation):
        Signature(5, (0, 1, 1, 1))
    with pytest.raises(InvariantViolation):
        Signature(5, (1, 0, 1, 1, 0))


def test_signature_total_is_genus():
    for m, a in ((5, (2, 2, 2, 2, 2)), (7, (2, 4, 4, 4)), (10, (3, 5, 6, 6))):
        d = validate(m, a)
        assert signature(d).total() == genus(d)


def test_galois_act_identity():
    d = validate(7, (1, 1, 2, 3))
    assert galois_act(1, d) == d


def test_galois_act_multiset():
    d = galois_act(2, validate(7, (1, 1, 1, 4)))
    assert sorted(d.a) == [2, 4, 4, 4]


def test_galois_act_rejects_non_coprime():
    with pytest.raises(ValueError):
        galois_act(5, validate(10, (3, 5, 6, 6)))


def test_galois_equivariance_of_signature():
    rng = random.Random(61)
    for _ in range(40):
        d = random_datum(rng)
        i = rng.choice([n for n in range(1, d.m) if gcd(n, d.m) == 1])
        assert signature(galois_act(i, d)) == galois_act_signature(i, signature(d))


def test_degenerate_five_point_family():
    tree = degenerate(validate(5, (2, 2, 2, 2, 2)))
    assert [t.a for t in tree.triples] == [(2, 2, 1), (4, 2, 4), (1, 2, 2)]
    assert tree.merge_pairs == ((0, 1), (0, 1))
    assert tree.merged_values == (4, 1)


def test_degenerate_four_point_family_multiset():
    tree = degenerate(validate(7, (2, 4, 4, 4)))
    got = {tuple(sorted(t.a)) for t in tree.triples}
    assert got == {(4, 4, 6), (1, 2, 4)}


def test_degenerate_three_point_is_single_triple():
    d = validate(7, (1, 2, 4))
    tree = degenerate(d)
    assert tree.triples == (d,)
    assert tree.merge_pairs == ()


def test_degenerate_non_compact_type():
    with pytest.raises(NonCompactType):
        degenerate(validate(6, (1, 1, 1, 3)))


def test_degenerate_composite_split_cm_algebra():
    # a triple whose new part carries CM by a product of two rings
    with pytest.raises(NonMaximalOrder):
        degenerate(validate(9, (3, 5, 5, 5)))
    with pytest.raises(NonMaximalOrder):
        degenerate(validate(10, (3, 5, 6, 6)))


def test_cm_algebra_check_values():
    assert cm_algebra_check(validate(7, (1, 2, 4))) == (7,)
    assert cm_algebra_check(validate(6, (1, 1, 4))) == (3, 6)
    assert cm_algebra_check(validate(6, (1, 2, 3))) == (6,)


def test_degeneration_conservation():
    rng = random.Random(67)
    count = 0
    while count < 60:
        d = random_datum(rng, moduli=(3, 5, 7, 11), max_n=7)
        tree = degenerate(d)
        entries = Counter()
        for t in tree.triples:
            entries.update(t.a)
        for v in tree.merged_values:
            entries[v] -= 1
            entries[(d.m - v) % d.m] -= 1
        entries = +entries
        assert entries == Counter(d.a)
        count += 1


def test_degenerate_triples_validate_and_sum_genus():
    rng = random.Random(71)
    for _ in range(40):
        d = random_datum(rng, moduli=(5, 7, 11), max_n=6)
        tree = degenerate(d)
        assert len(tree.triples) == d.N - 2
        for t in tree.triples:
            assert t.N == 3
            assert validate(t.m, t.a) == t
        # prime m: each component has genus (m-1)/2
        assert sum(genus(t) for t in tree.triples) == genus(d)


def test_degenerate_decides_each_triple_once(monkeypatch):
    d = validate(19, (1,) * 23 + (15,))
    M._join.cache_clear()
    tree = degenerate(d)
    calls = []
    original = cyclopel.cmfield.is_simple
    monkeypatch.setattr(cyclopel.cmfield, "is_simple", lambda phi: calls.append(phi) or original(phi))
    assert degenerate(d) == tree
    assert calls == []


def eager_degenerate(datum: MonodromyDatum) -> M.DegenerationTree:
    """Reference search: list every admissible pair of each step, then take
    the first preferred one, else the first one."""
    m = datum.m
    cur = datum
    triples, pairs, merged = [], [], []

    def emit(t):
        if cm_algebra_check(t) != (m,):
            raise NonMaximalOrder(f"component {t.a}")
        triples.append(t)

    while cur.N > 3:
        a = cur.a
        candidates = [
            (i, j)
            for i in range(cur.N)
            for j in range(i + 1, cur.N)
            if gcd(a[i] + a[j], m) == 1
        ]
        if not candidates:
            raise NonCompactType(f"no admissible pair of {a}")

        def triple_for(p):
            i, j = p
            return MonodromyDatum(m, (a[i], a[j], (-(a[i] + a[j])) % m))

        preferred = (p for p in candidates if M._join(m, a[p[0]], a[p[1]])[1])
        choice = next(preferred, candidates[0])
        i, j = choice
        s = (a[i] + a[j]) % m
        emit(triple_for(choice))
        pairs.append(choice)
        merged.append(s)
        rest = tuple(x for k, x in enumerate(a) if k != i and k != j)
        cur = MonodromyDatum(m, (s,) + rest)
    emit(cur)
    return M.DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))


def _outcome(search, datum):
    try:
        return search(datum)
    except (NonCompactType, NonMaximalOrder) as exc:
        return type(exc)


def test_degenerate_matches_eager_search():
    outcomes = Counter()
    for m in sorted(SUPPORTED_MODULI):
        rng = random.Random(1000 + m)
        for _ in range(40):
            d = random_datum(rng, moduli=(m,), max_n=10)
            got = _outcome(degenerate, d)
            assert got == _outcome(eager_degenerate, d), d
            outcomes[got if isinstance(got, type) else "tree"] += 1
    assert set(outcomes) == {"tree", NonCompactType, NonMaximalOrder}


@pytest.mark.parametrize(
    "m, a", [(8, (4, 5, 4, 3)), (16, (8, 3, 13, 8)), (32, (16, 31, 1, 16))]
)
def test_degenerate_falls_back_to_first_admissible_pair(m, a):
    d = validate(m, a)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    admissible = [(i, j) for i, j in pairs if gcd(a[i] + a[j], m) == 1]
    assert not any(M._join(m, a[i], a[j])[1] for i, j in admissible)
    tree = degenerate(d)
    assert tree.merge_pairs[0] == admissible[0]
    assert tree == eager_degenerate(d)


@pytest.mark.parametrize("m", (13, 17, 19))
def test_degenerate_matches_eager_search_up_to_sixty_points(m):
    rng = random.Random(2000 + m)
    for n in (12, 24, 36, 48, 60):
        if (n - 1) % m:
            d = validate(m, (1,) * (n - 1) + (-(n - 1) % m,))
            assert _outcome(degenerate, d) == _outcome(eager_degenerate, d), d
        for _ in range(3):
            a = [rng.randint(1, m - 1) for _ in range(n - 1)]
            if sum(a) % m:
                d = validate(m, a + [-sum(a) % m])
                assert _outcome(degenerate, d) == _outcome(eager_degenerate, d), d


@pytest.mark.parametrize("m, a", [(19, (1,) * 23 + (15,)), (13, (1, 3, 4, 9, 9) * 4)])
def test_degenerate_builds_only_the_emitted_triples(monkeypatch, m, a):
    # the input is validated once and every fused vector is valid by
    # construction, so degenerate builds only the triples of the joins it
    # reads, the emitted ones among them: each distinct one once, and none
    # at all when they are memoized
    d = validate(m, a)
    tree = degenerate(d)
    M._join.cache_clear()
    built, asked = [], []
    original, join = MonodromyDatum.__post_init__, M._join
    monkeypatch.setattr(MonodromyDatum, "__post_init__", lambda self: built.append(self) or original(self))
    monkeypatch.setattr(M, "_join", lambda *key: asked.append(key) or join(*key))
    assert degenerate(d) == tree
    assert built == [join(*key)[0] for key in dict.fromkeys(asked)]
    assert set(tree.triples) <= set(built)
    assert len(set(tree.triples)) < len(tree.triples) == d.N - 2
    built.clear()
    assert degenerate(d) == tree
    assert built == []


def test_cold_degenerate_builds_each_triple_once(monkeypatch):
    # deciding a join and emitting it read the same memo of its triple, so
    # from empty memos each (m, x, y) key builds its datum once
    d = validate(19, tuple(range(1, 14)) + (4,))
    M._join.cache_clear()
    built = Counter()
    original = MonodromyDatum.__post_init__

    def counted(self):
        built[(self.m, *self.a[:2])] += 1
        original(self)

    monkeypatch.setattr(MonodromyDatum, "__post_init__", counted)
    tree = degenerate(d)
    assert {(t.m, *t.a[:2]) for t in tree.triples} <= set(built)
    assert max(built.values()) == 1


def emit_degenerate(datum: MonodromyDatum) -> M.DegenerationTree:
    """The degeneration search as it was before emitted triples were
    memoized: each emitted triple is built and checked where it is emitted."""
    m = datum.m
    a = list(datum.a)
    triples: list[MonodromyDatum] = []
    pairs: list[tuple[int, int]] = []
    merged: list[int] = []

    def emit(t: MonodromyDatum):
        if cm_algebra_check(t) != (m,):
            raise NonMaximalOrder(
                f"component {t.a} has CM algebra indexed by {cm_algebra_check(t)}; "
                "the mu_m-action does not extend to a single maximal order"
            )
        triples.append(t)

    while len(a) > 3:
        admissible = (
            (i, j)
            for i in range(len(a))
            for j in range(i + 1, len(a))
            if gcd(a[i] + a[j], m) == 1
        )
        first = next(admissible, None)
        if first is None:
            raise NonCompactType(
                f"no branch-point pair of {tuple(a)} joins at a single node; "
                "every degeneration of this family has a cycle in its dual graph"
            )
        choice = next(
            (p for p in chain((first,), admissible) if M._join(m, a[p[0]], a[p[1]])[1]),
            first,
        )
        i, j = choice
        s = (a[i] + a[j]) % m
        emit(MonodromyDatum(m, (a[i], a[j], -s % m)))
        pairs.append(choice)
        merged.append(s)
        del a[j], a[i]
        a.insert(0, s)

    emit(MonodromyDatum(m, tuple(a)))
    return M.DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))


def _full_outcome(search, datum):
    """The tree, or the type and message of the error."""
    try:
        tree = search(datum)
    except (NonCompactType, NonMaximalOrder) as exc:
        return type(exc), str(exc)
    return tree.triples, tree.merge_pairs, tree.merged_values


def test_degenerate_matches_emit_search():
    outcomes = Counter()
    for m in sorted(SUPPORTED_MODULI):
        rng = random.Random(3000 + m)
        for _ in range(60):
            d = random_datum(rng, moduli=(m,), max_n=30)
            got = _full_outcome(degenerate, d)
            assert got == _full_outcome(emit_degenerate, d), d
            # a second, memoized run gives the same tree or raises the same
            assert _full_outcome(degenerate, d) == got, d
            outcomes[got[0] if isinstance(got[0], type) else "tree"] += 1
    assert set(outcomes) == {"tree", NonCompactType, NonMaximalOrder}


def test_non_maximal_triple_raises_on_every_call():
    d = validate(21, (1,) * 21)
    messages = []
    for _ in range(2):
        with pytest.raises(NonMaximalOrder) as info:
            degenerate(d)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == _full_outcome(emit_degenerate, d)[1]
    assert "component (1, 1, 19)" in messages[0]


def test_conjugate_signature_pairing():
    rng = random.Random(73)
    for _ in range(40):
        d = random_datum(rng)
        sig = signature(d)
        for n in range(1, d.m):
            if gcd(n, d.m) == 1:
                assert sig.values[n] + sig.values[d.m - n] == d.N - 2


def _recorded(search, datum, monkeypatch):
    """The full outcome of search and the (m, x, y) it asked _join about,
    in order."""
    asked = []
    original = M._join

    def spy(m, x, y):
        asked.append((m, x, y))
        return original(m, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(M, "_join", spy)
        return _full_outcome(search, datum), asked


def test_degenerate_matches_oracle_scan(monkeypatch):
    # visiting values rather than positions picks the oracle's pair at
    # every step and asks about the preference of the same joins, on
    # every supported modulus: at m = 8, 16 and 32 no join is preferred,
    # at m = 21 few are
    outcomes = Counter()
    for m in sorted(SUPPORTED_MODULI):
        rng = random.Random(4000 + m)
        data = [random_datum(rng, moduli=(m,), max_n=24) for _ in range(40)]
        k = 15 if 15 % m else 16
        data.append(validate(m, (1,) * k + (-k % m,)))
        preferred = set()
        for d in data:
            got = _recorded(degenerate, d, monkeypatch)
            want = _recorded(oracles.degenerate, d, monkeypatch)
            assert got[0] == want[0], d
            assert set(got[1]) == set(want[1]), d
            outcomes[got[0][0] if isinstance(got[0][0], type) else "tree"] += 1
            preferred.update(key for key in got[1] if M._join(*key)[1])
        if m in (8, 16, 32):
            assert not preferred
    assert set(outcomes) == {"tree", NonCompactType, NonMaximalOrder}


def test_degenerate_matches_oracle_scan_on_repeated_values():
    # few distinct values, so most positions repeat a value seen earlier:
    # the same trees, merge pairs and error messages as the pair scan
    outcomes = Counter()
    for m in sorted(SUPPORTED_MODULI):
        rng = random.Random(5000 + m)
        done = 0
        while done < 60:
            pool = [rng.randint(1, m - 1) for _ in range(rng.randint(1, 4))]
            a = [rng.choice(pool) for _ in range(rng.randint(3, 40))]
            last = -sum(a) % m
            if not last or gcd(*a, last, m) != 1:
                continue
            d = validate(m, a + [last])
            got = _full_outcome(degenerate, d)
            assert got == _full_outcome(oracles.degenerate, d), d
            outcomes[got[0] if isinstance(got[0], type) else "tree"] += 1
            done += 1
    assert set(outcomes) == {"tree", NonCompactType, NonMaximalOrder}


@pytest.mark.parametrize(
    "m, a, error",
    [(8, (1, 4) * 401 + (3,), NonCompactType), (21, (1,) * 2016, NonMaximalOrder)],
    ids=["m8-(1,4)^401,3", "m21-1^2016"],
)
def test_adversarial_inertia_fails_fast(m, a, error):
    # a step visits the few distinct values, not every pair of the 803 or
    # 2016 positions: the pair scan took 11 s on the first
    d = validate(m, a)
    t0 = time.perf_counter()
    with pytest.raises(error):
        degenerate(d)
    assert time.perf_counter() - t0 < 2
