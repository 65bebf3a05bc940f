"""CM-types from 3-point covers, Galois action on them, and simplicity of
the associated CM abelian varieties."""

from __future__ import annotations

import random
from math import gcd

import pytest

from cyclopel.cmfield import (
    CMType,
    cm_type_from_triple,
    is_simple,
)
from cyclopel.cyclotomic import modulus
from cyclopel.monodromy import signature, validate
from oracles import galois_act_cm


def cm_types_of(m):
    """All 2^(phi(m)/2) CM-types of Q(zeta_m)."""
    units = modulus(m).units
    pairs = sorted({frozenset({n, m - n}) for n in units}, key=min)
    pairs = [tuple(sorted(p)) for p in pairs]
    out = []
    for mask in range(2 ** len(pairs)):
        members = frozenset(p[(mask >> k) & 1] for k, p in enumerate(pairs))
        out.append(CMType(m, members))
    return out


def cyclic_subgroups(m):
    """Independent subgroup enumeration: closures of single generators.
    (Z/mZ)* is cyclic for the prime m used here, so this finds everything."""
    out = set()
    for x in modulus(m).units:
        h = {1}
        y = x
        while y not in h:
            h.add(y)
            y = (y * x) % m
        out.add(tuple(sorted(h)))
    return out


def test_cm_type_from_triples():
    assert cm_type_from_triple(validate(5, (4, 3, 3))).members == frozenset({2, 4})
    assert cm_type_from_triple(validate(7, (1, 1, 5))).members == frozenset({1, 2, 3})
    assert cm_type_from_triple(validate(21, (7, 3, 11))).members == frozenset(
        {1, 2, 4, 8, 10, 16}
    )


def test_cm_type_needs_three_points():
    with pytest.raises(ValueError):
        cm_type_from_triple(validate(5, (1, 3, 3, 3)))


def test_cm_type_matches_signature_ones():
    rng = random.Random(79)
    for _ in range(60):
        m = rng.choice((5, 7, 11, 13))
        while True:
            x, y = rng.randint(1, m - 1), rng.randint(1, m - 1)
            z = (-(x + y)) % m
            if z:
                break
        t = validate(m, (x, y, z))
        phi = cm_type_from_triple(t)
        sig = signature(t)
        assert phi.members == frozenset(n for n in modulus(m).units if sig.values[n] == 1)


def test_cm_type_constructor_rejects_bad_sets():
    with pytest.raises(AssertionError):
        CMType(5, frozenset({1, 4}))
    with pytest.raises(AssertionError):
        CMType(5, frozenset({1}))
    with pytest.raises(AssertionError):
        CMType(6, frozenset({1, 2}))


def test_cm_type_membership_and_conjugate():
    phi = CMType(5, frozenset({2, 4}))
    assert 2 in phi and 7 in phi and -1 in phi
    assert 1 not in phi and -2 not in phi
    assert phi.conjugate().members == frozenset({1, 3})
    assert phi.conjugate().conjugate() == phi
    assert phi.sorted_members() == (2, 4)


def test_galois_act_cm():
    phi = CMType(5, frozenset({2, 4}))
    assert galois_act_cm(1, phi) == phi
    assert galois_act_cm(3, phi).members == frozenset({1, 2})
    with pytest.raises(ValueError):
        galois_act_cm(10, phi)


def test_galois_act_by_minus_one_is_conjugation():
    rng = random.Random(83)
    for m in (5, 7, 13, 21):
        for phi in rng.sample(cm_types_of(m), 4):
            assert galois_act_cm(m - 1, phi) == phi.conjugate()


def test_subgroups_mod_seven():
    assert modulus(7).subgroups == ((1,), (1, 6), (1, 2, 4), (1, 2, 3, 4, 5, 6))


def test_subgroups_mod_matches_cyclic_enumeration():
    for m in (5, 7, 11, 13, 17, 19):
        assert set(modulus(m).subgroups) == cyclic_subgroups(m)


def closure_subgroups(m):
    """Reference search: grow subgroups one element at a time, closing
    under multiplication, from {1} until nothing new appears."""
    units = modulus(m).units
    found = {frozenset({1})}
    frontier = [frozenset({1})]
    while frontier:
        h = frontier.pop()
        for g in units:
            if g in h:
                continue
            new = set(h)
            stack = [g]
            while stack:
                x = stack.pop()
                if x in new:
                    continue
                new.add(x)
                stack.extend((x * y) % m for y in new.copy())
            newf = frozenset(new)
            if newf not in found:
                found.add(newf)
                frontier.append(newf)
    return tuple(sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t)))


def test_subgroups_mod_matches_closure_search():
    # composite m covers the non-cyclic groups, e.g. (Z/8)* and (Z/24)*
    for m in range(1, 33):
        assert modulus(m).subgroups == closure_subgroups(m), m


def test_m5_types_all_simple():
    # no subgroup of (Z/5)* of order > 1 omits -1, so nothing can induce
    for phi in cm_types_of(5):
        rep = is_simple(phi)
        assert rep.simple and rep.inducing_subgroup is None
        assert rep.separating_cosets == ()


def test_m7_inset_type_not_simple():
    rep = is_simple(CMType(7, frozenset({1, 2, 4})))
    assert not rep.simple
    assert rep.inducing_subgroup == (1, 2, 4)
    assert rep.separating_cosets == ()


def test_m7_generic_type_simple_with_witness():
    rep = is_simple(CMType(7, frozenset({1, 2, 3})))
    assert rep.simple
    assert rep.separating_cosets == (((1, 2, 4), (1, 2, 4)),)


def test_m13_orbit_type_not_simple():
    phi = cm_type_from_triple(validate(13, (1, 3, 9)))
    assert phi.sorted_members() == (1, 2, 3, 5, 6, 9)
    rep = is_simple(phi)
    assert not rep.simple
    assert rep.inducing_subgroup == (1, 3, 9)


def test_m21_reflex_type_simple():
    rep = is_simple(CMType(21, frozenset({1, 2, 4, 8, 10, 16})))
    assert rep.simple
    assert rep.separating_cosets == (
        ((1, 8), (4, 11)),
        ((1, 13), (1, 13)),
        ((1, 4, 16), (2, 8, 11)),
        ((1, 2, 4, 8, 11, 16), (1, 2, 4, 8, 11, 16)),
        ((1, 4, 10, 13, 16, 19), (1, 4, 10, 13, 16, 19)),
    )


def test_simplicity_reports_are_internally_valid():
    for m in (7, 13, 21):
        for phi in cm_types_of(m):
            rep = is_simple(phi)
            if rep.simple:
                for h, coset in rep.separating_cosets:
                    assert h in modulus(m).subgroups
                    assert frozenset((coset[0] * y) % m for y in h) == frozenset(coset)
                    assert set(coset) & phi.members
                    assert not set(coset) <= phi.members
            else:
                h = rep.inducing_subgroup
                assert len(h) > 1 and (m - 1) not in h
                cosets = {frozenset((x * y) % m for y in h) for x in phi.members}
                assert frozenset().union(*cosets) == phi.members


def test_simplicity_exhaustive_cross_check_small_primes():
    for m in (5, 7, 11, 13):
        eligible = [
            h for h in cyclic_subgroups(m) if len(h) > 1 and (m - 1) not in h
        ]
        for phi in cm_types_of(m):
            induced = any(
                all(
                    frozenset((x * y) % m for y in h) <= phi.members
                    for x in phi.members
                )
                for h in eligible
            )
            assert is_simple(phi).simple == (not induced)


def test_simplicity_is_galois_invariant():
    rng = random.Random(89)
    for m in (7, 13, 21):
        for phi in rng.sample(cm_types_of(m), 8):
            base = is_simple(phi).simple
            for i in modulus(m).units:
                assert is_simple(galois_act_cm(i, phi)).simple == base


def test_galois_action_composes():
    rng = random.Random(97)
    for _ in range(30):
        m = rng.choice((5, 7, 21))
        phi = rng.choice(cm_types_of(m))
        units = modulus(m).units
        i, j = rng.choice(units), rng.choice(units)
        assert galois_act_cm(i, galois_act_cm(j, phi)) == galois_act_cm((i * j) % m, phi)
        assert gcd(i * j, m) == 1
