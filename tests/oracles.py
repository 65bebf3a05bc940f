"""Reference functions that tests check the library against.  The library
itself has no use for them, so they live with the tests."""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd

import cyclopel.monodromy as M
from cyclopel.cmfield import CMType
from cyclopel.cyclotomic import Cyclo, real_embedding_reps, relative_split
from cyclopel.embeddings import DEFAULT_PRECISION, SignVector, certified_sign_real
from cyclopel.errors import CyclopelError, InvariantViolation, NonCompactType
from cyclopel.monodromy import DegenerationTree, MonodromyDatum, Signature
from cyclopel.peldatum import HermitianDatum, entry_cm_type


class NotUnit(CyclopelError):
    """A unit of the ring of integers was required."""


def sign_vector(u: Cyclo, start_prec: int = DEFAULT_PRECISION) -> SignVector:
    """Signs of u at the real embeddings tau_n, one representative n < m/2
    per conjugate pair, ascending n."""
    if u.is_zero():
        raise ZeroDivisionError("sign vector of zero")
    if not u.is_unit():
        raise NotUnit("sign vectors are defined for units of the real subfield")
    return tuple(certified_sign_real(u, n, start_prec) for n in real_embedding_reps(u.m))


def relative_trace(x: Cyclo) -> Cyclo:
    """tr from Q(zeta_3m) to Q(zeta_m), returned over modulus m."""
    x1, x2 = relative_split(x)
    # x + tau(x) = 2 x1 + x2 (zeta_3 + zeta_3^2) = 2 x1 - x2
    return 2 * x1 - x2


def galois_act_signature(i: int, sig: Signature) -> Signature:
    """Transport of signature under sigma_i: f'(n) = f(n * i^-1)."""
    m = sig.m
    if gcd(i, m) != 1:
        raise ValueError(f"{i} is not a unit mod {m}")
    inv = pow(i, -1, m)
    return Signature(m, tuple(sig.values[(n * inv) % m] for n in range(m)))


def galois_act_cm(i: int, phi: CMType) -> CMType:
    """sigma_i sends the CM-type Phi to i * Phi."""
    if gcd(i, phi.m) != 1:
        raise ValueError(f"{i} is not a unit mod {phi.m}")
    return CMType(phi.m, frozenset((i * n) % phi.m for n in phi.members))


def signature(datum: MonodromyDatum) -> Signature:
    """Eigenspace dimensions f(n) = sum_i ((-n a(i)) mod m) / m - 1, one
    modular sum per residue n and inertia value."""
    m, a = datum.m, datum.a
    vals = [0]
    for n in range(1, m):
        s = sum((-n * x) % m for x in a)
        if s % m:
            raise InvariantViolation(f"signature value {s}/{m} at n = {n} is not integral")
        vals.append(s // m - 1)
    return Signature(m, tuple(vals))


def form_signature(h: HermitianDatum, start_prec: int = DEFAULT_PRECISION) -> Signature:
    """Signature of the Hermitian datum by walking each distinct entry's
    CM-type: residue n gets the multiplicity of every entry over Q(zeta_d)
    whose type holds n mod d, where d = m/gcd(n, m) is the order of zeta^n."""
    m = h.m
    values = [0] * m
    counts = Counter(xi for block in h.blocks for xi in block.entries)
    for xi, c in counts.items():
        d = xi.m
        for k in entry_cm_type(xi, start_prec).members:
            for n in range(k, m, d):
                if m // gcd(n, m) == d:
                    values[n] += c
    return Signature(m, tuple(values))


def degenerate(datum: MonodromyDatum) -> DegenerationTree:
    """The degeneration by a generator of admissible pairs in lexicographic
    order with a gcd per pair: the least preferred pair, else the first."""
    m = datum.m
    a = list(datum.a)
    triples: list[MonodromyDatum] = []
    pairs: list[tuple[int, int]] = []
    merged: list[int] = []
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
            (p for p in chain((first,), admissible) if M._join_is_preferred(m, a[p[0]], a[p[1]])),
            first,
        )
        i, j = choice
        s = (a[i] + a[j]) % m
        triples.append(M._component_triple(m, a[i], a[j]))
        pairs.append(choice)
        merged.append(s)
        del a[j], a[i]
        a.insert(0, s)
    triples.append(M._component_triple(m, a[0], a[1]))
    return DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))
