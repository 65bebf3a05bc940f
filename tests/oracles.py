"""Reference functions that tests check the library against.  The library
itself has no use for them, so they live with the tests."""

from __future__ import annotations

from math import gcd

from cyclopel.cmfield import CMType
from cyclopel.cyclotomic import Cyclo, real_embedding_reps, relative_split
from cyclopel.embeddings import DEFAULT_PRECISION, SignVector, certified_sign_real
from cyclopel.errors import NotUnit
from cyclopel.monodromy import Signature


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
