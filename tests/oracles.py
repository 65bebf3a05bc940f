"""Reference functions that tests check the library against.  The library
itself has no use for them, so they live with the tests."""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

from mpmath.ctx_iv import MPIntervalContext

import cyclopel
import cyclopel.monodromy as M
from cyclopel.cmfield import CMType
from cyclopel.cyclotomic import Cyclo, _poly_divmod_monic, modulus, relative_split
from cyclopel import embeddings
from cyclopel.embeddings import ComplexInterval, SignVector, certified_sign_real
from cyclopel.errors import CyclopelError, InvariantViolation, NonCompactType, Unsatisfiable
from cyclopel.monodromy import DegenerationTree, MonodromyDatum, Signature
from cyclopel.peldatum import HermitianDatum, entry_cm_type
from cyclopel.polarization import _constants, _product, _solve_combo


class NotUnit(CyclopelError):
    """A unit of the ring of integers was required."""


def sign_vector(u: Cyclo) -> SignVector:
    """Signs of u at the real embeddings tau_n, one representative n < m/2
    per conjugate pair, ascending n."""
    if u.is_zero():
        raise ZeroDivisionError("sign vector of zero")
    if not u.is_unit():
        raise NotUnit("sign vectors are defined for units of the real subfield")
    return tuple(certified_sign_real(u, n) for n in modulus(u.m).reps)


def unit_for_signs(target: SignVector, m: int) -> Cyclo | Unsatisfiable:
    """The product of the unit generators of modulus m that the sign solve
    picks for target, or the Unsatisfiable it raises."""
    try:
        combo = _solve_combo(target, m)
    except Unsatisfiable as exc:
        return exc
    return _product(_constants(m).gens, combo, m)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def different_generator(m: int) -> tuple[Cyclo, Cyclo] | None:
    """(beta0, 1/beta0) from the classical closed forms, or None where none
    applies.  Cases, in match order: odd prime; 2^k; 3^k; product of two
    distinct odd primes, inverted along the Galois chain."""
    if m % 2 and _is_prime(m):
        # beta0 = m / (zeta^h - zeta^(h-1)) = sum_{k<m} k zeta^(k-h+1), h = (m+1)/2
        h = (m + 1) // 2
        return Cyclo(m, [(j + h - 1) % m for j in range(m)]), Cyclo(m, [0] * (h - 1) + [-1, 1], m)
    if m >= 4 and m & (m - 1) == 0:
        # i = zeta_m^(m/4); 1/beta0 = i/(m/2)
        imag = Cyclo.zeta(m, m // 4)
        return -(m // 2) * imag, Cyclo(m, imag.num, m // 2)
    k, t = 0, m
    while t % 3 == 0:
        t //= 3
        k += 1
    if t == 1 and k >= 2:
        # sqrt(-3) = zeta_3 - zeta_3^2; 1/beta0 = sqrt(-3)/m
        root = Cyclo.zeta(m, m // 3) - Cyclo.zeta(m, 2 * m // 3)
        return -(3 ** (k - 1)) * root, Cyclo(m, root.num, m)
    for p in range(3, m, 2):
        q = m // p
        if m % p == 0 and p != q and q % 2 == 1 and _is_prime(p) and _is_prime(q):
            z = Cyclo.zeta(m)
            num = z ** ((m + 1) // 2) - z ** ((m - 1) // 2)
            d1 = z ** ((q * (p + 1) // 2) % m) - z ** ((q * (p - 1) // 2) % m)
            d2 = z ** ((p * (q + 1) // 2) % m) - z ** ((p * (q - 1) // 2) % m)
            el = m * num / (d1 * d2)
            return el, el.inverse()
    return None


def mpf_fraction(raw) -> Fraction:
    """The exact value of an mpf endpoint from its (sign, man, exp, bc) tuple."""
    sign, man, exp, _ = raw
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def context_horner(x: Cyclo, n: int, prec: int) -> ComplexInterval:
    """sigma_n(x) by Horner's rule in the operators of a private interval
    context at prec, as a ComplexInterval."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    t = (ctx.pi * (2 * (n % x.m))) / x.m
    root = ctx.mpc(ctx.cos(t), ctx.sin(t))
    acc = ctx.mpc(0)
    for c in reversed(x.num):
        acc = acc * root + c
    acc /= x.den
    (re_lo, re_hi), (im_lo, im_hi) = acc._mpci_
    return ComplexInterval(*map(mpf_fraction, (re_lo, re_hi, im_lo, im_hi)))


def rounded(v: Fraction, prec: int, up: bool) -> Fraction:
    """v rounded to prec significant bits, toward +inf if up, else -inf."""
    if v == 0:
        return v
    n, d = abs(v.numerator), v.denominator
    e = n.bit_length() - d.bit_length()
    if Fraction(n, d) < Fraction(2) ** e:
        e -= 1
    ulp = Fraction(2) ** (e - prec + 1)
    q = v / ulp
    return (-(-q.numerator // q.denominator) if up else q.numerator // q.denominator) * ulp


def exact_horner(x: Cyclo, n: int, prec: int) -> ComplexInterval:
    """sigma_n(x) by the steps that embed documents, in exact rationals:
    Horner's rule acc <- acc * root + c on the root enclosure that
    embeddings._root gives when called.  Each interval product spans the
    least and greatest of its exact endpoint products; the real part's
    difference and the imaginary part's sum are rounded outward to prec
    bits, and c is rounded outward to prec bits, then added with outward
    rounding.  Then acc / den: den rounded outward to prec bits, den^2 and
    den * acc rounded outward at prec + 20 bits, and their quotient at
    prec.  Every rounding is a floor or a ceiling of an exact value."""
    if x.is_rational():
        q = x.as_fraction()
        return ComplexInterval(q, q, Fraction(0), Fraction(0))

    def outward(a, p=prec):
        return rounded(a[0], p, False), rounded(a[1], p, True)

    def mul(a, b):
        products = [u * v for u in a for v in b]
        return min(products), max(products)

    root_re, root_im = (
        tuple(Fraction(M) * Fraction(2) ** E for M, E in part)
        for part in embeddings._root(x.m, n % x.m, prec)
    )
    re = im = (Fraction(0), Fraction(0))
    for c in reversed(x.num):
        (a, b), (p, q) = mul(re, root_re), mul(im, root_im)
        (e, f), (g, h) = mul(re, root_im), mul(im, root_re)
        re, im = outward((a - q, b - p)), outward((e + g, f + h))
        if c:
            c_lo, c_hi = outward((Fraction(c), Fraction(c)))
            re = outward((re[0] + c_lo, re[1] + c_hi))
    if x.den != 1:
        wp = prec + 20
        den = outward((Fraction(x.den), Fraction(x.den)))
        square = outward(mul(den, den), wp)

        def quotient(a):
            a = outward(mul(a, den), wp)
            return outward(mul(a, (1 / square[0], 1 / square[1])))

        re, im = quotient(re), quotient(im)
    return ComplexInterval(re[0], re[1], im[0], im[1])


def relative_trace(x: Cyclo) -> Cyclo:
    """tr from Q(zeta_3m) to Q(zeta_m), returned over modulus m."""
    x1, x2 = relative_split(x)
    # x + tau(x) = 2 x1 + x2 (zeta_3 + zeta_3^2) = 2 x1 - x2
    return 2 * x1 - x2


def twice_prime_transport(phi: CMType, beta: Cyclo) -> tuple[CMType, Cyclo]:
    """Carry a polarized CM-type from Q(zeta_p), p odd, to the same field
    written as Q(zeta_2p): sigma_j of Q(zeta_2p) acts on zeta_p = zeta_2p^2
    as sigma_(j mod p), so the type lifts to the units mod 2p congruent to
    a member mod p, and beta is rewritten by zeta_p = zeta_2p^2."""
    p = phi.m
    lifted = frozenset(j for j in modulus(2 * p).units if j % p in phi.members)
    return CMType(2 * p, lifted), beta.to_modulus(2 * p)


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


def form_signature(h: HermitianDatum) -> Signature:
    """Signature of the Hermitian datum by walking each distinct entry's
    CM-type: residue n gets the multiplicity of every entry over Q(zeta_d)
    whose type holds n mod d, where d = m/gcd(n, m) is the order of zeta^n."""
    m = h.m
    values = [0] * m
    counts = Counter(xi for block in h.blocks for xi in block.entries)
    for xi, c in counts.items():
        d = xi.m
        for k in entry_cm_type(xi).members:
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
            (p for p in chain((first,), admissible) if M._join(m, a[p[0]], a[p[1]])[1]),
            first,
        )
        i, j = choice
        s = (a[i] + a[j]) % m
        triples.append(M._emit(m, a[i], a[j]))
        pairs.append(choice)
        merged.append(s)
        del a[j], a[i]
        a.insert(0, s)
    triples.append(M._emit(m, a[0], a[1]))
    return DegenerationTree(datum, tuple(triples), tuple(pairs), tuple(merged))


# ---------------------------------------------------------------------------
# the facts of a modulus, each computed on its own: cyclotomic.modulus(m)
# builds them together


def units_mod(m: int) -> tuple[int, ...]:
    """Units of Z/mZ in ascending order."""
    return tuple(k for k in range(1, m) if gcd(k, m) == 1)


def euler_phi(m: int) -> int:
    """Order of (Z/mZ)^*, with phi(1) = 1."""
    return 1 if m == 1 else len(units_mod(m))


def real_embedding_reps(m: int) -> tuple[int, ...]:
    """One representative n < m/2 per conjugate pair {n, m-n} of units."""
    return tuple(n for n in units_mod(m) if 2 * n < m)


def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending.  Computed by exact division of
    x^m - 1 by the product of Phi_d over proper divisors d of m."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in [d for d in range(1, m) if m % d == 0]:
        q, r = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
        if r:
            raise InvariantViolation(f"Phi_{d} does not divide x^{m}-1 exactly")
        num = q
    return tuple(num)


def galois_chain(m: int) -> tuple[tuple[int, int], ...]:
    """Generators g_i of (Z/m)^*, each with the order n_i of g_i modulo the
    subgroup generated by g_1, ..., g_(i-1); each level takes the least
    unit of largest order modulo the subgroup built so far."""
    units = units_mod(m)
    sub, chain = {1}, []
    while len(sub) < len(units):
        best = (0, 0)
        for g in units:
            n, power = 1, g
            while power not in sub:
                power = power * g % m
                n += 1
            if n > best[1]:
                best = (g, n)
        g, n = best
        chain.append(best)
        sub = {h * pow(g, j, m) % m for h in sub for j in range(n)}
    return tuple(chain)


def trace_table(m: int) -> tuple[int, ...]:
    """tr(zeta^j) for every residue j mod m, each reduced mod Phi_m."""
    phi = euler_phi(m)
    out = []
    for j in range(m):
        acc = [0] * m
        for u in units_mod(m):
            acc[(j * u) % m] += 1
        _, red = _poly_divmod_monic(acc, list(cyclotomic_poly(m)))
        red += [0] * (phi - len(red))
        if any(red[1:]):
            raise InvariantViolation(f"tr(zeta^{j}) not rational")
        out.append(red[0] if red else 0)
    return tuple(out)


def signature_columns(m: int) -> tuple[int, ...]:
    """Column x holds (-n * x) mod m for n = 0, ..., m-1, value n in the
    n-th 8-byte little-endian field of one int."""
    return tuple(
        int.from_bytes(b"".join(((-n * x) % m).to_bytes(8, "little") for n in range(m)), "little")
        for x in range(m)
    )


def admissible(m: int) -> tuple[tuple[bool, ...], ...]:
    """Row x, column y: gcd(x + y, m) == 1."""
    return tuple(tuple(gcd(x + y, m) == 1 for y in range(m)) for x in range(m))


def subgroups_mod(m: int) -> tuple[tuple[int, ...], ...]:
    """All subgroups of (Z/mZ)*, each as a sorted tuple: the cyclic
    subgroups <g> closed under products HK."""
    cyclic = {frozenset({1})}
    for g in units_mod(m):
        h, x = [1], g
        while x != 1:
            h.append(x)
            x = (x * g) % m
        cyclic.add(frozenset(h))
    found = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        h = frontier.pop()
        for k in cyclic:
            if h <= k or k <= h:
                continue
            hk = frozenset((x * y) % m for x in h for y in k)
            if hk not in found:
                found.add(hk)
                frontier.append(hk)
    return tuple(sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t)))


# ---------------------------------------------------------------------------
# memos


def memos() -> list:
    """Every memo of the cyclopel modules, each once: the functions with a
    cache_clear, after importing every module of the package."""
    for info in pkgutil.iter_modules(cyclopel.__path__):
        importlib.import_module(f"cyclopel.{info.name}")
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "cyclopel" or name.startswith("cyclopel."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def clear_memos() -> None:
    """Empty every memo of the cyclopel modules."""
    for memo in memos():
        memo.cache_clear()
