"""Assembly of the integral PEL datum: Hermitian matrix of xi entries,
integral Gram matrix of the trace pairing, signature cross-check, fixture
verification, and the relative pipeline for the m=7 family with a
distinguished point over Q(zeta_21)."""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import prod
from pathlib import Path

from ._record import Record
from .cmfield import CMType, SimplicityReport, cm_type_from_triple, is_simple
from .cyclotomic import (
    Cyclo,
    _relative_conjugator,
    element_str,
    modulus,
    parse_element,
    relative_split,
)
from .embeddings import DEFAULT_PRECISION, certified_sign_im
from .errors import (
    CyclopelError,
    Indeterminate,
    InvariantViolation,
    MalformedDatum,
    NonIntegralForm,
    UnsupportedModulus,
)
from .monodromy import (
    DegenerationTree,
    MonodromyDatum,
    Signature,
    _join,
    degenerate,
    genus,
    signature,
    validate,
)
from .polarization import (
    ConditionReport,
    PolarizedCMPoint,
    beta_for_type,
    equivalent_beta,
    reference_different_generator,
    verify_conditions,
)

__all__ = [
    "ASSEMBLE_MODULI",
    "CERTAINTY_SIMPLE",
    "CERTAINTY_FORM_UNIQUENESS",
    "Block",
    "BridgeResult",
    "ComponentResult",
    "FamilyResult",
    "FixtureOutcome",
    "GramView",
    "HermitianDatum",
    "RelativePipelineResult",
    "assemble",
    "entry_cm_type",
    "equivalent_datum",
    "form_signature",
    "gram_determinant",
    "gram_matrix",
    "load_corpus",
    "m17_pipeline",
    "twice_prime_bridge",
    "verify_fixture",
]

# Odd primes whose full pipeline (degeneration, CM-types, beta solve) runs
# end to end.
ASSEMBLE_MODULI = frozenset({3, 5, 7, 11, 13, 17, 19})

# For these moduli, uniqueness of the integral Hermitian form is not
# certified by the CM-point argument alone; reports carry the caveat.
_FORM_UNIQUENESS_CAVEAT_MODULI = frozenset({13, 19})

CERTAINTY_SIMPLE = "all-components-simple"
CERTAINTY_FORM_UNIQUENESS = "relies-on-hermitian-form-uniqueness"


class Block(Record):
    """Entries of the diagonal Hermitian form living over one cyclotomic
    level: xi_j in Q(zeta_modulus), each purely imaginary (xi = -conj xi)."""

    __slots__ = ("modulus", "entries")
    modulus: int
    entries: tuple[Cyclo, ...]

    def __post_init__(self):
        if not self.entries:
            raise InvariantViolation("empty block")
        for xi in self.entries:
            if xi.m != self.modulus:
                raise InvariantViolation("entry lives over the wrong modulus")
            if xi.is_zero():
                raise InvariantViolation("entry is zero")
            if not _is_pure_imaginary(xi):
                raise InvariantViolation("entry is not purely imaginary")


@lru_cache(maxsize=1024)
def _is_pure_imaginary(xi: Cyclo) -> bool:
    """xi = -conj(xi); memoized per entry, since families share entries."""
    return xi == -xi.conj()


class HermitianDatum(Record):
    """Block-diagonal Hermitian form over prod Z[zeta_d] for divisors d of
    the ambient modulus m, blocks in ascending modulus order."""

    __slots__ = ("m", "blocks")
    m: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvariantViolation("no blocks")
        mods = [b.modulus for b in self.blocks]
        if mods != sorted(set(mods)):
            raise InvariantViolation("blocks must have distinct ascending moduli")
        for d in mods:
            if self.m % d:
                raise InvariantViolation(f"block modulus {d} does not divide {self.m}")

    def dimension(self) -> int:
        """Z-rank of the lattice = 2 * genus."""
        return sum(modulus(b.modulus).phi * len(b.entries) for b in self.blocks)


def entry_cm_type(xi: Cyclo, start_prec: int = DEFAULT_PRECISION) -> CMType:
    """CM-type carried by a diagonal entry: n with Im(sigma_n(1/xi)) < 0,
    equivalently Im(sigma_n(xi)) > 0.  Signs are certified at one n per
    conjugate pair: sigma_(m-n) is the complex conjugate of sigma_n, so
    sign(Im sigma_(m-n)(xi)) = -sign(Im sigma_n(xi))."""
    m = xi.m
    members = set()
    for n in modulus(m).reps:
        s = certified_sign_im(xi, n, start_prec)
        if s == 1:
            members.add(n)
        elif s == -1:
            members.add(m - n)
    return CMType(m, frozenset(members))


# ---------------------------------------------------------------------------
# Gram matrix of the trace pairing
#
# The form is diagonal, so the Gram matrix is block-diagonal with one
# phi(d) x phi(d) Toeplitz cell per entry xi over Q(zeta_d).  Each cell and
# its determinant are built once per distinct entry and process, the matrix
# is a view over the cells, and the determinant is the product of the cell
# determinants.


def _gram_cell(xi: Cyclo) -> tuple[tuple[int, ...], ...]:
    """Cell of the entry xi: the (a, b) entry is tr(xi zeta^(a-b)) =
    sum_i c_i tr(zeta^(i+a-b)) / den over the coefficients c_i of xi, read
    off the trace table of the modulus.  Raises NonIntegralForm when a
    value is not a rational integer and InvariantViolation when the cell
    is not skew."""
    m = xi.m
    facts = modulus(m)
    d, table = facts.phi, facts.traces
    tr: dict[int, int] = {}
    for k in range(-(d - 1), d):
        num = sum(c * table[(i + k) % m] for i, c in enumerate(xi.num))
        if num % xi.den:
            raise NonIntegralForm(
                f"tr(xi * zeta^{k}) = {Fraction(num, xi.den)} is not integral for entry "
                f"{element_str(xi)} at modulus {m}"
            )
        tr[k] = num // xi.den
    if any(tr[k] != -tr[-k] for k in range(d)):
        raise InvariantViolation(
            f"pairing is not skew on the cell of entry {element_str(xi)} at modulus {m}"
        )
    return tuple(tuple(tr[a - b] for b in range(d)) for a in range(d))


@lru_cache(maxsize=1024)
def _cell(xi: Cyclo) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Cell of the entry xi with its determinant, built once per entry and
    process.  A failed build raises again on the next call, since
    lru_cache keeps no exceptions."""
    cell = _gram_cell(xi)
    return cell, gram_determinant(cell)


class GramView(Sequence):
    """Read-only view of the block-diagonal Gram matrix: the cells of the
    entries in block order on the diagonal, zeros elsewhere.  Row i is
    laid out when it is asked for; tuple(view) is the dense matrix."""

    __slots__ = ("cells", "_starts", "_n")

    def __init__(self, cells: tuple[tuple[tuple[int, ...], ...], ...]):
        self.cells = cells
        self._starts = tuple(accumulate((len(cell) for cell in cells), initial=0))
        self._n = self._starts[-1]

    def __len__(self) -> int:
        return self._n

    def _row(self, k: int, cell: tuple[tuple[int, ...], ...], r: int) -> tuple[int, ...]:
        start = self._starts[k]
        return (0,) * start + cell[r] + (0,) * (self._n - start - len(cell))

    def __getitem__(self, i: int) -> tuple[int, ...]:
        if not -self._n <= i < self._n:
            raise IndexError("Gram row index out of range")
        i %= self._n
        k = bisect_right(self._starts, i) - 1
        return self._row(k, self.cells[k], i - self._starts[k])

    def __iter__(self):
        for k, cell in enumerate(self.cells):
            for r in range(len(cell)):
                yield self._row(k, cell, r)

    def __eq__(self, other) -> bool:
        return isinstance(other, GramView) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)


def _gram_view(h: HermitianDatum) -> GramView:
    """Gram view of h; raises as _gram_cell does."""
    return GramView(tuple(_cell(xi)[0] for block in h.blocks for xi in block.entries))


def gram_matrix(h: HermitianDatum) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of E(x, y) = tr(x B conj(y)) on the Z-basis given by
    zeta^a-multiples of the coordinate vectors, in block order: the
    (a, b) entry of the cell for entry xi is tr(xi zeta^(a-b)), and every
    entry outside the cells is zero.  Raises NonIntegralForm when any
    pairing value is not a rational integer."""
    return tuple(_gram_view(h))


def gram_determinant(gram: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(gram)
    if n == 0:
        return 1
    m = [list(row) for row in gram]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row = m[k]
        p = row[k]
        for i in range(k + 1, n):
            r = m[i]
            c = r[k]
            for j in range(k + 1, n):
                r[j] = (r[j] * p - c * row[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


@lru_cache(maxsize=1024)
def _entry_signature(xi: Cyclo, m: int, start_prec: int) -> tuple[int, ...]:
    """What the entry xi adds to the signature of a datum over Q(zeta_m):
    1 at each residue n mod m of exact order d = xi.m, n = (m/d) t with t a
    unit mod d, whose local index n mod d is in the CM-type of xi; 0
    elsewhere.  Once per (entry, ambient modulus, start precision)."""
    d = xi.m
    members = entry_cm_type(xi, start_prec).members
    values = [0] * m
    for t in modulus(d).units:
        n = m // d * t
        if n % d in members:
            values[n] = 1
    return tuple(values)


def form_signature(h: HermitianDatum, start_prec: int = DEFAULT_PRECISION) -> Signature:
    """Signature of the Hermitian datum: the eigenvalue index n (mod m)
    lands in the block whose modulus is the exact order m/gcd(n, m) of
    zeta^n, at local index n mod that modulus; each entry contributes 1
    exactly when its CM-type contains the local index."""
    m = h.m
    columns = (
        _entry_signature(xi, m, start_prec) for block in h.blocks for xi in block.entries
    )
    return Signature(m, tuple(map(sum, zip(*columns))))


# ---------------------------------------------------------------------------
# full assembly for odd prime m


class ComponentResult(Record):
    """One 3-point component of the degeneration with its CM data."""

    __slots__ = ("triple", "phi", "simplicity", "point")
    triple: MonodromyDatum
    phi: CMType
    simplicity: SimplicityReport
    point: PolarizedCMPoint

    def __hash__(self) -> int:
        # equal components have equal triples, so this agrees with the
        # record's __eq__, without hashing the CM data of the triple
        return hash(self.triple)


@lru_cache(maxsize=4096)
def _component(triple: MonodromyDatum, start_prec: int) -> ComponentResult:
    """The component of a degeneration triple with its polarization
    element, built once per (triple, start_prec); its CM-type and
    simplicity are read off the join that emitted it."""
    _, _, phi, simplicity = _join(triple.m, triple.a[0], triple.a[1])
    return ComponentResult(triple, phi, simplicity, beta_for_type(phi, start_prec))


class FamilyResult(Record):
    __slots__ = ("datum", "genus", "signature", "tree", "components", "hermitian", "gram",
                 "gram_det", "form_sig", "certainty")
    datum: MonodromyDatum
    genus: int
    signature: Signature
    tree: DegenerationTree
    components: tuple[ComponentResult, ...]
    hermitian: HermitianDatum
    gram: GramView
    gram_det: int
    form_sig: Signature
    certainty: str


def assemble(datum: MonodromyDatum, start_prec: int = DEFAULT_PRECISION) -> FamilyResult:
    """Full pipeline: degenerate into 3-point components, solve for each
    component's polarization element, and return the diagonal Hermitian
    datum in degeneration order with its integral Gram matrix.  A family
    with no admissible degeneration fails that way at any modulus."""
    tree = degenerate(datum)
    if datum.m not in ASSEMBLE_MODULI:
        raise UnsupportedModulus(
            f"full assembly runs for odd prime m in {sorted(ASSEMBLE_MODULI)}, not m = {datum.m}"
        )
    sig = signature(datum)
    components = tuple(_component(triple, start_prec) for triple in tree.triples)
    entries = tuple(c.point.xi() for c in components)
    hermitian = HermitianDatum(datum.m, (Block(datum.m, entries),))
    cells = tuple(map(_cell, entries))
    gram = GramView(tuple(cell for cell, _ in cells))
    det = prod(cell_det for _, cell_det in cells)
    if abs(det) != 1:
        raise InvariantViolation(f"Gram determinant {det} is not a unit")
    form_sig = form_signature(hermitian, start_prec)
    if form_sig != sig:
        raise InvariantViolation(
            f"assembled form has signature {form_sig.values}, not the monodromy signature {sig.values}"
        )
    simple = all(c.simplicity.simple for c in components)
    certainty = (
        CERTAINTY_SIMPLE
        if simple and datum.m not in _FORM_UNIQUENESS_CAVEAT_MODULI
        else CERTAINTY_FORM_UNIQUENESS
    )
    return FamilyResult(
        datum,
        genus(datum),
        sig,
        tree,
        components,
        hermitian,
        gram,
        det,
        form_sig,
        certainty,
    )


# ---------------------------------------------------------------------------
# equivalence of data


def _match_entries(
    left: Sequence[Cyclo], right: Sequence[Cyclo], start_prec: int
) -> bool | None:
    """Whether some bijection pairs each left entry with an equivalent
    right entry.  "The ratio is a totally positive unit" is an equivalence
    relation, so such a bijection exists exactly when every class holds
    as many left as right entries; each entry is compared with one
    representative per class found so far.  Returns None when the classes
    do not balance and some comparison was undecidable (Indeterminate)."""
    reps: list[Cyclo] = []
    balance: list[int] = []
    undecided = False
    for side, entries in ((1, left), (-1, right)):
        for x in entries:
            for k, rep in enumerate(reps):
                try:
                    same = equivalent_beta(x, rep, start_prec)
                except Indeterminate:
                    undecided, same = True, False
                if same:
                    balance[k] += side
                    break
            else:
                reps.append(x)
                balance.append(side)
    if not any(balance):
        return True
    return None if undecided else False


def equivalent_datum(
    h1: HermitianDatum,
    h2: HermitianDatum,
    allow_galois: bool = False,
    start_prec: int = DEFAULT_PRECISION,
) -> bool:
    """Whether the two data define the same polarized form: identical
    block structure and a per-block bijection of entries with totally
    positive unit ratios, optionally after one Galois twist applied to
    every entry simultaneously."""
    if h1.m != h2.m:
        raise ValueError("data live over different ambient moduli")
    shape1 = [(b.modulus, len(b.entries)) for b in h1.blocks]
    shape2 = [(b.modulus, len(b.entries)) for b in h2.blocks]
    if shape1 != shape2:
        return False
    twists = modulus(h1.m).units if allow_galois else (1,)
    undecided = False
    for i in twists:
        verdicts = []
        for b1, b2 in zip(h1.blocks, h2.blocks):
            twisted = [xi.galois(i % b1.modulus) for xi in b1.entries]
            verdicts.append(_match_entries(twisted, b2.entries, start_prec))
        if all(v is True for v in verdicts):
            return True
        if any(v is None for v in verdicts):
            undecided = True
    if undecided:
        raise Indeterminate(
            "entry comparison is only sufficient at this modulus and failed to decide"
        )
    return False


# ---------------------------------------------------------------------------
# twice an odd prime


class BridgeResult(Record):
    __slots__ = ("phi", "beta", "conditions")
    phi: CMType
    beta: Cyclo
    conditions: ConditionReport


def twice_prime_bridge(
    phi: CMType, beta: Cyclo, start_prec: int = DEFAULT_PRECISION
) -> BridgeResult:
    """Carry a polarized CM-type from Q(zeta_m') to Q(zeta_2m') (same
    field, rewritten): the type lifts to the odd units congruent to a
    member mod m', beta is rewritten verbatim, and the three conditions
    are re-verified on the lifted side."""
    m0 = phi.m
    if m0 % 2 == 0:
        raise ValueError("source modulus must be odd")
    if beta.m != m0:
        raise ValueError("beta and CM-type live over different moduli")
    if not verify_conditions(beta, phi, start_prec).all_pass():
        raise ValueError("input beta fails its own conditions")
    m2 = 2 * m0
    lifted = CMType(m2, frozenset(j for j in modulus(m2).units if j % m0 in phi.members))
    beta2 = beta.to_modulus(m2)
    report = verify_conditions(beta2, lifted, start_prec)
    if not report.all_pass():
        raise InvariantViolation("conditions do not survive the rewriting")
    return BridgeResult(lifted, beta2, report)


# ---------------------------------------------------------------------------
# the m = 7 family (2,4,4,4): distinguished point over Q(zeta_21)


class RelativePipelineResult(Record):
    __slots__ = ("phi", "phi_simplicity", "beta3", "alpha", "z", "z_conditions", "a11", "a12",
                 "a21", "base_matrix", "twisted_matrix")
    phi: CMType
    phi_simplicity: SimplicityReport
    beta3: Cyclo
    alpha: Cyclo
    z: Cyclo
    z_conditions: ConditionReport
    a11: Cyclo
    a12: Cyclo
    a21: Cyclo
    base_matrix: tuple[tuple[Cyclo, ...], ...]
    twisted_matrix: tuple[tuple[Cyclo, ...], ...]


def _require(ok: bool, what: str) -> None:
    """Raise InvariantViolation(what) unless ok; unlike assert, this also
    runs under python -O."""
    if not ok:
        raise InvariantViolation(what)


def _assert_skew_hermitian(mat: tuple[tuple[Cyclo, ...], ...]) -> None:
    for j, row in enumerate(mat):
        for k, x in enumerate(row):
            _require(x.conj() == -mat[k][j], "matrix is not skew-Hermitian")


def m17_pipeline(start_prec: int = DEFAULT_PRECISION) -> RelativePipelineResult:
    """Derive the 2x2 Hermitian matrix over Z[zeta_7] for the family
    (7, 4, (2,4,4,4)) from its distinguished point, the curve y^7 = x^3 - 1
    whose Jacobian has CM by Z[zeta_21].

    Steps: the 3-point cover (21, (7,3,11)) gives the CM-type; z = -beta3 *
    alpha is its polarization element; the lattice Z[zeta_21] over Z[zeta_7]
    in the basis (1, zeta_3) turns the pairing tr(conj(x) z^-1 y), conjugate
    linear in the first argument, into a 2x2 matrix with entries a_ij
    descended through the degree-2 relative extension; the Galois twist
    sigma_4 carries the base family (1,1,1,4) to (2,4,4,4)."""
    z21 = Cyclo.zeta(21)

    triple = validate(21, (7, 3, 11))
    phi = cm_type_from_triple(triple)
    _require(phi.sorted_members() == (1, 2, 4, 8, 10, 16), "CM-type of (21; 7,3,11) is wrong")
    simplicity = is_simple(phi)
    _require(simplicity.simple, "CM-type of (21; 7,3,11) is not simple")

    beta3 = 7 / (z21**6 - z21**15)
    alpha = (z21**7 - z21**14) * (z21**2 - z21**19)
    _require(alpha == (z21**9 + z21**12) - (z21**5 + z21**16), "alpha differs from its expansion")
    pol = -(beta3 * alpha)
    closed = 21 * (z21**2 - z21**19) / ((z21**14 - z21**7) * (z21**6 - z21**15))
    _require(-pol == closed, "z differs from its closed form")
    conditions = verify_conditions(pol, phi, start_prec)
    _require(conditions.all_pass(), "z fails its polarization conditions")
    _require(pol == -reference_different_generator(21).galois(4), "z is not -sigma_4(beta0)")

    # degree-2 relative Galois generator: fixes zeta_7, inverts zeta_3
    tau = _relative_conjugator(21)
    _require(tau == 8, f"relative conjugator mod 21 is {tau}, not 8")
    # tr(conj(x) z^-1 y) = tr(x (-z)^-1 conj(y)) since conj(z) = -z, so the
    # entry algebra runs on (-z)^-1 = alpha^-1 beta3^-1
    alpha_inv = alpha.inverse()
    tau_alpha_inv = alpha_inv.galois(tau)
    zeta3 = Cyclo.zeta(21, 7)
    a11_big = alpha_inv + tau_alpha_inv
    a12_big = zeta3**2 * alpha_inv + zeta3 * tau_alpha_inv
    a21_big = zeta3 * alpha_inv + zeta3**2 * tau_alpha_inv
    _require(a11_big.is_real(), "relative entry a11 is not real")
    _require(a12_big.conj() == a21_big, "relative entries a12, a21 are not conjugate")
    for x in (a11_big, a12_big, a21_big):
        _require(x.galois(tau) == x, "relative entry is not tau-invariant")

    def descend(x: Cyclo) -> Cyclo:
        x1, x2 = relative_split(x)
        _require(x2.is_zero(), "relative entry does not descend to Q(zeta_7)")
        return x1

    a11 = descend(a11_big)
    a12 = descend(a12_big)
    a21 = descend(a21_big)

    z7 = Cyclo.zeta(7)
    beta3_small = 7 / (z7**2 - z7**5)
    _require(beta3 == beta3_small.to_modulus(21), "beta3 is not defined over Q(zeta_7)")
    pref = beta3_small.inverse()
    base = (
        (pref * a11, pref * a12),
        (pref * a21, pref * a11),
    )
    _assert_skew_hermitian(base)
    for row in base:
        for x in row:
            _require((7 * x).is_integral, "entry is not integral away from 7")

    twisted = tuple(tuple(x.galois(4) for x in row) for row in base)
    _assert_skew_hermitian(twisted)
    for row in twisted:
        for x in row:
            _require((7 * x).is_integral, "twisted entry is not integral away from 7")

    return RelativePipelineResult(
        phi,
        simplicity,
        beta3,
        alpha,
        pol,
        conditions,
        a11,
        a12,
        a21,
        base,
        twisted,
    )


# ---------------------------------------------------------------------------
# fixtures


class FixtureOutcome(Record):
    __slots__ = ("name", "passed", "failures")
    name: str
    passed: bool
    failures: tuple[str, ...]


def _fixture_datum(fixture: dict) -> HermitianDatum:
    blocks = tuple(
        Block(int(mod), tuple(parse_element(s, int(mod)) for s in entries))
        for mod, entries in fixture["blocks"]
    )
    return HermitianDatum(int(fixture["m"]), blocks)


def _check_json_types(fixture: dict) -> None:
    """Raise MalformedDatum naming the fields whose JSON type is not the corpus format's."""

    def ints(v) -> bool:
        return isinstance(v, list) and all(type(x) is int for x in v)

    def blocks(v) -> bool:
        return isinstance(v, list) and all(
            isinstance(b, list) and len(b) == 2 and type(b[0]) is int and isinstance(b[1], list)
            and all(isinstance(s, str) for s in b[1]) for b in v
        )

    wrong = [k for k in ("m", "N") if type(fixture.get(k)) is not int]
    wrong += [k for k in ("a", "expected_signature") if not ints(fixture.get(k))]
    if not blocks(fixture.get("blocks")):
        wrong.append("blocks")
    if wrong:
        raise MalformedDatum(f"fixture fields {wrong} do not have the corpus format's JSON types")


def verify_fixture(
    fixture: dict,
    start_prec: int = DEFAULT_PRECISION,
    allow_galois: bool = False,
) -> FixtureOutcome:
    """Check one fixture record: the monodromy datum is valid and has the
    expected signature; every entry's beta = 1/xi generates the different
    (condition 1; condition 2, beta purely imaginary, holds because Block
    accepts only purely imaginary entries); the certified embedding signs
    reproduce the expected signature (condition 3); every Gram cell is
    integral and skew; and, when the modulus supports full assembly, the
    assembled datum is equivalent to the fixture's.  A library error or
    ValueError (say, a malformed entry string) is reported as a failure of
    this fixture."""
    name = str(fixture.get("name", "?"))
    failures: list[str] = []
    try:
        _check_json_types(fixture)
        datum = validate(int(fixture["m"]), fixture["a"])
        expected = tuple(int(v) for v in fixture["expected_signature"])
        if len(expected) != datum.m:
            raise MalformedDatum(
                f"expected_signature has {len(expected)} values, not one per residue mod {datum.m}"
            )
        if datum.N != int(fixture["N"]):
            failures.append(f"declared N = {fixture['N']} but inertia has {datum.N} points")
        sig = signature(datum)
        if sig.values != expected:
            failures.append(
                f"monodromy signature {sig.values} differs from expected {expected}"
            )
        h = _fixture_datum(fixture)
        for block in h.blocks:
            ref = reference_different_generator(block.modulus)
            for j, xi in enumerate(block.entries):
                # beta/beta0 is a unit iff its inverse xi * beta0 is one
                ratio = xi * ref
                if not (ratio.is_integral and ratio.is_unit()):
                    failures.append(
                        f"condition (1): entry {j} at modulus {block.modulus} "
                        "does not generate the different"
                    )
        fs = form_signature(h, start_prec)
        if fs.values != expected:
            off = [n for n in range(h.m) if fs.values[n] != expected[n]]
            failures.append(
                "condition (3): certified embedding signs give signature "
                f"{fs.values}, disagreeing with the expected one at n = {off}"
            )
        try:
            _gram_view(h)
        except NonIntegralForm as exc:
            failures.append(f"Gram integrality: {exc}")
        if datum.m in ASSEMBLE_MODULI:
            result = assemble(datum, start_prec)
            if not equivalent_datum(result.hermitian, h, allow_galois, start_prec):
                failures.append("assembled datum is not equivalent to the fixture blocks")
    except (CyclopelError, ValueError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return FixtureOutcome(name, not failures, tuple(failures))


def default_corpus_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "corpus.json"


def load_corpus(path: str | Path) -> list[dict]:
    """Read a fixture corpus: {"fixtures": [record, ...]} with records as
    in verify_fixture."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("fixtures"), list):
        raise MalformedDatum(f"{path}: corpus must be an object with a 'fixtures' list")
    for record in doc["fixtures"]:
        if not isinstance(record, dict):
            raise MalformedDatum(f"{path}: a fixture is a {type(record).__name__}, not an object")
        missing = {"name", "m", "N", "a", "blocks", "expected_signature"} - set(record)
        if missing:
            raise MalformedDatum(f"{path}: fixture missing fields {sorted(missing)}")
    return doc["fixtures"]
