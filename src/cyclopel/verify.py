"""Verification of Hermitian data: equivalence of two data, the relative
pipeline for the m = 7 family with a distinguished point over
Q(zeta_21), and fixture corpora."""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from ._record import Record
from .cmfield import CMType, SimplicityReport, cm_type_from_triple, is_simple
from .cyclotomic import (
    SUPPORTED_MODULI, Cyclo, _relative_conjugator, modulus, parse_element, relative_split
)
from .errors import (
    CyclopelError, Indeterminate, InvariantViolation, MalformedDatum, NonIntegralForm
)
from .monodromy import signature, validate
from .peldatum import (
    ASSEMBLE_MODULI, MAX_REPORT_ENTRIES, Block, HermitianDatum, _entries, _gram_entries, assemble,
    form_signature,
)
from .polarization import (
    ConditionReport, beta0, equivalent_beta, verify_conditions
)

__all__ = [
    "MAX_CORPUS_BYTES",
    "FixtureOutcome",
    "RelativePipelineResult",
    "default_corpus_path",
    "equivalent_datum",
    "load_corpus",
    "m17_pipeline",
    "verify_fixture",
]


# ---------------------------------------------------------------------------
# equivalence of data


def _match_entries(left: Sequence[Cyclo], right: Sequence[Cyclo]) -> bool | None:
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
                    same = equivalent_beta(x, rep)
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


def equivalent_datum(h1: HermitianDatum, h2: HermitianDatum, *, allow_galois: bool = False) -> bool:
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
            verdicts.append(_match_entries(twisted, b2.entries))
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


def m17_pipeline() -> RelativePipelineResult:
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
    # 1/z = -alpha^-1 beta3^-1 certifies condition (1) without a norm
    alpha_inv = alpha.inverse()
    conditions = verify_conditions(pol, phi, inverse=-(alpha_inv * (z21**6 - z21**15) / 7))
    _require(conditions.all_pass(), "z fails its polarization conditions")
    _require(pol == -beta0(21).element.galois(4), "z is not -sigma_4(beta0)")

    # degree-2 relative Galois generator: fixes zeta_7, inverts zeta_3
    tau = _relative_conjugator(21)
    _require(tau == 8, f"relative conjugator mod 21 is {tau}, not 8")
    # tr(conj(x) z^-1 y) = tr(x (-z)^-1 conj(y)) since conj(z) = -z, so the
    # entry algebra runs on (-z)^-1 = alpha^-1 beta3^-1
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

    a11, a12, a21 = (descend(x) for x in (a11_big, a12_big, a21_big))

    z7 = Cyclo.zeta(7)
    beta3_small = 7 / (z7**2 - z7**5)
    _require(beta3 == beta3_small.to_modulus(21), "beta3 is not defined over Q(zeta_7)")
    pref = beta3_small.inverse()
    base = ((pref * a11, pref * a12), (pref * a21, pref * a11))
    twisted = tuple(tuple(x.galois(4) for x in row) for row in base)
    for mat, what in ((base, "entry"), (twisted, "twisted entry")):
        _assert_skew_hermitian(mat)
        for row in mat:
            for x in row:
                _require((7 * x).is_integral, f"{what} is not integral away from 7")

    return RelativePipelineResult(
        phi, simplicity, beta3, alpha, pol, conditions, a11, a12, a21, base, twisted
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


def verify_fixture(fixture: dict, *, allow_galois: bool = False) -> FixtureOutcome:
    """Check one fixture record: the monodromy datum is valid and has the
    expected signature; every entry's beta = 1/xi generates the different
    (condition 1; condition 2, beta purely imaginary, holds because Block
    accepts only purely imaginary entries); the certified embedding signs
    reproduce the expected signature (condition 3); every Gram cell is
    integral and skew; and, when the modulus supports full assembly, the
    assembled datum is equivalent to the fixture's.  A datum whose Gram
    matrix would pass MAX_REPORT_ENTRIES fails without assembling, and
    blocks whose Gram matrix would pass it fail without being parsed.  A
    library error or ValueError (say, a malformed entry string) is
    reported as a failure of this fixture."""
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
        rank = sum(modulus(d).phi * len(xs) for d, xs in fixture["blocks"] if d in SUPPORTED_MODULI)
        if rank * rank > MAX_REPORT_ENTRIES:
            failures.append(
                f"blocks skipped: their Gram matrix would hold {rank * rank} entries, "
                f"more than {MAX_REPORT_ENTRIES}"
            )
            return FixtureOutcome(name, False, tuple(failures))
        h = _fixture_datum(fixture)
        for block in h.blocks:
            ref = beta0(block.modulus).element
            for j, xi in enumerate(block.entries):
                # beta/beta0 is a unit iff its inverse xi * beta0 is one
                ratio = xi * ref
                if not (ratio.is_integral and ratio.is_unit()):
                    failures.append(
                        f"condition (1): entry {j} at modulus {block.modulus} "
                        "does not generate the different"
                    )
        fs = form_signature(h)
        if fs.values != expected:
            off = [n for n in range(h.m) if fs.values[n] != expected[n]]
            failures.append(
                "condition (3): certified embedding signs give signature "
                f"{fs.values}, disagreeing with the expected one at n = {off}"
            )
        try:
            for e in _entries(h):
                e.traces  # made and checked on first read
        except NonIntegralForm as exc:
            failures.append(f"Gram integrality: {exc}")
        if datum.m in ASSEMBLE_MODULI:
            entries = _gram_entries(datum)
            if entries > MAX_REPORT_ENTRIES:
                failures.append(
                    f"assembly skipped: its Gram matrix would hold {entries} entries, "
                    f"more than {MAX_REPORT_ENTRIES}"
                )
            elif not equivalent_datum(assemble(datum).hermitian, h, allow_galois=allow_galois):
                failures.append("assembled datum is not equivalent to the fixture blocks")
    except (CyclopelError, ValueError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return FixtureOutcome(name, not failures, tuple(failures))


# The shipped corpus is under 7 KB; reading stops here, so a corpus path
# that names an endless device or pipe cannot fill memory.
MAX_CORPUS_BYTES = 16 * 2**20


def default_corpus_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "corpus.json"


def load_corpus(path: str | Path) -> list[dict]:
    """Read a fixture corpus: {"fixtures": [record, ...]} with records as
    in verify_fixture, of at most MAX_CORPUS_BYTES bytes of UTF-8 JSON.  A
    longer file, pipe or device is refused after that many bytes."""
    with open(path, "rb") as f:
        raw = f.read(MAX_CORPUS_BYTES + 1)
    if len(raw) > MAX_CORPUS_BYTES:
        raise MalformedDatum(f"{path}: corpus is longer than {MAX_CORPUS_BYTES} bytes")
    doc = json.loads(raw.decode("utf-8"))
    if not isinstance(doc, dict) or not isinstance(doc.get("fixtures"), list):
        raise MalformedDatum(f"{path}: corpus must be an object with a 'fixtures' list")
    for record in doc["fixtures"]:
        if not isinstance(record, dict):
            raise MalformedDatum(f"{path}: a fixture is a {type(record).__name__}, not an object")
        missing = {"name", "m", "N", "a", "blocks", "expected_signature"} - set(record)
        if missing:
            raise MalformedDatum(f"{path}: fixture missing fields {sorted(missing)}")
    return doc["fixtures"]
