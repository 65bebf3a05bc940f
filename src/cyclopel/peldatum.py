"""Assembly of the integral PEL datum: Hermitian matrix of xi entries,
integral Gram matrix of the trace pairing, and signature cross-check."""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate
from math import prod

from ._record import Record
from .cmfield import CMType, SimplicityReport
from .cyclotomic import SUPPORTED_MODULI, Cyclo, modulus
from .embeddings import DEFAULT_PRECISION
from .errors import InvariantViolation, UnsupportedModulus
from .monodromy import (
    DegenerationTree, MonodromyDatum, Signature, _join, degenerate, genus, signature
)
from .polarization import (
    Entry, PolarizedCMPoint, _entry_column, beta_for_type, entry_cm_type, gram_determinant,
    hermitian_entry,
)

__all__ = [
    "ASSEMBLE_MODULI",
    "CERTAINTY_SIMPLE",
    "CERTAINTY_FORM_UNIQUENESS",
    "MAX_REPORT_ENTRIES",
    "Block",
    "ComponentResult",
    "FamilyResult",
    "GramView",
    "HermitianDatum",
    "assemble",
    "entry_cm_type",
    "form_signature",
    "gram_determinant",
    "gram_matrix",
]

# Odd primes whose full pipeline (degeneration, CM-types, beta solve) runs
# end to end.
ASSEMBLE_MODULI = frozenset({3, 5, 7, 11, 13, 17, 19})

# A Gram entry is about 9 bytes of report text; 2^24 of them is about
# 150 MB of text (N = 229 at m = 19).  The command line refuses a larger
# report, and a fixture verification skips a larger assembly, before
# degenerating.
MAX_REPORT_ENTRIES = 2**24

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
            if xi != -xi.conj():
                raise InvariantViolation("entry is not purely imaginary")


class HermitianDatum(Record):
    """Block-diagonal Hermitian form over prod Z[zeta_d] for divisors d of
    the ambient modulus m, blocks in ascending modulus order."""

    __slots__ = ("m", "blocks")
    m: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        if self.m not in SUPPORTED_MODULI:
            raise UnsupportedModulus(f"modulus {self.m} is outside the supported list")
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


def _gram_entries(datum: MonodromyDatum) -> int:
    """The number of entries of the Gram matrix that assemble would build
    for datum, ((N - 2) * phi(m))^2, known before degenerating."""
    return ((datum.N - 2) * modulus(datum.m).phi) ** 2


def _entries(h: HermitianDatum) -> tuple[Entry, ...]:
    """The Entry records of the diagonal of h, in block order."""
    return tuple(hermitian_entry(xi) for block in h.blocks for xi in block.entries)


# ---------------------------------------------------------------------------
# Gram matrix of the trace pairing: a view over the cells of the entries'
# records, which a family reads off its components' points


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


def gram_matrix(h: HermitianDatum) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of E(x, y) = tr(x B conj(y)) on the Z-basis given by
    zeta^a-multiples of the coordinate vectors, in block order: the
    (a, b) entry of the cell for entry xi is tr(xi zeta^(a-b)), and every
    entry outside the cells is zero.  Raises NonIntegralForm when any
    pairing value is not a rational integer."""
    return tuple(GramView(tuple(e.cell for e in _entries(h))))


def form_signature(h: HermitianDatum) -> Signature:
    """Signature of the Hermitian datum: the eigenvalue index n (mod m)
    lands in the block whose modulus is the exact order m/gcd(n, m) of
    zeta^n, at local index n mod that modulus; each entry contributes 1
    exactly when its CM-type contains the local index."""
    columns = (e.column if e.xi.m == h.m else _entry_column(e.phi, h.m) for e in _entries(h))
    return Signature(h.m, tuple(map(sum, zip(*columns))))


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
def _component(triple: MonodromyDatum) -> ComponentResult:
    """The component of a degeneration triple with its polarization
    element, built once per triple; its CM-type and simplicity are read
    off the join that emitted it."""
    _, _, phi, simplicity = _join(triple.m, triple.a[0], triple.a[1])
    return ComponentResult(triple, phi, simplicity, beta_for_type(phi))


class FamilyResult(Record):
    __slots__ = ("datum", "genus", "signature", "tree", "components", "gram_det", "form_sig",
                 "certainty")
    datum: MonodromyDatum
    genus: int
    signature: Signature
    tree: DegenerationTree
    components: tuple[ComponentResult, ...]
    gram_det: int
    form_sig: Signature
    certainty: str

    @property
    def hermitian(self) -> HermitianDatum:
        """The diagonal Hermitian datum of the components' entries in
        degeneration order, built and validated when read."""
        m = self.datum.m
        return HermitianDatum(m, (Block(m, tuple(c.point.entry.xi for c in self.components)),))

    @property
    def gram(self) -> GramView:
        """The Gram view over the cells of the components' entries, built
        when read."""
        return GramView(tuple(c.point.entry.cell for c in self.components))


def assemble(datum: MonodromyDatum, start_prec: int = DEFAULT_PRECISION) -> FamilyResult:
    """Full pipeline: degenerate into 3-point components, solve for each
    component's polarization element, and return the family; its
    components' points hold the entries of the diagonal Hermitian datum in
    degeneration order, whose cells make its integral Gram matrix; the
    determinant and form signature are checked here.  A family with no
    admissible degeneration fails that way at any modulus.

    The second parameter is not read: the family is exact, and a
    precision only renders a report (cli.build_report).  It stays for
    callers that still pass one, such as perfbench/worker.py."""
    tree = degenerate(datum)
    if datum.m not in ASSEMBLE_MODULI:
        raise UnsupportedModulus(
            f"full assembly runs for odd prime m in {sorted(ASSEMBLE_MODULI)}, not m = {datum.m}"
        )
    sig = signature(datum)
    components = tuple(_component(triple) for triple in tree.triples)
    entries = [c.point.entry for c in components]
    det = prod(e.det for e in entries)
    if abs(det) != 1:
        raise InvariantViolation(f"Gram determinant {det} is not a unit")
    form_values = tuple(map(sum, zip(*(e.column for e in entries))))
    if form_values != sig.values:
        raise InvariantViolation(
            f"assembled form has signature {form_values}, not the monodromy signature {sig.values}"
        )
    simple = all(c.simplicity.simple for c in components)
    certainty = (
        CERTAINTY_SIMPLE
        if simple and datum.m not in _FORM_UNIQUENESS_CAVEAT_MODULI
        else CERTAINTY_FORM_UNIQUENESS
    )
    return FamilyResult(datum, genus(datum), sig, tree, components, det, sig, certainty)
