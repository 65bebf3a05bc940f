"""Command line front end: run the full pipeline on one monodromy datum,
or verify a fixture corpus.

Exit codes: 0 success, 2 usage, 3 no admissible degeneration (non-compact
type), 4 unsupported modulus, 5 non-maximal order at a join, 6 no unit
solves the sign pattern, 7 other datum validation failure, 8 report at an
assembly modulus larger than MAX_REPORT_ENTRIES Gram entries, 1 anything
else (including corpus failures)."""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .cyclotomic import Cyclo, element_str
from .embeddings import DEFAULT_PRECISION, PRECISION_CAP, embed
from .errors import (
    CyclopelError,
    DisconnectedCover,
    MalformedDatum,
    NonCompactType,
    NonMaximalOrder,
    ParseError,
    UnbalancedInertia,
    Unsatisfiable,
    UnsupportedModulus,
    ZeroInertia,
)
from .monodromy import validate
from .peldatum import (
    ASSEMBLE_MODULI, MAX_REPORT_ENTRIES, ComponentResult, FamilyResult, _gram_entries, assemble
)
from .polarization import PolarizedCMPoint
from .verify import default_corpus_path, load_corpus, verify_fixture

__all__ = ["main", "build_report", "report_json", "run_corpus", "write_report"]

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_USAGE = 2
EXIT_NONCOMPACT = 3
EXIT_UNSUPPORTED_MODULUS = 4
EXIT_NONMAXIMAL_ORDER = 5
EXIT_UNSATISFIABLE = 6
EXIT_INVALID_DATUM = 7
EXIT_REPORT_TOO_LARGE = 8

_DECIMAL_DIGITS = 20

# Separator of the numbers in a Gram row: the rows are items of the
# report's "gram" list, so their numbers sit at depth 3.
_GRAM_SEP = ",\n      "


def _decimal_str(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return str(Decimal(int(q.numerator)) / Decimal(int(q.denominator)))


class _ReadOnlyDict(dict):
    """A dict of a report that refuses mutation, so the text written from
    it cannot disagree with it.  A component or matrix entry is written by
    its text as an item of a report list, and a matrix entry also carries
    the text of each row of its Gram cell.  A copy or a pickle of it is a
    plain dict."""

    __slots__ = ("_text", "rows")

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} of a report is read-only")

    __setitem__ = __delitem__ = __ior__ = __setattr__ = __delattr__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)

    @property
    def text(self) -> str:
        """Text of the dict as an item of a top-level list of the report,
        two levels down, made by _json_text when first read."""
        try:
            return self._text
        except AttributeError:
            text = _json_text(self, 2)
            object.__setattr__(self, "_text", text)
            return text


def _json_text(value, depth: int = 0) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for a value a
    report holds (a str, int, bool, tuple or read-only dict with str keys),
    its lines indented depth levels further; other types raise TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is tuple:
        return _seq(
            [int.__repr__(v) if type(v) is int else _json_text(v, depth + 1) for v in value], depth
        )
    if kind is _ReadOnlyDict:
        if not value:
            return "{}"
        inner = ",\n" + "  " * (depth + 1)
        items = [
            f"{encode_basestring_ascii(k)}: {_json_text(value[k], depth + 1)}" for k in sorted(value)
        ]
        return "{" + inner[1:] + inner.join(items) + "\n" + "  " * depth + "}"
    raise TypeError(f"a report holds no value of type {kind.__name__}")


def _element_json(x: Cyclo, precision: int) -> _ReadOnlyDict:
    """Exact string plus a decimal rendering of the identity embedding;
    only the exact string is meaningful for comparison.  u0 is reported
    exactly and never embedded."""
    box = embed(x, 1, precision)
    return _ReadOnlyDict(
        exact=element_str(x),
        re=_decimal_str((box.re_lo + box.re_hi) / 2),
        im=_decimal_str((box.im_lo + box.im_hi) / 2),
    )


@lru_cache(maxsize=4096)
def _point_json(
    point: PolarizedCMPoint, precision: int
) -> tuple[_ReadOnlyDict, _ReadOnlyDict, str]:
    """beta's dict, the entry's dict and u0's exact text, once per (point,
    precision).  The entry's dict carries the text of each row of its
    Gram cell in a report, without the zeros around it."""
    entry = _element_json(point.entry.xi, precision)
    cell = point.entry.cell
    # the cell is Toeplitz, (a, b) -> tr(xi zeta^(a-b)), so row a is the
    # window at d - 1 - a of its last row followed by its first row's tail
    d = len(cell)
    traces = list(map(str, cell[-1] + cell[0][1:]))
    rows = tuple(_GRAM_SEP.join(traces[d - 1 - a:2 * d - 1 - a]) for a in range(d))
    object.__setattr__(entry, "rows", rows)
    return _element_json(point.beta, precision), entry, element_str(point.u0)


@lru_cache(maxsize=4096)
def _component_json(c: ComponentResult, precision: int) -> tuple[_ReadOnlyDict, _ReadOnlyDict]:
    """The dict of a component (triple, CM-type, simplicity with its
    witness, beta and u0) and the dict of its matrix entry, once per
    (component, precision)."""
    beta, entry, u0 = _point_json(c.point, precision)
    simp = c.simplicity
    if simp.simple:
        cosets = (_ReadOnlyDict(subgroup=h, coset=coset) for h, coset in simp.separating_cosets)
        witness = _ReadOnlyDict(separating_cosets=tuple(cosets))
    else:
        witness = _ReadOnlyDict(inducing_subgroup=simp.inducing_subgroup)
    component = _ReadOnlyDict(
        triple=c.triple.a,
        cm_type=c.phi.sorted_members(),
        simple=simp.simple,
        simplicity_witness=witness,
        beta=beta,
        u0=u0,
    )
    return component, entry


def build_report(result: FamilyResult, precision: int, elapsed_ms: int) -> _ReadOnlyDict:
    """The report of result as a read-only dict: every dict in it is read-only
    and every list a tuple.  The dicts of components and elements are built
    once per process and precision and shared by every report that holds
    them; being read-only, no report can change them."""
    tree, datum = result.tree, result.datum
    parts = [_component_json(c, precision) for c in result.components]
    return _ReadOnlyDict(
        input=_ReadOnlyDict(m=datum.m, N=datum.N, a=datum.a),
        genus=result.genus,
        signature=result.signature.values,
        degeneration=_ReadOnlyDict(
            triples=tuple(t.a for t in tree.triples),
            merge_pairs=tree.merge_pairs,
            merged_values=tree.merged_values,
        ),
        components=tuple(c for c, _ in parts),
        matrix_entries=tuple(e for _, e in parts),
        gram=result.gram,
        determinant=result.gram_det,
        form_signature=result.form_sig.values,
        signature_match=result.form_sig == result.signature,
        certainty=result.certainty,
        precision_bits=precision,
        timing_ms=elapsed_ms,
    )


def report_json(report: _ReadOnlyDict) -> str:
    """The text of json.dumps(report, indent=2, sort_keys=True, default=list)
    for a report of build_report; other values raise TypeError."""
    if type(report) is not _ReadOnlyDict or "gram" not in report:
        raise TypeError(
            f"report_json writes a report of build_report, not a {type(report).__name__}: "
            "write other values with json.dumps(x, indent=2, sort_keys=True, default=list)"
        )
    out: list[str] = []
    _write(report, out.append, out.extend)
    return "".join(out)


def write_report(result: FamilyResult, precision: int, elapsed_ms: int, write) -> None:
    """Write report_json(build_report(result, precision, elapsed_ms)) through
    write; the Gram matrix goes one cell's rows at a time."""
    _write(build_report(result, precision, elapsed_ms), write, lambda pieces: write("".join(pieces)))


def _write(report: _ReadOnlyDict, write, put_cell) -> None:
    """Write a report of build_report through write, in the sorted-key
    layout of json.dumps: components and matrix entries by their own text,
    the Gram matrix by put_cell, which takes the list of the text pieces of
    one cell's rows."""
    degeneration, inp = report["degeneration"], report["input"]
    write(
        f'{{\n  "certainty": {encode_basestring_ascii(report["certainty"])},\n'
        f'  "components": {_seq([c.text for c in report["components"]], 1)},\n'
        '  "degeneration": {\n'
        f'    "merge_pairs": {_seq([_int_list(p, 3) for p in degeneration["merge_pairs"]], 2)},\n'
        f'    "merged_values": {_ints(degeneration["merged_values"], 2)},\n'
        f'    "triples": {_seq([_int_list(t, 3) for t in degeneration["triples"]], 2)}\n  }},\n'
        f'  "determinant": {report["determinant"]},\n'
        f'  "form_signature": {_int_list(report["form_signature"], 1)},\n'
        f'  "genus": {report["genus"]},\n  "gram": '
    )
    _write_gram(report["matrix_entries"], len(report["gram"]), write, put_cell)
    write(
        f',\n  "input": {{\n    "N": {inp["N"]},\n    "a": {_ints(inp["a"], 2)},\n'
        f'    "m": {inp["m"]}\n  }},\n'
        f'  "matrix_entries": {_seq([e.text for e in report["matrix_entries"]], 1)},\n'
        f'  "precision_bits": {report["precision_bits"]},\n'
        f'  "signature": {_int_list(report["signature"], 1)},\n'
        f'  "signature_match": {"true" if report["signature_match"] else "false"},\n'
        f'  "timing_ms": {report["timing_ms"]}\n}}'
    )


def _seq(texts: Sequence[str], depth: int) -> str:
    """Text of a list at depth whose items have the given texts."""
    if not texts:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + "  " * depth + "]"


def _ints(values: Sequence[int], depth: int) -> str:
    """Text of a list of plain integers at depth, in one join."""
    return _seq(list(map(int.__repr__, values)), depth)


@lru_cache(maxsize=4096)
def _int_list(values: tuple[int, ...], depth: int) -> str:
    """_ints of a short tuple that reports repeat (a merge pair, a triple,
    a signature), once per (tuple, depth)."""
    return _ints(values, depth)


def _write_gram(entries: Sequence[_ReadOnlyDict], n: int, write, put_cell) -> None:
    """The report's n x n Gram matrix: the rows of cell i are the rows that
    matrix entry i carries, put_cell takes them as one list of pieces, each
    row after the text that closes the row before it and opens its own
    (repeated constant strings of the zeros around the cell), and write
    takes the text that closes the last row and the matrix."""
    close, start = "[", 0  # the text before the first row's opening
    for entry in entries:
        rows = entry.rows
        left = "\n    [\n      " + ("0" + _GRAM_SEP) * start
        right = (_GRAM_SEP + "0") * (n - start - len(rows)) + "\n    ]"
        pieces = [right + "," + left, None] * len(rows)
        pieces[0] = close + left
        pieces[1::2] = rows
        put_cell(pieces)
        close, start = right + ",", start + len(rows)
    write(close[:-1] + "\n  ]" if start else "[\n  ]")


def _print_text_report(report: dict) -> None:
    inp = report["input"]
    print(f"monodromy datum: m={inp['m']} N={inp['N']} a={tuple(inp['a'])}")
    print(f"genus: {report['genus']}")
    print(f"signature: {tuple(report['signature'])}")
    print("degeneration triples:", " + ".join(str(tuple(t)) for t in report["degeneration"]["triples"]))
    # every beta and entry is certified purely imaginary, so the midpoint of
    # its real part is rounding noise and only the imaginary part is shown
    for k, comp in enumerate(report["components"]):
        tag = "simple" if comp["simple"] else "not simple"
        print(f"component {k}: triple {tuple(comp['triple'])}  CM-type {set(comp['cm_type'])}  ({tag})")
        print(f"  beta = {comp['beta']['exact']}")
        print(f"       ~ {comp['beta']['im']}*I")
        print(f"  u0 = {comp['u0']}")
    print("matrix entries (diagonal):")
    for e in report["matrix_entries"]:
        print(f"  {e['exact']}  ~ {e['im']}*I")
    print("gram matrix:")
    for row in report["gram"]:
        print("  [" + " ".join(f"{v:3d}" for v in row) + "]")
    print(f"determinant: {report['determinant']}")
    match = "matches" if report["signature_match"] else "MISMATCH"
    print(f"signature cross-check: {tuple(report['form_signature'])} ({match})")
    print(f"certainty: {report['certainty']}")
    print(f"elapsed: {report['timing_ms']} ms")


def _exit_code_for(exc: CyclopelError) -> int:
    if isinstance(exc, NonCompactType):
        return EXIT_NONCOMPACT
    if isinstance(exc, UnsupportedModulus):
        return EXIT_UNSUPPORTED_MODULUS
    if isinstance(exc, NonMaximalOrder):
        return EXIT_NONMAXIMAL_ORDER
    if isinstance(exc, Unsatisfiable):
        return EXIT_UNSATISFIABLE
    if isinstance(
        exc, (ZeroInertia, UnbalancedInertia, DisconnectedCover, MalformedDatum, ParseError)
    ):
        return EXIT_INVALID_DATUM
    return EXIT_GENERIC


def run_family(m: int, inertia: Sequence[int], precision: int, as_json: bool) -> int:
    t0 = time.monotonic()
    try:
        datum = validate(m, inertia)
        entries = _gram_entries(datum)
        if m in ASSEMBLE_MODULI and entries > MAX_REPORT_ENTRIES:
            too_many = f"{entries} Gram entries, more than {MAX_REPORT_ENTRIES}"
            print(f"error: the report would hold {too_many}", file=sys.stderr)
            return EXIT_REPORT_TOO_LARGE
        result = assemble(datum)
    except CyclopelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATUM
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if as_json:
        write_report(result, precision, elapsed_ms, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        _print_text_report(build_report(result, precision, elapsed_ms))
    return EXIT_OK


def run_corpus(path: str, allow_galois: bool) -> int:
    try:
        fixtures = load_corpus(path)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_GENERIC
    outcomes = [verify_fixture(f, allow_galois=allow_galois) for f in fixtures]
    failed = 0
    for out in outcomes:
        print(f"{'PASS' if out.passed else 'FAIL'} {out.name}")
        for msg in out.failures:
            failed_line = f"     {msg}"
            print(failed_line)
        if not out.passed:
            failed += 1
    print(f"{len(outcomes) - failed} passed, {failed} failed, {len(outcomes)} total")
    return EXIT_OK if failed == 0 else EXIT_GENERIC


def _integer(raw: str) -> int:
    """An optionally signed run of ASCII digits: int() alone would also take
    underscores and the digits of other scripts."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", raw, re.ASCII):
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    return int(raw)


def _parse_inertia(raw: str) -> list[int]:
    """Every comma-separated field is an integer: a blank field is refused,
    not skipped."""
    return [_integer(part) for part in raw.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cyclopel",
        description="Integral PEL datum of the Shimura variety attached to a "
        "family of cyclic covers of the projective line.",
    )
    p.add_argument("--m", type=_integer, help="cover degree (modulus)")
    p.add_argument(
        "--inertia",
        type=_parse_inertia,
        help="comma-separated inertia values, e.g. 1,3,3,3",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--precision",
        type=_integer,
        metavar="BITS",
        help="precision in bits of the decimal values of a family report, "
        f"8 to {PRECISION_CAP} (default {DEFAULT_PRECISION})",
    )
    p.add_argument(
        "--allow-galois-compare",
        action="store_true",
        help="corpus mode: accept fixtures equivalent up to a Galois twist",
    )
    p.add_argument(
        "--corpus",
        nargs="?",
        const=str(default_corpus_path()),
        metavar="PATH",
        help="verify a fixture corpus instead of one datum "
        "(defaults to the shipped corpus when PATH is omitted)",
    )
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.corpus is not None:
        if args.m is not None or args.inertia is not None:
            parser.error("--corpus cannot be combined with --m/--inertia")
        if args.json:
            parser.error("--json applies only with --m and --inertia: --corpus writes text lines")
        if args.precision is not None:
            parser.error(
                "--precision applies only with --m and --inertia: --corpus renders no decimals"
            )
    elif args.m is None or args.inertia is None:
        parser.error("either --corpus or both --m and --inertia are required")
    elif args.allow_galois_compare:
        parser.error("--allow-galois-compare applies only with --corpus")
    elif args.precision is None:
        args.precision = DEFAULT_PRECISION
    elif not 8 <= args.precision <= PRECISION_CAP:
        parser.error(f"--precision must be between 8 and {PRECISION_CAP} bits")
    try:
        if args.corpus is not None:
            code = run_corpus(args.corpus, args.allow_galois_compare)
        else:
            code = run_family(args.m, args.inertia, args.precision, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; stdout now writes to devnull, so the
        # interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_GENERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
