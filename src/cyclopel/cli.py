"""Command line front end: run the full pipeline on one monodromy datum,
or verify a fixture corpus.

Exit codes: 0 success, 2 usage, 3 no admissible degeneration (non-compact
type), 4 unsupported modulus, 5 non-maximal order at a join, 6 no unit
solves the sign pattern, 7 other datum validation failure, 8 report at an
assembly modulus larger than MAX_REPORT_ENTRIES Gram entries, 1 anything
else (including corpus failures)."""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .cyclotomic import Cyclo, element_str, euler_phi
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
    ASSEMBLE_MODULI,
    ComponentResult,
    FamilyResult,
    GramView,
    assemble,
    default_corpus_path,
    load_corpus,
    verify_fixture,
)

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

# A family report at an assembly modulus (an odd prime m) holds
# ((N - 2) * phi(m))^2 Gram entries, about 9 bytes of text each; 2^24 of
# them is about 150 MB of text (N = 229 at m = 19).  Other moduli have no
# report: assemble refuses them.
MAX_REPORT_ENTRIES = 2**24

_DECIMAL_DIGITS = 20


def _decimal_str(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return str(Decimal(int(q.numerator)) / Decimal(int(q.denominator)))


@lru_cache(maxsize=4096)
def _exact_str(x: Cyclo) -> str:
    """Exact string of x; reports repeat betas, u0s and entries, so each
    element is written once."""
    return element_str(x)


class _ReadOnlyDict(dict):
    """A dict of a report that refuses mutation, so the text written for
    it cannot disagree with it.  A copy or a pickle of it is a plain dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} of a report is read-only")

    __setitem__ = __delitem__ = __ior__ = __setattr__ = __delattr__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


class _Report(_ReadOnlyDict):
    """A read-only report with the facts it was built from, key: (result,
    precision, elapsed_ms), from which report_json writes it."""

    __slots__ = ("key",)


@lru_cache(maxsize=4096)
def _element_json(x: Cyclo, precision: int) -> _ReadOnlyDict:
    """Exact string plus a decimal rendering of the identity embedding;
    only the exact string is meaningful for comparison.  Once per
    (element, precision); u0 is reported exactly and never embedded."""
    box = embed(x, 1, precision)
    return _ReadOnlyDict(
        exact=_exact_str(x),
        re=_decimal_str((box.re_lo + box.re_hi) / 2),
        im=_decimal_str((box.im_lo + box.im_hi) / 2),
    )


@lru_cache(maxsize=4096)
def _component_json(c: ComponentResult, precision: int) -> _ReadOnlyDict:
    """Triple, CM-type, simplicity with its witness, beta and u0, once per
    (component, precision)."""
    simp = c.simplicity
    if simp.simple:
        cosets = (_ReadOnlyDict(subgroup=h, coset=coset) for h, coset in simp.separating_cosets)
        witness = _ReadOnlyDict(separating_cosets=tuple(cosets))
    else:
        witness = _ReadOnlyDict(inducing_subgroup=simp.inducing_subgroup)
    return _ReadOnlyDict(
        triple=c.triple.a,
        cm_type=c.phi.sorted_members(),
        simple=simp.simple,
        simplicity_witness=witness,
        beta=_element_json(c.point.beta, precision),
        u0=_exact_str(c.point.u0),
    )


def build_report(result: FamilyResult, precision: int, elapsed_ms: int) -> _Report:
    """The report of result as a read-only dict: every dict in it is read-only
    and every list a tuple.  The dicts of components and elements are built
    once per process and precision and shared by every report that holds
    them; being read-only, no report can change them."""
    tree, datum = result.tree, result.datum
    report = _Report(
        input=_ReadOnlyDict(m=datum.m, N=datum.N, a=datum.a),
        genus=result.genus,
        signature=result.signature.values,
        degeneration=_ReadOnlyDict(
            triples=tuple(t.a for t in tree.triples),
            merge_pairs=tree.merge_pairs,
            merged_values=tree.merged_values,
        ),
        components=tuple(_component_json(c, precision) for c in result.components),
        matrix_entries=tuple(
            _element_json(x, precision) for b in result.hermitian.blocks for x in b.entries
        ),
        gram=result.gram,
        determinant=result.gram_det,
        form_signature=result.form_sig.values,
        signature_match=result.form_sig == result.signature,
        certainty=result.certainty,
        precision_bits=precision,
        timing_ms=elapsed_ms,
    )
    object.__setattr__(report, "key", (result, precision, elapsed_ms))
    return report


def report_json(report: dict) -> str:
    """The text of json.dumps(report, indent=2, sort_keys=True): by write_report
    for a report of build_report, else by the generic writer."""
    out: list[str] = []
    if type(report) is _Report:
        write_report(*report.key, out.append)
    else:
        _write_json(report, 0, out)
    return "".join(out)


def write_report(result: FamilyResult, precision: int, elapsed_ms: int, write) -> None:
    """Write report_json(build_report(result, precision, elapsed_ms)) through
    write, straight from result; the Gram matrix goes a row at a time."""
    tree, datum = result.tree, result.datum
    components = [_component_text(c, precision) for c in result.components]
    entries = [_entry_text(x, precision) for b in result.hermitian.blocks for x in b.entries]
    write(
        f'{{\n  "certainty": {encode_basestring_ascii(result.certainty)},\n'
        f'  "components": {_seq(components, 1)},\n  "degeneration": {{\n'
        f'    "merge_pairs": {_seq([_ints(p, 3) for p in tree.merge_pairs], 2)},\n'
        f'    "merged_values": {_ints(tree.merged_values, 2)},\n'
        f'    "triples": {_seq([_ints(t.a, 3) for t in tree.triples], 2)}\n  }},\n'
        f'  "determinant": {result.gram_det},\n'
        f'  "form_signature": {_ints(result.form_sig.values, 1)},\n'
        f'  "genus": {result.genus},\n  "gram": '
    )
    _write_gram(result.gram, 1, write)
    write(
        f',\n  "input": {{\n    "N": {datum.N},\n    "a": {_ints(datum.a, 2)},\n'
        f'    "m": {datum.m}\n  }},\n  "matrix_entries": {_seq(entries, 1)},\n'
        f'  "precision_bits": {precision},\n'
        f'  "signature": {_ints(result.signature.values, 1)},\n'
        f'  "signature_match": {"true" if result.form_sig == result.signature else "false"},\n'
        f'  "timing_ms": {elapsed_ms}\n}}'
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


def _write_json(o, depth: int, out: list[str]) -> None:
    if o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, (list, tuple)):
        if all(type(x) is int for x in o):
            out.append(_ints(o, depth))
        else:
            inner = "\n" + "  " * (depth + 1)
            out.append("[")
            for k, item in enumerate(o):
                out.append(("," if k else "") + inner)
                _write_json(item, depth + 1, out)
            out.append("\n" + "  " * depth + "]")
    elif isinstance(o, dict):
        _write_dict(o, depth, out)
    elif isinstance(o, GramView):
        _write_gram(o, depth, out.append)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_dict(o: dict, depth: int, out: list[str]) -> None:
    if not o:
        out.append("{}")
        return
    inner = "\n" + "  " * (depth + 1)
    out.append("{")
    for k, key in enumerate(sorted(o)):
        out.append(("," if k else "") + inner + encode_basestring_ascii(key) + ": ")
        _write_json(o[key], depth + 1, out)
    out.append("\n" + "  " * depth + "}")


def _item_text(d: dict) -> str:
    """Text of a dict written as an item of a list in the report."""
    out: list[str] = []
    _write_dict(d, 2, out)
    return "".join(out)


@lru_cache(maxsize=4096)
def _component_text(c: ComponentResult, precision: int) -> str:
    """Text of a report component, once per (component, precision)."""
    return _item_text(_component_json(c, precision))


@lru_cache(maxsize=4096)
def _entry_text(x: Cyclo, precision: int) -> str:
    """Text of a report matrix entry, once per (element, precision)."""
    return _item_text(_element_json(x, precision))


@lru_cache(maxsize=1024)
def _cell_rows(cell: tuple[tuple[int, ...], ...], depth: int) -> tuple[str, ...]:
    """Text of each row of a Gram cell written in a report at depth,
    without the zeros around it: once per cell and depth."""
    sep = ",\n" + "  " * (depth + 2)
    return tuple(sep.join(map(str, row)) for row in cell)


def _write_gram(gram: GramView, depth: int, write) -> None:
    """Rows of the view as the generic path would write them, one row at a
    time through write: the text of each cell row comes from _cell_rows,
    and the zeros around it are repeated constant strings."""
    n = len(gram)
    if not n:
        write("[]")
        return
    sep = ",\n" + "  " * (depth + 2)
    head = ",\n" + "  " * (depth + 1) + "[\n" + "  " * (depth + 2)
    tail = "\n" + "  " * (depth + 1) + "]"
    write("[")
    skip, start = 1, 0  # the first row takes no comma
    for cell in gram.cells:
        left = head + ("0" + sep) * start
        right = (sep + "0") * (n - start - len(cell)) + tail
        for row in _cell_rows(cell, depth):
            write(left[skip:])
            write(row)
            write(right)
            skip = 0
        start += len(cell)
    write("\n" + "  " * depth + "]")


def _print_text_report(report: dict) -> None:
    inp = report["input"]
    print(f"monodromy datum: m={inp['m']} N={inp['N']} a={tuple(inp['a'])}")
    print(f"genus: {report['genus']}")
    print(f"signature: {tuple(report['signature'])}")
    print("degeneration triples:", " + ".join(str(tuple(t)) for t in report["degeneration"]["triples"]))
    for k, comp in enumerate(report["components"]):
        tag = "simple" if comp["simple"] else "not simple"
        print(f"component {k}: triple {tuple(comp['triple'])}  CM-type {set(comp['cm_type'])}  ({tag})")
        print(f"  beta = {comp['beta']['exact']}")
        print(f"       ~ {comp['beta']['re']} + {comp['beta']['im']}*I")
        print(f"  u0 = {comp['u0']}")
    print("matrix entries (diagonal):")
    for e in report["matrix_entries"]:
        print(f"  {e['exact']}  ~ {e['re']} + {e['im']}*I")
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
        entries = ((datum.N - 2) * euler_phi(m)) ** 2
        if m in ASSEMBLE_MODULI and entries > MAX_REPORT_ENTRIES:
            too_many = f"{entries} Gram entries, more than {MAX_REPORT_ENTRIES}"
            print(f"error: the report would hold {too_many}", file=sys.stderr)
            return EXIT_REPORT_TOO_LARGE
        result = assemble(datum, precision)
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


def run_corpus(path: str, precision: int, allow_galois: bool) -> int:
    try:
        fixtures = load_corpus(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_GENERIC
    outcomes = [verify_fixture(f, precision, allow_galois) for f in fixtures]
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
    return [_integer(part) for part in raw.split(",") if part.strip() != ""]


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
        default=DEFAULT_PRECISION,
        metavar="BITS",
        help="starting interval precision in bits (default %(default)s)",
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 8 <= args.precision <= PRECISION_CAP:
        parser.error(f"--precision must be between 8 and {PRECISION_CAP} bits")
    if args.corpus is not None:
        if args.m is not None or args.inertia is not None:
            parser.error("--corpus cannot be combined with --m/--inertia")
        return run_corpus(args.corpus, args.precision, args.allow_galois_compare)
    if args.m is None or args.inertia is None:
        parser.error("either --corpus or both --m and --inertia are required")
    return run_family(args.m, args.inertia, args.precision, args.json)


if __name__ == "__main__":
    sys.exit(main())
