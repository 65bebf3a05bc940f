"""Command line behavior: exit codes, JSON report shape and round trip,
corpus verification output."""

from __future__ import annotations

import copy
import decimal
import json
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cyclopel.cli
import cyclopel.cmfield
import cyclopel.monodromy
import cyclopel.peldatum
import cyclopel.verify
from cyclopel.cli import (
    EXIT_GENERIC,
    EXIT_INVALID_DATUM,
    EXIT_NONCOMPACT,
    EXIT_NONMAXIMAL_ORDER,
    EXIT_OK,
    EXIT_REPORT_TOO_LARGE,
    EXIT_UNSATISFIABLE,
    EXIT_UNSUPPORTED_MODULUS,
    EXIT_USAGE,
    MAX_REPORT_ENTRIES,
    _exit_code_for,
    build_report,
    main,
    report_json,
)
from cyclopel.cyclotomic import element_str
from cyclopel.embeddings import DEFAULT_PRECISION
from cyclopel.errors import CyclopelError, MalformedDatum, ParseError, Unsatisfiable
from cyclopel.peldatum import FamilyResult
from cyclopel.polarization import Entry, PolarizedCMPoint, beta_for_type
from cyclopel.verify import MAX_CORPUS_BYTES, default_corpus_path, load_corpus
from oracles import clear_memos


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def test_exit_codes(capsys):
    assert run(["--m", "6", "--inertia", "1,1,1,3"]) == EXIT_NONCOMPACT == 3
    assert run(["--m", "23", "--inertia", "1,1,21"]) == EXIT_UNSUPPORTED_MODULUS == 4
    assert run(["--m", "5", "--inertia", "1,1,1"]) == EXIT_INVALID_DATUM == 7
    assert run(["--m", "6", "--inertia", "2,2,2"]) == EXIT_INVALID_DATUM == 7
    assert run(["--m", "9", "--inertia", "3,5,5,5"]) == EXIT_NONMAXIMAL_ORDER == 5
    assert "NonMaximalOrder" in capsys.readouterr().err
    assert run(["--m", "6", "--inertia", "2,3,3,4"]) == EXIT_UNSUPPORTED_MODULUS == 4
    capsys.readouterr()


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_reader_that_closes_early_ends_the_run_quietly(mode):
    # the report of N = 38 at m = 19 is megabytes of text; its reader
    # closes after 100 bytes
    src = str(Path(cyclopel.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclopel.cli", "--m", "19", "--inertia", ",".join(["1"] * 38), *mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_GENERIC, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def test_family_degenerates_once(monkeypatch, capsys):
    calls = []
    original = cyclopel.peldatum.degenerate

    def counted(datum):
        calls.append(datum)
        return original(datum)

    monkeypatch.setattr(cyclopel.peldatum, "degenerate", counted)
    assert run(["--m", "5", "--inertia", "1,3,3,3"]) == EXIT_OK
    assert len(calls) == 1
    capsys.readouterr()


def test_report_renders_each_element_once(monkeypatch):
    written, embedded = [], []
    original_str, original_embed = cyclopel.cli.element_str, cyclopel.cli.embed

    def counted_str(x):
        written.append(x)
        return original_str(x)

    def counted_embed(x, n, prec):
        embedded.append(x)
        return original_embed(x, n, prec)

    monkeypatch.setattr(cyclopel.cli, "element_str", counted_str)
    monkeypatch.setattr(cyclopel.cli, "embed", counted_embed)
    # four components over two CM-types, one triple thrice; then three
    # components over two CM-types, two triples sharing one: each beta, u0
    # and entry repeats
    for family, n_triples in (((3, (1,) * 6), 2), ((5, (1,) * 5), 3)):
        result = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(*family))
        assert len({c.triple for c in result.components}) == n_triples
        assert len({c.phi for c in result.components}) == 2
        written.clear()
        embedded.clear()
        cyclopel.cli._point_json.cache_clear()
        cyclopel.cli._component_json.cache_clear()
        report = cyclopel.cli.build_report(result, DEFAULT_PRECISION, 0)
        betas = {c.point.beta for c in result.components}
        entries = set(result.hermitian.blocks[0].entries)
        distinct = betas | {c.point.u0 for c in result.components} | entries
        assert len(report["components"]) == len(report["matrix_entries"]) == len(result.components)
        assert len(written) == len(set(written)) == len(distinct) == 6
        # u0 is reported exactly, so only betas and entries are embedded
        assert len(embedded) == len(set(embedded)) == len(betas | entries) == 4
        # a repeated beta or entry is one shared read-only dict
        for dicts in ([c["beta"] for c in report["components"]], report["matrix_entries"]):
            assert len({id(d) for d in dicts}) == len({d["exact"] for d in dicts}) == 2 < len(dicts)
            assert all(type(d) is cyclopel.cli._ReadOnlyDict for d in dicts)


def test_oversized_report_exits_before_degenerate(monkeypatch, capsys):
    # (1998 * 18)^2 Gram entries: over 10^9, so this is only computed
    calls = []
    monkeypatch.setattr(cyclopel.peldatum, "degenerate", calls.append)
    inertia = ",".join(["1"] * 1999 + ["15"])
    assert run(["--m", "19", "--inertia", inertia, "--json"]) == EXIT_REPORT_TOO_LARGE == 8
    assert calls == []
    assert f"1293409296 Gram entries, more than {MAX_REPORT_ENTRIES}" in capsys.readouterr().err
    # the first size over the bound, at m = 19: N = 230
    inertia = ",".join(["1"] * 228 + ["2", "17"])
    assert ((230 - 2) * 18) ** 2 > MAX_REPORT_ENTRIES >= ((229 - 2) * 18) ** 2
    assert run(["--m", "19", "--inertia", inertia]) == EXIT_REPORT_TOO_LARGE
    assert calls == []
    capsys.readouterr()


def test_report_bound_holds_only_at_assembly_moduli(capsys):
    # m = 21 has no report: (342 * 12)^2 is over the bound, but the family
    # fails in assemble as it would without one
    inertia = ",".join(["1"] * 343 + ["14"])
    assert ((344 - 2) * 12) ** 2 > MAX_REPORT_ENTRIES
    assert run(["--m", "21", "--inertia", inertia, "--json"]) == EXIT_NONMAXIMAL_ORDER
    assert "NonMaximalOrder" in capsys.readouterr().err


def _report(m, a, precision=DEFAULT_PRECISION):
    result = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(m, a))
    return build_report(result, precision, 0)


def _spy_on_text(monkeypatch):
    """The calls made after this of json.dumps (each must fail the test) and
    of the report's text writer, as (value, depth); a component or matrix
    entry gets its text at depth 2, as an item of a top-level list."""
    written = []
    original = cyclopel.cli._json_text

    def spy(value, depth=0):
        written.append((value, depth))
        return original(value, depth)

    def refuse(*args, **kwargs):
        raise AssertionError("a report called json.dumps")

    monkeypatch.setattr(cyclopel.cli, "_json_text", spy)
    monkeypatch.setattr(json, "dumps", refuse)
    cyclopel.cli._component_json.cache_clear()
    cyclopel.cli._point_json.cache_clear()
    return written


def test_warm_report_makes_no_json_dumps_call(monkeypatch):
    dumps = json.dumps
    written = _spy_on_text(monkeypatch)
    family = (13, (1, 2, 4, 5, 7, 7))
    report = _report(*family)
    first = report_json(report)
    # a first-seen component or matrix entry makes its text once, and no
    # text comes from json.dumps
    items = [*report["components"], *report["matrix_entries"]]
    assert sorted(id(v) for v, depth in written if depth == 2) == sorted({id(v) for v in items})
    written.clear()
    report = _report(*family)
    assert report_json(report) == first == dumps(report, indent=2, sort_keys=True, default=list)
    # the components and matrix entries of a warm family carry their text
    assert written == []


def test_report_makes_text_only_for_components_and_matrix_entries(monkeypatch):
    # a beta is written inside its component's text, never by its own
    dumps = json.dumps
    written = _spy_on_text(monkeypatch)
    report = _report(13, (1, 2, 4, 5, 7, 7))
    text = report_json(report)
    entries = {id(e): e for e in report["matrix_entries"]}
    components = {id(c): c for c in report["components"]}
    own = [v for v, depth in written if depth == 2]
    assert sorted(map(id, own)) == sorted([*entries, *components])
    betas = [c["beta"] for c in report["components"]]
    assert not any(id(b) in entries for b in betas)
    assert {depth for v, depth in written if any(v is b for b in betas)} == {3}
    assert text == dumps(report, indent=2, sort_keys=True, default=list)


def test_text_writer_is_json_dumps_on_every_report_dict():
    # every component and matrix entry dict of the golden families and of
    # the corpus fixtures that assemble takes, at two precisions
    from test_golden import FAMILIES

    corpus = [
        (f["m"], tuple(f["a"]))
        for f in load_corpus(default_corpus_path())
        if f["m"] in cyclopel.peldatum.ASSEMBLE_MODULI
    ]
    seen = 0
    for precision in (64, 128):
        for family in (*FAMILIES, *corpus):
            report = _report(*family, precision)
            for d in (*report["components"], *report["matrix_entries"]):
                for depth in (0, 2):
                    expected = json.dumps(d, indent=2, sort_keys=True)
                    expected = expected.replace("\n", "\n" + "  " * depth)
                    assert cyclopel.cli._json_text(d, depth) == expected, family
                assert d.text == cyclopel.cli._json_text(d, 2)
                seen += 1
    assert seen > 200


def test_text_writer_is_json_dumps_on_adversarial_values():
    Ro = cyclopel.cli._ReadOnlyDict
    strings = [
        "", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x01\x1f\x7f", "caf\u00e9",
        "\u2028\u2029", "\U0001f600 astral", "\ud800 lone surrogate", "</script>",
    ]
    values = [
        0, -1, -(2**100), 2**64, True, False, (), (-3, 0, 7), ((), ((),)), Ro(), Ro(a=Ro()),
        (True, False, "x", -5), Ro(**{s: i for i, s in enumerate(strings)}),
        Ro(z=1, a=(Ro(), Ro(k="v")), m=Ro(n=(1, ("two", (False,))))), *strings,
    ]
    for v in values:
        for depth in (0, 1, 2, 5):
            expected = json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
            assert cyclopel.cli._json_text(v, depth) == expected, v
    for other in (1.5, None, [1], {"a": 1}, Ro(a=[1]), Fraction(1, 2), Ro({1: 2})):
        with pytest.raises(TypeError):
            cyclopel.cli._json_text(other)


def test_warm_report_writes_short_integer_lists_from_their_memo(monkeypatch):
    # merge pairs, triples and both signatures come from the memo of short
    # integer lists; only the input and the merged values are written anew
    report = _report(17, (1, 2, 3, 4, 5, 6, 13))
    text = report_json(report)
    written = []
    original = cyclopel.cli._ints
    monkeypatch.setattr(
        cyclopel.cli, "_ints", lambda values, depth: written.append(values) or original(values, depth)
    )
    assert report_json(report) == text
    assert written == [report["degeneration"]["merged_values"], report["input"]["a"]]


class _UnhashableCell(tuple):
    """A Gram cell that fails the test when it is hashed."""

    def __hash__(self):
        raise AssertionError("a Gram cell was hashed")


def _with_unhashable_cells(result):
    """result with every point's Gram cell an _UnhashableCell: a cell is
    made by its entry, not a field of it, so the memos keyed on a point or
    component take these as the ones they stand for."""
    components = []
    for c in result.components:
        p, e = c.point, c.point.entry
        entry = Entry(e.xi, e.phi, e.column)
        object.__setattr__(entry, "_cell", _UnhashableCell(e.cell))
        point = PolarizedCMPoint(p.phi, p.u0, p.beta, p.conditions, entry)
        components.append(cyclopel.peldatum.ComponentResult(c.triple, c.phi, c.simplicity, point))
    args = list(result.__reduce__()[1])
    args[FamilyResult.__slots__.index("components")] = tuple(components)
    return FamilyResult(*args)


def test_report_hashes_no_gram_cell():
    # hashing a cell would read every value of it on every report
    result = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(17, (1, 2, 3, 4, 5, 6, 13)))
    text = report_json(build_report(result, DEFAULT_PRECISION, 0))
    unhashable = _with_unhashable_cells(result)
    assert unhashable == result
    assert all(type(cell) is _UnhashableCell for cell in unhashable.gram.cells)
    cyclopel.cli._component_json.cache_clear()
    cyclopel.cli._point_json.cache_clear()
    for _ in range(2):  # first-seen cells, then warm ones
        assert report_json(build_report(unhashable, DEFAULT_PRECISION, 0)) == text
    # reports whose texts are made still copy and pickle as plain dicts
    report = build_report(result, DEFAULT_PRECISION, 0)
    assert report_json(report) == text
    for other in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(other) is dict and other == report
        assert json.dumps(other, indent=2, sort_keys=True, default=list) == text
    assert type(copy.deepcopy(build_report(unhashable, DEFAULT_PRECISION, 0))) is dict


def test_warm_family_builds_no_component_and_three_report_dicts(monkeypatch):
    # every triple of the second family is one of the first's: its
    # components come whole from the component memo, and its report holds
    # their memoized dicts
    first, second = (13, (1, 2, 4, 5, 7, 7)), (13, (1, 2, 4, 6))
    report_json(_report(*first))
    derived = []
    for name in ("cm_type_from_triple", "is_simple"):
        original = getattr(cyclopel.cmfield, name)
        monkeypatch.setattr(cyclopel.cmfield, name, lambda x, _f=original: derived.append(x) or _f(x))
    seen = beta_for_type.cache_info()[:2]
    components, dicts = [], []
    component_init = cyclopel.peldatum.ComponentResult.__init__
    monkeypatch.setattr(
        cyclopel.peldatum.ComponentResult,
        "__init__",
        lambda self, *args: components.append(args) or component_init(self, *args),
    )
    monkeypatch.setattr(
        cyclopel.cli._ReadOnlyDict,
        "__init__",
        lambda self, **kwargs: dicts.append(kwargs) or dict.__init__(self, **kwargs),
    )
    result = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(*second))
    assert components == [] and derived == []
    assert beta_for_type.cache_info()[:2] == seen
    report = build_report(result, DEFAULT_PRECISION, 0)
    assert len(dicts) == 3
    assert report_json(report) == json.dumps(report, indent=2, sort_keys=True, default=list)


def test_report_text_is_memoized_per_precision():
    family = (11, (1, 2, 4, 7, 8))
    texts = []
    for precision in (64, 128, 64, 128):
        report = _report(*family, precision)
        text = report_json(report)
        assert text == json.dumps(report, indent=2, sort_keys=True, default=list)
        texts.append(text)
    assert texts[0] == texts[2] != texts[1] == texts[3]
    # beta's real part is 0; its rendering shrinks with the precision
    betas = [json.loads(t)["components"][0]["beta"] for t in texts[:2]]
    assert betas[0]["re"] != betas[1]["re"] and betas[0]["im"] == betas[1]["im"]
    assert abs(decimal.Decimal(betas[1]["re"])) < 10**-30 < abs(decimal.Decimal(betas[0]["re"]))


def test_report_components_are_read_only():
    report = _report(7, (2, 4, 4, 4))
    comps = report["components"]
    assert [c["simple"] for c in comps] == [True, False]
    witness = comps[0]["simplicity_witness"]
    targets = [
        report,
        report["input"],
        report["degeneration"],
        comps[0],
        comps[0]["beta"],
        witness,
        witness["separating_cosets"][0],
        comps[1]["simplicity_witness"],
        report["matrix_entries"][0],
    ]
    for d in targets:
        snapshot = dict(d)
        key = next(iter(d))
        for mutate in (
            lambda: d.__setitem__(key, 1),
            lambda: d.__setitem__("new", 1),
            lambda: d.__delitem__(key),
            lambda: d.update(new=1),
            lambda: d.setdefault("new", 1),
            lambda: d.pop(key),
            lambda: d.popitem(),
            lambda: d.clear(),
            lambda: d.__ior__({"new": 1}),
        ):
            with pytest.raises(TypeError):
                mutate()
        assert dict(d) == snapshot
    with pytest.raises(TypeError):
        report.text = None
    degeneration = report["degeneration"]
    sequences = [
        report["signature"],
        report["form_signature"],
        report["components"],
        report["matrix_entries"],
        report["input"]["a"],
        degeneration["triples"],
        *degeneration["triples"],
        degeneration["merge_pairs"],
        *degeneration["merge_pairs"],
        degeneration["merged_values"],
        comps[0]["triple"],
        comps[0]["cm_type"],
        witness["separating_cosets"],
        comps[1]["simplicity_witness"]["inducing_subgroup"],
    ]
    assert all(type(seq) is tuple for seq in sequences)
    # copies are plain dicts that json.dumps writes, a mutated copy as it stands
    for dup in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(dup) is dict and dup == report
        assert json.dumps(dup, indent=2, sort_keys=True, default=list) == report_json(report)
        dup["genus"] = -1
        dup["input"]["m"] = 8
        text = json.loads(json.dumps(dup, indent=2, sort_keys=True, default=list))
        assert (text["genus"], text["input"]["m"]) == (-1, 8)
    copies = (
        copy.copy(comps[0]),
        copy.deepcopy(report)["components"][0],
        pickle.loads(pickle.dumps(comps[0])),
    )
    for dup in copies:
        assert type(dup) is dict and dup == comps[0]
        dup["simple"] = None


def test_json_report_keeps_decimal_context(capsys):
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        assert run(["--m", "5", "--inertia", "1,3,3,3", "--json"]) == EXIT_OK
        assert decimal.getcontext().prec == 28
    capsys.readouterr()


def test_text_report_prints_only_the_imaginary_part(capsys):
    # beta and the entries are certified purely imaginary: the midpoint of
    # a real part is rounding noise such as -8.13E-20
    assert run(["--m", "3", "--inertia", "1,1,1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "       ~ -1.7320508075688772935*I\n" in out
    assert "  (2*z + 1)/3  ~ 0.57735026918962576451*I\n" in out
    assert "E-20" not in out and "+ -" not in out
    for m, inertia in ((5, "1,3,3,3"), (7, "2,4,4,4")):
        assert run(["--m", str(m), "--inertia", inertia]) == EXIT_OK
        boxes = [s.split("~")[1] for s in capsys.readouterr().out.splitlines() if "~" in s]
        assert len(boxes) >= 3 and all(b.endswith("*I") and " + " not in b for b in boxes)


def test_usage_errors(capsys):
    assert run(["--m", "5"]) == EXIT_USAGE == 2
    assert run(["--m", "5", "--inertia", "abc"]) == EXIT_USAGE
    assert run(["--corpus", "--m", "5", "--inertia", "1,3,3,3"]) == EXIT_USAGE
    assert run(["--m", "5", "--inertia", "1,3,3,3", "--precision", "4"]) == EXIT_USAGE
    assert run(["--m", "5", "--inertia", "1,3,3,3", "--precision", "5000"]) == EXIT_USAGE
    assert run(["--corpus", "--precision", "4097"]) == EXIT_USAGE
    # integers are ASCII digits only: int() would read these as 11, 1, 19, 64
    assert run(["--m", "5", "--inertia", "1_1,3,3,3"]) == EXIT_USAGE
    assert run(["--m", "5", "--inertia", "\u0661,\u0663,3,3"]) == EXIT_USAGE
    assert run(["--m", "1_9", "--inertia", "1,2,3,13"]) == EXIT_USAGE
    assert run(["--m", "5", "--inertia", "1,3,3,3", "--precision", "6_4"]) == EXIT_USAGE
    # the Galois flag belongs to corpus mode
    assert run(["--m", "5", "--inertia", "1,3,3,3", "--allow-galois-compare"]) == EXIT_USAGE
    assert "--allow-galois-compare applies only with --corpus" in capsys.readouterr().err
    # corpus mode writes text lines only
    assert run(["--corpus", "--json"]) == EXIT_USAGE
    assert "--json applies only with --m and --inertia" in capsys.readouterr().err
    assert run([]) == EXIT_USAGE
    capsys.readouterr()


def test_a_blank_inertia_field_is_a_usage_error(capsys):
    # a blank field is refused, not skipped: 1,,1,1 is not the family 1,1,1
    for inertia in ("1,,1,1", "1,1,1,", ",1,1,1", "1, ,1,1", ""):
        assert run(["--m", "3", "--inertia", inertia]) == EXIT_USAGE, inertia
        assert "expected an integer, got" in capsys.readouterr().err
    assert run(["--m", "3", "--inertia", " 1 , 1,1 "]) == EXIT_OK
    capsys.readouterr()


def test_unsatisfiable_mapping():
    # no CLI-reachable family trips the sign solver, so check the mapping
    assert EXIT_UNSATISFIABLE == 6
    assert _exit_code_for(Unsatisfiable("x", cokernel_dim=1)) == 6


def test_typed_input_errors_exit_invalid_datum(tmp_path, capsys):
    assert _exit_code_for(MalformedDatum("x")) == _exit_code_for(ParseError("x")) == 7
    assert _exit_code_for(CyclopelError("x")) == EXIT_GENERIC
    p = tmp_path / "records.json"
    p.write_text(json.dumps({"fixtures": [[1, 2]]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    assert "is a list, not an object" in capsys.readouterr().err


def test_json_report(capsys):
    assert run(["--m", "5", "--inertia", "1,3,3,3", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert sorted(report) == [
        "certainty",
        "components",
        "degeneration",
        "determinant",
        "form_signature",
        "genus",
        "gram",
        "input",
        "matrix_entries",
        "precision_bits",
        "signature",
        "signature_match",
        "timing_ms",
    ]
    assert report["input"] == {"m": 5, "N": 4, "a": [1, 3, 3, 3]}
    assert report["genus"] == 4
    assert report["signature"] == [0, 1, 2, 0, 1]
    assert [e["exact"] for e in report["matrix_entries"]] == [
        "(z^3 + z^2 + 2*z + 1)/5",
        "(z^3 - z^2)/5",
    ]
    assert all(sorted(e) == ["exact", "im", "re"] for e in report["matrix_entries"])
    assert report["determinant"] == 1
    assert report["form_signature"] == report["signature"]
    assert report["signature_match"] is True
    assert report["certainty"] == "all-components-simple"
    assert report["precision_bits"] == DEFAULT_PRECISION
    assert len(report["gram"]) == 8
    assert report["degeneration"]["triples"] == [[1, 3, 1], [4, 3, 3]]
    # serialization is canonical: parsing and re-dumping reproduces the bytes
    assert json.dumps(report, indent=2, sort_keys=True) == out.rstrip("\n")


def test_json_report_is_streamed_from_the_result(monkeypatch, capsys):
    # --json writes the report as it goes, a Gram row at a time; the bytes
    # are report_json's
    m, a = 19, (1,) * 23 + (15,)
    writes = []
    original = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(len(text)) or original(text))
    assert run(["--m", str(m), "--inertia", ",".join(map(str, a)), "--json"]) == EXIT_OK
    monkeypatch.undo()
    out = capsys.readouterr().out
    result = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(m, a))
    elapsed_ms = json.loads(out)["timing_ms"]
    assert out == report_json(build_report(result, DEFAULT_PRECISION, elapsed_ms)) + "\n"
    # 22 components of phi(19) = 18 rows each: no write holds many rows
    assert len(result.gram) == 396
    assert len(writes) > len(result.gram) and max(writes) < len(out) / 20


def test_report_json_rejects_other_types():
    # report_json writes only a report of build_report: a plain dict, a
    # copy, a pickle or a parsed report goes to json.dumps
    report = _report(5, (1, 3, 3, 3))
    others = (
        1.5,
        {1, 2},
        {"a": [object()]},
        {1: "non-string key"},
        b"bytes",
        dict(report),
        copy.deepcopy(report),
        pickle.loads(pickle.dumps(report)),
        json.loads(report_json(report)),
        report["components"][0],
    )
    for value in others:
        with pytest.raises(TypeError, match=r"json\.dumps\(x, indent=2, sort_keys=True, default=list\)"):
            report_json(value)


def test_json_components_content(capsys):
    run(["--m", "7", "--inertia", "2,4,4,4", "--json"])
    report = json.loads(capsys.readouterr().out)
    simple_flags = [c["simple"] for c in report["components"]]
    assert simple_flags == [True, False]
    witnesses = [c["simplicity_witness"] for c in report["components"]]
    assert "separating_cosets" in witnesses[0]
    assert witnesses[1] == {"inducing_subgroup": [1, 2, 4]}
    assert report["certainty"] == "relies-on-hermitian-form-uniqueness"
    for comp in report["components"]:
        assert sorted(comp["beta"]) == ["exact", "im", "re"]
        assert comp["u0"]


def test_text_report(capsys):
    assert run(["--m", "3", "--inertia", "1,1,2,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "monodromy datum: m=3 N=4 a=(1, 1, 2, 2)" in out
    assert "genus: 2" in out
    assert "determinant: 1" in out
    assert "signature cross-check: (0, 1, 1) (matches)" in out
    assert "certainty: all-components-simple" in out


def test_corpus_default(capsys):
    assert run(["--corpus"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "17 passed, 0 failed, 17 total"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert sum(1 for line in lines if line.startswith("PASS")) == 17


def test_corpus_takes_no_precision(capsys):
    # the corpus renders no decimals, so a precision there is a usage error
    for bits in ("128", "64", "8"):
        assert run(["--corpus", "--precision", bits]) == EXIT_USAGE
        assert "--precision applies only with --m and --inertia" in capsys.readouterr().err
    # family mode keeps its 8..4096 bounds
    for bits, code in (("7", EXIT_USAGE), ("8", EXIT_OK), ("4096", EXIT_OK), ("4097", EXIT_USAGE)):
        assert run(["--m", "5", "--inertia", "1,3,3,3", "--json", "--precision", bits]) == code
    capsys.readouterr()


def test_a_second_precision_builds_no_second_record(monkeypatch, capsys):
    # the datum is exact: a report at 128 bits after one at 64 renders the
    # same points, entries and components, and only its decimals differ
    family = ["--m", "13", "--inertia", "1,2,4,5,7,7", "--json"]
    clear_memos()
    assert run(family) == EXIT_OK
    at_64 = json.loads(capsys.readouterr().out)
    built = []
    for cls in (PolarizedCMPoint, Entry, cyclopel.peldatum.ComponentResult):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *args, _i=init: built.append(self) or _i(self, *args)
        )
    assert run(family + ["--precision", "128"]) == EXIT_OK
    at_128 = json.loads(capsys.readouterr().out)
    assert built == []
    assert at_128["matrix_entries"] != at_64["matrix_entries"]
    for report in (at_64, at_128):
        for key in ("matrix_entries", "components", "precision_bits", "timing_ms"):
            del report[key]
    assert at_128 == at_64


def test_corpus_with_galois_flag(capsys):
    assert run(["--corpus", "--allow-galois-compare"]) == EXIT_OK
    assert "17 passed, 0 failed" in capsys.readouterr().out


def test_corpus_empty(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"fixtures": []}))
    assert run(["--corpus", str(p)]) == EXIT_OK
    assert "0 passed, 0 failed, 0 total" in capsys.readouterr().out


def test_corpus_failure(tmp_path, capsys):
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    bad = copy.deepcopy(fixtures["m5-1144"])
    bad["blocks"][0][1][0] = "(-z^3 - z^2 - 2*z - 1)/5"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"fixtures": [bad]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC == 1
    out = capsys.readouterr().out
    assert "FAIL m5-1144" in out
    assert "condition (3)" in out
    assert "0 passed, 1 failed, 1 total" in out


def test_corpus_reports_malformed_fixtures_one_by_one(tmp_path, capsys):
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    good = fixtures["m5-1144"]
    bad_entry = copy.deepcopy(good)
    bad_entry["name"] = "bad-entry"
    bad_entry["blocks"][0][1][0] = "z +* 1"
    two_points = copy.deepcopy(good)
    two_points.update(name="two-points", N=2, a=[1, 4])
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps({"fixtures": [bad_entry, good, two_points]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "FAIL bad-entry",
        "PASS m5-1144",
        "FAIL two-points",
        "1 passed, 2 failed, 3 total",
    ]
    assert "     ParseError: unexpected token '*'" in lines
    assert "     MalformedDatum: a monodromy datum needs at least 3 branch points" in lines


def test_corpus_reports_a_signature_of_the_wrong_length(tmp_path, capsys):
    # one value per residue mod m: a short or long list is its fixture's
    # FAIL line, and the fixtures after it still run
    fixtures = {f["name"]: f for f in load_corpus(default_corpus_path())}
    good = fixtures["m5-1144"]
    short, long = copy.deepcopy(fixtures["m3-1122"]), copy.deepcopy(fixtures["m3-1122"])
    short.update(name="short", expected_signature=[0, 1])
    long.update(name="long", expected_signature=[0, 1, 1, 0])
    p = tmp_path / "lengths.json"
    p.write_text(json.dumps({"fixtures": [short, good, long]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "FAIL short",
        "PASS m5-1144",
        "FAIL long",
        "1 passed, 2 failed, 3 total",
    ]
    assert [line.strip() for line in lines if line.startswith(" ")] == [
        f"MalformedDatum: expected_signature has {n} values, not one per residue mod 3"
        for n in (2, 4)
    ]


def test_corpus_reports_fields_of_the_wrong_json_type(tmp_path, capsys):
    good = {f["name"]: f for f in load_corpus(default_corpus_path())}["m5-1144"]
    cases = {"a": 5, "N": None, "m": [5], "blocks": 5, "expected_signature": 5}
    bad = []
    for key, value in cases.items():
        fixture = copy.deepcopy(good)
        fixture.update({"name": f"bad-{key}", key: value})
        bad.append(fixture)
    p = tmp_path / "types.json"
    p.write_text(json.dumps({"fixtures": bad + [good]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        *(f"FAIL {f['name']}" for f in bad),
        "PASS m5-1144",
        "1 passed, 5 failed, 6 total",
    ]
    assert [line.strip() for line in lines if line.startswith(" ")] == [
        f"MalformedDatum: fixture fields ['{key}'] do not have the corpus format's JSON types"
        for key in cases
    ]


def test_modulus_zero_exits_unsupported(capsys):
    assert run(["--m", "0", "--inertia", "1,2,3"]) == EXIT_UNSUPPORTED_MODULUS
    assert "UnsupportedModulus: modulus 0 is outside the supported list" in capsys.readouterr().err


def test_corpus_reports_modulus_zero_as_one_failure(tmp_path, capsys):
    good = {f["name"]: f for f in load_corpus(default_corpus_path())}["m5-1144"]
    zero = copy.deepcopy(good)
    zero.update(name="m0", m=0)
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"fixtures": [zero, good]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "FAIL m0",
        "     UnsupportedModulus: modulus 0 is outside the supported list",
        "PASS m5-1144",
        "1 passed, 1 failed, 2 total",
    ]


def test_corpus_survives_deep_nesting(tmp_path, capsys):
    good = {f["name"]: f for f in load_corpus(default_corpus_path())}["m5-1144"]
    deep = copy.deepcopy(good)
    deep["name"] = "deep"
    deep["blocks"][0][1][0] = "(" * 5000 + "z" + ")" * 5000
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({"fixtures": [deep, good]}))
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "FAIL deep",
        "PASS m5-1144",
        "1 passed, 1 failed, 2 total",
    ]


def test_corpus_nested_past_the_recursion_limit_is_unreadable(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read corpus: ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_corpus_unreadable(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    assert "cannot read corpus" in capsys.readouterr().err



@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_corpus_from_an_endless_device_is_refused():
    # the reader stops one byte past the bound, so /dev/zero cannot fill memory
    src = str(Path(cyclopel.cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cyclopel.cli", "--corpus", "/dev/zero"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == EXIT_GENERIC and proc.stdout == ""
    assert proc.stderr == (
        f"error: cannot read corpus: /dev/zero: corpus is longer than {MAX_CORPUS_BYTES} bytes\n"
    )


def test_corpus_one_byte_over_the_bound_is_refused(tmp_path, monkeypatch, capsys):
    p = tmp_path / "corpus.json"
    p.write_bytes(default_corpus_path().read_bytes())
    size = p.stat().st_size
    monkeypatch.setattr(cyclopel.verify, "MAX_CORPUS_BYTES", size)
    assert run(["--corpus", str(p)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cyclopel.verify, "MAX_CORPUS_BYTES", size - 1)
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read corpus: {p}: corpus is longer than {size - 1} bytes\n"


def test_corpus_fixture_over_the_gram_bound_fails_fast(tmp_path, capsys):
    # N = 64000 at m = 17: family mode refuses it with exit 8, and
    # degenerating it would take seconds; the fixture skips assembly with
    # one failure, and its other checks still run (here condition (3)
    # fails: the blocks are those of an N = 4 family)
    a = (1,) * 63999 + (6,)
    expected = cyclopel.monodromy.signature(cyclopel.monodromy.validate(17, a)).values
    small = cyclopel.peldatum.assemble(cyclopel.monodromy.validate(17, (1, 1, 1, 14)))
    entries = [element_str(xi) for xi in small.hermitian.blocks[0].entries]
    fixture = {
        "name": "m17-huge",
        "m": 17,
        "N": len(a),
        "a": list(a),
        "blocks": [[17, entries]],
        "expected_signature": list(expected),
    }
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"fixtures": [fixture]}))
    start = time.perf_counter()
    assert run(["--corpus", str(p)]) == EXIT_GENERIC
    assert time.perf_counter() - start < 1
    size = (63998 * 16) ** 2
    assert size > MAX_REPORT_ENTRIES
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL m17-huge" and lines[-1] == "0 passed, 1 failed, 1 total"
    assert lines[1].startswith("     condition (3): ")
    assert lines[2:-1] == [
        f"     assembly skipped: its Gram matrix would hold {size} entries, "
        f"more than {MAX_REPORT_ENTRIES}"
    ]
