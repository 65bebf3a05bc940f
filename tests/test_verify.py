"""Verification against the entry records: a corpus run builds each
distinct entry once, a fixture that equals its assembly builds none, the
failures of fixtures with non-integral traces, the relative m = 7
pipeline's condition (1) by its inverse, and signatures that take no
precision."""

from __future__ import annotations

import copy
import inspect

import pytest

import cyclopel.peldatum
import cyclopel.polarization
import cyclopel.verify

from cyclopel.cli import main
from cyclopel.cyclotomic import Cyclo, parse_element
from cyclopel.monodromy import validate
from cyclopel.peldatum import ASSEMBLE_MODULI, assemble
from cyclopel.polarization import hermitian_entry, verify_conditions
from cyclopel.verify import (
    default_corpus_path, equivalent_datum, load_corpus, m17_pipeline, verify_fixture
)
import oracles

FIXTURES = {f["name"]: f for f in load_corpus(default_corpus_path())}


def _entries(fixture: dict) -> set:
    return {parse_element(s, mod) for mod, entries in fixture["blocks"] for s in entries}


def test_corpus_run_builds_each_distinct_entry_once(capsys):
    distinct = set()
    for fixture in FIXTURES.values():
        distinct |= _entries(fixture)
        if fixture["m"] in ASSEMBLE_MODULI:
            r = assemble(validate(fixture["m"], fixture["a"]))
            distinct |= {c.point.entry.xi for c in r.components}
    oracles.clear_memos()
    assert main(["--corpus"]) == 0
    assert "17 passed, 0 failed" in capsys.readouterr().out
    info = hermitian_entry.cache_info()
    assert info.misses == info.currsize == len(distinct) == 19


def test_verify_fixture_builds_no_entry_after_assemble():
    # a fixture whose entries are all assembled ones reads their records
    equal = 0
    for fixture in FIXTURES.values():
        if fixture["m"] not in ASSEMBLE_MODULI:
            continue
        r = assemble(validate(fixture["m"], fixture["a"]))
        new = _entries(fixture) - {c.point.entry.xi for c in r.components}
        before = hermitian_entry.cache_info().misses
        assert verify_fixture(fixture).passed
        assert hermitian_entry.cache_info().misses - before <= len(new)
        if not new:
            assert hermitian_entry.cache_info().misses == before, fixture["name"]
            equal += 1
    assert equal == 9


def _with_entry(name: str, block: int, j: int, entry) -> dict:
    fixture = copy.deepcopy(FIXTURES[name])
    entries = fixture["blocks"][block][1]
    entries[j] = entry(entries[j])
    return fixture


def test_fixtures_with_non_integral_traces_fail_in_order():
    # condition (3) comes before the Gram integrality line: an entry's
    # CM-type is certified before its cell is made
    cases = {
        ("m3-1122", 0): (
            lambda s: "(2*z + 1)/9",
            (
                "condition (1): entry 0 at modulus 3 does not generate the different",
                "Gram integrality: tr(xi * zeta^-1) = 1/3 is not integral for entry "
                "(2*z + 1)/9 at modulus 3",
                "assembled datum is not equivalent to the fixture blocks",
            ),
        ),
        ("m5-1144", 0): (
            lambda s: "(-z^3 - z^2 - 2*z - 1)/10",
            (
                "condition (1): entry 0 at modulus 5 does not generate the different",
                "condition (3): certified embedding signs give signature (0, 0, 0, 2, 2), "
                "disagreeing with the expected one at n = [1, 2, 3, 4]",
                "Gram integrality: tr(xi * zeta^-1) = -1/2 is not integral for entry "
                "(-z^3 - z^2 - 2*z - 1)/10 at modulus 5",
                "assembled datum is not equivalent to the fixture blocks",
            ),
        ),
        ("M[9]", 1): (
            lambda s: f"({s})/2",
            (
                "condition (1): entry 0 at modulus 6 does not generate the different",
                "Gram integrality: tr(xi * zeta^-1) = -1/2 is not integral for entry "
                "(-2*z + 1)/6 at modulus 6",
            ),
        ),
    }
    for (name, block), (entry, failures) in cases.items():
        for _ in range(2):  # a failed cell raises again on the next read
            outcome = verify_fixture(_with_entry(name, block, 0, entry))
            assert outcome.failures == failures, name
            assert not outcome.passed


def test_m17_condition_one_by_inverse_is_the_norm_report(monkeypatch):
    z21 = Cyclo.zeta(21)
    r = m17_pipeline()
    inverse = -(r.alpha.inverse() * (z21**6 - z21**15) / 7)
    assert inverse * r.z == 1
    by_norm = verify_conditions(r.z, r.phi)
    assert by_norm.all_pass()
    assert verify_conditions(r.z, r.phi, inverse=inverse) == by_norm == r.z_conditions
    # the pipeline itself takes no norm for condition (1)
    calls = []
    original = Cyclo.is_unit
    monkeypatch.setattr(Cyclo, "is_unit", lambda self: calls.append(self) or original(self))
    assert m17_pipeline() == r
    assert calls == []


def test_a_positional_precision_is_a_type_error():
    # the flags after the data are keyword-only, so a caller that still
    # passes a start precision there is refused, not bound to the flag
    r = assemble(validate(5, (1, 3, 3, 3)))
    point = r.components[0].point
    with pytest.raises(TypeError):
        verify_conditions(point.beta, point.phi, 64)
    assert verify_conditions(point.beta, point.phi, inverse=point.entry.xi) == point.conditions
    with pytest.raises(TypeError):
        verify_fixture(FIXTURES["m5-1144"], 64)
    with pytest.raises(TypeError):
        verify_fixture(FIXTURES["m5-1144"], 64, True)
    assert verify_fixture(FIXTURES["m5-1144"], allow_galois=True).passed
    with pytest.raises(TypeError):
        equivalent_datum(r.hermitian, r.hermitian, True)
    with pytest.raises(TypeError):
        equivalent_datum(r.hermitian, r.hermitian, False, 64)
    assert equivalent_datum(r.hermitian, r.hermitian, allow_galois=True)


def test_no_public_function_takes_a_precision():
    # the datum is exact: only assemble keeps a precision parameter, which
    # it does not read
    found = {}
    for module in (cyclopel.polarization, cyclopel.peldatum, cyclopel.verify):
        for name, f in vars(module).items():
            if inspect.isfunction(f) and not name.startswith("_") and f.__module__ == module.__name__:
                params = [p for p in inspect.signature(f).parameters if "prec" in p]
                if params:
                    found[f"{module.__name__}.{name}"] = params
    assert found == {"cyclopel.peldatum.assemble": ["start_prec"]}
