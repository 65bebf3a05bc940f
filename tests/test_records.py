"""The records of cyclopel share one frozen base: value equality and hash,
no mutation, copies and pickles, a checked constructor arity, every
field in equality, hash and repr, and the typed errors of each
validating record.  A fresh import
of the command line loads neither dataclasses, inspect nor typing, and
nothing on the default path loads mpmath."""

from __future__ import annotations

import copy
import hashlib
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cyclopel
from cyclopel._record import Record
from cyclopel.cmfield import CMType
from cyclopel.cyclotomic import SUPPORTED_MODULI, Cyclo, modulus, parse_element
from cyclopel.embeddings import ComplexInterval, embed
from cyclopel.errors import (
    DisconnectedCover,
    InvariantViolation,
    MalformedDatum,
    UnbalancedInertia,
    UnsupportedModulus,
    ZeroInertia,
)
from cyclopel.monodromy import MonodromyDatum, Signature, validate
from cyclopel.peldatum import Block, HermitianDatum, assemble
from cyclopel.polarization import DifferentGenerator, Entry, PolarizedCMPoint, _constants, beta0
from cyclopel.verify import (
    default_corpus_path,
    load_corpus,
    m17_pipeline,
    verify_fixture,
)


def _records() -> list:
    """One record of every class, as the pipeline builds them."""
    family = assemble(validate(7, (2, 4, 4, 4)))
    component = family.components[0]
    fixture = load_corpus(default_corpus_path())[0]
    return [
        family,
        family.datum,
        family.signature,
        family.tree,
        family.hermitian,
        family.hermitian.blocks[0],
        component,
        component.phi,
        component.simplicity,
        component.point,
        component.point.conditions,
        component.point.entry,
        embed(parse_element("2*z + 1", 3), 1),
        beta0(5),
        _constants(5),
        modulus(5),
        m17_pipeline(),
        verify_fixture(fixture),
    ]


def _record_classes() -> set:
    for info in pkgutil.iter_modules(cyclopel.__path__):
        importlib.import_module(f"cyclopel.{info.name}")
    return {c for c in Record.__subclasses__() if c.__module__.startswith("cyclopel.")}


RECORDS = _records()


def test_every_record_class_has_an_example():
    assert {type(r) for r in RECORDS} == _record_classes()
    assert len(RECORDS) == 18


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record):
    cls, fields = type(record), type(record).__slots__
    copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for other in copies:
        assert type(other) is cls and other == record and not other != record
        assert all(getattr(other, f) == getattr(record, f) for f in fields)
        assert hash(other) == hash(record)
    # a record of another class with the same values is not equal
    twin_cls = type("Twin", (Record,), {"__slots__": fields})
    twin = twin_cls(*(getattr(record, f) for f in fields))
    assert twin != record and record != twin and record != tuple(getattr(record, f) for f in fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    args = record.__reduce__()[1]
    assert cls(*args) == record
    for wrong in (args[:-1], (*args, None)):
        with pytest.raises(TypeError):
            cls(*wrong)


def test_every_field_takes_part_in_equality_hash_and_repr():
    # a beta0's inverse and a point's entry are fields like any other
    g = beta0(5)
    assert type(g).__slots__ == ("m", "element", "inverse")
    assert repr(g) == f"DifferentGenerator(m=5, element={g.element!r}, inverse={g.inverse!r})"
    for name, value in (("inverse", Cyclo.one(5)), ("element", -g.element)):
        other = copy.copy(g)
        object.__setattr__(other, name, value)
        assert other != g and hash(other) != hash(g) and repr(other) != repr(g)
    point = assemble(validate(5, (1, 3, 3, 3))).components[0].point
    entry = Entry(Cyclo.one(5), point.phi, (0,) * 5)
    other = PolarizedCMPoint(point.phi, point.u0, point.beta, point.conditions, entry)
    assert other != point and hash(other) != hash(point)
    assert repr(point).endswith(f", entry={point.entry!r})") and repr(other) != repr(point)
    # an entry's cell and determinant are made, not fields: an entry whose
    # cell was read equals a fresh one, and so do their points
    e = point.entry
    e.cell, e.det
    fresh = Entry(e.xi, e.phi, e.column)
    same = PolarizedCMPoint(point.phi, point.u0, point.beta, point.conditions, fresh)
    assert fresh == e and same == point and hash(same) == hash(point) and repr(same) == repr(point)
    assert repr(MonodromyDatum(5, (1, 3, 3, 3))) == "MonodromyDatum(m=5, a=(1, 3, 3, 3))"


_INVALID = [
    (lambda: MonodromyDatum(12, (1, 2, 9)), UnsupportedModulus),
    (lambda: MonodromyDatum(5, (1, 4)), MalformedDatum),
    (lambda: MonodromyDatum(5, (0, 1, 4)), ZeroInertia),
    (lambda: MonodromyDatum(5, (1, 6, 3)), MalformedDatum),
    (lambda: MonodromyDatum(5, (1, 1, 1)), UnbalancedInertia),
    (lambda: MonodromyDatum(9, (3, 3, 3)), DisconnectedCover),
    (lambda: Signature(5, (0, 1, 2)), InvariantViolation),
    (lambda: Signature(3, (1, 0, 0)), InvariantViolation),
    (lambda: CMType(5, frozenset({1, 4})), InvariantViolation),
    (lambda: CMType(5, frozenset({1, 5})), InvariantViolation),
    (lambda: ComplexInterval(Fraction(1), Fraction(0), Fraction(0), Fraction(0)), InvariantViolation),
    (lambda: DifferentGenerator(5, beta0(5).element, Cyclo.one(5)), InvariantViolation),
    (lambda: DifferentGenerator(5, Cyclo.one(5), Cyclo.one(5)), InvariantViolation),
    (lambda: Block(5, ()), InvariantViolation),
    (lambda: Block(5, (Cyclo.one(5),)), InvariantViolation),
    (lambda: Block(7, (beta0(5).element,)), InvariantViolation),
    (lambda: HermitianDatum(5, ()), InvariantViolation),
    (lambda: HermitianDatum(5, (Block(5, (beta0(5).element,)),) * 2), InvariantViolation),
    (lambda: HermitianDatum(5, (Block(3, (beta0(3).element,)),)), InvariantViolation),
]


@pytest.mark.parametrize("build, error", _INVALID)
def test_validating_records_raise_their_typed_error(build, error):
    with pytest.raises(error):
        build()


def test_oversized_moduli_are_refused_before_any_table():
    # modulus(m) builds m x m tables: at m = 10^6 they would take terabytes
    limit = max(SUPPORTED_MODULI)
    assert modulus(limit).m == limit
    for build in (
        lambda: modulus(limit + 1),
        lambda: modulus(2 * limit),
        lambda: CMType(10**6, frozenset()),
        lambda: Signature(1501, (0,) * 1501).cm_type_members(),
        lambda: HermitianDatum(5 * 10**8, (Block(5, (beta0(5).element,)),)),
        lambda: HermitianDatum(14, (Block(7, (beta0(7).element,)),)),
    ):
        start = time.perf_counter()
        with pytest.raises(UnsupportedModulus):
            build()
        assert time.perf_counter() - start < 0.5


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # compared with what the interpreter had loaded before the import, so
    # a site that loads typing itself does not hide an import of it
    code = (
        "import sys; before = set(sys.modules); import cyclopel.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before))))"
    )
    assert _fresh(code).stdout.split() == []


def _fresh(code: str) -> subprocess.CompletedProcess:
    """python -c code in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(cyclopel.__path__[0])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)


_FAMILY = ["--m", "19", "--inertia", "2,3,5,7,11,10"]


@pytest.mark.parametrize(
    "run",
    [
        "import cyclopel",
        "import cyclopel.cli",
        f"from cyclopel.cli import main; main({_FAMILY + ['--json']!r})",
        "from cyclopel.cli import main; main(['--corpus'])",
    ],
    ids=["import", "import-cli", "json-op", "corpus"],
)
def test_default_path_loads_no_mpmath(run):
    # mpmath is imported only to enclose a root at another precision
    out = _fresh(f"import sys; {run}; print('mpmath' in sys.modules, file=sys.stderr)")
    assert out.stderr.split() == ["False"]


def test_a_128_bit_op_renders_the_same_bytes():
    # the sha256 of the report, timing_ms set to 0, as mpmath's own
    # interval arithmetic renders it
    out = _fresh(
        "import sys; from cyclopel.cli import main; "
        f"main({_FAMILY + ['--precision', '128', '--json']!r}); "
        "print('mpmath' in sys.modules, file=sys.stderr)"
    )
    assert out.stderr.split() == ["True"]
    text = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out.stdout)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "a5516d00baee01c672f66032a0ca6ebdda2a4293d95cde48902ab1030dbda928"
