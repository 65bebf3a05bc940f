"""Byte-identity of the rendered output against recorded digests.

tests/data/golden_reports.json holds the sha256 of report_json (with
timing_ms set to 0) for a fixed list of families, two per modulus in
ASSEMBLE_MODULI plus the wide m=19 family 1^23,15, and the full stdout of
`cyclopel --corpus`.  Any change to an exact element, a rendered decimal,
the Gram matrix or the key layout shows up here.  To record the file
afresh from the current source (only when a change of output is
intended):

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclopel.cli import build_report, main, report_json, write_report
from cyclopel.embeddings import DEFAULT_PRECISION
from cyclopel.errors import NonCompactType
from cyclopel.monodromy import validate
from cyclopel.peldatum import ASSEMBLE_MODULI, assemble, default_corpus_path, load_corpus
from oracles import clear_memos

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

FAMILIES = (
    (3, (1, 1, 2, 2)),
    (3, (1, 1, 1, 1, 1, 1)),
    (5, (1, 3, 3, 3)),
    (5, (2, 2, 2, 2, 2)),
    (7, (1, 1, 2, 3)),
    (7, (2, 4, 4, 4, 1, 6)),
    (11, (1, 2, 3, 5)),
    (11, (1, 2, 4, 7, 8)),
    (13, (1, 2, 3, 7)),
    (13, (1, 3, 4, 9, 9)),
    (17, (1, 1, 7, 8)),
    (17, (2, 3, 5, 7, 14, 3)),
    (19, (1, 1, 8, 9)),
    (19, (2, 3, 5, 7, 11, 10)),
    (19, (1,) * 23 + (15,)),
)


def _key(m: int, a: tuple[int, ...]) -> str:
    return f"{m}:{','.join(map(str, a))}"


def _report_digest(m: int, a: tuple[int, ...]) -> str:
    report = build_report(assemble(validate(m, a)), DEFAULT_PRECISION, 0)
    return hashlib.sha256(report_json(report).encode("utf-8")).hexdigest()


def _corpus_run() -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--corpus"])
    return code, buf.getvalue()


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def test_family_list_covers_every_assemble_modulus():
    counts = {m: sum(1 for fm, _ in FAMILIES if fm == m) for m in ASSEMBLE_MODULI}
    assert all(c >= 2 for c in counts.values()), counts
    assert set(_golden()["reports"]) == {_key(m, a) for m, a in FAMILIES}


@pytest.mark.parametrize("m, a", FAMILIES, ids=[_key(m, a) for m, a in FAMILIES])
def test_report_bytes_match_golden_digest(m, a):
    assert _report_digest(m, a) == _golden()["reports"][_key(m, a)]


def test_report_bytes_do_not_depend_on_memo_state():
    golden = _golden()["reports"]
    for m, a in FAMILIES:
        clear_memos()
        assert _report_digest(m, a) == golden[_key(m, a)], ("cold", m, a)
    for order in (FAMILIES, FAMILIES[::-1]):
        for m, a in order:
            assert _report_digest(m, a) == golden[_key(m, a)], ("warm", m, a)


def test_report_bytes_from_cold_memos_match_golden_in_threads():
    # four threads fill the shared memos together; a forced switch every
    # microsecond interleaves them mid-computation
    golden = _golden()["reports"]
    clear_memos()
    digests: list[dict] = [{} for _ in range(4)]
    barrier = threading.Barrier(len(digests))

    def work(k):
        barrier.wait(timeout=30)
        for m, a in FAMILIES[k:] + FAMILIES[:k]:
            digests[k][_key(m, a)] = _report_digest(m, a)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(digests))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(d == golden for d in digests)


def _first_difference(a: str, b: str):
    """Offset of the first differing character, or None; reports run to
    megabytes, too long for pytest's string diff."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


@pytest.mark.parametrize("m, a", FAMILIES, ids=[_key(m, a) for m, a in FAMILIES])
def test_report_json_matches_json_dumps_of_dense_report(m, a):
    report = build_report(assemble(validate(m, a)), DEFAULT_PRECISION, 0)
    dense = dict(report, gram=[list(row) for row in report["gram"]])
    text = json.dumps(dense, indent=2, sort_keys=True)
    assert _first_difference(report_json(report), text) is None


def _written_report(result, precision: int, elapsed_ms: int) -> str:
    out: list[str] = []
    write_report(result, precision, elapsed_ms, out.append)
    return "".join(out)


def _dumped_report(result, precision: int, elapsed_ms: int) -> str:
    report = build_report(result, precision, elapsed_ms)
    return json.dumps(report, indent=2, sort_keys=True, default=list)


@pytest.mark.parametrize("precision", (64, 128))
def test_write_report_matches_json_dumps_of_build_report(precision):
    # the golden families and every corpus fixture that assemble takes
    corpus = tuple(
        (f["m"], tuple(f["a"]))
        for f in load_corpus(default_corpus_path())
        if f["m"] in ASSEMBLE_MODULI
    )
    for k, (m, a) in enumerate(FAMILIES + corpus):
        result = assemble(validate(m, a), precision)
        elapsed_ms = 997 * k + 1
        written = _written_report(result, precision, elapsed_ms)
        assert _first_difference(written, _dumped_report(result, precision, elapsed_ms)) is None, (m, a)


@st.composite
def _families(draw) -> tuple[int, tuple[int, ...]]:
    """A balanced inertia vector of 3 to 12 values at an assembly modulus."""
    m = draw(st.sampled_from(sorted(ASSEMBLE_MODULI)))
    head = draw(st.lists(st.integers(1, m - 1), min_size=2, max_size=11))
    assume(sum(head) % m)
    return m, (*head, -sum(head) % m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_families(), st.sampled_from((64, 128)), st.integers(0, 10**7))
def test_write_report_matches_json_dumps_on_random_families(family, precision, elapsed_ms):
    try:
        result = assemble(validate(*family), precision)
    except NonCompactType:
        assume(False)
    written = _written_report(result, precision, elapsed_ms)
    assert _first_difference(written, _dumped_report(result, precision, elapsed_ms)) is None


def test_corpus_output_matches_golden():
    code, out = _corpus_run()
    golden = _golden()
    assert code == golden["corpus_exit"]
    assert out == golden["corpus_stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    code, out = _corpus_run()
    doc = {
        "reports": {_key(m, a): _report_digest(m, a) for m, a in FAMILIES},
        "corpus_exit": code,
        "corpus_stdout": out,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
