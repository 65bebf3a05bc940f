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
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cyclopel.cli import build_report, main, report_json
from cyclopel.embeddings import DEFAULT_PRECISION
from cyclopel.monodromy import validate
from cyclopel.peldatum import ASSEMBLE_MODULI, assemble

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
    assert _first_difference(report_json(dense), text) is None


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
