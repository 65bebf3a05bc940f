"""Output checks made from outside the program: report digests and the
invariants every family report must satisfy."""

from __future__ import annotations

import hashlib
import json


def report_digest(report: dict, prefix: str = "") -> str:
    """sha256 of the report without its timing field, as sorted JSON, with
    an optional prefix (the CLI's exit code).  First 16 hex digits."""
    body = {k: v for k, v in report.items() if k != "timing_ms"}
    text = prefix + json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invariant_errors(report: dict) -> list[str]:
    """Broken invariants of one family report: signature cross-check,
    unimodular Gram matrix, skew Gram matrix."""
    errors = []
    if report.get("signature_match") is not True:
        errors.append("signature_match is not true")
    if abs(report.get("determinant", 0)) != 1:
        errors.append(f"determinant {report.get('determinant')} is not +-1")
    gram = report.get("gram", [])
    n = len(gram)
    if any(len(row) != n for row in gram) or any(
        gram[i][j] != -gram[j][i] for i in range(n) for j in range(i, n)
    ):
        errors.append("gram matrix is not skew")
    return errors
