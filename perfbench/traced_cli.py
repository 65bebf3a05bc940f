"""Run the cyclopel CLI in this interpreter with spans recorded.

usage: traced_cli.py SUMMARY SPANS -- CLI-ARGS...

Behaves as `python -m cyclopel.cli CLI-ARGS...` (same stdout, stderr and
exit code).  At exit it writes the trace summary, with the lru_cache
deltas from import to exit, to SUMMARY and the spans to SPANS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

PRECISION = 64


def main() -> int:
    summary_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    import cyclopel.cli

    tracer = tracing.Tracer(PRECISION)
    tracer.install()
    before = tracer.cache_counts()
    try:
        code = tracer.span("op", cyclopel.cli.main, cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    summary = tracer.summary()
    summary["cache"] = tracer.cache_delta(before)
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump(summary, f)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
