"""One benchmark process for the in-process workloads (sweep, wide).

Modes:
  setup  import cyclopel and run the warm-up, then report the time taken.
  timed  set up, then run rounds of timed ops until --seconds have passed
         (the round in progress is finished when that is nearer the target),
         with a speed probe before each op (see probe.py).
  fixed  set up, then run the fixed traced op list once, with spans when
         --trace 1.

Prints one JSON object on stdout.  An op is one family taken through
validate -> assemble -> cli.build_report -> cli.report_json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402

PRECISION = 64


def import_cyclopel():
    sys.path.insert(0, str(ROOT / "src"))
    import cyclopel
    import cyclopel.cli

    if Path(cyclopel.__file__).resolve().parent != ROOT / "src" / "cyclopel":
        raise SystemExit(f"imported cyclopel from {cyclopel.__file__}, not from this checkout")
    return cyclopel


def run_family(cyclopel, op: dict) -> str:
    # Names are looked up on the modules at call time, so traced wrappers
    # installed after import are the ones called.
    t0 = perf_counter()
    result = cyclopel.assemble(cyclopel.validate(op["m"], op["a"]), PRECISION)
    report = cyclopel.cli.build_report(result, PRECISION, int((perf_counter() - t0) * 1000))
    return cyclopel.cli.report_json(report)


def outcome(op: dict, seconds: float, text: str | None, error: str | None) -> dict:
    """Digest and invariant check of one op, made outside its timing."""
    digest = None
    if error is None:
        report = json.loads(text)
        errors = check.invariant_errors(report)
        error = "; ".join(errors) or None
        digest = check.report_digest(report)
    return {"key": gen.op_key(op), "s": seconds, "digest": digest, "error": error}


def run_op(cyclopel, op: dict, tracer=None) -> dict:
    t0 = perf_counter()
    try:
        if tracer is None:
            text = run_family(cyclopel, op)
        else:
            text = tracer.span("op", run_family, cyclopel, op)
        return outcome(op, perf_counter() - t0, text, None)
    except Exception as exc:  # an op that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return outcome(op, perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")


def setup(workload: str):
    """Import plus warm-up; returns (cyclopel, seconds, warm-up outcomes)."""
    t0 = perf_counter()
    cyclopel = import_cyclopel()
    warm = [run_op(cyclopel, op) for op in gen.warmup(workload)]
    return cyclopel, perf_counter() - t0, warm


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("sweep", "wide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file the spans are written to (fixed mode, --trace 1)")
    args = p.parse_args()

    cyclopel, setup_s, warm = setup(args.workload)
    out = {"setup_s": setup_s, "setup_scale": probe.probed_scale(), "warmup": warm}
    if args.mode == "timed":
        ops, n_rounds, elapsed = probe.run_rounds(
            gen.rounds(args.seed, args.workload), lambda op: run_op(cyclopel, op), args.seconds
        )
        out.update(ops=ops, rounds=n_rounds, wall_s=elapsed)
    elif args.mode == "fixed":
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer(PRECISION)
            tracer.install()
            before = tracer.cache_counts()
        ops = []
        for k, op in enumerate(gen.trace_ops(args.seed, args.workload)):
            if tracer is not None:
                tracer.op = k
            ops.append(run_op(cyclopel, op, tracer))
        out["ops"] = ops
        if tracer is not None:
            out["cache"] = tracer.cache_delta(before)
            out["summary"] = tracer.summary()
            if args.spans:
                tracer.write(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
