"""cyclopel benchmark.

usage: python3 perfbench/run.py --workload {sweep,wide,cli,all} --seed N
                                --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory, and nothing needs installing.  One process drives one
closed-loop client: the next op starts when the previous one has ended.

Workloads (inputs come from perfbench/gen.py and the seed):
  sweep  distinct small families (N = 4..7) over all seven assemble moduli,
         in process, after a warm-up: a researcher tabulating families.
         Beta solve, sign certification and inversion dominate, and the
         per-modulus caches are shared across ops.
  wide   a ladder of large families (N = 10, 13, 16, 19 at m = 13, 17,
         19), in process: the dense Gram determinant, the Gram build and
         the degeneration search, and the scaling in N.
  cli    one fresh `python -m cyclopel.cli` per op on small families
         (N = 4, 5), with two `--corpus` runs in every 16 ops: users pay
         import and cold caches on every call.

With --trace 0 the last stdout line holds the end-to-end metrics, measured
untraced: ops_per_s (ops completed per second of op time), op_s.p50 (median
op latency), setup_s (median of several set-ups: import plus warm-up for
sweep and wide, importing cyclopel.cli in a fresh interpreter for cli) and
peak_rss_mb (of the process doing the work; for cli, of the CLI children).
Times of sweep and wide are scaled to a reference machine speed by
probe.py, whose probes run in the process that runs the ops; the details
hold them unscaled too.  Times of cli are as measured: a CLI call is
mostly process start-up and import, which the probe does not track
(scaling widened the run-to-run spread of cli).  With --trace 1 it holds the per-layer metrics of a fixed op
list: run once untraced and twice traced, each in a fresh process; the
counts of the two traced runs must agree exactly.  The line before it is
a JSON object with the details: environment, generated inputs, digests,
sample counts, the tail percentile and, when traced, the seed baselines.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import tracer as tracing  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_CLI = "import time; t = time.perf_counter(); import cyclopel.cli; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)
    # Imports read cached bytecode, as they do for an installed package,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[int, str, str, float]:
    t0 = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least 10 samples beyond it
    (nearest-rank), or None when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 50, -1):
        idx = max(0, -(-p * n // 100) - 1)
        if n - 1 - idx >= 10:
            return {"percentile": p, "value": s[idx], "samples": n}
    return None


def load_digests(seed: int, workload: str) -> dict:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["workloads"].get(workload, {})


def judge(outcomes: list[dict], stored: dict) -> dict:
    """Fold the stored digests into the op outcomes: a mismatch fails the op."""
    checked = mismatched = 0
    for o in outcomes:
        want = stored.get(o["key"])
        if want is None or o["error"] is not None:
            continue
        checked += 1
        if o["digest"] != want:
            mismatched += 1
            o["error"] = f"digest {o['digest']} differs from stored {want}"
    return {"stored_checked": checked, "stored_mismatched": mismatched}


# -- the CLI workload -------------------------------------------------------


def cli_command(op: dict) -> list[str]:
    if op["kind"] == "corpus":
        return ["--corpus"]
    return ["--m", str(op["m"]), "--inertia", ",".join(map(str, op["a"])), "--json"]


def cli_outcome(op: dict, code: int, stdout: str, seconds: float) -> dict:
    """Digest over exit code and stdout (the report without timing_ms for a
    family), plus the invariant checks."""
    error = None if code == 0 else f"exit code {code}"
    if op["kind"] == "corpus":
        digest = check.text_digest(f"{code}\n{stdout}")
        if error is None and "FAIL" in stdout:
            error = "corpus reports failures"
    else:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            report = None
            error = error or "stdout is not a JSON report"
        digest = check.report_digest(report, f"{code}\n") if report is not None else None
        if error is None:
            error = "; ".join(check.invariant_errors(report)) or None
    return {"key": gen.op_key(op), "s": seconds, "digest": digest, "error": error}


def cli_op(op: dict, traced_files: tuple[str, str] | None = None) -> dict:
    if traced_files is None:
        cmd = [sys.executable, "-m", "cyclopel.cli"]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *traced_files, "--"]
    try:
        code, stdout, stderr, seconds = run_child(cmd + cli_command(op), timeout=60)
    except subprocess.TimeoutExpired:
        return {"key": gen.op_key(op), "s": 60.0, "digest": None, "error": "timeout"}
    if code != 0:
        sys.stderr.write(stderr)
    return cli_outcome(op, code, stdout, seconds)


def cli_setup_samples() -> list[list[float]]:
    """[seconds, 1] of importing cyclopel.cli in fresh interpreters (the
    cli workload is not scaled)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, stdout, stderr, _ = run_child([sys.executable, "-c", IMPORT_CLI])
        if code != 0:
            raise RuntimeError(f"importing cyclopel.cli failed:\n{stderr}")
        samples.append([float(stdout), 1.0])
    return samples


def cli_timed(seed: int, seconds: float) -> dict:
    setup = cli_setup_samples()
    ops, n_rounds, elapsed = probe.run_rounds(gen.rounds(seed, "cli"), cli_op, seconds, probed=False)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"setup": setup, "ops": ops, "rounds": n_rounds, "wall_s": elapsed, "peak_rss_mb": rss}


def cli_traced_pass(seed: int, tag: str) -> dict:
    ops, summaries = [], []
    spans_out = OUT / f"cli-seed{seed}-{tag}.spans.jsonl"
    with open(spans_out, "w", encoding="utf-8") as merged:
        for k, op in enumerate(gen.trace_ops(seed, "cli")):
            summary_f, spans_f = OUT / f"cli-{tag}-op.summary.json", OUT / f"cli-{tag}-op.spans.jsonl"
            ops.append(cli_op(op, (str(summary_f), str(spans_f))))
            summaries.append(json.loads(summary_f.read_text()))
            for line in spans_f.read_text().splitlines():
                span = json.loads(line)
                span[5] = k
                merged.write(json.dumps(span) + "\n")
            summary_f.unlink()
            spans_f.unlink()
    return {"ops": ops, "summaries": summaries, "spans": str(spans_out.relative_to(ROOT))}


# -- the in-process workloads ----------------------------------------------


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0, trace: int = 0,
           spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    code, stdout, stderr, _ = run_child(cmd)
    if code != 0:
        raise RuntimeError(f"worker {mode} failed with exit code {code}:\n{stderr}")
    sys.stderr.write(stderr)
    return json.loads(stdout.splitlines()[-1])


def inproc_timed(workload: str, seed: int, seconds: float) -> dict:
    runs = [worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES - 1)]
    main = worker(workload, seed, "timed", seconds)
    main["setup"] = [[r["setup_s"], r["setup_scale"]] for r in runs + [main]]
    return main


# -- results ------------------------------------------------------------------


def end_to_end(run: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics, scaled to the reference machine speed
    (probe.py) or as measured."""
    ops = run["ops"]
    s = [o["s"] * (o["scale"] if scaled else 1) for o in ops]
    ok = [t for t, o in zip(s, ops) if o["error"] is None]
    return {
        "ops_per_s": len(ok) / sum(s),
        "op_s.p50": statistics.median(ok) if ok else float("nan"),
        "setup_s": statistics.median(t * (f if scaled else 1) for t, f in run["setup"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def untraced(workload: str, seed: int, seconds: float, details: dict) -> tuple[list[dict], dict]:
    if workload == "cli":
        run = cli_timed(seed, seconds)
    else:
        run = inproc_timed(workload, seed, seconds)
        note_warmup(details, run["warmup"])
    ops = run["ops"]
    details["inputs"]["timed"] = [o["key"] for o in ops]
    details["digest_check"] = judge(ops, load_digests(seed, workload))
    metrics = end_to_end(run)
    details.update(
        unscaled=end_to_end(run, scaled=False),
        speed_scale=statistics.median(o["scale"] for o in ops),
        rounds=run["rounds"],
        wall_s=run["wall_s"],
        setup_samples_s_scale=run["setup"],
        samples=len(ops),
        tail=tail([o["s"] * o["scale"] for o in ops if o["error"] is None]),
        units=END_TO_END_UNITS,
    )
    return ops, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def note_warmup(details: dict, warmup: list[dict]) -> None:
    details["inputs"]["warmup"] = [o["key"] for o in warmup]
    details["warmup_failures"] = [o for o in warmup if o["error"] is not None]


def exact_counts(metrics: dict) -> dict:
    return {k: metrics[k] for k in tracing.EXACT}


def traced(workload: str, seed: int, details: dict) -> tuple[list[dict], dict]:
    """One untraced and two traced passes over the fixed op list."""
    OUT.mkdir(exist_ok=True)
    passes = []
    for tag in ("untraced", "traced-a", "traced-b"):
        if workload == "cli":
            if tag == "untraced":
                p = {"ops": [cli_op(op) for op in gen.trace_ops(seed, "cli")]}
            else:
                p = cli_traced_pass(seed, tag)
        else:
            spans = OUT / f"{workload}-seed{seed}-{tag}.spans.jsonl" if tag != "untraced" else None
            p = worker(workload, seed, "fixed", trace=int(tag != "untraced"), spans=spans)
            if spans is not None:
                p["summaries"] = [p.pop("summary")]
                p["summaries"][0]["cache"] = p.pop("cache")
                p["spans"] = str(spans.relative_to(ROOT))
        p["total_s"] = sum(o["s"] for o in p["ops"])
        passes.append(p)
    base, a, b = passes
    if workload != "cli":
        note_warmup(details, base["warmup"])
    n = len(base["ops"])
    overhead = a["total_s"] - base["total_s"]
    metrics_a = tracing.per_layer(a["summaries"], n, overhead)
    keys = details["inputs"]["timed"] = [o["key"] for o in base["ops"]]
    # The CLI verifies the corpus on a thread pool, so which thread fills a
    # shared lru_cache entry first, and with it the counts, can change from
    # run to run.  Counts of every other op must repeat exactly.  (The CLI
    # passes keep one summary per op; the in-process passes one in all.)
    def differ(keep) -> dict:
        ca, cb = (
            exact_counts(tracing.per_layer([s for i, s in enumerate(p["summaries"]) if keep(i)], n, 0.0))
            for p in (a, b)
        )
        return {k: [ca[k], cb[k]] for k in ca if ca[k] != cb[k]}

    strict = differ(lambda i: workload != "cli" or keys[i] != "corpus")
    pooled = {k: v for k, v in differ(lambda i: True).items() if k not in strict}
    ops = base["ops"] + a["ops"] + b["ops"]
    details["digest_check"] = judge(ops, load_digests(seed, workload))
    for p in (a, b):
        if [o["key"] for o in p["ops"]] != keys or [o["digest"] for o in p["ops"]] != [
            o["digest"] for o in base["ops"]
        ]:
            strict["digests"] = "traced and untraced reports differ"
    details.update(
        samples=n,
        pass_totals_s={"untraced": base["total_s"], "traced_a": a["total_s"], "traced_b": b["total_s"]},
        overhead_ratio=overhead / base["total_s"],
        exact_repeat={"ok": not strict, "mismatches": strict, "thread_pool_mismatches": pooled},
        spans=[a["spans"], b["spans"]],
        baselines=baselines(workload, a, keys),
        counts=exact_counts(metrics_a),
    )
    units = dict(tracing.PER_LAYER)
    return ops, {k: {"value": v, "unit": units[k]} for k, v in metrics_a.items()}


def baselines(workload: str, traced_pass: dict, keys: list[str]) -> dict:
    """Seed behaviour that later changes are expected to move."""
    if workload == "cli":
        family = [
            s["calls"].get("monodromy.degenerate", 0)
            for s, k in zip(traced_pass["summaries"], keys)
            if k != "corpus"
        ]
        return {"cli.family_op.monodromy.degenerate.calls": sum(family) / len(family)}
    if workload == "wide":
        key = gen.op_key(gen.family(*gen.BASELINE_FAMILY))
        calls, distinct = traced_pass["summaries"][0]["beta_by_op"][str(keys.index(key))]
        return {
            "wide.baseline_family": key,
            "wide.baseline_family.polarization.beta_for_type.calls": calls,
            "wide.baseline_family.polarization.beta_for_type.distinct_ratio": distinct / calls,
        }
    return {}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                     "env": environment(), "inputs": {}}
    # Compile the sources once, so no measured import pays for it.
    code, _, stderr, _ = run_child([sys.executable, "-c", "import cyclopel.cli"])
    if code != 0:
        sys.stderr.write(stderr)
        return 1
    if trace:
        ops, metrics = traced(workload, seed, details)
    else:
        ops, metrics = untraced(workload, seed, seconds, details)
    failed = [o for o in ops if o["error"] is not None]
    details["digests"] = {o["key"]: o["digest"] for o in ops}
    details["failed_ratio"] = len(failed) / len(ops)
    details["failures"] = failed[:10]
    details["env"]["loadavg_end"] = list(os.getloadavg())
    correct = not failed and not details.get("warmup_failures")
    if trace:
        correct = correct and details["exact_repeat"]["ok"]
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "cyclopel" / "__init__.py").is_file():
        print(f"error: no cyclopel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    # One process per workload, so no workload's children count in another's
    # peak RSS; the last line combines the results.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in gen.WORKLOADS:
        code, stdout, stderr, _ = run_child(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=900)
        sys.stderr.write(stderr)
        if code != 0:
            return code
        *_, details, result = stdout.splitlines()
        print(details)
        result = json.loads(result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
