"""Spans around the public functions of each cyclopel module, recorded from
outside the package.

install() replaces every binding of each listed function inside the loaded
cyclopel modules with a wrapper, so calls between modules are seen too; a
listed function that no longer exists is skipped.
A span is (id, name, start, end, parent id, op id, thread id); spans stay in
memory until write() and summary() at the end of the run.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (layer, module, function); "Cyclo.inverse" is a method of the class.
TRACED = (
    ("cyclotomic", "cyclotomic", "Cyclo.inverse"),
    ("embeddings", "embeddings", "embed"),
    ("embeddings", "embeddings", "certified_sign_im"),
    ("embeddings", "embeddings", "sign_vector"),
    ("monodromy", "monodromy", "degenerate"),
    ("monodromy", "monodromy", "signature"),
    ("cmfield", "cmfield", "is_simple"),
    ("cmfield", "cmfield", "cm_type_from_triple"),
    ("polarization", "polarization", "beta_for_type"),
    ("polarization", "polarization", "unit_generators"),
    ("polarization", "polarization", "beta0"),
    ("polarization", "polarization", "solve_sign_pattern"),
    ("polarization", "polarization", "verify_conditions"),
    ("peldatum", "peldatum", "gram_determinant"),
    ("peldatum", "peldatum", "gram_matrix"),
    ("peldatum", "peldatum", "form_signature"),
    ("peldatum", "peldatum", "entry_cm_type"),
    ("peldatum", "peldatum", "assemble"),
    ("peldatum", "peldatum", "verify_fixture"),
    ("peldatum", "peldatum", "equivalent_datum"),
    ("peldatum", "peldatum", "load_corpus"),
    ("cli", "cli", "build_report"),
    ("cli", "cli", "report_json"),
)

# Functions whose lru_cache statistics give the hit ratios.
CACHED = ("certified_sign_im", "sign_vector")

# Per-layer metrics: (metric name, unit).  Per-op values are totals over
# the traced ops divided by their number.
PER_LAYER = (
    [(f"cyclotomic.Cyclo.inverse.{s}", u) for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"embeddings.embed.{s}", u) for s, u in (
        ("calls", "count"), ("self_s", "s"), ("doublings", "count"), ("peak_bits", "bits"))]
    + [(f"embeddings.{f}.{s}", u) for f in CACHED for s, u in (
        ("calls", "count"), ("self_s", "s"), ("hit_ratio", "ratio"))]
    + [("monodromy.degenerate.calls", "count"), ("monodromy.degenerate.self_s", "s"),
       ("monodromy.signature.self_s", "s"),
       ("cmfield.is_simple.calls", "count"), ("cmfield.is_simple.self_s", "s"),
       ("cmfield.cm_type_from_triple.self_s", "s"),
       ("polarization.beta_for_type.calls", "count"), ("polarization.beta_for_type.self_s", "s"),
       ("polarization.beta_for_type.distinct_ratio", "ratio"),
       ("polarization.unit_generators.calls", "count"),
       ("polarization.unit_generators.self_s", "s"),
       ("polarization.beta0.calls", "count"), ("polarization.beta0.self_s", "s"),
       ("polarization.solve_sign_pattern.self_s", "s"),
       ("polarization.verify_conditions.self_s", "s"),
       ("peldatum.gram_determinant.self_s", "s"), ("peldatum.gram_matrix.self_s", "s"),
       ("peldatum.form_signature.self_s", "s"), ("peldatum.entry_cm_type.calls", "count"),
       ("peldatum.assemble.self_s", "s"), ("peldatum.verify_fixture.self_s", "s"),
       ("peldatum.equivalent_datum.self_s", "s"), ("peldatum.load_corpus.self_s", "s"),
       ("cli.build_report.self_s", "s"), ("cli.report_json.self_s", "s"),
       ("trace.overhead_s", "s")]
)

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT = tuple(
    name for name, _ in PER_LAYER
    if name.rsplit(".", 1)[1] in ("calls", "doublings", "peak_bits", "hit_ratio", "distinct_ratio")
)


class Tracer:
    def __init__(self, start_prec: int):
        self.start_prec = start_prec
        self.spans: list[tuple] = []
        self.op = 0
        self.doublings = 0
        self.peak_bits = 0
        self.beta_types: dict[int, set] = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._caches: dict[str, object] = {}

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            if note is not None:
                note(args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.op, threading.get_ident()))

        return traced

    def _note_embed(self, args, kwargs):
        prec = args[2] if len(args) > 2 else kwargs.get("prec", self.start_prec)
        with self._lock:
            if prec > self.start_prec:
                self.doublings += 1
            self.peak_bits = max(self.peak_bits, prec)

    def _note_beta(self, args, kwargs):
        phi = args[0] if args else kwargs["phi"]
        with self._lock:
            self.beta_types[self.op].add(phi)

    def span(self, name: str, fn, *args):
        """Run fn(*args) under a root span for one op."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every listed function in all loaded cyclopel modules."""
        notes = {"embed": self._note_embed, "beta_for_type": self._note_beta}
        mods = [m for n, m in list(sys.modules.items()) if n == "cyclopel" or n.startswith("cyclopel.")]
        for layer, modname, qual in TRACED:
            module = importlib.import_module(f"cyclopel.{modname}")
            name = f"{layer}.{qual}"
            owner_name, _, attr_name = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr_name, None)
            if original is None:
                # a function a later version removed: its metrics read 0
                continue
            if owner_name:
                setattr(owner, attr_name, self._wrap(name, original))
                continue
            if qual in CACHED and hasattr(original, "cache_info"):
                self._caches[qual] = original
            wrapper = self._wrap(name, original, notes.get(qual))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def cache_counts(self) -> dict:
        """[hits, misses] so far of each traced lru_cache."""
        out = {}
        for qual, fn in self._caches.items():
            info = fn.cache_info()
            out[qual] = [info.hits, info.misses]
        return out

    def cache_delta(self, before: dict) -> dict:
        after = self.cache_counts()
        return {f: [a - b for a, b in zip(after[f], before[f])] for f in after}

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans):
                f.write(json.dumps(s) + "\n")

    def summary(self) -> dict:
        """Totals per traced name: calls and self time, plus the counters."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        beta_calls: dict[int, int] = defaultdict(int)
        for sid, name, t0, t1, _, op, _ in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            if name == "polarization.beta_for_type":
                beta_calls[op] += 1
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "doublings": self.doublings,
            "peak_bits": self.peak_bits,
            "beta_distinct": sum(len(v) for v in self.beta_types.values()),
            # per op: [beta_for_type calls, distinct CM-types among them]
            "beta_by_op": {str(op): [n, len(self.beta_types[op])] for op, n in beta_calls.items()},
        }


def per_layer(summaries: list[dict], ops: int, overhead_s: float) -> dict:
    """Per-layer metrics from the summaries of one traced pass, one summary
    per process, each with its lru_cache [hits, misses] deltas."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["self_s"].items():
            self_s[k] += v
    out = {}
    for name, _unit in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = calls[base] / ops
        elif stat == "self_s":
            out[name] = self_s[base] / ops
        elif stat == "doublings":
            out[name] = sum(s["doublings"] for s in summaries) / ops
        elif stat == "peak_bits":
            out[name] = max(s["peak_bits"] for s in summaries)
        elif stat == "hit_ratio":
            f = base.split(".")[1]
            hits = sum(s["cache"].get(f, [0, 0])[0] for s in summaries)
            misses = sum(s["cache"].get(f, [0, 0])[1] for s in summaries)
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        elif stat == "distinct_ratio":
            n = calls[base]
            out[name] = sum(s["beta_distinct"] for s in summaries) / n if n else 0.0
        elif name == "trace.overhead_s":
            out[name] = overhead_s
    return out
