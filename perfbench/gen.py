"""Seeded input generator for the benchmark.

Every family it emits is admissible: each inertia value is nonzero mod m,
the values sum to 0 mod m, and at least one pair has a(i) + a(j) != 0 mod m.
The same seed gives the same families in the same order.

Ops come in rounds.  Each round holds one family per stratum (m, N), so the
mix of work is the same for every seed and only the inertia values change.
A stratum with few admissible families (m = 3, N = 4 has six) is skipped
once every one of its families has been used, so timed families are
distinct within a run.  Warm-up families use N values that no timed stratum
of the same workload uses, which makes them disjoint from the timed ones;
they do not depend on the seed, so set-up does the same work on every seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

ASSEMBLE_MODULI = (3, 5, 7, 11, 13, 17, 19)

# Strata with at most this many candidate inertia vectors are enumerated and
# shuffled; larger ones are sampled with rejection of repeats.
_ENUMERATE_LIMIT = 50_000

WORKLOADS = ("sweep", "wide", "cli")

# (moduli, N values per round, corpus ops per round)
_SHAPES = {
    "sweep": (ASSEMBLE_MODULI, (4, 5, 6, 7), 0),
    "wide": ((13, 17, 19), (10, 13, 16, 19), 0),
    "cli": (ASSEMBLE_MODULI, (4, 5), 2),
}
_WARMUP_N = 3

# The family whose 22 components carry only 11 distinct CM-types.
BASELINE_FAMILY = (19, (1,) * 23 + (15,))


def admissible(m: int, a: tuple[int, ...]) -> bool:
    return (
        all(x % m for x in a)
        and sum(a) % m == 0
        and any((a[i] + a[j]) % m for i in range(len(a)) for j in range(i + 1, len(a)))
    )


def _stratum(seed: int, workload: str, m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Distinct admissible inertia vectors of length n mod m, in seeded order."""
    rng = random.Random(f"{seed}:{workload}:{m}:{n}")
    if (m - 1) ** (n - 1) <= _ENUMERATE_LIMIT:
        pool = []
        for head in itertools.product(range(1, m), repeat=n - 1):
            a = head + ((-sum(head)) % m,)
            if admissible(m, a):
                pool.append(a)
        rng.shuffle(pool)
        yield from pool
        return
    seen: set[tuple[int, ...]] = set()
    while True:
        head = tuple(rng.randrange(1, m) for _ in range(n - 1))
        a = head + ((-sum(head)) % m,)
        if a not in seen and admissible(m, a):
            seen.add(a)
            yield a


def family(m: int, a: tuple[int, ...]) -> dict:
    return {"kind": "family", "m": m, "a": list(a)}


CORPUS = {"kind": "corpus"}


def op_key(op: dict) -> str:
    if op["kind"] == "corpus":
        return "corpus"
    return f"{op['m']}:{','.join(map(str, op['a']))}"


def rounds(seed: int, workload: str) -> Iterator[list[dict]]:
    """Timed ops, one round at a time, without end."""
    moduli, ns, corpus = _SHAPES[workload]
    strata = {(m, n): _stratum(seed, workload, m, n) for n in ns for m in moduli}
    while True:
        ops = []
        for n in ns:
            for m in moduli:
                a = next(strata[(m, n)], None)
                if a is not None:
                    ops.append(family(m, a))
            # cli: the corpus runs are spread through the round
            ops.extend([CORPUS] * (corpus // len(ns)))
        yield ops


def warmup(workload: str) -> list[dict]:
    """One 3-point family per modulus of the in-process workloads; it fills
    the per-modulus caches that the timed ops share."""
    moduli, ns, _ = _SHAPES[workload]
    assert _WARMUP_N not in ns
    return [family(m, next(_stratum(0, "warmup", m, _WARMUP_N))) for m in moduli]


def trace_ops(seed: int, workload: str) -> list[dict]:
    """The fixed op list of a traced run: a prefix of the timed ops, so it
    does not depend on how fast the program is."""
    ops = rounds(seed, workload)
    if workload == "sweep":
        return next(ops) + next(ops)
    if workload == "wide":
        return [op for op in next(ops) if len(op["a"]) <= 13] + [family(*BASELINE_FAMILY)]
    return next(ops)
