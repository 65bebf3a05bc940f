"""Machine-speed probe.

On a shared virtual machine the CPU speed can drift by tens of percent
over minutes (30-70% was seen on a 2-core VM whose host other tenants
share), which moves every wall-clock figure of a run together.
The probe is a fixed piece of pure-Python exact arithmetic, of the kinds
cyclopel spends its time in (Bareiss elimination on Python integers,
Fraction arithmetic, dict and tuple churn), and uses no cyclopel code.  It
runs next to the ops it scales: after each op of a round, and after each
set-up.  Timed figures are reported scaled to a machine on which one probe
takes REFERENCE_S:  scaled = measured * REFERENCE_S / median(probes).  The
raw figures and the scale are kept in the details.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010

# After each op, probe for at least this share of the op's time (so at
# least once), so long ops still give a round enough probes for a steady
# median.
PROBE_SHARE = 0.05


def probe() -> float:
    """Seconds taken by the fixed probe work.  The collector is off while it
    runs, so the program's heap does not change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> float:
    t0 = perf_counter()
    n = 20
    m = [[(i * 7 + j * 13) % 11 - 5 + 3 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    acc = Fraction(0)
    for k in range(1, 300):
        acc = (acc + Fraction(k, 2 * k + 1)) * Fraction(k + 1, k + 3)
        acc = acc.limit_denominator(10**20)
    d = {}
    for k in range(5000):
        d[(k * 31) % 997, k % 7] = k
    return perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured next to these probes to the
    reference machine."""
    return REFERENCE_S / statistics.median(samples)


def probed_scale(count: int = 15) -> float:
    return scale([probe() for _ in range(count)])


def run_rounds(rounds, run_op, seconds: float, probed: bool = True) -> tuple[list[dict], int, float]:
    """Run whole rounds of ops until about `seconds` have passed: a new
    round starts only while that brings the end nearer the target.  When
    probed, probes run after each op and each op outcome gets the scale of
    its round; otherwise the scale is 1.  Returns (outcomes, rounds run,
    seconds taken)."""
    ops: list[dict] = []
    n_rounds = 0
    t_start = perf_counter()
    while True:
        probes, done = [], []
        for op in next(rounds):
            done.append(run_op(op))
            spent = 0.0
            while probed and spent < PROBE_SHARE * done[-1]["s"]:
                probes.append(probe())
                spent += probes[-1]
        for o in done:
            o["scale"] = scale(probes) if probed else 1.0
        ops += done
        n_rounds += 1
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / n_rounds / 2 >= seconds:
            return ops, n_rounds, elapsed
