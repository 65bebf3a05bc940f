"""Write perfbench/digests.json: the report digests of the default seed's
ops, which run.py compares against on that seed.

usage: python3 perfbench/record_digests.py   (from the checkout root)

Covers several times the rounds one run completes today, so a faster
program still finds its ops stored.  Re-run only when the generator
changes; a change to the program must leave the digests as they are.
"""

from __future__ import annotations

import json
import sys

import gen
import run
import worker

ROUNDS = {"sweep": 40, "wide": 8, "cli": 20}


def ops_of(workload: str) -> list[dict]:
    rounds = gen.rounds(run.DEFAULT_SEED, workload)
    ops = [op for _ in range(ROUNDS[workload]) for op in next(rounds)]
    ops += gen.trace_ops(run.DEFAULT_SEED, workload)
    unique = {gen.op_key(op): op for op in ops}
    return list(unique.values())


def main() -> int:
    cyclopel = worker.import_cyclopel()
    store: dict[str, dict[str, str]] = {}
    for workload in gen.WORKLOADS:
        digests = {}
        for op in ops_of(workload):
            if workload == "cli":
                o = run.cli_op(op)
            else:
                o = worker.run_op(cyclopel, op)
            if o["error"] is not None:
                print(f"{workload} {o['key']}: {o['error']}", file=sys.stderr)
                return 1
            digests[o["key"]] = o["digest"]
        store[workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    doc = {"seed": run.DEFAULT_SEED, "workloads": store}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
