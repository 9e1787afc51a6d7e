"""Regenerate ``reference_digests.json``: the report digest of every op of
each shipped seed at the benchmark's ``run_seconds``, keyed by a hash of the
op's command line.

Run from the repository root, at the commit whose reports are the reference::

    python3 bench/record_digests.py

It takes about ten minutes.  The benchmark compares every op it runs whose
command line is in the table; ops outside it get only the exact
self-consistency checks.
"""

from __future__ import annotations

import itertools
import json
import sys

import run

SEEDS = range(10)
RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SMOKE_SEEDS = range(7, 12)  # smoke.py runs seed 7 at tiny sizes, and later ones if needed


def main() -> int:
    _, cli, CRat = run.load_program()
    table = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        streams = [workload.ops(seed, RUN_SECONDS) for seed in SEEDS]
        streams += [workload.ops(seed, 1, tiny=True) for seed in SMOKE_SEEDS]
        entries = {}
        for op in itertools.chain.from_iterable(streams):
            rc, out, err, _ = run.execute(cli, op.argv)
            outcome = run.check(op, rc, out, err, {}, CRat)
            if not outcome.correct:
                sys.exit(f"refusing to record a wrong report: {op.key}: {outcome.problem}")
            entries[run.op_key_hash(op)] = run.op_digest(rc, out, err)
        table[name] = dict(sorted(entries.items()))
        print(f"{name}: {len(entries)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
