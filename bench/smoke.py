"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root::

    python3 bench/smoke.py

It checks that each workload prints every metric of ``BENCHMARK.json`` with
its unit, that the traced call counts match the program, that one altered
digit in a report counts the op as failed, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile

import run

SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED_CALLS = {
    "spin-audit": {"heunop.qes_matrix.calls_per_report": 2,
                   "sl2rep.uea_expand.calls_per_report": 4},
    "kernel-norms": {"greenssf.kp_constant.calls_per_report": 3},
}


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            assert printed == wanted, (workload, trace, printed)
            for name, calls in EXPECTED_CALLS.get(workload, {}).items() if trace else ():
                got = result["metrics"][name]["value"]
                assert got == calls, (workload, name, got)
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics")


def _alter_digit(text: str, start: int) -> str:
    i = next(k for k in range(start, len(text)) if text[k].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def check_corruption() -> None:
    """One altered digit fails the op: by digest, and by the exact self-checks."""
    _, cli, CRat = run.load_program()
    checked_fields = {"analyze": '"residual": "', "spectrum": '"residual": "',
                      "sweep": '"residual": "', "distsol": '"value": "',
                      "green": '"hs_norm_sq": "', "ssf": '"hs_norm_sq": "'}
    for workload in run.WORKLOADS.values():
        kinds = {}
        for seed in itertools.count(SEED):
            for op in workload.ops(seed, 1, tiny=True):
                kinds.setdefault(op.kind, op)
            if len(kinds) == len(workload.warmup):
                break
        for op in kinds.values():
            rc, out, err, _ = run.execute(cli, op.argv)
            reference = {run.op_key_hash(op): run.op_digest(rc, out, err)}
            assert run.check(op, rc, out, err, reference, CRat).ok, op.key
            corrupt = _alter_digit(out, out.index("{") + 1)
            assert not run.check(op, rc, corrupt, err, reference, CRat).ok, op.key
            corrupt = _alter_digit(out, out.index(checked_fields[op.kind]))
            assert not run.check(op, rc, corrupt, err, {}, CRat).ok, op.key
            print(f"ok  altered digit fails {op.kind}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    with tempfile.TemporaryDirectory(prefix=".bench-bare-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, f"{bare}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "spin-audit", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses to run without sources")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("smoke test passed")
