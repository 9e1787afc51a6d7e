"""Run the benchmark over several seeds and save the results as one
``BENCH_<label>.json`` file beside this script.

Run from the repository root::

    python3 bench/collect.py --label baseline --seeds 0-9 --trace-seed 0

For each workload it runs ``run.py`` once per seed, untraced, and prints and
saves each end-to-end metric's median, quartiles and quartile spread (the
distance between the quartiles over the median).  ``--trace-seed`` adds one
traced run per workload.  A change is compared with its parent by running
this on both commits with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OUT_DIR = run.ROOT / ".bench_build"  # per-run files, ignored by git


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace), "--save", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def summary(results: list) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args()

    saved = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            results.append(one_run(workload, seed, 0))
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        entry = {"runs": results, "summary": summary(results)}
        for name, s in entry["summary"].items():
            print(f"  {name:18s} median {s['median']:10.4g}  spread {s['spread']:.3f}  "
                  f"bound {s['bound']}", flush=True)
        if args.trace_seed is not None:
            entry["traced"] = one_run(workload, args.trace_seed, 1)
        saved["workloads"][workload] = entry
    path = run.BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
