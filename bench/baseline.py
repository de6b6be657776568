"""Measure a baseline and check that the per-layer counts repeat.

    python3 bench/baseline.py

For each workload of BENCHMARK.json it makes ten untraced runs with seeds
1..10 and reports, per end-to-end metric, the median, the quartiles and
their distance as a share of the median: the spread the metric's bound must
cover.  It then makes two traced runs with seed 0, requires every count
among the per-layer metrics to be identical in both, and reports the
tracing overhead: the traced pass's ``trace.wall_ref`` minus the untraced
runs' median ``wall_ref``, both in reference units.  Runs are made one after another, one process at a time.
The result is written to bench/baseline.json; the command exits with 1 if
a run fails its checks, the counts differ, or a spread exceeds a third of
its metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
OUT = BENCH / "baseline.json"


def one_run(workload: str, seed: int, trace: int) -> dict:
    """One run's JSON result."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode not in (0, 1):  # 1: a check failed; the JSON says which run
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def is_count(name: str, unit: str) -> bool:
    return unit == "count" or name in ("solver.trials_per_grad", "solver.inner.converged_share")


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {
        "commit": run.git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = [one_run(name, seed, 0) for seed in SEEDS]
        e2e = {}
        for metric in bounds:
            s = summary([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            s["bound"] = bounds[metric]
            e2e[metric] = s
            steady = s["spread"] <= bounds[metric] / 3
            ok &= steady
            print(f"{name:9s} {metric:14s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]})"
                  f"{'' if steady else '  <-- spread over a third of the bound'}", flush=True)
        traced = [one_run(name, 0, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if is_count(k, v["unit"])}
                  for t in traced]
        repeat = counts[0] == counts[1]
        correct = all(r["correct"] for r in runs + traced)
        ok &= repeat and correct
        untraced_wall = e2e["wall_ref"]["median"]
        overhead = statistics.median(t["metrics"]["trace.wall_ref"]["value"] for t in traced) - untraced_wall
        print(f"{name:9s} counts repeat: {repeat}; all runs correct: {correct}; tracing "
              f"overhead {overhead:.4g} ref ({overhead / untraced_wall:.1%} of the untraced "
              f"wall_ref, {untraced_wall:.4g} ref)", flush=True)
        report["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer_seed0": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "tracing_overhead_ref": overhead,
            "tracing_overhead_share": overhead / untraced_wall,
            "counts_repeat": repeat,
        }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
