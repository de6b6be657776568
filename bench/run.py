"""saddlelift benchmark: one workload in one single-threaded process.

    python3 bench/run.py --workload flagship --seed 0 --seconds 60 --trace 0

With ``--trace 0`` it runs passes over the workload's fixed list of
operations for ``--seconds`` (at least one pass), each after fresh set-ups,
and reports the end-to-end metrics.  Operation times are reported in
multiples of the reference kernel (reference.py) timed around them, so
that the host's changing speed cancels out; seconds are printed beside
them.  With ``--trace 1`` it runs one pass with every layer's public
functions wrapped (see tracing.py) and reports the per-layer metrics; its
``trace.wall_ref`` minus an untraced run's ``wall_ref`` is the tracing
overhead, which bench/baseline.py reports.  Each pass is checked after it is timed.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 if a check failed.  See README.md."""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

SETUPS_PER_PASS = 4  # set-up samples per pass: setup_s is their median over the run
REF_SHARE = 0.05  # the reference kernel's share of the time of a pass

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_ref.p50": "ref",
    "solved_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_share") or name == "solver.trials_per_grad":
        return "ratio"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(ops, reference):
    """Run every operation; returns (wall, per-op seconds, per-op times in
    reference units, outcomes).

    The reference kernel is timed before the first operation and, after an
    operation, as often as keeps its share of the time at REF_SHARE.  The
    operations between two groups of kernel timings form a segment; an
    operation's time in reference units is its seconds over the mean kernel
    time of the groups just before and just after its segment."""
    clock = time.perf_counter
    times, rel, outcomes = [], [], []
    before = reference.time()
    debt = 0.0  # kernel seconds owed to keep its share at REF_SHARE
    first = 0  # index of the segment's first operation
    for i, op in enumerate(ops):
        t = clock()
        try:
            outcomes.append(("ok", op.run()))
        except Exception as err:  # a raising operation is a counted failure
            outcomes.append(("raised", type(err).__name__))
        times.append(clock() - t)
        debt += REF_SHARE * times[-1]
        if debt > 0 or i == len(ops) - 1:
            group = [reference.time()]
            while sum(group) < debt:
                group.append(reference.time())
            debt -= sum(group)
            after = statistics.fmean(group)
            unit = (before + after) / 2
            rel.extend(dt / unit for dt in times[first:])
            before, first = after, i + 1
    return sum(times), times, rel, outcomes


def trimmed_mean(values: list[float]) -> float:
    """An operation's time over the run's passes: the mean without the
    fastest and the slowest pass once there are four or more."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 4 else values)


def check_pass(ops, outcomes, problems) -> int:
    """Count failed operations; collect what failed in ``problems``."""
    failed = 0
    for op, (kind, value) in zip(ops, outcomes):
        problem = f"raised {value}" if kind == "raised" else op.check(value)
        if problem is not None:
            failed += 1
            problems.append(f"{op.label}: {problem}")
    return failed


def import_workloads():
    """Import the saddlelift package, and the benchmark modules bound to it,
    afresh.  numpy and scipy, which a process can load only once, stay
    loaded from the first import."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("saddlelift", "workloads", "tracing")]:
        del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(workload, seed, expected):
    """One set-up: the package import and the workload's build; (ops, seconds)."""
    gc.collect()  # free the previous set-up's modules, so they neither count here nor stay resident
    t = time.perf_counter()
    ops = import_workloads().BUILDERS[workload](seed, expected)
    return ops, time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("flagship", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = import_workloads()  # the first import also loads numpy and scipy
    first_import_s = time.perf_counter() - T0
    import numpy as np
    import scipy

    import saddlelift

    if not Path(saddlelift.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: saddlelift imported from {saddlelift.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    from reference import Reference

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} blas_threads=1 commit={git_commit()}")

    reference = Reference()
    attempted = failed = 0
    problems: list[str] = []
    seconds: dict[str, list[float]] = {}  # every timing of each operation
    rel: dict[str, list[float]] = {}  # the same in reference units
    walls = []  # the operations' seconds of every pass

    def run_checked(ops):
        """Time one pass over ``ops``, then check it."""
        nonlocal attempted, failed
        wall, times, times_rel, outcomes = run_pass(ops, reference)
        attempted += len(ops)
        failed += check_pass(ops, outcomes, problems)
        walls.append(wall)
        for op, t, r in zip(ops, times, times_rel):
            seconds.setdefault(op.label, []).append(t)
            rel.setdefault(op.label, []).append(r)

    if args.trace:
        import tracing  # bound to the modules of the import above

        with tracing.Tracer() as tr:
            ops = workloads.BUILDERS[args.workload](args.seed, expected)
            setup_self_s = tr.take_self_s()
            run_checked(ops)
        values = tracing.layer_metrics(tr, walls[0], setup_self_s)
        values["trace.wall_ref"] = sum(v[0] for v in rel.values())
        metrics = {k: (v, per_layer_unit(k)) for k, v in values.items()}
    else:
        setups = []  # seconds of each set-up
        # another pass only if it should end within --seconds, so a slow
        # machine gets fewer passes rather than a longer run
        t_measure = time.perf_counter()
        while True:
            for _ in range(SETUPS_PER_PASS):
                ops, dt = set_up(args.workload, args.seed, expected)
                setups.append(dt)
            run_checked(ops)
            del ops
            per_pass = (time.perf_counter() - t_measure) / len(walls)
            if time.perf_counter() - t_measure + per_pass > args.seconds:
                break

        op_rel = [trimmed_mean(v) for v in rel.values()]
        op_s = [trimmed_mean(v) for v in seconds.values()]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": sum(op_rel),
            "op_ref.p50": statistics.median(op_rel),
            "solved_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"# passes={len(walls)} op samples={sum(map(len, seconds.values()))} "
              f"setups={len(setups)} first_import_s={first_import_s:.4f} "
              f"reference kernel timings={len(reference.timings)} "
              f"median {statistics.median(reference.timings):.6f} s")
        print(f"# wall_s={sum(op_s):.6f} op_s.p50={statistics.median(op_s):.6f} "
              "(the same in seconds: not gated, they follow the host's speed)")
        print(f"# setup fastest={min(setups):.6f} s (not gated)")

    for label, (value, unit) in metrics.items():
        print(f"{label:32s} {value:.6g} {unit}")
    print(f"{'fail_share':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for line in sorted(set(problems)):
        print(f"# CHECK FAILED {line}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
