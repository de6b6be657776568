"""Only the multiplier estimate loads scipy.

scipy serves one function, the bounded least squares behind
``solver.kkt_residual`` and ``saddlelift kkt``, and is imported there.  So
importing saddlelift, every other CLI command and both benchmark workloads
run without loading ``scipy.optimize``, the largest import of a process
that had it.  A new scipy caller imports it where it is called and updates
this test on purpose.

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()
"""


def _run(body: str) -> list:
    """Run ``body`` after the prelude in a fresh interpreter with src/ and
    bench/ on the path; the JSON list it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_cli_and_bench_passes_load_no_scipy():
    steps, problems = _run(
        """
        import saddlelift
        from saddlelift import cli
        steps = [("import saddlelift", scipy_modules())]
        for argv in (
            ["solve", "problems/ex41.json"],
            ["witness", "problems/ex41.json", "--x", "4"],
            ["audit", "problems/dc_small.json", "--grid", "11", "--samples", "2"],
            ["catalog", "list"],
            ["catalog", "describe", "abs_power"],
        ):
            code, _ = run_cli(argv)
            steps.append((" ".join(argv[:2]) + f" -> {code}", scipy_modules()))

        import workloads  # bench/workloads.py, read as it is
        expected = workloads.load_expected()
        problems = []  # what each op's own check finds wrong with its result
        for name, build in workloads.BUILDERS.items():
            ops = build(0, expected)
            for op in ops:
                problem = op.check(op.run())
                if problem is not None:
                    problems.append(f"{op.label}: {problem}")
            steps.append((f"{name} pass of {len(ops)} ops", scipy_modules()))
        print(json.dumps([steps, problems]))
        """
    )
    assert problems == []  # every op's own check passes
    assert [s for s, _ in steps][1:6] == [
        "solve problems/ex41.json -> 0",
        "witness problems/ex41.json -> 0",
        "audit problems/dc_small.json -> 0",
        "catalog list -> 0",
        "catalog describe -> 0",
    ]
    assert len(steps) == 8
    for step, loaded in steps:
        assert loaded == [], f"{step} loaded {len(loaded)} scipy modules: {loaded[:3]}..."


def test_kkt_estimate_loads_scipy_optimize():
    # the README's kkt line, then the same point with estimated multipliers;
    # the outputs are pinned to the digit: loading scipy late changes no number
    readme, estimated, loaded = _run(
        """
        from saddlelift import cli
        readme = run_cli(["kkt", "problems/ex41.json", "--point", "0,0,0",
                          "--alpha", "1,1,1", "--beta", "1,1,1"])
        estimated = run_cli(["kkt", "problems/ex41.json", "--point", "0,0,0"])
        print(json.dumps([readme, estimated, "scipy.optimize" in sys.modules]))
        """
    )
    assert readme == [
        0,
        '{"alpha": [1.0, 1.0, 1.0], "beta": [1.0, 1.0, 1.0], "complementarity_residual": 0.0, '
        '"form": "abs_power", "sign_violation": 0.0, "stationarity_residual_xy": 0.0, '
        '"stationarity_residual_z": 0.0}\n',
    ]
    assert estimated == [
        0,
        '{"alpha": [0.0, 0.0, 1.0], "beta": [1.0, 1.0, 0.0], "complementarity_residual": 0.0, '
        '"form": "abs_power", "sign_violation": 0.0, "stationarity_residual_xy": 0.0, '
        '"stationarity_residual_z": 4.4408921e-16}\n',
    ]
    assert loaded
