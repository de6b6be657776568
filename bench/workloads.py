"""The two benchmark workloads: inputs from a seed, operations, output checks.

A workload's ``build(seed, expected)`` is its set-up: it constructs every
form and input it needs and returns the fixed list of operations of one pass,
in a seed-permuted order.  An operation is a callable returning a result; its
check runs after the timed pass and names what is wrong with the result, if
anything.

Why the seed changes little in the flagship: the alternating penalty
solver's cost depends chaotically on the start point.  Permuting the
coordinates of the flagship starts moved one pass from 10 s to 31 s between
seeds, which no bound on ``wall_ref`` could absorb.  So the flagship keeps the
paper's starts and the seed permutes the order of the operations.  The
audit workload's cost does not depend on the sample, so there the seed also
picks the audited points.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from saddlelift import algebra, audit, catalog, cli, forms, penalty, solver
from saddlelift import expr as ex

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

PAPER_PARAMS = dict(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
# (n, sign of the z start).  n=20 z>0 (7-10 s) and n=10 z<0 (40 s) are left
# out: one solve that long would leave a 60-s run too few passes to average
# each operation's time over.
FLAGSHIP_CASES = ((5, -1.0), (5, 1.0), (10, 1.0))
FLAGSHIP_OPT_TOL = 1e-2  # the optimum of n*max|x_i| - sum|x_i| is 0
# problem files that repeat FLAGSHIP_CASES (n=5 z<0, n=10 z>0) through the CLI;
# solving them again would halve the timings each run gets of every solve
PAPER_FILES = ("p51_n5.json", "p51_n10.json")

AUDIT_POOL = 16  # candidate x samples per grid-auditable form
AUDIT_PICK = 4  # samples the seed picks from the pool
AUDIT_RESOLUTION = {1: 201, 2: 101, 3: 41, 4: 21}  # by grid axes m1 + m2; finer than the sweep
AUDIT_POOL_SEED = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # result -> what is wrong with it, or None when it is acceptable (solved)
    check: Callable[[object], str | None]


def _finite_point(vec) -> bool:
    return bool(np.all(np.isfinite(np.asarray(vec, dtype=float))))


def _permuted(ops: list[Op], seed: int) -> list[Op]:
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# flagship: the paper's max-abs majorant solves


def flagship_start(n: int, sign: float) -> np.ndarray:
    """The acceptance-suite start (1..2n+1, sign*1000*(1..n))."""
    return np.concatenate([np.arange(1.0, 2 * n + 2), sign * 1000.0 * np.arange(1, n + 1)])


def _flagship_op(n: int, sign: float) -> Op:
    form = catalog.make_catalog_form("maxabs_minus_sum", n=n)
    params = solver.SolverParams(**PAPER_PARAMS)
    start = flagship_start(n, sign)

    def run():
        return solver.alternating_penalty_solve(form, params, start=start, seed=0)

    def check(res):
        if not _finite_point(res.point.vec):
            return "non-finite point"
        if not penalty.eps_feasible(form, res.point, params.eps):
            return f"not eps-feasible ({res.status})"
        gap = abs(form.reference(res.point.x))
        if gap > FLAGSHIP_OPT_TOL:
            return f"value {gap:.3g} away from the optimum 0"
        return None

    return Op(f"maxabs n={n} z{'+' if sign > 0 else '-'}", run, check)


def _cli_op(path: Path) -> Op:
    argv = ["solve", str(path), "--seed", "0"]
    form = cli.load_problem_file(str(path))[0]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(res):
        code, text = res
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(text.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            return "output is not JSON"
        vec = np.concatenate([np.asarray(doc[k], dtype=float) for k in ("x", "y", "z")])
        if vec.size != form.partition.total or not _finite_point(vec):
            return "bad point in output"
        point = form.point(vec)
        if not penalty.eps_feasible(form, point, doc["eps"]):
            return f"not eps-feasible ({doc['status']})"
        return None

    return Op(f"cli solve {path.name}", run, check)


def build_flagship(seed: int, expected: dict) -> list[Op]:
    ops = [_flagship_op(n, s) for n, s in FLAGSHIP_CASES]
    ops += [_cli_op(path) for path in sorted(PROBLEMS.glob("*.json")) if path.name not in PAPER_FILES]
    return _permuted(ops, seed)


def readme_compositions() -> list[forms.SaddleForm]:
    """The algebra compositions of the README, built on a trivial convex square."""
    sq = catalog.trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=True)
    root = algebra.power(sq, 0.5)
    return [root, algebra.product(root, sq), algebra.scaled_sum(root, sq, 1.0, 2.0)]


# ---------------------------------------------------------------------------
# audit: structure validation, grid-oracle identity audits, the registry sweep


def grid_auditable(form: forms.SaddleForm) -> bool:
    part = form.partition
    return form.reference is not None and part.m1 + part.m2 <= 4


def audit_pool(form: forms.SaddleForm) -> np.ndarray:
    return form.sample_x(np.random.default_rng(AUDIT_POOL_SEED), AUDIT_POOL)


def audit_grid(form: forms.SaddleForm) -> audit.GridSpec:
    part = form.partition
    return audit.GridSpec(resolution=AUDIT_RESOLUTION[part.m1 + part.m2])


def identity_class(form: forms.SaddleForm, x) -> str:
    return audit.identity_audit(form, [x], audit_grid(form), tol=audit.SWEEP_TOL).classification


def validate_failures(form: forms.SaddleForm) -> list[str]:
    return [it.label for it in forms.validate_form(form).failures()]


def _expect(want) -> Callable[[object], str | None]:
    def check(got):
        if got == want:
            return None
        if isinstance(got, dict) and isinstance(want, dict):  # the registry: name the entries
            keys = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            return f"differs from the expected result at {keys}"
        return f"got {got!r}, expected {want!r}"

    return check


def build_audit(seed: int, expected: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    suite = catalog.default_suite()
    registry = audit.load_registry()
    ops = []
    for form in suite + readme_compositions():
        ops.append(
            Op(
                f"validate {form.name}",
                lambda f=form: validate_failures(f),
                _expect(expected["validate"][form.name]),
            )
        )
        if not grid_auditable(form):
            continue
        pool = audit_pool(form)
        for i in sorted(rng.choice(AUDIT_POOL, AUDIT_PICK, replace=False)):
            ops.append(
                Op(
                    f"identity {form.name} #{i}",
                    lambda f=form, x=pool[i]: identity_class(f, x),
                    _expect(expected["identity"][form.name][i]),
                )
            )
    ops.append(Op("registry sweep", lambda: audit.registry_sweep(suite), _expect(registry)))
    return _permuted(ops, seed)


BUILDERS = {"flagship": build_flagship, "audit": build_audit}


def load_expected() -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)

