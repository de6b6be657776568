"""Outside-in per-layer tracing of the saddlelift package.

The benchmark never edits the package.  A traced run replaces the public
functions of each layer with timing wrappers, wherever the name is looked up
(a module attribute, or a name imported into another module), and puts the
originals back afterwards.  Every call records one span; a span's self time
is its duration minus the time covered by the spans it caused.

Spans are aggregated per traced function (calls, self time, total time) as
they end instead of being stored one by one: one flagship pass makes about
600,000 ``Expr.value`` calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

import saddlelift
from saddlelift import algebra, audit, catalog, cli, expr, forms, penalty, solver

MODULES = (saddlelift, expr, forms, catalog, algebra, penalty, solver, audit, cli)

# (key, module owning the function, function name, modules whose binding of
# the name is replaced); None means every package module that binds it.
TARGETS = (
    ("forms.membership", forms, "membership", None),
    ("forms.witness_eval", forms, "witness_eval", None),
    ("forms.validate_form", forms, "validate_form", None),
    ("catalog.make_catalog_form", catalog, "make_catalog_form", None),
    ("catalog.make_structured", catalog, "make_structured", None),
    ("catalog.default_suite", catalog, "default_suite", None),
    ("algebra.power", algebra, "power", None),
    ("algebra.product", algebra, "product", None),
    ("algebra.scaled_sum", algebra, "scaled_sum", None),
    # the penalty layer as the solver sees it
    ("penalty.grad", penalty, "penalty_f_theta", (solver,)),
    ("penalty.grad", penalty, "penalty_g_theta", (solver,)),
    ("penalty.value", penalty, "penalty_f_theta_value", (solver,)),
    ("penalty.value", penalty, "penalty_g_theta_value", (solver,)),
    ("penalty.exact", penalty, "penalty_f", (solver,)),
    ("penalty.exact", penalty, "penalty_g", (solver,)),
    ("penalty.exact", penalty, "total_violation", (solver,)),
    ("penalty.exact", penalty, "eps_feasible", (solver,)),
    ("solver.solve", solver, "alternating_penalty_solve", None),
    ("solver.inner", solver, "inner_minimize", (solver,)),
    ("audit.grid_scan", audit, "_grid_scan", (audit,)),
    ("audit.grid_minmax", audit, "grid_minmax", None),
    ("audit.identity_audit", audit, "identity_audit", None),
    ("audit.registry_sweep", audit, "registry_sweep", None),
    ("cli.load_problem", cli, "load_problem_file", (cli,)),
    ("cli.solve", cli, "cmd_solve", (cli,)),
)

EXPR_METHODS = (
    ("expr.value", "value"),
    ("expr.value_grad", "value_grad"),
    ("expr.value_batch", "value_batch"),
)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)  # work counters read from arguments/results
        self._stack = [0.0]  # time covered by child spans, one entry per open span
        self._restore = []

    def take_self_s(self) -> dict:
        """Self time per function so far; then start counting afresh."""
        taken = dict(self.self_s)
        for d in (self.calls, self.self_s, self.total_s, self.counts):
            d.clear()
        return taken

    def _wrap(self, key, fn, after=None):
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[key] += 1
                self_s[key] += dt - child
                total_s[key] += dt
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hooks(self):
        counts = self.counts

        def batch(args, out):
            counts["expr.value_batch.points"] += int(out.size)

        def grid(args, out):
            form, grid_spec = args[0], args[2]
            part = form.partition
            counts["audit.grid_points"] += grid_spec.resolution ** (part.m1 + part.m2)

        def inner(args, out):
            counts["solver.inner.iters"] += out.iterations
            counts["solver.inner.converged"] += int(out.converged)

        def solve(args, out):
            counts["solver.outer_iters"] += len(out.trace)

        return {
            "expr.value_batch": batch,
            "audit.grid_scan": grid,
            "solver.inner": inner,
            "solver.solve": solve,
        }

    def __enter__(self):
        hooks = self._after_hooks()
        for key, name in EXPR_METHODS:
            orig = getattr(expr.Expr, name)
            setattr(expr.Expr, name, self._wrap(key, orig, hooks.get(key)))
            self._restore.append((expr.Expr, name, orig))
        for key, owner, name, where in TARGETS:
            orig = getattr(owner, name)
            wrapped = self._wrap(key, orig, hooks.get(key))
            for mod in where or MODULES:
                if vars(mod).get(name) is orig:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, orig))
        return self

    def __exit__(self, *exc):
        for target, name, orig in reversed(self._restore):
            setattr(target, name, orig)
        self._restore.clear()
        return False


LAYERS = ("expr", "forms", "catalog", "algebra", "penalty", "solver", "audit", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, setup_self_s: dict) -> dict:
    """Per-layer metric values (unit attached by the caller) from one traced
    pass of ``traced_wall`` seconds.  The catalog and algebra layers also
    count their self time in the traced set-up, ``setup_self_s``."""
    c, s, t, n = tr.calls, tr.self_s, tr.total_s, tr.counts

    def build_s(layer):
        return sum(v for d in (setup_self_s, s) for k, v in d.items() if k.startswith(layer))

    m = {
        "expr.value.calls": c["expr.value"],
        "expr.value.self_s": s["expr.value"],
        "expr.value_grad.calls": c["expr.value_grad"],
        "expr.value_grad.self_s": s["expr.value_grad"],
        "expr.value_batch.calls": c["expr.value_batch"],
        "expr.value_batch.points": n["expr.value_batch.points"],
        "expr.value_batch.self_s": s["expr.value_batch"],
        "forms.membership.calls": c["forms.membership"],
        "forms.membership.self_s": s["forms.membership"],
        "forms.witness_eval.calls": c["forms.witness_eval"],
        "forms.witness_eval.self_s": s["forms.witness_eval"],
        "forms.validate_form.self_s": s["forms.validate_form"],
        "catalog.build_s": build_s("catalog."),
        "algebra.build_s": build_s("algebra."),
        "penalty.grad.calls": c["penalty.grad"],
        "penalty.grad.self_s": s["penalty.grad"],
        "penalty.value.calls": c["penalty.value"],
        "penalty.value.self_s": s["penalty.value"],
        "penalty.exact.calls": c["penalty.exact"],
        "penalty.exact.self_s": s["penalty.exact"],
        "solver.outer_iters": n["solver.outer_iters"],
        "solver.inner.calls": c["solver.inner"],
        "solver.inner.iters": n["solver.inner.iters"],
        "solver.inner.self_s": s["solver.inner"],
        "solver.inner.converged_share": _ratio(n["solver.inner.converged"], c["solver.inner"]),
        "solver.trials_per_grad": _ratio(c["penalty.value"], c["penalty.grad"]),
        "audit.grid_scan.calls": c["audit.grid_scan"],
        "audit.grid_points": n["audit.grid_points"],
        "audit.grid_scan.self_s": s["audit.grid_scan"],
        "audit.grid_points_per_s": _ratio(n["audit.grid_points"], t["audit.grid_scan"]),
        "audit.identity_audit.self_s": s["audit.identity_audit"],
        "audit.registry_sweep.s": t["audit.registry_sweep"],
        "cli.load_problem.self_s": s["cli.load_problem"],
        "cli.solve.calls": c["cli.solve"],
    }
    layer_self = defaultdict(float)
    for key, v in s.items():
        layer_self[key.split(".", 1)[0]] += v
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], traced_wall)
    m["bench.self_share"] = _ratio(traced_wall - sum(layer_self.values()), traced_wall)
    m["trace.wall_s"] = traced_wall
    return m
