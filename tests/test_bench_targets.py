"""The benchmark's per-layer tracer still finds every function it wraps.

``bench/tracing.py`` replaces public functions by name, wherever a module
binds them.  A rename or a changed import would leave a traced metric
silently at zero; this test makes it fail instead.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from saddlelift import expr as ex
from saddlelift.audit import CLASS_D2_ONLY, GridSpec, identity_audit
from saddlelift.catalog import make_catalog_form
from saddlelift.solver import SolverParams, alternating_penalty_solve

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_a_binding_of_every_target(tracing):
    methods = [(key, name, getattr(ex.Expr, name)) for key, name in tracing.EXPR_METHODS]
    targets = [
        (key, name, getattr(owner, name), where or tracing.MODULES)
        for key, owner, name, where in tracing.TARGETS
    ]
    traced = []
    with tracing.Tracer():
        for key, name, orig in methods:
            assert getattr(ex.Expr, name).__wrapped__ is orig, key
        for key, name, orig, where in targets:
            mods = [m for m in where if getattr(vars(m).get(name), "__wrapped__", None) is orig]
            assert mods, f"{key}: no module binding of {name} was traced"
            traced.extend((m, name, orig) for m in mods)
    # and the originals are back
    assert all(getattr(ex.Expr, name) is orig for _, name, orig in methods)
    assert all(vars(m)[name] is orig for m, name, orig in traced)


def test_tracer_counts_every_penalty_trial(tracing):
    # Counts recorded for this solve since the z block of a separable form
    # is solved exactly; every trial goes through the traced entry points.
    # A fast path that bypasses the names the tracer wraps would zero these
    # counters in the benchmark; here it fails instead.  The form splits in
    # z, so each outer step makes one inner solve, over (x, y), and its z
    # solve reads G_theta twice through the traced value entry point.
    form = make_catalog_form("maxabs_minus_sum", n=2)
    start = np.concatenate([np.arange(1.0, 6.0), -1000.0 * np.arange(1, 3)])
    with tracing.Tracer() as tracer:
        res = alternating_penalty_solve(form, SolverParams(max_outer=4), start=start)
    assert res.converged and len(res.trace) == 2
    assert tracer.calls["solver.inner"] == len(res.trace)
    assert tracer.calls["penalty.value"] == 1120
    assert tracer.calls["penalty.grad"] == 138
    assert tracer.counts["solver.inner.iters"] == 139


def test_tracer_counts_every_grid_evaluation(tracing):
    # Counts recorded for this audit while the grid scan still evaluated a
    # dense (dim, N) point array.  On the open grid each batch output keeps
    # the full broadcast shape, so calls and points read the same.
    form = make_catalog_form("pow_a_2n")
    xs = form.sample_x(np.random.default_rng(0), 3)  # no grid point is feasible at the first
    with tracing.Tracer() as tracer:
        report = identity_audit(form, xs, GridSpec(resolution=13))
    assert report.classification == CLASS_D2_ONLY
    assert tracer.calls["audit.grid_scan"] == 3
    assert tracer.calls["expr.value_batch"] == 14
    assert tracer.counts["expr.value_batch.points"] == 399854
    assert tracer.counts["audit.grid_points"] == 85683


def test_tracer_counts_the_open_z_grid_in_full(tracing, monkeypatch):
    # cos_0_2pi has four z axes, each its own broadcast dimension of the open
    # grid.  A batch output still has the shape of the whole (y, z) grid, so
    # the counted points are the broadcast sizes and the grid points are
    # resolution**4 per sample; the counts are those of the dense z mesh.
    form = make_catalog_form("cos_0_2pi")
    assert (form.partition.m1, form.partition.m2) == (0, 4)
    xs = form.sample_x(np.random.default_rng(0), 3)
    sizes = []
    method = ex.Expr.value_batch

    def sized(e, pts):
        sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, pts))))
        return method(e, pts)

    monkeypatch.setattr(ex.Expr, "value_batch", sized)
    with tracing.Tracer() as tracer:
        report = identity_audit(form, xs, GridSpec(resolution=5))
    assert report.classification == CLASS_D2_ONLY
    assert tracer.calls["audit.grid_scan"] == 3
    assert tracer.counts["audit.grid_points"] == 3 * 5**4
    assert tracer.calls["expr.value_batch"] == len(sizes) == 15
    assert sizes == [5**4] * 15
    assert tracer.counts["expr.value_batch.points"] == sum(sizes) == 9375
