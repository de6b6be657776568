"""The grid oracle and the curvature audit evaluate in bulk.  The grid scan
makes one batch call per component per chunk of at most ``audit._CHUNK``
points, on an open grid: whole y slices while a slice fits in a chunk, else
blocks of a slice's leading z axes.  The chunk's rows are one broadcast
dimension and each remaining z axis is one more, holding only that axis's
points, so no z mesh is built.  The curvature
audit draws and evaluates its first ``samples`` attempts in one batch call
(the others in one more, only after a skip) and tests their blends with
numpy.  Both must give, bit for bit, what the earlier loops gave: the grid
scan one y slice at a time over a dense z mesh, the curvature audit five
scalar evaluations and a blend test per sample pair.  Test-local copies of
those loops are the reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlelift import audit
from saddlelift import expr as ex
from saddlelift.audit import GridSpec, _default_bounds, _grid_scan
from saddlelift.catalog import make_catalog_form, trivial_convex
from saddlelift.forms import D2_TOL, Box, FormError, SaddleForm, VarPartition, witness_eval
from test_kernels import FORMS


# -- references: the loops the bulk evaluation replaced


def _ref_map_point(form, x):
    """The witness map's point at ``x``, or None without a map or where it
    raises: what places a default grid."""
    try:
        return witness_eval(form, x, check=False).vec
    except (ex.ExprError, FormError):
        return None


def _ref_grid_scan(form, x, grid):
    """One y slice at a time, its z mesh in chunks of audit._CHUNK points."""
    part = form.partition
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if form.box.slice(range(part.n)).excess(x) > D2_TOL:
        return math.inf, None
    bounds = list(grid.bounds) if grid.bounds is not None else _default_bounds(form, _ref_map_point(form, x))
    axes = [np.linspace(lo, hi, grid.resolution) for lo, hi in bounds]
    y_axes, z_axes = axes[: part.m1], axes[part.m1 :]
    if z_axes:
        zgrid = np.stack([m.ravel() for m in np.meshgrid(*z_axes, indexing="ij")])
    else:
        zgrid = np.zeros((0, 1))
    nz = zgrid.shape[1]
    best_val, best_point = math.inf, None
    for ycombo in itertools.product(*y_axes) if y_axes else [()]:
        inner_max, inner_arg = -math.inf, None
        for s in range(0, nz, audit._CHUNK):
            cols = zgrid[:, s : s + audit._CHUNK]
            width = cols.shape[1]
            pts = np.empty((part.total, width))
            pts[: part.n] = x[:, None]
            for j, yv in enumerate(ycombo):
                pts[part.n + j] = yv
            pts[part.n + part.m1 :] = cols
            feas = np.ones(width, dtype=bool)
            for gi in form.ineq:
                vals = gi.value_batch(pts)
                feas &= ~np.isnan(vals) & (vals <= D2_TOL)
            for hj in form.eq:  # no early exit: it changes no result
                vals = hj.value_batch(pts)
                feas &= ~np.isnan(vals) & (np.abs(vals) <= D2_TOL)
            if not feas.any():
                continue
            gvals = form.g.value_batch(pts)
            gvals = np.where(np.isnan(gvals), -math.inf, gvals)
            gvals[~feas] = -math.inf
            j = int(np.argmax(gvals))
            if gvals[j] > inner_max:
                inner_max = float(gvals[j])
                inner_arg = pts[:, j].copy()
        if inner_arg is not None and inner_max < best_val:
            best_val, best_point = inner_max, inner_arg
    return best_val, best_point


def _ref_curvature_audit(e, lower, upper, tag, samples, seed, axes=None, tol=1e-9):
    """Five scalar evaluations per attempt; a domain error skips the pair."""
    lo, hi = ex.sample_window(np.asarray(lower, float), np.asarray(upper, float))
    rng = np.random.default_rng(seed)
    axes = list(range(lo.size)) if axes is None else list(axes)
    checked = attempts = 0
    while checked < samples and attempts < samples * 20:
        attempts += 1
        base = rng.uniform(lo, hi)
        u, v = base.copy(), base.copy()
        u[axes] = rng.uniform(lo[axes], hi[axes])
        v[axes] = rng.uniform(lo[axes], hi[axes])
        try:
            fu, fv = e.value(u), e.value(v)
            for t in (0.25, 0.5, 0.75):
                fm = e.value(t * u + (1.0 - t) * v)
                blend = t * fu + (1.0 - t) * fv
                if (
                    (tag == ex.CONVEX and fm > blend + tol)
                    or (tag == ex.CONCAVE and fm < blend - tol)
                    or (tag == ex.AFFINE and abs(fm - blend) > tol)
                ):
                    return ex.CurvatureReport(tag, False, checked, (u, v, t))
        except ex.DomainEvalError:
            continue
        checked += 1
    if checked == 0:
        raise ex.DomainEvalError("no in-domain sample pairs found for audit", e)
    return ex.CurvatureReport(tag, True, checked)


# -- comparison


def _bits(value, point):
    return np.float64(value).tobytes(), None if point is None else (point.shape, point.tobytes())


def _curvature_outcome(fn, *args, **kw):
    try:
        rep = fn(*args, **kw)
    except ex.DomainEvalError:
        return ex.DomainEvalError
    ce = rep.counterexample
    return rep.tag, rep.passed, rep.pairs_checked, None if ce is None else (ce[0].tobytes(), ce[1].tobytes(), ce[2])


# -- grid scan


def _form(name, part, g, ineq=(), eq=(), lo=-2.0, hi=2.0):
    box = Box((lo,) * part.total, (hi,) * part.total)
    return SaddleForm(name, part, box, g, ineq=ineq, eq=eq)


def _grid_cases():
    y, z = ex.var(1), ex.var(2)
    z3 = [ex.var(i) for i in (1, 2, 3)]  # the z axes of an m1 = 0 form
    zy3 = [ex.var(i) for i in (2, 3, 4)]  # and of an m1 = 1 form
    p11 = VarPartition(1, 1, 1)
    cases = [
        # suite forms of every shape: m1 = 0 (dc, bilinear2_a, cos_0_2pi) and up to 4 axes
        *((make_catalog_form(n), None, 7) for n in ("dc", "abs_power", "bilinear2_a", "pow_a_plus_1")),
        (make_catalog_form("cos_0_2pi"), None, 5),
        (make_catalog_form("relu_a"), None, 5),
        (make_catalog_form("sin_0_2pi"), None, 7),
        # m2 = 0: each y slice is one point
        (_form("m2_zero", VarPartition(1, 1, 0), ex.square(y - ex.var(0)), ineq=(y - 1.0,)), None, 9),
        (trivial_convex(ex.square(ex.var(0)), 1, "sq"), None, 5),
        # an equality and an inequality
        (_form("eq", p11, y - ex.square(z), ineq=(y - 1.0,), eq=(z - y,)), None, 9),
        # NaN g: at y <= 0 the whole slice, at z <= 0 part of it
        (_form("nan_y", p11, ex.log(y) - ex.square(z - ex.var(0))), None, 9),
        (_form("nan_z", p11, ex.square(y) + ex.log(z)), None, 9),
        # x^2 = 25 needs z >= 25: no feasible grid point
        (make_catalog_form("abs_power"), ((0.0, 1.0), (0.0, 1.0)), 11),
        # three z axes, each subexpression on one or two of them: m1 = 0 with
        # an equality (feasible on the z0 = z1 diagonal) and NaN g at z2 <= 0,
        # and m1 = 1 with a constraint coupling y and z0
        (
            _form(
                "z3_eq",
                VarPartition(1, 0, 3),
                ex.sin(z3[1]) + ex.log(z3[2]) - ex.square(z3[0] - ex.var(0)),
                ineq=(ex.square(z3[1]) + ex.square(z3[2]) - 2.0,),
                eq=(z3[0] - z3[1],),
            ),
            None,
            9,
        ),
        (
            _form(
                "y1_z3",
                VarPartition(1, 1, 3),
                ex.square(y - ex.var(0)) - ex.square(zy3[0]) + zy3[1] - ex.exp(zy3[2]),
                ineq=(y + zy3[0] - 1.0, ex.square(zy3[2]) - 1.0),
            ),
            None,
            7,
        ),
    ]
    return {form.name + ("/bounded" if b else ""): (form, b, res) for form, b, res in cases}


GRID_CASES = _grid_cases()


@pytest.mark.parametrize("chunk", [1, 7, 40, audit._CHUNK])
@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_scan_matches_per_slice_scan(name, chunk, monkeypatch):
    # chunk 7 holds several slices of a 1-axis z mesh and splits the 2-axis
    # ones (Nz > _CHUNK) in the reference; chunk 1 is one slice per call
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    form, bounds, res = GRID_CASES[name]
    grid = GridSpec(resolution=res, bounds=bounds)
    rng = np.random.default_rng(3)
    xs = form.sample_x(rng, 3) if name != "abs_power/bounded" else [np.array([5.0])]
    batch = _Counter(monkeypatch, "value_batch")
    results = []
    for x in xs:
        got = _grid_scan(form, x, grid)
        assert max(batch.sizes) <= chunk  # no batch call outgrows the chunk
        want = _ref_grid_scan(form, x, grid)
        assert _bits(*got) == _bits(*want), x
        results.append(got)
    if name == "abs_power/bounded":
        assert results == [(math.inf, None)]
    else:
        assert any(p is not None for _, p in results)


# -- curvature audit


def _domain_cases():
    x = ex.var(0)
    return {
        "log_half_window": (ex.log(x), [-1.0], [1.0]),  # some pairs outside the domain
        "log_outside": (ex.log(x), [-2.0], [-1.0]),  # every pair outside: raises
        "log_ring": (ex.log(ex.square(x) - 1.0), [-3.0], [3.0]),  # mids leave the domain
        "sqrt_half_window": (ex.rpow(x, 0.5), [-1.0], [1.0]),
    }


CURVATURE_CASES = {**FORMS, **_domain_cases()}


@pytest.mark.parametrize("name", sorted(CURVATURE_CASES))
def test_curvature_audit_matches_pairwise_loop(name):
    case = CURVATURE_CASES[name]
    if isinstance(case, SaddleForm):
        lo, hi = case.effective_window()
        part = case.partition
        exprs = [e for _, e in case.components()]
        axis_sets = (None, list(range(part.total)[part.xy]), list(range(part.total)[part.z]))
    else:
        e, lo, hi = case
        exprs, axis_sets = [e], (None,)
    outcomes = []
    for e in exprs:
        for tag in (ex.CONVEX, ex.CONCAVE, ex.AFFINE):
            for axes in axis_sets:
                for seed in (0, 1):
                    args = (e, lo, hi)
                    kw = dict(tag=tag, samples=20, seed=seed, axes=axes)
                    got = _curvature_outcome(ex.curvature_audit, *args, **kw)
                    assert got == _curvature_outcome(_ref_curvature_audit, *args, **kw), (tag, axes, seed)
                    outcomes.append(got)
    if name == "log_outside":
        assert set(outcomes) == {ex.DomainEvalError}


def test_curvature_audit_skips_nan_values():
    # inf - inf: NaN without a domain error; such a pair confirms nothing
    e = ex.ipow(ex.var(0), 2) - ex.ipow(ex.var(0), 2)
    with np.errstate(over="ignore"), pytest.raises(ex.DomainEvalError):
        ex.curvature_audit(e, [1e200], [1e200], tag=ex.CONVEX, samples=5)


# -- call counts


class _Counter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        self.sizes = []  # points per batch call: the size of the rows' broadcast shape
        method = getattr(ex.Expr, name)

        def counted(expr, *args, **kw):
            self.calls += 1
            self.sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, args[0]))))
            return method(expr, *args, **kw)

        monkeypatch.setattr(ex.Expr, name, counted)


def _leading_z(res, m2, chunk):
    """How many leading z axes a chunk takes blocks of: none while a y
    slice's z grid fits in a chunk, else the fewest that make the rest fit."""
    lead = 0
    while res ** (m2 - lead) > chunk:
        lead += 1
    return lead


def _chunk_count(res, m1, m2, chunk):
    """Chunks of a scan: whole y slices per chunk, or blocks of one slice."""
    lead = _leading_z(res, m2, chunk)
    rows = chunk // res ** (m2 - lead)
    return -(-(res**m1) // rows) if lead == 0 else res**m1 * -(-(res**lead) // rows)


@pytest.mark.parametrize("chunk", [1, 7, 40, audit._CHUNK])
@pytest.mark.parametrize("name", ["eq", "relu_a", "nan_y", "m2_zero"])
def test_grid_scan_batch_calls_per_chunk(name, chunk, monkeypatch):
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    form, bounds, res = GRID_CASES[name]
    part = form.partition
    bound = (len(form.ineq) + len(form.eq) + 1) * _chunk_count(res, part.m1, part.m2, chunk)
    batch = _Counter(monkeypatch, "value_batch")
    for x in form.sample_x(np.random.default_rng(3), 3):
        batch.calls = 0
        _grid_scan(form, x, GridSpec(resolution=res, bounds=bounds))
        assert 0 < batch.calls <= bound
    assert max(batch.sizes) <= chunk


def test_no_batch_call_outgrows_a_small_chunk(monkeypatch):
    # a y slice's z grid larger than the chunk is scanned in blocks of its
    # leading z axes: cos_0_2pi (m2 = 4) made one call over its whole 11^4
    # grid, 14,641 points, however small the chunk
    monkeypatch.setattr(audit, "_CHUNK", 100)
    form, grid = make_catalog_form("cos_0_2pi"), GridSpec(resolution=11)
    batch = _Counter(monkeypatch, "value_batch")
    for x in form.sample_x(np.random.default_rng(4), 2):
        got = _grid_scan(form, x, grid)
        assert max(batch.sizes) <= 100
        assert _bits(*got) == _bits(*_ref_grid_scan(form, x, grid))


@pytest.mark.parametrize("chunk, calls", [(1, 2 * 9), (4, 2 * 3), (audit._CHUNK, 2)])
def test_grid_scan_without_early_exit_makes_every_call(chunk, calls, monkeypatch):
    # every point feasible: each chunk of whole slices evaluates g1 and g once
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    form, _, res = GRID_CASES["m2_zero"]
    form = SaddleForm("loose", form.partition, form.box, form.g, ineq=(ex.var(1) - 5.0,))
    batch = _Counter(monkeypatch, "value_batch")
    _grid_scan(form, [0.5], GridSpec(resolution=res))
    assert batch.calls == calls


def _root(a):
    while a.base is not None:
        a = a.base
    return a


def test_grid_scan_arrays_stay_within_a_chunk(monkeypatch):
    # m1 = 3, m2 = 1 at resolution 11: 1331 y slices of 11 points.  Every
    # array a batch call sees, and the array it views, holds at most a
    # chunk's points, never one per y slice of the whole grid
    monkeypatch.setattr(audit, "_CHUNK", 40)
    part = VarPartition(1, 3, 1)
    y = [ex.var(i) for i in range(1, 5)]
    form = _form("wide_y", part, y[0] + y[1] + y[2] - ex.square(y[3]))
    batch = []
    method = ex.Expr.value_batch
    monkeypatch.setattr(ex.Expr, "value_batch", lambda e, pts: batch.append(pts) or method(e, pts))
    value, point = _grid_scan(form, [0.5], GridSpec(resolution=11))
    assert len(batch) == -(-11**3 // 3)
    assert max(_root(np.asarray(a)).size for pts in batch for a in pts) <= 40
    assert _bits(value, point) == _bits(*_ref_grid_scan(form, np.array([0.5]), GridSpec(resolution=11)))


@pytest.mark.parametrize("chunk", [1, 7, 40, audit._CHUNK])
@pytest.mark.parametrize("name", ["z3_eq", "y1_z3", "relu_a", "cos_0_2pi", "eq"])
def test_grid_scan_z_axes_are_open(name, chunk, monkeypatch):
    # every z axis a chunk takes whole is an array of that axis's
    # `resolution` points, and so is the array it views: no z mesh is
    # built.  Where a y slice outgrows the chunk, its leading z axes are
    # blocks of at most a chunk's points along dimension 0
    monkeypatch.setattr(audit, "_CHUNK", chunk)
    form, bounds, res = GRID_CASES[name]
    part = form.partition
    lead = _leading_z(res, part.m2, chunk)
    batch = []
    method = ex.Expr.value_batch
    monkeypatch.setattr(ex.Expr, "value_batch", lambda e, pts: batch.append(pts) or method(e, pts))
    for x in form.sample_x(np.random.default_rng(3), 3):
        _grid_scan(form, x, GridSpec(resolution=res, bounds=bounds))
    assert batch
    for pts in batch:
        zs = pts[part.n + part.m1 :]
        assert len(zs) == part.m2
        for j, a in enumerate(zs):
            size = _root(np.asarray(a)).size
            if j < lead:
                assert np.shape(a) == (size,) + (1,) * (part.m2 - lead) and size <= chunk
            else:
                assert np.shape(a)[1 + j - lead] == np.size(a) == size == res


def test_curvature_audit_is_one_batch_call(monkeypatch):
    batch = _Counter(monkeypatch, "value_batch")
    scalar = _Counter(monkeypatch, "value")
    for form in FORMS.values():
        lo, hi = form.effective_window()
        for _, e in form.components():
            before = batch.calls
            try:
                ex.curvature_audit(e, lo, hi, tag=ex.CONVEX, samples=10)
            except ex.DomainEvalError:
                pass
            assert batch.calls == before + 1
            assert batch.sizes[-1] == 5 * 10
    assert scalar.calls == 0


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("log_half_window", [5 * 10, 5 * 190]),
        ("log_outside", [5 * 10, 5 * 190]),
        ("log_ring", [5 * 10]),  # a counterexample among the first attempts
        ("sqrt_half_window", [5 * 10, 5 * 190]),
    ],
)
def test_curvature_audit_evaluates_further_attempts_only_after_a_skip(name, sizes, monkeypatch):
    # the first call holds the first `samples` attempts; a skipped pair there
    # brings the other 19*samples in one more call
    e, lo, hi = CURVATURE_CASES[name]
    batch = _Counter(monkeypatch, "value_batch")
    try:
        ex.curvature_audit(e, lo, hi, tag=ex.CONCAVE, samples=10)
    except ex.DomainEvalError:
        pass
    assert batch.sizes == sizes


# sin(x0) + log(x1), varied along x0 alone: a pair is skipped where the
# shared x1 is <= 0 and breaks convexity where sin is concave
_WAVE = (ex.sin(ex.var(0)) + ex.log(ex.var(1)), [0.0, -1.0], [2 * math.pi, 3.0])


@pytest.mark.parametrize(
    "seed, report",
    [
        # a skip among the first 3 attempts, an ok pair in the second call
        # makes 3 checked, and the violation right after it comes too late
        (117, (True, 3)),
        # two skips among the first 3, an ok pair, then a violation with 2
        # pairs checked: the last attempt that still counts
        (10, (False, 2)),
    ],
)
def test_curvature_audit_counts_attempts_until_samples_pairs(seed, report, monkeypatch):
    e, lo, hi = _WAVE
    kw = dict(tag=ex.CONVEX, samples=3, seed=seed, axes=[0])
    batch = _Counter(monkeypatch, "value_batch")
    got = ex.curvature_audit(e, lo, hi, **kw)
    assert batch.sizes == [5 * 3, 5 * 57]  # the skip brings the other attempts
    assert (got.passed, got.pairs_checked) == report
    assert _curvature_outcome(ex.curvature_audit, e, lo, hi, **kw) == _curvature_outcome(
        _ref_curvature_audit, e, lo, hi, **kw
    )
    if got.passed:  # one more sample reaches the violation
        more = ex.curvature_audit(e, lo, hi, **{**kw, "samples": 4})
        assert (more.passed, more.pairs_checked) == (False, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_domain_cases()) + ["wave"]),
    tag=st.sampled_from([ex.CONVEX, ex.CONCAVE, ex.AFFINE]),
    samples=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_audit_matches_pairwise_loop_property(name, tag, samples, seed):
    e, lo, hi = _WAVE if name == "wave" else CURVATURE_CASES[name]
    kw = dict(tag=tag, samples=samples, seed=seed, axes=[0] if name == "wave" else None)
    got = _curvature_outcome(ex.curvature_audit, e, lo, hi, **kw)
    assert got == _curvature_outcome(_ref_curvature_audit, e, lo, hi, **kw)
