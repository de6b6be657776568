"""Penalty functions: exact values, smoothed gradients, feasibility test."""

import math

import numpy as np
import pytest

import saddlelift.penalty as pe
from saddlelift import expr as ex
from saddlelift.catalog import make_catalog_form
from saddlelift.forms import (
    Box,
    FormError,
    SaddleForm,
    SaddlePoint,
    VarPartition,
    membership,
    witness_eval,
)
from test_kernels import FORMS


@pytest.fixture(scope="module")
def f41():
    return make_catalog_form("abs_power")


def _pt(form, vals):
    return SaddlePoint(form.partition, np.asarray(vals, dtype=float))


def test_penalties_vanish_at_feasible_origin(f41):
    p = _pt(f41, [0, 0, 0])
    assert pe.penalty_f(f41, p, 10.0) == 0.0
    assert pe.penalty_g(f41, p, 10.0) == 0.0


def test_penalty_values_at_violated_point(f41):
    # g = 3, violations (1, 1, 0):  F = 3 + 10*2 = 23,  G = -3 + 20 = 17
    p = _pt(f41, [1, 1, 0])
    assert pe.penalty_f(f41, p, 10.0) == 23.0
    assert pe.penalty_g(f41, p, 10.0) == 17.0
    assert pe.penalty_g2(f41, p, 10.0)[0] == 17.0


def test_feasible_point_gives_plain_g(f41):
    p = _pt(f41, [2.0, 1.0, 4.0])  # exactly representable, strictly feasible
    g = f41.g.value(p.vec)
    assert pe.penalty_f(f41, p, 7.0) == pytest.approx(g)
    assert pe.penalty_g(f41, p, 7.0) == pytest.approx(-g)
    assert pe.penalty_g2(f41, p, 7.0)[0] == pytest.approx(-g)
    v, grad = pe.penalty_f_theta(f41, p, 7.0, 1.5)
    _, ggrad = f41.g.value_grad(p.vec)
    assert v == pytest.approx(g)
    np.testing.assert_allclose(grad, ggrad)


def test_smoothed_value_at_unit_violations(f41):
    # violations are exactly 1, and 1**theta = 1
    p = _pt(f41, [1, 1, 0])
    v, _ = pe.penalty_f_theta(f41, p, 10.0, 1.01)
    assert v == pytest.approx(23.0)


def test_theta_must_exceed_one(f41):
    p = _pt(f41, [1, 1, 0])
    with pytest.raises(ValueError):
        pe.penalty_f_theta(f41, p, 10.0, 1.0)


def _fd_penalty(fun, form, p, step=1e-6):
    base = p.vec.copy()
    g = np.zeros(base.size)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (
            fun(SaddlePoint(form.partition, hi)) - fun(SaddlePoint(form.partition, lo))
        ) / (2 * step)
    return g


def test_smoothed_gradients_match_finite_differences(f41):
    # 50 random points with every violation bounded away from the crossing
    rng = np.random.default_rng(7)
    rho, theta = 3.0, 1.3
    count = 0
    while count < 50:
        p = _pt(f41, rng.uniform([-2, 0, 0], [2, 2, 4]))
        vals = [gi.value(p.vec) for gi in f41.ineq]
        if any(abs(v) < 1e-8 for v in vals):
            continue
        count += 1
        _, grad = pe.penalty_f_theta(f41, p, rho, theta)
        fd = _fd_penalty(lambda q: pe.penalty_f_theta_value(f41, q, rho, theta), f41, p)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
        _, grad2 = pe.penalty_g2(f41, p, rho)
        fd2 = _fd_penalty(lambda q: pe.penalty_g2(f41, q, rho)[0], f41, p)
        np.testing.assert_allclose(grad2, fd2, rtol=1e-5, atol=1e-7)


def test_f_plus_g_is_twice_rho_violation(f41):
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = _pt(f41, rng.uniform(-3, 3, size=3))
        rho = rng.uniform(0.1, 50)
        total = pe.penalty_f(f41, p, rho) + pe.penalty_g(f41, p, rho)
        assert total == pytest.approx(2 * rho * pe.total_violation(f41, p), rel=1e-12)
        assert total >= -1e-12


def test_penalty_monotone_in_rho(f41):
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = _pt(f41, rng.uniform(-3, 3, size=3))
        assert pe.penalty_f(f41, p, 20.0) >= pe.penalty_f(f41, p, 2.0) - 1e-12


def test_theta_near_one_consistency(f41):
    rng = np.random.default_rng(10)
    theta = 1.001
    for _ in range(30):
        p = _pt(f41, rng.uniform(-3, 3, size=3))
        rho = 5.0
        exact = pe.penalty_f(f41, p, rho)
        smooth = pe.penalty_f_theta_value(f41, p, rho, theta)
        viols = [max(gi.value(p.vec), 0.0) for gi in f41.ineq]
        bound = rho * sum(abs(v**theta - v) for v in viols)
        assert abs(smooth - exact) <= bound + 1e-12


def test_g2_convex_in_z_block(f41):
    # midpoint convexity of G2 over the z block at sampled (x, y)
    rng = np.random.default_rng(11)
    for _ in range(50):
        xy = rng.uniform([-2, 0], [2, 2])
        za, zb = rng.uniform(0, 5, size=2)
        t = rng.uniform()
        def g2(z):
            return pe.penalty_g2(f41, _pt(f41, [*xy, z]), 4.0)[0]
        assert g2(t * za + (1 - t) * zb) <= t * g2(za) + (1 - t) * g2(zb) + 1e-9


def test_eps_feasible(f41):
    assert pe.eps_feasible(f41, _pt(f41, [0, 0, 0]), 1e-6)
    assert not pe.eps_feasible(f41, _pt(f41, [1, 1, 0]), 1e-6)
    assert pe.eps_feasible(f41, _pt(f41, [0, 1e-7, 0]), 1e-6)
    with pytest.raises(ValueError):
        pe.eps_feasible(f41, _pt(f41, [0, 0, 0]), 0.0)


def test_eps_feasible_checks_box(f41):
    assert not pe.eps_feasible(f41, _pt(f41, [0, -1.0, 0]), 1e-6)


def _nan_form():
    # x0^2 - x0^2 overflows to inf - inf = NaN at x0 = 1e200
    part = VarPartition(1, 0, 0)
    gi = ex.parse_sexpr("(+ (pow x0 2) (neg (pow x0 2)))", part.index_of)
    return SaddleForm("nan_constraint", part, Box.whole(1), ex.var(0), ineq=(gi,))


def test_eps_feasible_rejects_nan_constraint_values():
    # a NaN constraint value is a violation, as membership counts it
    form = _nan_form()
    p = _pt(form, [1e200])
    with np.errstate(over="ignore"):
        assert math.isnan(form.ineq[0].value(p.vec))
        assert not membership(form, p, 1e-6).feasible
        assert not pe.eps_feasible(form, p, 1e-6)
    assert pe.eps_feasible(form, _pt(form, [3.0]), 1e-6)


def test_smoothed_penalties_count_a_nan_constraint_as_violated():
    # as F, P and membership do; a NaN g_i once dropped out of the sum
    form = _nan_form()
    p = _pt(form, [1e200])
    for value, grad in (
        pe.penalty_f_theta(form, p, 10.0, 1.01),
        pe.penalty_g_theta(form, p, 10.0, 1.01),
        pe.penalty_g2(form, p, 10.0),
    ):
        assert math.isnan(value) and np.isnan(grad).all()
    assert math.isnan(pe.penalty_f_theta_value(form, p, 10.0, 1.01))
    assert math.isnan(pe.penalty_g_theta_value(form, p, 10.0, 1.01))
    assert math.isnan(pe.penalty_f(form, p, 10.0))


# -- reference: the separate smoothed sums F_theta/G_theta and G2 had before
#    they shared one loop (a NaN g_i compared false there and was dropped)


def _ref_terms(ivals, evals, rho, theta, grad=None, size=0):
    value = 0.0
    out = np.zeros(size) if grad is not None else None
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**theta
            if grad is not None:
                out += rho * theta * gv ** (theta - 1.0) * grad(k)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        if hv != 0.0:
            value += rho * abs(hv) ** theta
            if grad is not None:
                out += rho * theta * abs(hv) ** (theta - 1.0) * np.sign(hv) * grad(k)
    return value, out


def _ref_theta_value(form, p, sign, rho, theta):
    gval, ivals, evals = form.values(p.vec)
    return float((gval if sign > 0 else -gval) + _ref_terms(ivals, evals, rho, theta)[0])


def _ref_theta(form, p, sign, rho, theta):
    if theta <= 1:
        raise ValueError("smoothing exponent theta must be > 1")
    gval, ivals, evals, grad = form.values_grads(p.vec)
    ggrad = grad(0)
    pv, pg = _ref_terms(ivals, evals, rho, theta, grad, p.vec.size)
    if sign > 0:
        return float(gval + pv), ggrad + pg
    return float(-gval + pv), -ggrad + pg


def _ref_g2(form, p, rho):
    gval, ivals, evals, grad = form.values_grads(p.vec)
    value = -gval
    out = -grad(0)
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**2
            out += 2.0 * rho * gv * grad(k)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        value += rho * hv**2
        out += 2.0 * rho * hv * grad(k)
    return float(value), out


def _arrays(fn, *args):
    """The result of ``fn`` as float64 arrays, or the type of its exception."""
    try:
        out = fn(*args)
    except Exception as err:  # compared by type
        return type(err)
    return [np.asarray(o, dtype=float) for o in (out if isinstance(out, tuple) else (out,))]


def _bytes(fn, *args):
    out = _arrays(fn, *args)
    return out if isinstance(out, type) else [o.tobytes() for o in out]


def _penalty_points(form):
    rng = np.random.default_rng(3)
    lo, hi = form.effective_window()
    vecs = [rng.uniform(lo, hi) for _ in range(8)] + [np.full(lo.size, 1e200)]
    if form.witness is not None:
        for x in form.sample_x(rng, 4):
            try:
                vecs.append(witness_eval(form, x, check=False).vec)
            except (ex.ExprError, FormError):
                pass
    return [SaddlePoint(form.partition, v) for v in vecs]


def _nan_ineq(form, p):
    try:
        return any(map(math.isnan, form.values(p.vec)[1]))
    except ex.ExprError:
        return False


@pytest.mark.parametrize("name", sorted(FORMS))
def test_shared_smoothed_sum_matches_the_separate_sums(name):
    # F_theta and G_theta bit for bit; G2 to rounding, since it once added
    # its terms onto -g rather than onto 0
    form = FORMS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in _penalty_points(form):
            if _nan_ineq(form, p):
                continue
            for rho, theta in ((10.0, 1.01), (1e4, 1.5)):
                for sign, value_fn, grad_fn in (
                    (1.0, pe.penalty_f_theta_value, pe.penalty_f_theta),
                    (-1.0, pe.penalty_g_theta_value, pe.penalty_g_theta),
                ):
                    args = (form, p, rho, theta)
                    assert _bytes(value_fn, *args) == _bytes(_ref_theta_value, form, p, sign, rho, theta)
                    assert _bytes(grad_fn, *args) == _bytes(_ref_theta, form, p, sign, rho, theta)
                got, want = _arrays(pe.penalty_g2, form, p, rho), _arrays(_ref_g2, form, p, rho)
                if isinstance(want, type):
                    assert got is want
                    continue
                for g, w in zip(got, want):
                    scale = np.abs(w[np.isfinite(w)]).max(initial=0.0)
                    np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * scale)
