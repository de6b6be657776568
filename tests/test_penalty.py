"""Penalty functions: exact values, smoothed gradients, feasibility test."""

import math

import numpy as np
import pytest

import saddlelift.penalty as pe
from saddlelift import expr as ex
from saddlelift.catalog import make_catalog_form
from saddlelift.forms import Box, SaddleForm, SaddlePoint, VarPartition, membership


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
