"""Penalty functions: exact values, smoothed gradients, feasibility test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saddlelift.penalty as pe
from saddlelift import expr as ex
from saddlelift.catalog import make_catalog_form, trivial_convex
from saddlelift.forms import (
    Box,
    FormError,
    SaddleForm,
    SaddlePoint,
    VarPartition,
    membership,
    witness_eval,
)
from test_kernels import FORMS, _kink_form


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


def test_smoothed_penalties_read_inf_where_the_power_overflows():
    # at x0 = -1e306 a violation of sgn2_a is ~1e306: gv**theta leaves the
    # float range, which Python's float power reports by raising
    form = make_catalog_form("sgn2_a")
    v = np.zeros(form.partition.total)
    v[0] = -1e306
    p = form.point(v)
    assert pe.penalty_f_theta_value(form, p, 10.0, 1.01) == math.inf
    assert pe.penalty_g_theta_value(form, p, 10.0, 1.01) == math.inf
    for value, grad in (
        pe.penalty_f_theta(form, p, 10.0, 1.01),
        pe.penalty_g_theta(form, p, 10.0, 1.01),
        pe.penalty_g2(form, p, 10.0),
    ):
        assert value == math.inf and np.isnan(grad).all()


def test_an_infinite_constraint_value_makes_the_gradient_nan_throughout():
    # exp(x0) leaves the float range at x0 = 1000: the constraint reads inf
    # and so does its coefficient.  The gradient read inf at x0, where the
    # constraint's gradient is, and NaN at x1, as a power that overflows
    # makes it NaN throughout
    part = VarPartition(2, 0, 0)
    g, gi = ex.add(ex.var(0), ex.var(1)), ex.exp(ex.var(0))
    form = SaddleForm("exp_constraint", part, Box.whole(2), g, ineq=(gi,))
    for sign in (1.0, -1.0):
        for power in (1.01, 2.0):
            value, grad = form.smoothed_penalty(np.array([1000.0, 0.0]), sign, 10.0, power, True)
            assert value == math.inf and np.isnan(grad).all()
            _fused_matches_plain(form, np.array([1000.0, 0.0]), sign, 10.0, power)


# -- reference: the separate smoothed sums F_theta/G_theta and G2 had before
#    they shared one loop (a NaN g_i compared false there and was dropped)


def _ref_terms(ivals, evals, rho, theta, grad=None, size=0):
    """The penalty sum and its gradient, None where a coefficient is not
    finite (the gradient is NaN throughout there)."""
    value = 0.0
    out = np.zeros(size) if grad is not None else None
    finite = True
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**theta
            if grad is not None:
                coef = rho * theta * gv ** (theta - 1.0)
                out += coef * grad(k)
                finite = finite and math.isfinite(coef)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        if hv != 0.0:
            value += rho * abs(hv) ** theta
            if grad is not None:
                coef = rho * theta * abs(hv) ** (theta - 1.0)
                out += coef * np.sign(hv) * grad(k)
                finite = finite and math.isfinite(coef)
    return value, out if finite else None


def _ref_theta_value(form, p, sign, rho, theta):
    gval, ivals, evals = form.values(p.vec)
    return float((gval if sign > 0 else -gval) + _ref_terms(ivals, evals, rho, theta)[0])


def _ref_theta(form, p, sign, rho, theta):
    if theta <= 1:
        raise ValueError("smoothing exponent theta must be > 1")
    gval, ivals, evals, grad = form.values_grads(p.vec)
    ggrad = grad(0)
    pv, pg = _ref_terms(ivals, evals, rho, theta, grad, p.vec.size)
    value = float(gval + pv) if sign > 0 else float(-gval + pv)
    if pg is None:
        return value, np.full(p.vec.size, math.nan)
    return value, (ggrad if sign > 0 else -ggrad) + pg


def _ref_g2(form, p, rho):
    gval, ivals, evals, grad = form.values_grads(p.vec)
    value = -gval
    out = -grad(0)
    coefs = []
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**2
            coefs.append(2.0 * rho * gv)
            out += coefs[-1] * grad(k)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        value += rho * hv**2
        coefs.append(2.0 * rho * hv)
        out += coefs[-1] * grad(k)
    if not all(map(math.isfinite, coefs)):  # the gradient is NaN throughout
        out = np.full(out.size, math.nan)
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
                if want is OverflowError:  # where the separate sum raised, G2 now adds inf to -g
                    np.testing.assert_equal(got[0], -form.values(p.vec)[0] + math.inf)
                    assert np.isnan(got[1]).all()
                    continue
                if isinstance(want, type):
                    assert got is want
                    continue
                for g, w in zip(got, want):
                    scale = np.abs(w[np.isfinite(w)]).max(initial=0.0)
                    np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * scale)


# -- reference: the smoothed sum as a plain loop over the dense Jacobian, the
#    arithmetic the penalty kernels' epilogue writes out term for term


def _plain_sum(form, v, sign, rho, power, grad):
    if not power > 1:
        raise ValueError("smoothing exponent theta must be > 1")
    if grad:
        gval, ivals, evals, jac = form.values_grads(v)
        ggrad = jac(0)
        out = np.zeros(v.size)
    else:
        gval, ivals, evals = form.values(v)
    value, finite = 0.0, True
    try:
        for k, gv in enumerate(ivals, 1):
            if not gv <= 0.0:
                value += rho * gv**power
                if grad:
                    coef = rho * power * gv ** (power - 1.0)
                    out += coef * jac(k)
                    finite = finite and math.isfinite(coef)
        for k, hv in enumerate(evals, 1 + len(ivals)):
            if hv != 0.0:
                value += rho * abs(hv) ** power
                if grad:
                    coef = rho * power * abs(hv) ** (power - 1.0)
                    out += coef * np.sign(hv) * jac(k)
                    finite = finite and math.isfinite(coef)
    except OverflowError:
        value, finite = math.inf, False
    if grad:
        if not finite:  # a power that overflows or a coefficient that is not finite
            out = np.full(v.size, math.nan)
        return float(sign * gval + value), sign * ggrad + out
    return float(sign * gval + value)


def _bits(fn, *args):
    """As :func:`_bytes`, with every NaN made one NaN: which NaN operand a
    CPython float operation returns changes once the interpreter has
    specialised the operation, so NaN sign and payload are not reproducible
    even between two calls of one function."""
    out = _arrays(fn, *args)
    return out if isinstance(out, type) else [np.where(np.isnan(o), math.nan, o).tobytes() for o in out]


def _fused_matches_plain(form, v, sign, rho, power):
    with np.errstate(all="ignore"):
        for grad in (False, True):
            args = (v, sign, rho, power, grad)
            assert _bits(form.smoothed_penalty, *args) == _bits(_plain_sum, form, *args)


EQUIV_FORMS = {
    **FORMS,
    **{f"maxabs_n{n}": make_catalog_form("maxabs_minus_sum", n=n) for n in (2, 5, 10)},
    "bowl": trivial_convex(ex.square(ex.var(0) - 2.0) + ex.square(ex.var(1)), 2, "bowl"),
}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(EQUIV_FORMS)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 1.0, 1e3, 1e160]),
    at_witness=st.booleans(),
    sign=st.sampled_from([1.0, -1.0]),
    rho=st.sampled_from([10.0, 1e6, 1e12]),
    power=st.sampled_from([1.01, 1.5, 2.0]),
)
def test_fused_penalty_kernels_match_the_plain_sum_bit_for_bit(
    name, seed, scale, at_witness, sign, rho, power
):
    # values and gradients by their bytes, exceptions by their type; witness
    # points put constraints exactly at 0, where the kinks and branches are
    form = EQUIV_FORMS[name]
    rng = np.random.default_rng(seed)
    lo, hi = form.effective_window()
    v = rng.uniform(lo, hi) * scale
    if at_witness and form.witness is not None:
        try:
            with np.errstate(all="ignore"):
                v = witness_eval(form, form.sample_x(rng, 1)[0] * scale, check=False).vec
        except (ex.ExprError, FormError, ArithmeticError):
            pass  # some witness maps overflow in Python floats at large x
    _fused_matches_plain(form, v, sign, rho, power)


def test_fused_penalty_named_cases():
    # a NaN constraint: value NaN and every gradient entry NaN
    form = _nan_form()
    v = np.array([1e200])
    _fused_matches_plain(form, v, 1.0, 10.0, 1.01)
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = form.smoothed_penalty(v, 1.0, 10.0, 1.01, True)
    assert math.isnan(value) and np.isnan(grad).all()
    # an overflowing violation: value inf, gradient NaN
    form = make_catalog_form("sgn2_a")
    v = np.zeros(form.partition.total)
    v[0] = -1e306
    for sign in (1.0, -1.0):
        _fused_matches_plain(form, v, sign, 10.0, 1.01)
        value, grad = form.smoothed_penalty(v, sign, 10.0, 1.01, True)
        assert value == math.inf and np.isnan(grad).all()
    # a RealPow kink raises in an active constraint only
    active, inactive = _kink_form(1.0), _kink_form(-1.0)
    origin = np.zeros(1)
    _fused_matches_plain(active, origin, 1.0, 10.0, 1.5)
    with pytest.raises(ex.NondifferentiableError):
        active.smoothed_penalty(origin, 1.0, 10.0, 1.5, True)
    assert active.smoothed_penalty(origin, 1.0, 10.0, 1.5, False) == 10.0
    _fused_matches_plain(inactive, origin, 1.0, 10.0, 1.5)
    assert inactive.smoothed_penalty(origin, 1.0, 10.0, 1.5, True)[0] == 0.0


def test_penalty_entries_take_a_point_or_its_vector(f41):
    p = _pt(f41, [1.0, 0.5, 0.25])
    for fn, args in (
        (pe.penalty_f_theta_value, (10.0, 1.01)),
        (pe.penalty_g_theta_value, (10.0, 1.01)),
        (pe.penalty_f_theta, (10.0, 1.01)),
        (pe.penalty_g_theta, (10.0, 1.01)),
        (pe.penalty_g2, (10.0,)),
        # the form's own scalar readers make the same check
        (SaddleForm.values, ()),
        (_values_and_g_grad, ()),
        (SaddleForm.smoothed_penalty, (1.0, 10.0, 1.01, True)),
    ):
        assert _bytes(fn, f41, p.vec.copy(), *args) == _bytes(fn, f41, p, *args)
        for bad in (np.zeros(2), np.zeros(5), np.zeros((3, 1))):
            with pytest.raises(FormError):
                fn(f41, bad, *args)


def _values_and_g_grad(form, v):
    g, ivals, evals, grad = form.values_grads(v)
    return g, ivals, evals, grad(0)


def test_smoothed_entries_reject_a_nan_theta(f41):
    # NaN passed the old guard `theta <= 1` and F_theta read 23.0 here
    p = _pt(f41, [1, 1, 0])
    for fn in (
        pe.penalty_f_theta_value,
        pe.penalty_g_theta_value,
        pe.penalty_f_theta,
        pe.penalty_g_theta,
        lambda form, p, rho, power: form.smoothed_penalty(p, 1.0, rho, power, False),
        lambda form, p, rho, power: form.smoothed_penalty(p, -1.0, rho, power, True),
    ):
        for power in (math.nan, 0.5):
            with pytest.raises(ValueError):
                fn(f41, p, 10.0, power)
