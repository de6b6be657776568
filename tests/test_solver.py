"""Inner minimizer, alternating penalty loop, first-order residuals, probes."""

import hashlib
import json
import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from saddlelift import expr as ex
from saddlelift import cli, solver
from saddlelift.expr import DomainEvalError
from saddlelift.catalog import default_suite, make_catalog_form, trivial_convex
from saddlelift.forms import FormError, SaddlePoint, membership, witness_eval
from saddlelift.penalty import (
    penalty_f_theta,
    penalty_f_theta_value,
    penalty_g_theta,
    penalty_g_theta_value,
)
from saddlelift.solver import (
    SolverParams,
    alternating_penalty_solve,
    exactness_probe,
    inner_minimize,
    kkt_residual,
    stability_probe,
    trace_to_csv,
)


def _quad_obj(center):
    def obj(p, need_grad):
        d = p - center
        if need_grad:
            return float(d @ d), 2.0 * d
        return float(d @ d), None

    return obj


def test_inner_unconstrained_quadratic():
    res = inner_minimize(_quad_obj(np.array([3.0])), [0.0], [10.0], [0.0])
    assert res.converged
    assert res.point[0] == pytest.approx(3.0, abs=1e-6)


def test_inner_boundary_quadratic():
    res = inner_minimize(_quad_obj(np.array([3.0])), [0.0], [2.0], [0.0])
    assert res.point[0] == pytest.approx(2.0, abs=1e-8)


def test_inner_nonfinite_start_rejected():
    def obj(p, need_grad):
        return float("nan"), np.zeros(1)

    with pytest.raises(ValueError):
        inner_minimize(obj, [0.0], [1.0], [0.5])


def test_inner_descent_is_monotone_and_in_box():
    # smoothed descent penalty of the quartic lift over (x, y) with z = 0
    form = make_catalog_form("abs_power")
    part = form.partition
    lo = form.box.lower_array()
    hi = form.box.upper_array()
    accepted = []

    def obj(sub, need_grad):
        full = np.array([sub[0], sub[1], 0.0])
        sp = SaddlePoint(part, full)
        if need_grad:
            v, grad = penalty_f_theta(form, sp, 10.0, 1.01)
            accepted.append((sub.copy(), v))
            return v, grad[:2]
        return penalty_f_theta_value(form, sp, 10.0, 1.01), None

    res = inner_minimize(obj, lo[:2], hi[:2], np.array([1.0, 1.0]))
    values = [v for _, v in accepted]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert len(values) > 2
    for sub, _ in accepted:
        assert np.all(sub >= lo[:2] - 1e-15) and np.all(sub <= hi[:2] + 1e-15)
    assert res.value <= values[0]


# -- the exits of the inner loop, one synthetic objective each ---------------


def _logged(obj):
    """``obj`` with every call's need_grad flag appended to ``calls``."""
    calls = []

    def logged(p, need_grad):
        calls.append(need_grad)
        return obj(p, need_grad)

    return logged, calls


def _ridge(p, need_grad):
    # -x - y, plus 10 wherever both coordinates are positive: a joint step
    # along -g = (1, 1) always lands on the plateau, a one-coordinate step never
    v = -float(p[0]) - float(p[1]) + (10.0 if p[0] > 0.0 and p[1] > 0.0 else 0.0)
    return v, (np.array([-1.0, -1.0]) if need_grad else None)


def test_inner_exit_converged():
    # an ill-conditioned bowl: 20 accepted spectral steps reach the tolerance
    def bowl(p, need_grad):
        d = p - np.array([3.0, -1.0])
        w = np.array([1.0, 10.0])
        return float(d @ (w * d)), (2.0 * w * d if need_grad else None)

    obj, calls = _logged(bowl)
    res = inner_minimize(obj, [0.0, -5.0], [10.0, 5.0], [0.0, 0.0])
    assert res.converged and res.pg_norm <= 1e-8 and res.iterations == 20
    assert res.point == pytest.approx([3.0, -1.0], abs=1e-9)
    assert len(calls) == 57 and calls.count(True) == 21


def test_inner_exit_iteration_cap():
    # a falling line never converges and never stalls: every step of 1 is
    # accepted until the 2,000-iteration cap, and no coordinate phase follows
    obj, calls = _logged(lambda p, need_grad: (-float(p[0]), np.array([-1.0])))
    res = inner_minimize(obj, [0.0], [np.inf], [0.0])
    assert not res.converged and res.iterations == 2000 and res.pg_norm == 1.0
    assert res.point.tolist() == [2000.0] and res.value == -2000.0
    assert calls == [True] + [False, True] * 2000


def test_inner_exit_stall_then_coordinates_improve():
    # the joint step stalls (80 trials), a coordinate sweep moves x to its
    # bound (1 trial) and blocks y (30 trials), and the next sweep finds
    # nothing without a trial: the one coordinate phase ends, and so does
    # the call, with no second joint phase
    obj, calls = _logged(_ridge)
    res = inner_minimize(obj, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    assert not res.converged and res.iterations == 3 and res.pg_norm == 1.0
    assert res.point.tolist() == [1.0, 0.0] and res.value == -1.0
    assert calls == [True] + [False] * 80 + [False] * 31 + [True]


def test_inner_exit_stall_and_coordinates_find_nothing():
    obj, calls = _logged(_ridge)
    res = inner_minimize(obj, [0.0, 0.0], [1.0, 1.0], [1.0, 0.0])
    assert not res.converged and res.iterations == 2 and res.pg_norm == 1.0
    assert res.point.tolist() == [1.0, 0.0] and res.value == -1.0
    assert calls == [True] + [False] * 80 + [False] * 30


def test_inner_exit_a_sweep_of_ties_ends_the_coordinate_phase():
    # a plateau at 2**43 whose reported gradient says it falls along x: a unit
    # move's Armijo fall of 1e-4 is below half an ulp of the value (2**-10),
    # so every trial ties.  The joint step stalls on its first tie, and the
    # one sweep that finds only a tie ends the coordinate phase and returns
    # the start; a tie counted as progress would spend the sweep budget
    obj, calls = _logged(lambda p, need_grad: (2.0**43, np.array([-1.0])))
    res = inner_minimize(obj, [0.0], [np.inf], [0.0])
    assert not res.converged and res.iterations == 2 and res.pg_norm == 1.0
    assert res.point.tolist() == [0.0] and res.value == 2.0**43
    assert calls == [True, False, False]


def test_inner_exit_iteration_cap_in_the_coordinate_phase():
    # the falling line of the cap test, plus a plateau of 1e9 where both
    # coordinates pass 1990: 1,990 joint steps, a stall, then sweeps that move
    # x0 alone (its warm step doubling each time) until the cap ends a sweep
    def plateau(p, need_grad):
        v = -float(p[0]) - float(p[1]) + (1e9 if p[0] > 1990.0 and p[1] > 1990.0 else 0.0)
        return v, (np.array([-1.0, -1.0]) if need_grad else None)

    obj, calls = _logged(plateau)
    res = inner_minimize(obj, [0.0, 0.0], [np.inf, np.inf], [0.0, 0.0])
    assert not res.converged and res.iterations == 2000
    assert res.point.tolist() == [1990.0 * 2**9, 1990.0]
    assert calls.count(True) == 1 + 1990 + 9


def _p51_start(n, z_sign):
    return np.concatenate(
        [np.arange(1.0, 2 * n + 2), z_sign * 1000.0 * np.arange(1, n + 1)]
    )


def test_alternating_solver_small_instance():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    params = SolverParams(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
    res = alternating_penalty_solve(form, params, start=_p51_start(2, -1.0), seed=0)
    assert res.converged
    x = res.point.x
    assert abs(form.reference(x)) <= 1e-2
    assert membership(form, res.point, 1e-6).feasible


def test_rho_schedule_is_geometric():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    params = SolverParams(max_outer=6, eps=1e-14)  # force several iterations
    res = alternating_penalty_solve(form, params, start=_p51_start(2, -1.0))
    for row in res.trace:
        assert row.rho == pytest.approx(params.rho1 * params.growth ** (row.k - 1))


def test_violation_bound_along_trace():
    form = make_catalog_form("maxabs_minus_sum", n=3)
    params = SolverParams(max_outer=10)
    res = alternating_penalty_solve(form, params, start=_p51_start(3, -1.0))
    L = max(max(abs(r.f_pen), abs(r.g_pen)) for r in res.trace)
    for r in res.trace:
        assert r.violation <= 2.0 * L / r.rho + 1e-12


def test_solver_statuses():
    form = make_catalog_form("abs_power")
    res = alternating_penalty_solve(form, SolverParams(max_outer=1, eps=1e-12))
    assert res.status in ("max_outer_reached", "eps_feasible_converged")
    res2 = alternating_penalty_solve(
        form, SolverParams(max_outer=30, eps=1e-15, rho_cap=1e3)
    )
    assert res2.status in ("rho_cap_reached", "eps_feasible_converged")


def test_a_start_of_the_wrong_size_is_a_form_error():
    # a one-entry start was broadcast to every coordinate, a two-entry one
    # raised numpy's broadcast ValueError
    form = make_catalog_form("abs_power")
    for start in ([5.0], [5.0, 5.0], np.zeros(4)):
        with pytest.raises(FormError, match=r"partition needs \(3,\)"):
            alternating_penalty_solve(form, start=start)
    params = SolverParams(max_outer=2)
    a = alternating_penalty_solve(form, params, start=[5, 5, 5])
    b = alternating_penalty_solve(form, params, start=form.point([5, 5, 5]))
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)


def test_trace_readers_see_a_frozen_iterate(monkeypatch):
    # the reference and the exact penalties read the iterate itself, frozen,
    # so a reader writing into its argument cannot move the solve
    form = make_catalog_form("abs_power")
    flags = []

    def reference(x, ref=form.reference):
        flags.append(x.flags.writeable)
        return ref(x)

    def exact(p, rho, penalty=solver.penalty_f):
        flags.append(form._vector(p).flags.writeable)
        return penalty(form, p, rho)

    monkeypatch.setattr(solver, "penalty_f", lambda form, p, rho: exact(p, rho))
    res = alternating_penalty_solve(replace(form, reference=reference), SolverParams(max_outer=3))
    assert len(flags) == 2 * len(res.trace) and not any(flags)
    with pytest.raises(ValueError, match="read-only"):
        res.point.vec[0] = 1.0


def test_solver_on_count_regularized_scalar():
    # start (0.5, 0.5, 1), the count-regularized scalar with lam = 2
    form = make_catalog_form("l0_scalar_reg", lam=2.0)
    params = SolverParams(max_outer=25)
    res = alternating_penalty_solve(form, params, start=np.array([0.5, 0.5, 1.0]))
    assert res.converged
    assert membership(form, res.point, 1e-6).feasible


def test_solver_returns_multipliers_on_request():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    params = SolverParams(max_outer=10)
    res = alternating_penalty_solve(form, params, start=_p51_start(2, -1.0))
    assert res.converged
    multipliers = kkt_residual(form, res.point, feas_tol=10 * params.eps)
    assert multipliers.sign_violation <= 1e-9


def test_solver_determinism():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    params = SolverParams(max_outer=8)
    # a solve draws no random numbers, so the seed changes nothing
    a = alternating_penalty_solve(form, params, start=_p51_start(2, -1.0), seed=3)
    b = alternating_penalty_solve(form, params, start=_p51_start(2, -1.0), seed=4)
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
    np.testing.assert_array_equal(a.point.vec, b.point.vec)


def test_kkt_given_multipliers_reproduce_zero_residual():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    rep = kkt_residual(form, p, alpha=[1, 1, 1], beta=[1, 1, 1])
    assert rep.stationarity_residual_xy <= 1e-12
    assert rep.stationarity_residual_z <= 1e-12
    assert rep.complementarity_residual == 0.0
    assert rep.sign_violation == 0.0


def test_kkt_estimates_zero_residual():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    rep = kkt_residual(form, p)
    assert rep.stationarity_residual_xy <= 1e-8
    assert rep.stationarity_residual_z <= 1e-8
    assert rep.sign_violation <= 1e-9


def test_kkt_trivial_form_at_minimizer():
    form = trivial_convex(ex.square(ex.var(0) - 1.0), 1, "sq_shift")
    p = SaddlePoint(form.partition, np.array([1.0]))
    rep = kkt_residual(form, p)
    assert rep.stationarity_residual_xy <= 1e-12
    assert rep.alpha.size == 0 and rep.beta.size == 0


def test_kkt_fails_at_count_regularized_origin():
    # at (0, 0, 1) with lam = 2 the sign-constrained system has a residual
    form = make_catalog_form("l0_scalar_reg", lam=2.0)
    p = SaddlePoint(form.partition, np.array([0.0, 0.0, 1.0]))
    rep = kkt_residual(form, p)
    assert rep.stationarity_residual_xy > 1e-3


def test_kkt_rejects_infeasible_point():
    form = make_catalog_form("abs_power")
    with pytest.raises(FormError):
        kkt_residual(form, SaddlePoint(form.partition, np.array([1.0, 1.0, 0.0])))
    origin = SaddlePoint(form.partition, np.zeros(3))
    for name, size in (("alpha", 2), ("beta", 4)):
        with pytest.raises(ValueError, match=f"{name} must have length 3"):
            kkt_residual(form, origin, **{name: np.ones(size)})


def test_exactness_probe_on_quartic_lift():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    rows = exactness_probe(form, p, [10.0, 100.0], restarts=8, seed=0)
    assert all(r.no_improvement for r in rows)


def test_exactness_probe_detects_degenerate_rho():
    # at the flat optimum of the majorant form, the unpenalized descent finds
    # improving points but a moderate penalty weight closes them off
    form = make_catalog_form("maxabs_minus_sum", n=2)
    p = SaddlePoint(form.partition, np.zeros(form.partition.total))
    rows = exactness_probe(form, p, [0.0, 10.0], restarts=8, seed=0)
    assert rows[0].f_improved
    assert rows[1].no_improvement


def test_exactness_probe_flags_failed_first_order_point():
    # the count-regularized scalar's sign-constrained first-order system has
    # no solution at (0, 0, 1), and indeed no penalty weight is exact there:
    # the probe finds improving points at any rho
    form = make_catalog_form("l0_scalar_reg", lam=2.0)
    p = SaddlePoint(form.partition, np.array([0.0, 0.0, 1.0]))
    rows = exactness_probe(form, p, [0.0, 10.0, 1000.0], restarts=8, seed=0)
    assert all(r.f_improved for r in rows)


def test_exactness_probe_dc_optimum():
    form = make_catalog_form("dc")  # f = x^2, optimum at x = 0, z = 0
    p = SaddlePoint(form.partition, np.zeros(2))
    rows = exactness_probe(form, p, [10.0], restarts=6, seed=1)
    assert rows[0].no_improvement


def test_stability_probe_zero_perturbation():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    rep = stability_probe(form, p, [(np.zeros(3), np.zeros(0))], rho=10.0)
    assert rep.rows[0].holds
    assert rep.rows[0].size == 0.0
    with pytest.raises(FormError, match="perturbation sizes must match"):
        stability_probe(form, p, [(np.zeros(2), np.zeros(0))], rho=10.0)


def test_stability_probe_small_and_large_perturbations():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    small = (np.full(3, 0.01), np.zeros(0))
    large = (np.full(3, 10.0), np.zeros(0))
    rep = stability_probe(
        form, p, [small, large], rho=10.0, params=SolverParams(max_outer=10)
    )
    assert rep.rows[0].holds
    assert abs(rep.rows[0].perturbed_value - rep.rows[0].base_value) <= 0.3
    assert rep.tightest_rho >= 0.0
    assert np.isfinite(rep.rows[1].ratio)


def test_kkt_agrees_with_inner_fixed_point():
    # on a smooth strictly-interior problem the two certification paths meet:
    # the solver's fixed point has a tiny stationarity residual
    form = trivial_convex(ex.square(ex.var(0) - 2.0) + ex.square(ex.var(1)), 2, "bowl")
    res = alternating_penalty_solve(form, SolverParams(max_outer=5), start=np.zeros(2))
    assert res.converged
    rep = kkt_residual(form, res.point)
    assert rep.stationarity_residual_xy <= 1e-4


def test_multistart_tie_break_is_lexicographic():
    # a flat objective ties every start at 0; the smallest point must win
    from saddlelift.solver import inner_minimize_multistart

    def obj(p, need_grad):
        return 0.0, (np.zeros(1) if need_grad else None)

    rng = np.random.default_rng(0)
    res = inner_minimize_multistart(
        obj, [-2.0], [2.0], [0.9], 12, rng, (np.array([-2.0]), np.array([2.0]))
    )
    replay = np.random.default_rng(0)
    candidates = [0.9] + [
        float(replay.uniform(np.array([-2.0]), np.array([2.0]))[0]) for _ in range(12)
    ]
    assert res.point[0] == min(candidates)


def test_solver_params_are_the_outer_loop_settings():
    # the inner solver's settings are module constants, not parameters
    names = [f.name for f in fields(SolverParams)]
    assert names == ["eps", "rho1", "growth", "theta", "max_outer", "rho_cap"]


@pytest.mark.parametrize("field", ["eps", "rho1", "growth", "theta", "rho_cap", "max_outer"])
def test_solver_params_reject_nan(field):
    with pytest.raises(ValueError):
        SolverParams(**{field: float("nan")})


def test_solver_params_validated():
    with pytest.raises(ValueError):
        SolverParams(eps=0.0)
    with pytest.raises(ValueError):
        SolverParams(rho1=0.5)
    with pytest.raises(ValueError):
        SolverParams(growth=1.0)
    with pytest.raises(ValueError):
        SolverParams(theta=1.0)
    with pytest.raises(ValueError):
        SolverParams(rho_cap=1.0, rho1=10.0)


def test_trace_csv_shape():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    res = alternating_penalty_solve(form, SolverParams(max_outer=4), start=_p51_start(2, -1.0))
    csv = trace_to_csv(res.trace)
    lines = csv.strip().splitlines()
    assert lines[0] == "k,rho,F,G,P,step_norm,f_ref"
    assert len(lines) == len(res.trace) + 1


# The n=5 max-abs solve from the z>0 acceptance start with the paper
# parameters, recorded since the inner minimizer runs each phase at most
# once per call.  Any change to evaluation order or solver
# arithmetic moves these bytes.
GOLDEN_N5_TRACE = (
    "k,rho,F,G,P,step_norm,f_ref\n"
    "1,10,-1.23660311,1.23660311,2.77555756e-17,7415.72906,0\n"
    "2,1000,-1.23660311,1.23660311,0,7.4339052e-13,0\n"
)
GOLDEN_N5_POINT = (
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000ee89ff99fbd3df3fee89ff99fbd3df3f735aff99fbd3df3f"
    "7d74ff99fbd3df3fee89ff99fbd3df3fee89ff99fbd3df3f3a4618c033a8cf3f"
    "3a4618c033a8cf3fe02f18c033a8cf3fde2f18c033a8cf3fe62f18c033a8cf3f"
)


def test_golden_trajectory_maxabs_n5():
    n = 5
    form = make_catalog_form("maxabs_minus_sum", n=n)
    params = SolverParams(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
    start = np.concatenate([np.arange(1.0, 2 * n + 2), 1000.0 * np.arange(1, n + 1)])
    res = alternating_penalty_solve(form, params, start=start, seed=0)
    assert trace_to_csv(res.trace) == GOLDEN_N5_TRACE
    assert res.point.vec.tobytes().hex() == GOLDEN_N5_POINT
    assert res.diagnostic == (
        "inner xy: pg=4.975e-01 its=10; inner z: pg=5.530e-01 its=4"
    )


# The n=5 max-abs solve from the z<0 acceptance start, recorded since the
# inner minimizer runs each phase at most once per call: the first xy solve
# runs 63 inner iterations through coordinate refinement, the later ones 5
# and 2, and the first z solve stops at the 2,000-iteration cap.
GOLDEN_N5_ZNEG_TRACE = (
    "k,rho,F,G,P,step_norm,f_ref\n"
    "1,10,-0.0114107241,0.0114107241,0,22.3872591,1.06242913e-08\n"
    "2,1000,-0.0111840118,0.0111840118,0,6.56280851e-05,1.06242913e-08\n"
    "3,100000,-0.0111840118,0.0111840118,0,0,1.06242913e-08\n"
)
GOLDEN_N5_ZNEG_POINT = (
    "1840b37170df25be1cec28fb284c1dbe60e06ea8ebfb13be3ad274d64fcd313e"
    "48d0c2aace8f023ebad493a80737a83fbad493a80737a83fbad493a80737a83f"
    "bad493a80737a83fbad493a80737a83fbad493a80737a83f8110331fea52623f"
    "7d10331fea52623f9a10331fea52623f8110331fea52623f8110331fea52623f"
)


def test_golden_trajectory_maxabs_n5_negative_z_start():
    n = 5
    form = make_catalog_form("maxabs_minus_sum", n=n)
    params = SolverParams(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
    res = alternating_penalty_solve(form, params, start=_p51_start(n, -1.0), seed=0)
    assert trace_to_csv(res.trace) == GOLDEN_N5_ZNEG_TRACE
    assert res.point.vec.tobytes().hex() == GOLDEN_N5_ZNEG_POINT
    assert res.diagnostic == (
        "inner xy: pg=2.025e+00 its=2; inner z: pg=5.002e-03 its=2"
    )


@pytest.mark.parametrize("name", ["maxabs_minus_sum", "sgn2_a", "sgn3_a", "sin_0_2pi"])
def test_every_gradient_call_reads_a_strictly_lower_value(name, monkeypatch):
    # A block objective's gradient calls after its first follow an accepted
    # joint step or a coordinate sweep that counted as progress, so each reads
    # a value strictly below the one before.  Counting sweeps of tie moves
    # as progress breaks this in each of these solves (1,044 times in the
    # n=5 z<0 flagship solve, 120 to 720 times in the suite solves).
    logs = []
    make = solver._block_objective

    def logged_block_objective(*args):
        obj, values = make(*args), []
        logs.append(values)

        def logged(p, need_grad):
            v, grad = obj(p, need_grad)
            if need_grad:
                values.append(v)
            return v, grad

        return logged

    monkeypatch.setattr(solver, "_block_objective", logged_block_objective)
    if name == "maxabs_minus_sum":
        form = make_catalog_form(name, n=5)
        params = SolverParams(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
        alternating_penalty_solve(form, params, start=_p51_start(5, -1.0))
    else:
        alternating_penalty_solve(next(f for f in default_suite() if f.name == name))
    assert sum(len(v) for v in logs) > 2 * len(logs)
    assert all(b < a for values in logs for a, b in zip(values, values[1:]))


# Recorded with the trajectories above: exactness_probe reaches the block
# objective by its own path, with multistart windows around the point.
GOLDEN_PROBE_ROWS = (
    # rho, F at candidate, F at point, G at candidate, G at point (float.hex)
    ("0x0.0p+0", "-0x1.0000000000000p+1", "-0x1.7f00000000000p+0",
     "-0x1.0200000000000p-1", "0x1.7f00000000000p+0"),
    ("0x1.8000000000000p+1", "-0x1.0000000000000p+1", "-0x1.7f00000000000p+0",
     "-0x1.fffffffffff80p-9", "0x1.7f00000000000p+0"),
    ("0x1.f400000000000p+9", "-0x1.0000000000000p+1", "-0x1.7f00000000000p+0",
     "-0x1.0000000000000p-8", "0x1.7f00000000000p+0"),
)


def test_golden_exactness_probe_rows():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.array([0.5, 0.25, 1.0]))
    rows = exactness_probe(form, p, [0.0, 3.0, 1000.0], restarts=4, seed=2)
    got = tuple(
        tuple(float(v).hex() for v in (r.rho, r.f_at_candidate, r.f_at_point, r.g_at_candidate, r.g_at_point))
        for r in rows
    )
    assert got == GOLDEN_PROBE_ROWS
    assert all(r.f_improved and r.g_improved for r in rows)


@pytest.mark.parametrize("name", ["entropy", "geometric_poly"])
def test_a_trial_off_the_domain_is_a_rejected_trial(name):
    # from the witness point at an x inside the window, line-search steps
    # projected onto the box face 0 leave the logs' domain; they raised
    # DomainEvalError out of the probe and the solve instead of backtracking
    form = next(f for f in default_suite() if f.name == name)
    rng = np.random.default_rng(11)  # the x that the point-reader test draws
    lo, hi = form.effective_window()
    for _ in range(3):
        rng.uniform(lo, hi)
    (x,) = form.sample_x(rng, 1)
    p = witness_eval(form, x, check=False).vec
    (row,) = exactness_probe(form, p, [1e2], restarts=0)
    assert math.isfinite(row.f_at_candidate) and row.f_at_candidate <= row.f_at_point
    assert alternating_penalty_solve(form, start=p).status == "eps_feasible_converged"
    # a start off the domain still raises: there is no finite value to descend from
    with pytest.raises(DomainEvalError):
        alternating_penalty_solve(form, start=np.zeros(form.partition.total))



# g = -x0 - x1 falls along the free x0; x1 in [0, 1] starts with a projected
# gradient of 1, and the constant inequality 1 <= 0 keeps every iterate
# infeasible.  From x0 = 1e308 no joint step changes the rounded value, so
# the joint phase stalls at once and the coordinate phase doubles x0 into
# overflowing trials, backing off to the largest float; the loop then runs
# on to the rho cap.
_RAY = {
    "name": "ray",
    "partition": [2, 0, 0],
    "lower": [None, 0],
    "upper": [None, 1],
    "g": "(neg (+ x0 x1))",
    "ineq": ["1"],
}
_RAY_START = [1e308, 0.0]


def test_overflowing_solves_do_not_warn_in_the_inner_loops():
    # the inner loops' scalar arithmetic overflows to inf silently on Python
    # floats, where numpy scalars warned at every overflowing trial
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = alternating_penalty_solve(cli.inline_form(_RAY), start=_RAY_START)
    assert np.abs(res.point.vec).max() == np.finfo(float).max
    assert [str(w.message) for w in caught if w.filename == solver.__file__] == []


def test_overflowing_solves_emit_no_runtime_warning():
    # the outer loop's step norm between iterates near the largest float
    # overflows in numpy's own norm; it reads inf without a warning from any file
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = alternating_penalty_solve(cli.inline_form(_RAY), start=_RAY_START)
    assert math.inf in [row.step_norm for row in res.trace]
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_a_solve_that_ends_off_the_float_range_has_diverged(tmp_path, capsys):
    # the ray's x0 ends at the largest float; the loop stopped at the rho
    # cap, and the solve read rho_cap_reached
    res = alternating_penalty_solve(cli.inline_form(_RAY), start=_RAY_START)
    assert np.abs(res.point.vec).max() == np.finfo(float).max
    assert res.status == solver.STATUS_DIVERGED == "diverged" and not res.converged
    default = SolverParams()
    assert res.trace[-1].rho * default.growth > default.rho_cap  # what stopped the loop
    # a coordinate that is not finite: an infinite start the box does not clip
    form = trivial_convex(ex.square(ex.var(0)), 1, "bowl")
    res = alternating_penalty_solve(form, SolverParams(max_outer=0), start=[math.inf])
    assert res.status == "diverged" and res.trace == ()
    # the CLI still exits 2
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"problem": {"inline": _RAY}, "start": _RAY_START}))
    assert cli.main(["solve", str(path)]) == 2
    assert '"status": "diverged"' in capsys.readouterr().out


# Recorded since the inner minimizer runs each phase at most once per call:
# every default-suite form from the default start (less sgn2_b, sgn3_b and
# l01_svm, whose solves take seconds each) and the n=10 max-abs solve from
# the +1000*k start with the paper parameters.  sgn2_a and sgn3_a drive x0
# to 2.2e93 and 1.1e93 by the rho cap.
_SOLVES_SHA256 = "ff2c06360f6fbd34e9d151ee0db362c58573ebeebdbd5bedf844fb9ef4559697"
_SLOW_SOLVES = ("sgn2_b", "sgn3_b", "l01_svm")


def test_solves_are_pinned():
    n = 10
    flagship = make_catalog_form("maxabs_minus_sum", n=n)
    paper = SolverParams(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)
    start = np.concatenate([np.arange(1.0, 2 * n + 2), 1000.0 * np.arange(1, n + 1)])
    cases = [(f, None, None) for f in default_suite() if f.name not in _SLOW_SOLVES]
    cases.append((flagship, paper, start))
    digest = hashlib.sha256()
    for form, params, x0 in cases:
        try:
            res = alternating_penalty_solve(form, params, start=x0)
        except DomainEvalError as err:  # entropy and geometric_poly start on their log boundary
            row = f"{form.name}:{type(err).__name__}"
        else:
            row = f"{form.name}:{res.status}:{trace_to_csv(res.trace)}:{res.point.vec.tobytes().hex()}"
        digest.update(row.encode())
    assert len(cases) == 26
    assert digest.hexdigest() == _SOLVES_SHA256


# -- the block objective: a trial goes to the form's penalty kernel

def _blocks(form):
    """Each nonempty block with the solver's penalties for it: F_theta over
    (x, y), G_theta over z."""
    part = form.partition
    cut = part.n + part.m1
    for block, penalty, penalty_value in (
        (slice(0, cut), penalty_f_theta, penalty_f_theta_value),
        (slice(cut, part.total), penalty_g_theta, penalty_g_theta_value),
    ):
        if block.stop > block.start:
            yield block, penalty, penalty_value


def _outcome(fn):
    """The values of ``fn()`` as float bits, every NaN made one NaN (CPython
    does not keep a NaN's sign and payload), or the type and node of the
    expression error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except ex.ExprError as err:
        return type(err), err.node
    return [np.where(np.isnan(a), math.nan, a).tobytes() for a in map(np.asarray, out)]


def _block_matches_form(form, v, rho=1e4, theta=1.01):
    """Checks trials of the block objective at ``v`` and at ``v`` with its
    block halved, in both modes, against the form's penalty at those
    points, per block; returns the outcomes."""
    outcomes = []
    for block, penalty, penalty_value in _blocks(form):
        base = v.copy()
        base[block] = math.nan  # a trial that failed to write its block reads NaN
        obj = solver._block_objective(form, base, block, penalty, penalty_value, rho, theta)
        half = v.copy()
        half[block] *= 0.5
        # each trial moves the block and switches the mode: none reads another's point
        for point, need_grad in ((v, True), (half, False), (half, True), (v, False)):

            def want():
                if need_grad:
                    f, g = penalty(form, point, rho, theta)
                    return f, g[block]
                return (penalty_value(form, point, rho, theta),)

            got = _outcome(lambda: obj(point[block].copy(), need_grad)[: 1 + need_grad])
            assert got == _outcome(want), (form.name, block, need_grad)
            outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("form", default_suite(), ids=lambda f: f.name)
def test_block_objective_equals_the_form_penalty_bit_for_bit(form):
    rng = np.random.default_rng(0)
    lo, hi = form.effective_window()
    for rho in (10.0, 1e12):
        for _ in range(4):
            _block_matches_form(form, rng.uniform(lo, hi), rho)


def test_block_objective_raises_and_overflows_as_the_form_does():
    from test_kernels import _kink_form

    # outside a log domain: entropy at the origin
    entropy = make_catalog_form("entropy")
    outcomes = _block_matches_form(entropy, np.zeros(entropy.partition.total))
    assert all(o[0] is DomainEvalError for o in outcomes)
    # at a RealPow kink of an active constraint: the gradient raises
    grad, value, _, _ = _block_matches_form(_kink_form(1.0), np.zeros(1), rho=10.0, theta=1.5)
    assert grad[0] is ex.NondifferentiableError and isinstance(value, list)
    # a violation whose power overflows: value inf, gradient NaN
    sgn2 = make_catalog_form("sgn2_a")
    v = np.zeros(sgn2.partition.total)
    v[0] = -1e306
    for block, penalty, _ in _blocks(sgn2):
        value, grad = penalty(sgn2, v, 10.0, 1.01)
        assert value == math.inf and np.isnan(grad).all()
    _block_matches_form(sgn2, v, rho=10.0)


def test_a_trial_stays_lean():
    # one trial is one call of the solver-bound penalty name (which the
    # tracer wraps) on the block, which calls the form's kernel
    form = make_catalog_form("maxabs_minus_sum", n=5)
    rng = np.random.default_rng(0)
    lo, hi = form.effective_window()
    p = rng.uniform(lo, hi)
    for block, penalty, penalty_value in _blocks(form):
        obj = solver._block_objective(form, p, block, penalty, penalty_value, 1e4, 1.01)
        q = p[block].copy()
        for need_grad, entry in ((False, penalty_value), (True, penalty)):
            obj(q, need_grad)  # kernels compile on first use, not per trial
            codes = []

            def profile(frame, event, arg):
                if event == "call":
                    codes.append(frame.f_code)

            sys.setprofile(profile)
            try:
                obj(q, need_grad)
            finally:
                sys.setprofile(None)
            assert len(codes) <= 4, [c.co_name for c in codes]
            assert codes.count(entry.__code__) == 1
