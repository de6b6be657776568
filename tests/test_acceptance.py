"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -v -s`` or in the
captured output on failure).  The two flagship solver runs are shared across
criteria via module-scoped fixtures.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import saddlelift as sl
from saddlelift import cli
from saddlelift import expr as ex
from saddlelift import penalty as pe
from saddlelift.audit import GridSpec, identity_audit, load_registry
from saddlelift.catalog import default_suite, make_catalog_form
from saddlelift.forms import D2_TOL, SaddlePoint, witness_check
from saddlelift.solver import SolverParams, alternating_penalty_solve

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

PAPER_PARAMS = dict(eps=1e-6, rho1=10.0, growth=100.0, theta=1.01, max_outer=20)


def _report(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _flagship_start(n, z_sign):
    return np.concatenate(
        [np.arange(1.0, 2 * n + 2), z_sign * 1000.0 * np.arange(1, n + 1)]
    )


@pytest.fixture(scope="module")
def flagship_n5():
    form = make_catalog_form("maxabs_minus_sum", n=5)
    t0 = time.time()
    res = alternating_penalty_solve(
        form, SolverParams(**PAPER_PARAMS), start=_flagship_start(5, -1.0), seed=0
    )
    return form, res, time.time() - t0


@pytest.fixture(scope="module")
def flagship_n10():
    form = make_catalog_form("maxabs_minus_sum", n=10)
    t0 = time.time()
    res = alternating_penalty_solve(
        form, SolverParams(**PAPER_PARAMS), start=_flagship_start(10, 1.0), seed=0
    )
    return form, res, time.time() - t0


def test_criterion_01_witness_identity_suite():
    registry = load_registry()
    rng = np.random.default_rng(2026)
    t0 = time.time()
    offenders = []
    for form in default_suite():
        error, _ = witness_check(form, form.sample_x(rng, 100))
        if error > D2_TOL and (form.name not in registry or not registry[form.name].counterexample):
            offenders.append(form.name)
    elapsed = time.time() - t0
    _report(
        1,
        f"witness identity <=1e-9 on 100 samples per form or registered "
        f"(offenders={offenders}, {elapsed:.1f}s < 10s)",
        not offenders and elapsed < 10.0,
    )


def test_criterion_02_kkt_reproduction():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.zeros(3))
    rep = sl.kkt_residual(form, p, alpha=[1.0, 1.0, 1.0], beta=[1.0, 1.0, 1.0])
    ok = (
        rep.stationarity_residual_xy <= 1e-12
        and rep.stationarity_residual_z <= 1e-12
        and rep.complementarity_residual == 0.0
        and rep.sign_violation == 0.0
    )
    _report(
        2,
        "multipliers (1,1,1)/(1,1,1) give stationarity residuals <=1e-12 and "
        "exact complementarity at the origin of the quartic lift",
        ok,
    )


def test_criterion_03_flagship_n5(flagship_n5):
    form, res, elapsed = flagship_n5
    x = res.point.x
    spread = float(x.max() - x.min())
    fval = abs(form.reference(x))
    ok = (
        res.converged
        and len(res.trace) <= 20
        and spread <= 1e-2
        and fval <= 1e-2
        and elapsed < 60.0
    )
    _report(
        3,
        f"n=5 run: status={res.status} iters={len(res.trace)} "
        f"spread={spread:.2e} |f|={fval:.2e} time={elapsed:.1f}s",
        ok,
    )


def test_criterion_04_flagship_n10(flagship_n10):
    form, res, elapsed = flagship_n10
    x = res.point.x
    fval = abs(form.reference(x))
    ok = res.converged and fval <= 1e-2
    _report(
        4,
        f"n=10 run: status={res.status} |f|={fval:.2e} time={elapsed:.1f}s",
        ok,
    )


def test_criterion_05_penalty_arithmetic():
    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.array([1.0, 1.0, 0.0]))
    f = pe.penalty_f(form, p, 10.0)
    g = pe.penalty_g(form, p, 10.0)
    g2 = pe.penalty_g2(form, p, 10.0)[0]
    ok = f == 23.0 and g == 17.0 and g2 == 17.0
    _report(5, f"exact penalties at the violated point: F={f} G={g} G2={g2}", ok)


def test_criterion_06_smoothed_gradients_match_fd():
    rho, theta = 3.0, 1.3
    bad = []
    for form in default_suite():
        lo, hi = form.effective_window()
        rng = np.random.default_rng(6)
        checked = 0
        tried = 0
        while checked < 50 and tried < 2000:
            tried += 1
            p = SaddlePoint(form.partition, rng.uniform(lo, hi))
            try:
                vals = [gi.value(p.vec) for gi in form.ineq] + [
                    hj.value(p.vec) for hj in form.eq
                ]
                if any(abs(v) < 1e-8 for v in vals):
                    continue
                _, grad = pe.penalty_f_theta(form, p, rho, theta)
                _, grad2 = pe.penalty_g2(form, p, rho)
            except ex.ExprError:
                continue
            fd = _fd(lambda q: pe.penalty_f_theta_value(form, q, rho, theta), form, p)
            fd2 = _fd(lambda q: pe.penalty_g2(form, q, rho)[0], form, p)
            scale = max(1.0, float(np.abs(fd).max()))
            scale2 = max(1.0, float(np.abs(fd2).max()))
            if np.abs(grad - fd).max() > 1e-5 * scale or np.abs(grad2 - fd2).max() > 1e-5 * scale2:
                bad.append(form.name)
                break
            checked += 1
        if checked < 50 and form.name not in bad:
            bad.append(f"{form.name} (only {checked} valid samples)")
    _report(6, f"smoothed-penalty gradients match central differences (bad={bad})", not bad)


def _fd(fun, form, p, step=1e-6):
    base = p.vec
    out = np.zeros(base.size)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (
            fun(SaddlePoint(form.partition, hi)) - fun(SaddlePoint(form.partition, lo))
        ) / (2 * step)
    return out


def test_criterion_07_violation_bound(flagship_n5, flagship_n10):
    ok = True
    details = []
    extra = alternating_penalty_solve(
        make_catalog_form("l0_scalar_reg", lam=2.0),
        SolverParams(max_outer=25),
        start=np.array([0.5, 0.5, 1.0]),
    )
    runs = [(flagship_n5[0], flagship_n5[1]), (flagship_n10[0], flagship_n10[1])]
    runs.append((make_catalog_form("l0_scalar_reg", lam=2.0), extra))
    for form, res in runs:
        L = max(max(abs(r.f_pen), abs(r.g_pen)) for r in res.trace)
        bound_ok = all(r.violation <= 2.0 * L / r.rho + 1e-12 for r in res.trace)
        final_ok = res.trace[-1].violation <= 1e-6
        details.append(f"{form.name}: L={L:.3g} final P={res.trace[-1].violation:.2e}")
        ok = ok and bound_ok and final_ok
    _report(7, "P <= 2L/rho at every iterate and final P <= eps (" + "; ".join(details) + ")", ok)


def test_criterion_08_oracle_positive_controls():
    t0 = time.time()
    dc = make_catalog_form("dc")
    xs = [np.array([v]) for v in (-2.0, -0.5, 0.7, 2.0)]
    rep_dc = identity_audit(dc, xs, GridSpec(resolution=2001), tol=1e-2)
    sin1 = make_catalog_form("sin_0_pi")
    xs = [np.array([v]) for v in (0.2, 0.9, 1.7, 2.8)]
    rep_sin = identity_audit(sin1, xs, GridSpec(resolution=2001), tol=1e-2)
    elapsed = time.time() - t0
    ok = (
        rep_dc.classification == "d2-and-d3-verified"
        and rep_sin.classification == "d2-and-d3-verified"
        and elapsed < 30.0
    )
    _report(
        8,
        f"grid oracle verifies the difference-of-convex and sine entries "
        f"(dc={rep_dc.classification}, sin={rep_sin.classification}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_09_algebra_closure():
    from saddlelift import algebra as alg
    from saddlelift.catalog import trivial_convex

    base = trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=True, window=(-2.5, 2.5))
    combos = {
        "product": alg.product(base, base),
        "scaled_sum": alg.scaled_sum(base, base, 1.0, 2.0),
        "power_half": alg.power(base, 0.5),
        "power_three": alg.power(base, 3.0),
    }
    ok = True
    notes = []
    pr = combos["product"]
    if (pr.partition.m1, pr.partition.m2) != (2, 1):
        ok = False
        notes.append("product dimensions wrong")
    for name, form in combos.items():
        rep = sl.validate_form(form, samples=50, seed=9)
        if not rep.passed:
            ok = False
            notes.append(f"{name} validate_form failed")
        error, x = witness_check(form, form.sample_x(np.random.default_rng(10), 100))
        if error > D2_TOL:
            ok = False
            notes.append(f"{name} witness identity failed at x={x}")
    _report(9, f"algebra closure and witness preservation ({notes or 'all good'})", ok)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    src = PROBLEMS / "dc_small.json"
    outputs, traces = [], []
    for run in range(2):
        trace = tmp_path / f"trace{run}.csv"
        code = cli.main(["solve", str(src), "--trace", str(trace), "--seed", "5"])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
        traces.append(trace.read_bytes())
    ok = outputs[0] == outputs[1] and traces[0] == traces[1]
    with capsys.disabled():
        _report(10, "same file + same seed give byte-identical JSON and CSV", ok)
    json.loads(outputs[0])  # summary is a single valid JSON object
