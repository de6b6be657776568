"""Membership, eps-feasibility, total violation, witness reports and KKT
residuals read one evaluation of the whole form.  They must give, bit for
bit, what evaluating each component on its own gives, with one deliberate
difference: a NaN constraint value is now a violation in ``eps_feasible``,
as it always was in ``membership``."""

import dataclasses
import math

import numpy as np
import pytest

from saddlelift import expr as ex
from saddlelift import forms as fm
from saddlelift.forms import (
    D2_TOL,
    Box,
    FormError,
    MembershipReport,
    SaddleForm,
    SaddlePoint,
    VarPartition,
    WitnessInfeasibleError,
    WitnessReport,
    membership,
    validate_form,
    witness_eval,
    witness_report,
)
from saddlelift.penalty import eps_feasible, total_violation
from saddlelift.solver import KktReport, _estimate, kkt_residual
from test_kernels import FORMS
from test_penalty import _nan_form

EPS = 1e-6


# -- per-component reference: one Expr.value / value_grad call per component


def _ref_membership(form, p, tol=D2_TOL):
    v = p.vec
    iv = np.array([max(gi.value(v), 0.0) for gi in form.ineq])
    ev = np.array([abs(hj.value(v)) for hj in form.eq])
    bx = form.box.excess(v)
    feasible = bx <= tol
    if iv.size:
        feasible = feasible and bool(iv.max() <= tol)
    if ev.size:
        feasible = feasible and bool(ev.max() <= tol)
    return MembershipReport(feasible, iv, ev, bx, tol)


def _ref_values(form, v):
    vals = [e.value(v) for _, e in form.components()]
    s = 1 + len(form.ineq)
    return vals[1:s], vals[s:]


def _ref_eps_feasible(form, p, eps):
    # the earlier rule: a NaN compares false, so it passed
    if form.box.excess(p.vec) > eps:
        return False
    ivals, evals = _ref_values(form, p.vec)
    return not (any(gv > eps for gv in ivals) or any(abs(hv) > eps for hv in evals))


def _ref_total_violation(form, p):
    ivals, evals = _ref_values(form, p.vec)
    return float(np.maximum(ivals, 0.0).sum() + np.abs(evals).sum())


def _ref_witness_report(form, x):
    p = witness_eval(form, x, check=False)
    ref = None if form.reference is None else form.reference(p.x)
    return WitnessReport(p, _ref_membership(form, p), form.g.value(p.vec), ref)


def _ref_kkt(form, p, feas_tol=1e-6, act_tol=1e-6):
    if not _ref_membership(form, p, feas_tol).feasible:
        raise FormError("infeasible")
    part, v = form.partition, p.vec
    xy = np.arange(part.n + part.m1)
    zz = np.arange(part.n + part.m1, part.total)
    s, r = len(form.ineq), len(form.eq)
    _, ggrad = form.g.value_grad(v)
    gi_vals = np.array([gi.value(v) for gi in form.ineq])
    grads = [e.value_grad(v)[1] for e in (*form.ineq, *form.eq)]
    is_ineq = [True] * s + [False] * r
    active = [gi_vals[i] >= -act_tol for i in range(s)] + [True] * r
    alpha, res_xy = _estimate(ggrad[xy], [c[xy] for c in grads], is_ineq, active)
    beta, res_z = _estimate(-ggrad[zz], [c[zz] for c in grads], is_ineq, active)
    comp = sign = 0.0
    for i in range(s):
        comp = max(comp, abs(alpha[i] * gi_vals[i]), abs(beta[i] * gi_vals[i]))
        sign = max(sign, -min(alpha[i], 0.0), -min(beta[i], 0.0))
    return KktReport(alpha, beta, res_xy, res_z, comp, sign)


# -- comparison


def _bits(obj):
    """A form of ``obj`` equal for equal bits: floats and arrays by bytes,
    dataclasses field by field."""
    if dataclasses.is_dataclass(obj):
        return tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (float, np.floating)):
        return np.float64(obj).tobytes()
    return obj


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except Exception as err:  # compared by type
        return type(err)


def _has_nan_constraint(form, p):
    try:
        ivals, evals = _ref_values(form, p.vec)
    except ex.ExprError:
        return False
    return any(math.isnan(c) for c in (*ivals, *evals))


@pytest.mark.parametrize("name", sorted(FORMS) + ["nan_constraint"])
def test_whole_form_readers_match_per_component_reference(name):
    form = _nan_form() if name == "nan_constraint" else FORMS[name]
    rng = np.random.default_rng(5)
    lo, hi = form.effective_window()
    vecs = [rng.uniform(lo, hi) for _ in range(16)] + [np.full(lo.size, 1e200)]
    if form.witness is not None:
        for x in form.sample_x(rng, 8):
            assert _outcome(witness_report, form, x) == _outcome(_ref_witness_report, form, x)
            vecs.append(witness_eval(form, x, check=False).vec)
    nan_seen = False
    with np.errstate(over="ignore"):
        for v in vecs:
            p = SaddlePoint(form.partition, v)
            for fn, ref, args in (
                (membership, _ref_membership, ()),
                (membership, _ref_membership, (EPS,)),
                (total_violation, _ref_total_violation, ()),
                (kkt_residual, _ref_kkt, ()),
            ):
                assert _outcome(fn, form, p, *args) == _outcome(ref, form, p, *args), fn
            got, want = _outcome(eps_feasible, form, p, EPS), _outcome(_ref_eps_feasible, form, p, EPS)
            if _has_nan_constraint(form, p):
                nan_seen = True
                assert got is False
            else:
                assert got == want
    assert nan_seen == (name == "nan_constraint")


def test_membership_domain_error_names_the_form_and_node():
    bad = ex.log(ex.var(0))
    form = SaddleForm("logbox", VarPartition(1, 0, 0), Box.whole(1), ex.var(0), ineq=(ex.neg(bad),))
    with pytest.raises(ex.DomainEvalError) as err:
        membership(form, form.point([-1.0]))
    assert "logbox" in str(err.value) and err.value.node is bad
    # the form is evaluated as a whole: g outside its domain raises too
    form = SaddleForm("logobj", VarPartition(1, 0, 0), Box.whole(1), bad, ineq=(ex.var(0),))
    with pytest.raises(ex.DomainEvalError) as err:
        membership(form, form.point([-1.0]))
    assert "logobj" in str(err.value) and err.value.node is bad


def test_witness_report_evaluates_the_form_once(monkeypatch):
    # membership reads the same evaluation that gives g at the witness
    calls = {"values": 0, "membership": 0}
    values, member = SaddleForm.values, fm.membership

    def counted_values(form, v):
        calls["values"] += 1
        return values(form, v)

    def counted_membership(*args, **kw):
        calls["membership"] += 1
        return member(*args, **kw)

    monkeypatch.setattr(SaddleForm, "values", counted_values)
    monkeypatch.setattr(fm, "membership", counted_membership)
    reports = 0
    for form in FORMS.values():
        if form.witness is None:
            continue
        for x in form.sample_x(np.random.default_rng(5), 2):
            witness_report(form, x)
            reports += 1
    assert reports and calls == {"values": reports, "membership": reports}
    # a domain error still names the membership check
    bad = ex.log(ex.var(0))
    form = SaddleForm("logwit", VarPartition(1, 0, 0), Box.whole(1), bad, witness=lambda x: ((), ()))
    with pytest.raises(ex.DomainEvalError, match="membership of logwit"):
        witness_report(form, [-1.0])


def test_nan_violation_reads_inf_and_fails_the_witness_identity():
    # Python's max drops a NaN, so the violation used to read 0.0 and
    # validate_form passed a witness that witness_report(check=True) rejects
    form = dataclasses.replace(
        _nan_form(),
        witness=lambda x: ((), ()),
        reference=lambda x: float(x[0]),
        window=Box((1e200,), (1e200,)),
    )
    with np.errstate(over="ignore"):
        report = witness_report(form, [1e200])
        assert not report.membership.feasible
        assert report.membership.max_violation == math.inf
        assert report.error == math.inf
        with pytest.raises(WitnessInfeasibleError):
            witness_report(form, [1e200], check=True)
        items = {it.label: it for it in validate_form(form, samples=3).items}
    assert not items["witness identity"].passed
    assert "worst error inf" in items["witness identity"].detail
