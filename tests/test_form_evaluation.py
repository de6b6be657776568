"""Membership, eps-feasibility, total violation, witness reports and KKT
residuals read one evaluation of the whole form.  They must give, bit for
bit, what evaluating each component on its own gives, with one deliberate
difference: a NaN constraint value is now a violation in ``eps_feasible``,
as it always was in ``membership``."""

import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from saddlelift import cli
from saddlelift import expr as ex
from saddlelift import forms as fm
from saddlelift.audit import CLASS_FAILED, GRID_AXES, GridSpec, identity_audit, registry_sweep
from saddlelift.catalog import make_catalog_form
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
    witness_check,
    witness_eval,
    witness_report,
)
from saddlelift.penalty import eps_feasible, penalty_f, penalty_g, total_violation
from saddlelift.solver import (
    KktReport,
    SolverParams,
    exactness_probe,
    kkt_residual,
    stability_probe,
)
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


def _ref_estimate(target, cols, is_ineq, active):
    """Bounded least squares over per-column lists, as kkt_residual solved
    it before its columns and bounds became one matrix and one vector."""
    from scipy.optimize import lsq_linear

    free_cols, free_idx, lb = [], [], []
    for idx, (c, ineq_flag, act) in enumerate(zip(cols, is_ineq, active)):
        if ineq_flag and not act:
            continue
        free_cols.append(c)
        free_idx.append(idx)
        lb.append(0.0 if ineq_flag else -np.inf)
    w = np.zeros(len(cols))
    if not free_cols:
        return w, float(np.linalg.norm(target))
    A = np.column_stack(free_cols)
    b = -target
    sol = lsq_linear(A, b, bounds=(np.array(lb), np.full(len(lb), np.inf)))
    for j, idx in enumerate(free_idx):
        w[idx] = sol.x[j]
    return w, float(np.linalg.norm(A @ sol.x - b))


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
    alpha, res_xy = _ref_estimate(ggrad[xy], [c[xy] for c in grads], is_ineq, active)
    beta, res_z = _ref_estimate(-ggrad[zz], [c[zz] for c in grads], is_ineq, active)
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


# -- one point rule: every reader takes a SaddlePoint or its vector


def _point_readers(form):
    """(name, reader of one point) for each form reader that takes a point."""
    return (
        ("membership", lambda p: membership(form, p)),
        ("eps_feasible", lambda p: eps_feasible(form, p, EPS)),
        ("penalty_f", lambda p: penalty_f(form, p, 1e3)),
        ("penalty_g", lambda p: penalty_g(form, p, 1e3)),
        ("total_violation", lambda p: total_violation(form, p)),
    )


def _feasible_point_readers(form):
    """As :func:`_point_readers`, for the readers that need a feasible point
    and the probes, which solve from it."""
    unshifted = [(np.zeros(len(form.ineq)), np.zeros(len(form.eq)))]
    return (
        ("kkt_residual", lambda p: kkt_residual(form, p)),
        ("exactness_probe", lambda p: tuple(map(_bits, exactness_probe(form, p, [1e2], restarts=0)))),
        (
            "stability_probe",
            lambda p: tuple(
                map(_bits, stability_probe(form, p, unshifted, 1.0, SolverParams(max_outer=0)).rows)
            ),
        ),
    )


@pytest.mark.parametrize("name", sorted(FORMS))
def test_every_point_reader_takes_a_saddle_point_or_its_vector(name):
    form = FORMS[name]
    rng = np.random.default_rng(11)
    lo, hi = form.effective_window()
    cases = [(_point_readers(form), rng.uniform(lo, hi)) for _ in range(3)]
    for x in form.sample_x(rng, 1):  # the witness point is feasible where the identity holds
        cases.append((_feasible_point_readers(form), witness_eval(form, x, check=False).vec))
    with np.errstate(over="ignore"):
        for readers, v in cases:
            for label, read in readers:
                assert _outcome(read, v) == _outcome(read, form.point(v)), label
    short = np.zeros(form.partition.total - 1)
    for label, read in _point_readers(form) + _feasible_point_readers(form):
        with pytest.raises(FormError, match="partition needs"):
            read(short)


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


# -- the witness identity read in bulk


def _ref_witness_check(form, xs):
    """The per-sample rule: the largest :func:`_ref_witness_report` error
    and the first x reaching it, or inf at the first x where it raises (a
    reference overflow is a WitnessOverflowError in witness_report)."""
    worst, at = 0.0, None
    for x in xs:
        try:
            err = _ref_witness_report(form, x).error
        except (ex.ExprError, FormError, OverflowError):
            return math.inf, x
        if err > worst:
            worst, at = err, x
    return worst, at


def _ref_identity_row(form, x):
    """(witness_value, witness_feasible, witness_gap) of an identity-audit
    row, from :func:`_ref_witness_report`."""
    try:
        report = _ref_witness_report(form, x)
    except (ex.ExprError, FormError, OverflowError):
        return tuple(map(_bits, (math.nan, False, math.inf)))
    return tuple(map(_bits, (report.value, report.membership.feasible, report.error)))


def _witness_cases():
    """(name, form, xs): every form with a witness on window samples and
    far-out points, and forms whose witness identity reads NaN, overflows
    or raises mid-list."""
    rng = np.random.default_rng(17)
    for name in sorted(FORMS):
        form = FORMS[name]
        if form.witness is not None:
            far = [np.full(form.partition.n, v) for v in (1e160, -1e200)]
            yield name, form, list(form.sample_x(rng, 12)) + far
    nan_constraint = dataclasses.replace(
        _nan_form(), witness=lambda x: ((), ()), reference=lambda x: float(x[0])
    )
    yield "nan_constraint", nan_constraint, [np.array([3.0]), np.array([1e200]), np.array([-1e200])]
    nan_objective = SaddleForm(  # g = x0^2 - x0^2 is NaN at 1e200, where f = 0
        "nan_objective",
        VarPartition(1, 0, 1),
        Box.whole(2),
        ex.add(ex.ipow(ex.var(0), 2), ex.neg(ex.ipow(ex.var(0), 2))),
        witness=lambda x: ((), [0.0]),
        reference=lambda x: 0.0,
    )
    yield "nan_objective", nan_objective, [np.array([2.0]), np.array([1e200]), np.array([1e200])]
    l0 = make_catalog_form("l0_scalar_reg")  # its witness map overflows at 1e160
    yield "overflowing_witness", l0, [np.array([0.5]), np.array([1e160]), np.array([2.0])]

    def witness(x):
        if x[0] > 0.0:
            raise OverflowError("witness leaves the float range")
        return (), [x[0] ** 2]

    raising = SaddleForm(
        "raising_witness",
        VarPartition(1, 0, 1),
        Box((-1.0, -math.inf), (1.0, 0.5)),
        ex.var(0),
        witness=witness,
        reference=lambda x: float(x[0]),
    )
    yield "raising_witness", raising, [np.array([-0.9]), np.array([-0.5]), np.array([0.25]), np.array([-1.0])]


WITNESS_CASES = {name: (form, xs) for name, form, xs in _witness_cases()}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_check_is_the_per_sample_rule_bit_for_bit(case):
    form, xs = WITNESS_CASES[case]
    got_worst, got_at = witness_check(form, xs)
    with np.errstate(all="ignore"):  # the per-sample rule calls the reference bare
        want_worst, want_at = _ref_witness_check(form, xs)
        want_rows = [_ref_identity_row(form, x) for x in xs]
    assert _bits(got_worst) == _bits(want_worst) and got_at is want_at
    part = form.partition
    if form.reference is not None and part.m1 + part.m2 <= GRID_AXES:
        rows = identity_audit(form, xs, GridSpec(resolution=3)).rows
        got_rows = [tuple(map(_bits, (r.witness_value, r.witness_feasible, r.witness_gap))) for r in rows]
        assert got_rows == want_rows


def _plain_form(witness=lambda x: ((), [0.0]), reference=lambda x: float(x[0])):
    """f = x0 on [-1, 1], lifted with g = x0 and one free z."""
    box = Box((-1.0, -math.inf), (1.0, math.inf))
    return SaddleForm("plain", VarPartition(1, 0, 1), box, ex.var(0), witness=witness, reference=reference)


MALFORMED = {
    "map gives None": dict(witness=lambda x: None),
    "map gives one block": dict(witness=lambda x: (np.zeros(0),)),
    "map gives ['a']": dict(witness=lambda x: ["a"]),
    "z block of shape (1, 1)": dict(witness=lambda x: ((), np.zeros((1, 1)))),
    "z block ['a']": dict(witness=lambda x: ((), ["a"])),
    "z block too long": dict(witness=lambda x: ((), [0.0, 0.0])),
    "reference gives None": dict(reference=lambda x: None),
    "reference gives an array": dict(reference=lambda x: np.array([x[0]])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_witness_or_reference_is_a_form_error(case):
    # these escaped as TypeError or ValueError, and a reference giving None
    # passed the identity with error 0.0
    assert witness_check(_plain_form(), [np.array([0.5])]) == (0.0, None)
    form = _plain_form(**MALFORMED[case])
    xs = [np.array([0.5]), np.array([-0.25])]
    with pytest.raises(FormError, match="plain"):
        witness_report(form, xs[0])
    assert witness_check(form, xs) == (math.inf, xs[0])
    [item] = validate_form(form, samples=3).failures()
    assert item.label == "witness identity" and item.detail.startswith("worst error inf")
    rep = identity_audit(form, xs, GridSpec(resolution=5))
    assert rep.classification == CLASS_FAILED
    assert all(r.witness_gap == math.inf and not r.witness_feasible for r in rep.rows)
    assert registry_sweep([form])["plain"].classification == CLASS_FAILED


def _count_kernel_calls(form, monkeypatch):
    """The form's value and value+gradient kernel calls, counted."""
    calls = {"value": 0, "value_grad": 0}
    tape = form.tape()
    for mode in calls:
        kernel = getattr(tape, mode)

        def counted(p, mode=mode, kernel=kernel):
            calls[mode] += 1
            return kernel(p)

        monkeypatch.setattr(tape, mode, counted)
    return calls


@pytest.mark.parametrize("name", sorted(n for n, f in FORMS.items() if f.witness is not None))
def test_kkt_residual_evaluates_the_form_once(name, monkeypatch):
    # one value+gradient call feeds the membership check and both systems;
    # the check read the form again with a value call
    form = FORMS[name]
    calls = _count_kernel_calls(form, monkeypatch)
    seen = 0
    for x in form.sample_x(np.random.default_rng(11), 3):
        with np.errstate(all="ignore"):
            v = witness_eval(form, x, check=False).vec
        for given in ({}, {"alpha": np.zeros(len(form.ineq) + len(form.eq))}):
            before = dict(calls)
            try:
                kkt_residual(form, v, **given)
            except (ex.ExprError, FormError):
                pass
            assert (calls["value"] - before["value"], calls["value_grad"] - before["value_grad"]) == (0, 1)
            seen += 1
    assert seen == 6


def test_the_window_is_computed_once_per_form(monkeypatch):
    # validate_form, sample_x and each identity-audit row read the window;
    # it was recomputed on every read.  The curvature audit clips the
    # window it is given on its own, so its calls do not count here
    calls = []
    window = ex.sample_window

    def counted(lower, upper):
        if sys._getframe(1).f_code is not ex.curvature_audit.__code__:
            calls.append(lower)
        return window(lower, upper)

    monkeypatch.setattr(ex, "sample_window", counted)
    for name in ("dc", "sin_0_2pi", "relu_a", "pow_a"):
        form = make_catalog_form(name)
        del calls[:]
        validate_form(form, samples=5)
        identity_audit(form, form.sample_x(np.random.default_rng(0), 3), GridSpec(resolution=5))
        assert len(calls) == 1, name
        lo, hi = form.effective_window()
        assert not lo.flags.writeable and not hi.flags.writeable
        assert dataclasses.replace(form).effective_window() is not form.effective_window()
    # a pickled copy computes its own, read-only too
    doc = {"inline": {"partition": [1, 1, 1], "lower": [None, 0.0, 0.0], "g": "(+ y0 (neg z0))"}}
    form = cli.load_form({"problem": doc})
    lo, hi = form.effective_window()
    back = pickle.loads(pickle.dumps(form))
    assert "_window" not in back.__dict__
    for got, want in zip(back.effective_window(), (lo, hi)):
        assert not got.flags.writeable and got.tobytes() == want.tobytes()
