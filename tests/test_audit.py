"""Grid oracle and identity audits."""

import dataclasses
import math

import numpy as np
import pytest

from saddlelift import expr as ex
from saddlelift.audit import (
    CLASS_FAILED,
    GRID_AXES,
    GridSpec,
    RegistryEntry,
    _audited,
    _default_bounds,
    _gradient_bound,
    _grid_scan,
    grid_minmax,
    identity_audit,
    load_registry,
    parse_registry_line,
    registry_sweep,
)
from saddlelift.catalog import CATALOG, default_suite, make_catalog_form, trivial_convex
from saddlelift.forms import (
    Box,
    FormError,
    SaddleForm,
    VarPartition,
    WitnessInfeasibleError,
    WitnessOverflowError,
    validate_form,
    witness_check,
    witness_report,
)


def test_dc_oracle_matches_analytic_value():
    form = make_catalog_form("dc")  # f = 2x^2 - x^2 = x^2
    spec = GridSpec(resolution=2001, bounds=((0.0, 20.0),))
    v = grid_minmax(form, [2.0], spec)
    step = 20.0 / 2000
    assert abs(v - 4.0) <= step


def test_trivial_form_oracle_degenerates_to_eval():
    form = trivial_convex(ex.square(ex.var(0)), 1, "sq")
    assert grid_minmax(form, [3.0]) == 9.0


def test_quartic_lift_shortfall_is_recorded_not_asserted():
    form = make_catalog_form("abs_power")
    spec = GridSpec(resolution=201, bounds=((0.0, 4.0), (0.0, 40.0)))
    v = grid_minmax(form, [4.0], spec)
    assert v < 2.0 - 1e-3  # the oracle drops below the reference value 2
    report = identity_audit(form, [np.array([4.0])], spec, tol=1e-2)
    assert report.classification == "d2-only"
    assert "oracle" in report.counterexample


def test_oracle_reports_infeasible_grid_as_inf():
    form = make_catalog_form("abs_power")
    spec = GridSpec(resolution=11, bounds=((0.0, 1.0), (0.0, 1.0)))
    assert grid_minmax(form, [5.0], spec) == math.inf  # x^2=25 needs z >= 25


def test_dimension_cap():
    form = make_catalog_form("maxabs_minus_sum", n=5)  # m1 + m2 = 11
    with pytest.raises(FormError):
        grid_minmax(form, np.zeros(5))
    with pytest.raises(FormError, match="grid needs 2 axis bounds, got 1"):
        grid_minmax(make_catalog_form("abs_power"), [0.5], GridSpec(11, bounds=((0.0, 1.0),)))


def test_identity_audit_positive_controls():
    dc = make_catalog_form("dc")
    xs = [np.array([v]) for v in (-2.0, -0.5, 1.0, 2.5)]
    rep = identity_audit(dc, xs, GridSpec(resolution=2001), tol=1e-2)
    assert rep.classification == "d2-and-d3-verified"

    sin1 = make_catalog_form("sin_0_pi")
    xs = [np.array([v]) for v in (0.3, 1.2, 2.0, 3.0)]
    rep = identity_audit(sin1, xs, GridSpec(resolution=2001), tol=1e-2)
    assert rep.classification == "d2-and-d3-verified"


def test_identity_audit_failed_classification():
    form = make_catalog_form("sigmoid")
    rep = identity_audit(form, [np.array([0.5])], GridSpec(resolution=41), tol=1e-2)
    assert rep.classification == "failed"
    assert "witness_gap" in rep.counterexample


def test_identity_audit_needs_a_sample():
    # zero rows used to classify as d2-and-d3-verified
    with pytest.raises(ValueError):
        identity_audit(make_catalog_form("dc"), [], GridSpec(resolution=41))
    bare = dataclasses.replace(make_catalog_form("dc"), reference=None)
    with pytest.raises(FormError, match="needs a form with a reference evaluator"):
        identity_audit(bare, [[0.0]], GridSpec(resolution=41))


def test_grid_spec_settings():
    # the feasibility tolerance is forms.D2_TOL, not a setting
    assert [f.name for f in dataclasses.fields(GridSpec)] == ["resolution", "bounds"]
    with pytest.raises(ValueError, match="grid resolution must be >= 2"):
        GridSpec(resolution=1)


def test_witness_outside_a_constraint_domain_fails_the_audit():
    # the witness puts y = -1, where the constraint -log(y) <= 0 is undefined
    form = SaddleForm(
        name="log_witness",
        partition=VarPartition(1, 1, 0),
        box=Box.whole(2),
        g=ex.var(1),
        ineq=(ex.neg(ex.log(ex.var(1))),),
        witness=lambda x: (np.array([-1.0]), np.empty(0)),
        reference=lambda x: 1.0,
    )
    rep = identity_audit(form, [np.array([0.5])], GridSpec(resolution=41), tol=1e-2)
    assert rep.classification == "failed"
    assert math.isinf(rep.rows[0].witness_gap)
    assert [it.label for it in validate_form(form, samples=5).failures()] == ["witness identity"]


def _z0_form(m2, witness):
    """f = x0 on [-1, 1] lifted with g = x0 and g1 = z0 - 1 <= 0, so a
    witness z0 = 2 + x0^2 breaks feasibility by 1 + x0^2 and keeps the gap 0."""
    return SaddleForm(
        name="z0_form",
        partition=VarPartition(1, 0, m2),
        box=Box((-1.0,) + (-math.inf,) * m2, (1.0,) + (math.inf,) * m2),
        g=ex.var(0),
        ineq=(ex.affine([(1, 1.0)], -1.0),),
        witness=witness,
        reference=lambda x: float(x[0]),
    )


def _too_big_z0(m2):
    return lambda x: (np.empty(0), np.array([2.0 + x[0] ** 2] + [0.0] * (m2 - 1)))


def test_witness_check_reports_the_violation():
    form = _z0_form(5, _too_big_z0(5))
    xs = [np.array([0.5]), np.array([-0.75]), np.array([0.75])]
    worst, at = witness_check(form, xs)
    assert worst == 1.5625 and at is xs[1]  # the first x reaching it, not inf
    assert witness_check(_z0_form(5, lambda x: (np.empty(0), np.zeros(5))), xs) == (0.0, None)


def test_sweep_lists_no_exact_witness_beyond_reach():
    # witness_check gives x None where every error is 0; the sweep formatted
    # that None into a counterexample and raised TypeError
    exact = _z0_form(5, lambda x: (np.empty(0), np.zeros(5)))
    assert registry_sweep([exact]) == {}


def test_witness_check_stops_at_the_first_raising_x():
    def witness(x):
        if x[0] > 0.0:
            raise OverflowError("witness leaves the float range")
        return _too_big_z0(5)(x)

    xs = [np.array([-0.5]), np.array([0.25]), np.array([0.75])]
    assert witness_check(_z0_form(5, witness), xs) == (math.inf, xs[1])
    # an x of the wrong size raises in the map; the reference is not asked
    xs = [np.array([-0.5]), np.zeros(0), np.array([0.75])]
    assert witness_check(_z0_form(5, witness), xs) == (math.inf, xs[1])


def test_one_witness_rule_for_every_audit():
    # the grid cannot reach m2 = 5, so the sweep checks the witness alone
    form = _z0_form(5, _too_big_z0(5))
    worst, at = witness_check(form, form.sample_x(np.random.default_rng(0), 6))
    entry = registry_sweep([form])["z0_form"]
    assert entry.classification == CLASS_FAILED
    assert entry.counterexample == f"x=[{at[0]:.6g}] witness_gap={worst:.6g}"
    assert math.isfinite(worst) and worst > 1.0
    [item] = validate_form(form, samples=5).failures()
    assert item.label == "witness identity" and item.detail.startswith("worst error 1.")
    # the grid reaches m2 = 1, where the identity audit's rows read the same error
    small = _z0_form(1, _too_big_z0(1))
    rep = identity_audit(small, [np.array([0.5])], GridSpec(resolution=41))
    assert rep.classification == CLASS_FAILED and rep.rows[0].witness_gap == 1.25
    assert rep.counterexample == "x=[0.5] witness_gap=1.25 feasible=False"


def test_nan_objective_at_the_witness_fails_the_identity():
    # g = x0^2 - x0^2 is inf - inf = NaN at x0 = 1e200, where f = 0
    part = VarPartition(1, 0, 5)
    form = SaddleForm(
        name="nan_objective",
        partition=part,
        box=Box((1e200,) + (-math.inf,) * 5, (1e200,) + (math.inf,) * 5),
        g=ex.add(ex.ipow(ex.var(0), 2), ex.neg(ex.ipow(ex.var(0), 2))),
        witness=lambda x: (np.empty(0), np.zeros(5)),
        reference=lambda x: 0.0,
    )
    report = witness_report(form, [1e200])
    assert math.isnan(report.value) and report.gap == math.inf == report.error
    with pytest.raises(WitnessInfeasibleError):
        witness_report(form, [1e200], check=True)
    assert "witness identity" in [it.label for it in validate_form(form, samples=5).failures()]
    assert registry_sweep([form])["nan_objective"].classification == CLASS_FAILED


@pytest.mark.parametrize("name", ["sin_0_pi", "sin_0_2pi", "cos_0_2pi"])
def test_a_map_or_reference_outside_the_math_domain_reads_an_inf_error(name):
    # at x = +-inf the map and the reference raise ValueError in Python's
    # math, which ended witness_check and identity_audit in a traceback
    form = make_catalog_form(name)
    for x in (np.array([math.inf]), np.array([-math.inf])):
        with pytest.raises(FormError, match=f"witness map of '{name}' is undefined at x="):
            witness_report(form, x)
        worst, at = witness_check(form, [np.array([1.0]), x])
        assert worst == math.inf and at is x
        (row,) = identity_audit(form, [x], GridSpec(resolution=3)).rows
        assert row.witness_gap == math.inf and not row.witness_feasible and math.isnan(row.reference)


def test_grid_scan_of_an_x_outside_the_box_is_infeasible():
    form = make_catalog_form("pow_a")  # x >= 0
    assert _grid_scan(form, [-1.0], GridSpec(resolution=5)) == (math.inf, None)
    assert grid_minmax(form, [-1.0], GridSpec(resolution=5)) == math.inf


def test_gradient_bound_falls_back_where_g_raises():
    # log z0 has no value at z0 = 0: every axis gets the floor bound 0.5
    form = SaddleForm(
        name="log_z",
        partition=VarPartition(1, 1, 1),
        box=Box.whole(3),
        g=ex.add(ex.var(1), ex.log(ex.var(2))),
    )
    assert _gradient_bound(form, [0.0], [0.0, 1.0, 0.0]).tolist() == [0.5, 0.5]
    assert _gradient_bound(form, [0.0], [0.0, 1.0, 0.25]).tolist() == [1.0, 4.0]


def test_one_rule_picks_the_audited_form():
    for form in default_suite():
        part = form.partition
        if part.m1 + part.m2 <= GRID_AXES:
            assert _audited(form) is form
    flagship = _audited(make_catalog_form("maxabs_minus_sum", n=5))
    assert flagship.name == "maxabs_minus_sum"
    assert flagship.partition == VarPartition(1, 2, 1)
    for name in ("l01_svm", "geometric_poly"):  # beyond reach, no audit instance
        assert _audited(make_catalog_form(name, **CATALOG[name].suite)) is None
    for entry in CATALOG.values():  # an audit instance is within reach
        if entry.audit_params is not None:
            part = entry.build(**entry.audit_params).partition
            assert part.m1 + part.m2 <= GRID_AXES, entry.name


def test_sweep_skips_a_form_without_a_reference():
    form = dataclasses.replace(make_catalog_form("abs_power"), reference=None)
    assert "abs_power" in registry_sweep([make_catalog_form("abs_power")])
    assert registry_sweep([form]) == {}


def test_overflowing_witness_or_reference_fails_the_audit():
    # (x + y - 1.0) ** 2 in Python floats overflows in the witness map at 1e160
    form = make_catalog_form("l0_scalar_reg")
    x = np.array([1e160])
    with pytest.raises(WitnessOverflowError):
        witness_report(form, x)
    # the window alone bounds the grid
    assert np.isfinite(_default_bounds(form, None)).all()
    # the reference overflows to inf in numpy; no warning leaks from the audit
    rep = identity_audit(form, [x], GridSpec(resolution=11))
    assert rep.classification == CLASS_FAILED
    assert math.isinf(rep.rows[0].witness_gap)

    def reference(x):
        return math.exp(x[0])  # OverflowError above ~709.8

    big = SaddleForm(
        name="exp_reference",
        partition=VarPartition(1, 0, 1),
        box=Box.whole(2),
        g=ex.var(0),
        witness=lambda x: (np.empty(0), np.zeros(1)),
        reference=reference,
    )
    with pytest.raises(WitnessOverflowError):
        witness_report(big, [1000.0])
    rep = identity_audit(big, [np.array([1000.0])], GridSpec(resolution=11))
    assert rep.classification == CLASS_FAILED
    assert math.isnan(rep.rows[0].reference) and math.isnan(rep.rows[0].oracle_gap)


@pytest.mark.parametrize("name", ["dc", "pow_a_2n"])
def test_identity_audit_reads_each_witness_once(name, monkeypatch):
    # one read of the witness per sample places the grid and the gradient
    # probe, also where no grid point is feasible (pow_a_2n at resolution
    # 11); validate_form reads it once per sample too, and each read calls
    # the form's value kernel once
    form = make_catalog_form(name)
    calls, kernel_calls = [], []

    def counted(x, witness=form.witness):
        calls.append(x)
        return witness(x)

    form = dataclasses.replace(form, witness=counted)
    kernel = form.tape().value

    def counted_kernel(p):
        kernel_calls.append(p)
        return kernel(p)

    monkeypatch.setattr(form.tape(), "value", counted_kernel)
    xs = form.sample_x(np.random.default_rng(0), 3)
    rep = identity_audit(form, xs, GridSpec(resolution=11))
    assert len(calls) == len(kernel_calls) == len(xs)
    assert any(r.minmax_point is None for r in rep.rows) == (name == "pow_a_2n")
    del calls[:], kernel_calls[:]
    assert validate_form(form, samples=4).passed
    assert len(calls) == len(kernel_calls) == 4


def _raising_kernel():
    # g = -log x0 - z0 has no value at x0 <= 0, and neither has the reference
    return make_catalog_form("dc", d=ex.neg(ex.log(ex.var(0))).with_tag(ex.CONVEX))


def _raising_reference():
    form = make_catalog_form("dc")

    def reference(x):
        if x[0] > 0.0:
            raise OverflowError("reference leaves the float range")
        return form.reference(x)

    return dataclasses.replace(form, reference=reference)


@pytest.mark.parametrize("make", [_raising_kernel, _raising_reference])
def test_identity_audit_reads_map_kernel_and_reference_once(make, monkeypatch):
    # a row where the kernel or the reference raised read the map and the
    # reference a second time, and a reference raising a domain error there
    # ended the audit in a traceback
    form = make()
    calls = {"map": 0, "kernel": 0, "reference": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)

        return call

    form = dataclasses.replace(
        form, witness=counted("map", form.witness), reference=counted("reference", form.reference)
    )
    monkeypatch.setattr(form.tape(), "value", counted("kernel", form.tape().value))
    xs = [np.array([v]) for v in (-2.0, 0.5, -0.25, 3.0)]
    rep = identity_audit(form, xs, GridSpec(resolution=11))
    assert calls == {"map": 4, "kernel": 4, "reference": 4}
    assert rep.classification == CLASS_FAILED
    raised = [r for r in rep.rows if (r.x[0] < 0.0) == (make is _raising_kernel)]
    assert len(raised) == 2
    for row in raised:
        assert math.isnan(row.witness_value) and not row.witness_feasible and row.witness_gap == math.inf
    if make is _raising_reference:  # the map's point still places the grid
        assert all(math.isnan(r.reference) and math.isfinite(r.oracle) for r in raised)


def test_a_raised_row_of_a_constraint_free_form_is_infeasible():
    # no g_i or h_j reads the NaN values of a raised row: its violation is
    # inf all the same, although the map's point lies in the box
    form = SaddleForm(
        name="free_log",
        partition=VarPartition(1, 0, 1),
        box=Box.whole(2),
        g=ex.log(ex.var(0)) - ex.square(ex.var(1)),
        witness=lambda x: ((), [0.0]),
        reference=lambda x: math.log(x[0]) if x[0] > 0.0 else 0.0,
    )
    rep = identity_audit(form, [np.array([-1.0]), np.array([2.0])], GridSpec(resolution=5))
    bad, good = rep.rows
    assert (bad.witness_feasible, bad.witness_gap, bad.reference) == (False, math.inf, 0.0)
    assert good.witness_feasible and good.witness_gap == 0.0
    assert witness_check(form, [np.array([2.0]), np.array([-1.0])])[0] == math.inf


def test_a_raising_map_leaves_the_grid_to_the_window():
    # grid_minmax places its default grid by the witness map's point; where
    # the map raises, the window alone bounds it
    form = _raising_reference()

    def witness(x):
        raise OverflowError("witness leaves the float range")

    form = dataclasses.replace(form, witness=witness)
    bounds = tuple(_default_bounds(form, None))
    assert grid_minmax(form, [1.0], GridSpec(resolution=11)) == grid_minmax(
        form, [1.0], GridSpec(resolution=11, bounds=bounds)
    )


def test_refinement_shrinks_with_resolution():
    # doubling the resolution moves the value by at most the previous step
    # times the sampled gradient bound
    form = make_catalog_form("dc")
    bounds = ((0.0, 20.0),)
    for x in ([1.5], [2.5]):
        prev = grid_minmax(form, x, GridSpec(resolution=251, bounds=bounds))
        fine = grid_minmax(form, x, GridSpec(resolution=501, bounds=bounds))
        step = 20.0 / 250
        assert abs(fine - prev) <= step * 1.0 + 1e-12


def test_identity_audit_is_deterministic():
    form = make_catalog_form("sin_0_pi")
    xs = [np.array([v]) for v in (0.4, 1.0, 2.2)]
    a = identity_audit(form, xs, GridSpec(resolution=501), tol=1e-2)
    b = identity_audit(form, xs, GridSpec(resolution=501), tol=1e-2)
    assert a.classification == b.classification
    for ra, rb in zip(a.rows, b.rows):
        assert ra.oracle == rb.oracle


def test_registry_round_trip(tmp_path):
    path = tmp_path / "issues.txt"
    entry = RegistryEntry("some_form", "d2-only", "x=[1] oracle=0 ref=1", "2026-08-09")
    path.write_text(entry.line() + "\n")
    loaded = load_registry(path)
    assert loaded["some_form"] == entry


def test_registry_line_parsing():
    line = "name_x, failed, x=[1 2] witness_gap=inf, 2026-08-09"
    e = parse_registry_line(line)
    assert e.name == "name_x"
    assert e.classification == "failed"
    assert e.counterexample == "x=[1 2] witness_gap=inf"
    assert e.date == "2026-08-09"
    assert parse_registry_line("# comment") is None
    assert parse_registry_line("") is None
    with pytest.raises(ValueError):
        parse_registry_line("garbage with no commas")


def test_shipped_registry_loads():
    reg = load_registry()
    assert "sigmoid" in reg
    assert reg["sigmoid"].classification == "failed"
    assert "abs_power" in reg
    assert reg["abs_power"].classification == "d2-only"
