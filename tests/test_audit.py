"""Grid oracle and identity audits."""

import math

import numpy as np
import pytest

from saddlelift import expr as ex
from saddlelift.audit import (
    CLASS_FAILED,
    GridSpec,
    RegistryEntry,
    grid_minmax,
    identity_audit,
    load_registry,
    parse_registry_line,
    registry_sweep,
)
from saddlelift.catalog import make_catalog_form, trivial_convex
from saddlelift.forms import (
    Box,
    FormError,
    SaddleForm,
    VarPartition,
    WitnessInfeasibleError,
    validate_form,
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
