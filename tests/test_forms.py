"""Form data model: membership, witness evaluation, structural validation."""

import dataclasses
import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import saddlelift as sl
from saddlelift import expr as ex
from saddlelift.catalog import default_suite, make_catalog_form, make_structured, trivial_convex
from saddlelift.forms import (
    Box,
    FormError,
    SaddlePoint,
    VarPartition,
    WitnessAbsentError,
    membership,
    validate_form,
    witness_eval,
    witness_report,
)


@pytest.fixture(scope="module")
def f41():
    return make_catalog_form("abs_power")


def test_membership_feasible_at_origin(f41):
    rep = membership(f41, f41.point([0.0, 0.0, 0.0]), tol=1e-9)
    assert rep.feasible
    assert rep.max_violation == 0.0


def test_membership_violations(f41):
    rep = membership(f41, f41.point([1.0, 1.0, 0.0]))
    assert not rep.feasible
    np.testing.assert_allclose(rep.ineq_violation, [1.0, 1.0, 0.0])


def test_membership_box_excess(f41):
    # y-block lower bound is 0; y = -0.5 exceeds the box by exactly 0.5
    rep = membership(f41, f41.point([0.0, -0.5, 0.0]))
    assert not rep.feasible
    assert rep.box_excess == 0.5
    # a NaN coordinate is outside every box, as a NaN constraint value is violated
    free = trivial_convex(ex.square(ex.var(0)), 1, "sq")
    rep = membership(free, free.point([np.nan]))
    assert not rep.feasible and rep.max_violation == np.inf


def test_membership_monotone_in_tol(f41):
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = f41.point(rng.uniform(-2, 2, size=3))
        t = 10.0 ** rng.uniform(-9, 1)
        rep_small = membership(f41, p, tol=t)
        rep_big = membership(f41, p, tol=t * 10)
        if rep_small.feasible:
            assert rep_big.feasible


def test_feasible_set_is_convex(f41):
    # blends of witness points stay feasible (box + convex g_i)
    rng = np.random.default_rng(4)
    for _ in range(50):
        pa = witness_eval(f41, rng.uniform(-5, 5, size=1))
        pb = witness_eval(f41, rng.uniform(-5, 5, size=1))
        t = rng.uniform()
        blend = f41.point(t * pa.vec + (1 - t) * pb.vec)
        assert membership(f41, blend, tol=1e-9 + 1e-9).feasible


def test_witness_abs_power(f41):
    p = witness_eval(f41, [4.0])
    np.testing.assert_allclose(p.vec, [4.0, 2.0, 16.0])
    assert f41.g.value(p.vec) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(FormError, match=r"x has shape \(2,\), expected \(1,\)"):
        witness_eval(f41, [4.0, 1.0], check=False)


def test_witness_sparse_l0_scalar_at_zero():
    # pure count penalty: q = 0, lam = 1, one coordinate
    form = make_structured("sparse_l0", {"q": ex.const(0.0), "lam": 1.0, "n": 1})
    p = witness_eval(form, [0.0])
    np.testing.assert_allclose(p.y, [0.0])
    np.testing.assert_allclose(p.z, [1.0])
    assert form.g.value(p.vec) == pytest.approx(0.0, abs=1e-12)


def test_witness_maxabs_n2():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    p = witness_eval(form, [1.0, -1.0])
    np.testing.assert_allclose(p.y, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(p.z, [1.0, 1.0])
    assert form.g.value(p.vec) == pytest.approx(0.0, abs=1e-12)
    assert form.reference(np.array([1.0, -1.0])) == 0.0


def test_witness_absent():
    form = trivial_convex(ex.square(ex.var(0)), 1, "sq")
    from dataclasses import replace

    with pytest.raises(WitnessAbsentError):
        witness_eval(replace(form, witness=None), [1.0])


def test_validate_form_passes_on_worked_example(f41):
    rep = validate_form(f41, samples=40, seed=0)
    assert rep.passed, rep.failures()


def test_nonaffine_equality_rejected():
    # equalities must be structurally affine; x^2 cannot be declared in
    with pytest.raises(FormError):
        sl.SaddleForm(
            name="bad",
            partition=VarPartition(1, 0, 0),
            box=Box.whole(1),
            g=ex.var(0),
            eq=(ex.square(ex.var(0)).with_tag(ex.AFFINE),),
        )


def test_validate_dc_form():
    form = make_catalog_form("dc")  # d = 2x^2, c = x^2
    rep = validate_form(form, samples=40, seed=1)
    assert rep.passed, rep.failures()
    p = witness_eval(form, [2.0])
    assert form.g.value(p.vec) == pytest.approx(4.0)


def test_validate_form_rejects_a_sample_count_below_one():
    # with samples=0 every curvature claim read as failed ("no in-domain
    # sample pairs found") while the witness identity passed on no samples
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            validate_form(make_catalog_form("dc"), samples=samples)


def test_validate_form_names_a_curvature_counterexample():
    # g = -x0^2 is concave, so the convexity audit over x finds a blend that fails
    form = sl.SaddleForm(
        name="concave_g",
        partition=VarPartition(1, 0, 0),
        box=Box.whole(1),
        g=ex.neg(ex.square(ex.var(0))),
    )
    [item] = validate_form(form, samples=10, seed=0).failures()
    assert item.label == "g convex on (x,y)"
    assert item.detail.startswith("counterexample u=[") and " v=[" in item.detail
    assert " t=" in item.detail


def _one_axis_form(g, lower, upper, ineq=()):
    return sl.SaddleForm(
        name="one_axis", partition=VarPartition(1, 0, 0), box=Box((lower,), (upper,)), g=g, ineq=ineq
    )


def test_validate_form_says_how_each_claim_passed():
    rep = validate_form(make_catalog_form("dc"), samples=10)
    assert [(it.label, it.detail) for it in rep.items[:-1]] == [
        ("g convex on (x,y)", "proved"),
        ("g concave on z", "proved"),
        ("g1 convex", "proved"),
    ]
    # log's argument crosses 0 on the window: no proof, so the sampler
    # skips the pairs outside the domain and passes on the rest
    form = _one_axis_form(ex.neg(ex.log(ex.var(0))), -np.inf, np.inf)
    [item] = validate_form(form, samples=10).items
    assert (item.passed, item.detail) == (True, "sampled")
    # an affine g of large values is proved; the sampler's absolute blend
    # tolerance read its rounding as a counterexample
    [item] = validate_form(_one_axis_form(ex.affine([(0, 1e7)]), -10.0, 10.0), samples=10).items
    assert (item.passed, item.detail) == (True, "proved")


def test_a_claim_the_rules_refute_keeps_the_samplers_counterexample():
    # the walk reads no declared tag: this g1 is concave, so it is sampled
    g1 = ex.parse_sexpr("(tag convex (neg (sq x0)))", {"x0": 0}.__getitem__)
    form = _one_axis_form(ex.var(0), -np.inf, np.inf, ineq=(g1,))
    [item] = validate_form(form, samples=10, seed=3).failures()
    lo, hi = form.effective_window()
    rep = ex.curvature_audit(g1, lo, hi, tag=ex.CONVEX, samples=10, seed=5)
    u, v, t = rep.counterexample
    assert item.label == "g1 convex"
    assert item.detail == f"counterexample u={u.tolist()} v={v.tolist()} t={t}"


@pytest.mark.parametrize(
    "g, lower, upper",
    [
        (ex.neg(ex.log(ex.neg(ex.var(0)))), 0.0, 5.0),  # log's argument <= 0 on the whole window
        (ex.square(ex.var(0)) + ex.const(np.nan), -1.0, 1.0),  # a non-finite constant proves nothing
    ],
)
def test_a_claim_without_a_value_on_the_window_is_a_domain_error(g, lower, upper):
    [item] = validate_form(_one_axis_form(g, lower, upper), samples=10).failures()
    assert item.detail == "domain error during audit: no in-domain sample pairs found for audit"


def _readme_compositions():
    # bench/workloads.readme_compositions: the README's algebra on a convex square
    sq = trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=True)
    root = sl.power(sq, 0.5)
    return [root, sl.product(root, sq), sl.scaled_sum(root, sq, 1.0, 2.0)]


def test_every_suite_claim_is_proved_and_the_failures_match_the_benchmark():
    expected = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())
    details, failures = Counter(), {}
    for form in default_suite() + _readme_compositions():
        rep = validate_form(form)
        details.update(it.detail for it in rep.items if it.label != "witness identity")
        failures[form.name] = [it.label for it in rep.failures()]
    assert details == {"proved": 214}
    assert failures == expected["validate"]


def test_out_of_range_index_rejected():
    with pytest.raises(FormError):
        sl.SaddleForm(
            name="bad",
            partition=VarPartition(1, 0, 0),
            box=Box.whole(1),
            g=ex.var(5),
        )


@pytest.mark.parametrize(
    "changes, words",
    [
        ({"box": Box.whole(2)}, "box dimension does not match partition"),
        ({"window": Box.whole(4)}, "window dimension does not match partition"),
        ({"declares": {"concave"}}, "unknown declarations ['concave']"),
    ],
)
def test_inconsistent_form_rejected(f41, changes, words):
    with pytest.raises(FormError) as err:
        dataclasses.replace(f41, **changes)
    assert str(err.value) == words


def test_box_and_window():
    box = Box((0.0, -np.inf), (1.0, np.inf))
    assert box.excess(np.array([1.5, 0.0])) == 0.5
    lo, hi = ex.sample_window(box.lower_array(), box.upper_array())
    assert lo[1] == -10.0 and hi[1] == 10.0
    # the bound arrays are kept on the box; lower_array/upper_array stay fresh
    box.lower_array()[0] = 5.0
    box.upper_array()[0] = -5.0
    assert box.excess(np.array([1.5, 0.0])) == 0.5
    assert box.excess(np.array([-0.25, -1e300])) == 0.25
    assert box.excess(np.array([0.5, 1e300])) == 0.0
    # nothing is subtracted at an infinite bound, so this does not warn
    assert box.excess(np.array([-0.25, -np.inf])) == 0.25
    assert box.excess(np.array([0.5, np.nan])) == np.inf
    # a NaN bound fails the check, and the message names the bad pair
    for lower, upper in (((np.nan,), (1.0,)), ((0.0,), (np.nan,)), ((2.0,), (1.0,))):
        with pytest.raises(FormError, match=rf"\({lower[0]}, {upper[0]}\)"):
            Box(lower, upper)
    with pytest.raises(FormError, match="box bound lengths differ"):
        Box((0.0,), (1.0, 2.0))


def test_witness_reports_do_not_warn():
    # x = 0 sits on the log forms' boundary; at 1e200 maps and references overflow
    for form in default_suite():
        n = form.partition.n
        lo, hi = (np.array(b[:n]) for b in (form.box.lower, form.box.upper))
        edges = [np.where(np.isfinite(b), b, 0.0) for b in (lo, hi)]
        for x in (np.zeros(n), *edges, np.full(n, 1e200)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    witness_report(form, x)
                except (ex.ExprError, FormError):
                    pass


def test_saddle_point_blocks():
    part = VarPartition(2, 1, 1)
    p = SaddlePoint.from_blocks(part, [1.0, 2.0], [3.0], [4.0])
    np.testing.assert_array_equal(p.x, [1.0, 2.0])
    np.testing.assert_array_equal(p.y, [3.0])
    np.testing.assert_array_equal(p.z, [4.0])
    assert not p.vec.flags.writeable
    with pytest.raises(FormError):
        SaddlePoint(part, np.zeros(3))
    with pytest.raises(FormError):
        SaddlePoint.from_blocks(part, [1.0, 2.0], [3.0, 3.5], [4.0])
    # a caller's array is copied, a point's own vector is shared
    vec = np.arange(4.0)
    q = SaddlePoint(part, vec)
    vec[0] = 9.0
    assert q.vec[0] == 0.0 and vec.flags.writeable
    assert SaddlePoint(part, q.vec).vec is q.vec


def test_partition_names():
    part = VarPartition(2, 1, 1)
    names = [part.name_of(i) for i in range(4)]
    assert names == ["x0", "x1", "y0", "z0"]
    assert [part.index_of(n) for n in names] == [0, 1, 2, 3]
    with pytest.raises(KeyError):
        part.index_of("y5")
    with pytest.raises(FormError, match="index 4 outside partition of size 4"):
        part.name_of(4)
    for n, m1, m2 in ((0, 1, 1), (1, -1, 0), (1, 0, -1)):
        with pytest.raises(FormError, match="partition requires n >= 1"):
            VarPartition(n, m1, m2)


def test_a_report_without_a_reference_has_no_gap():
    # the error is then the largest violation alone
    form = make_catalog_form("abs_power")
    blind = dataclasses.replace(form, reference=None)
    report = witness_report(blind, [2.0])
    assert report.reference is None and report.gap is None
    assert report.error == report.violation < 1e-9
    shifted = dataclasses.replace(blind, witness=lambda x: (np.array([0.0]), np.array([-1.0])))
    report = witness_report(shifted, [2.0])
    assert report.gap is None and report.error == report.violation > 1.0
