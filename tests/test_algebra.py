"""Composition algebra: dimension bookkeeping, witness preservation, closure."""

import dataclasses
import math

import numpy as np
import pytest

from saddlelift import algebra as alg
from saddlelift import expr as ex
from saddlelift.algebra import HypothesisViolationError
from saddlelift.catalog import abs_sqrt_term, make_catalog_form, trivial_convex
from saddlelift.forms import FormError, membership, validate_form, witness_eval


def _sq_form(nonneg=True):
    # power chains square intermediate values; the audit window keeps the
    # 1e-9 witness tolerance meaningful in doubles
    return trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=nonneg, window=(-2.5, 2.5))


def _witness_suite(form, samples=100, seed=0, tol=1e-9):
    rng = np.random.default_rng(seed)
    for x in form.sample_x(rng, samples):
        p = witness_eval(form, x, check=False)
        rep = membership(form, p, tol)
        assert rep.feasible, (form.name, x, rep.max_violation)
        assert abs(form.g.value(p.vec) - form.reference(x)) <= tol, (form.name, x)


def test_scaled_sum_trivial():
    s = alg.scaled_sum(_sq_form(), _sq_form(), 1.0, 1.0)
    x = np.array([1.0])
    assert s.reference(x) == 2.0
    p = witness_eval(s, x)
    assert s.g.value(p.vec) == 2.0


def test_scaled_sum_rejects_bad_weights():
    with pytest.raises(FormError):
        alg.scaled_sum(_sq_form(), _sq_form(), -1.0, 1.0)


def test_scaled_sum_dimension_mismatch():
    other = trivial_convex(ex.square(ex.var(0)), 2, "sq2")
    with pytest.raises(FormError):
        alg.scaled_sum(_sq_form(), other, 1.0, 1.0)


def test_scaled_sum_reproduces_two_term_sqrt_structure():
    # lam*(sqrt|x0| + sqrt|x1|) assembled from two per-coordinate gadgets:
    # 6 inequality constraints, m1 = 4, m2 = 2
    lam = 1.0
    f1 = abs_sqrt_term(2, 0)
    f2 = abs_sqrt_term(2, 1)
    s = alg.scaled_sum(f1, f2, lam, lam)
    assert (s.partition.n, s.partition.m1, s.partition.m2) == (2, 4, 2)
    assert len(s.ineq) == 6
    _witness_suite(s, samples=100, seed=1)


def test_product_trivial_values():
    pr = alg.product(_sq_form(), _sq_form())
    for xv, want in ((1.0, 1.0), (2.0, 16.0)):
        x = np.array([xv])
        assert pr.reference(x) == want
        p = witness_eval(pr, x)
        assert pr.g.value(p.vec) == pytest.approx(want, abs=1e-12)
    # composed witness at x=1: auxiliaries (1, 1) and their square sum
    p = witness_eval(pr, np.array([1.0]))
    np.testing.assert_allclose(p.y, [1.0, 1.0])
    np.testing.assert_allclose(p.z, [2.0])


def test_product_dimension_bookkeeping():
    pr = alg.product(_sq_form(), _sq_form())
    assert (pr.partition.m1, pr.partition.m2) == (2, 1)
    assert len(pr.ineq) == 3


def test_product_witness_feasible_on_samples():
    pr = alg.product(_sq_form(), _sq_form())
    _witness_suite(pr, samples=100, seed=2)


def test_product_requires_declarations():
    undeclared = trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=False)
    with pytest.raises(HypothesisViolationError):
        alg.product(undeclared, _sq_form())


def test_product_detects_sign_violation():
    # (x^2 - 1) is declared nonnegative but is negative near 0
    lying = trivial_convex(ex.square(ex.var(0)) - 1.0, 1, "liar").declare(
        "convex_joint_g", "nonneg"
    )
    with pytest.raises(HypothesisViolationError):
        alg.product(lying, _sq_form())


def test_every_operation_spot_checks_joint_convexity():
    # 100 - x^2 is nonnegative on the window but its g is concave, not convex
    liar = trivial_convex(
        (ex.neg(ex.square(ex.var(0))) + 100.0).with_tag(ex.CONVEX), 1, "liar", nonneg=True, window=(-2.0, 2.0)
    )
    for build in (
        lambda: alg.power(liar, 0.5),
        lambda: alg.product(liar, _sq_form()),
        lambda: alg.product(_sq_form(), liar),
        lambda: alg.reciprocal(liar.declare("positive"), "positive"),
    ):
        with pytest.raises(HypothesisViolationError, match="jointly convex"):
            build()


def _neg_form():
    # carries the negative-valued function -(1 + x^2) as  g = -z, 1+x^2-z <= 0
    d = ex.const(0.0)
    c = ex.square(ex.var(0)) + 1.0
    from saddlelift.catalog import _dc

    return _dc(d=d, c=c, n=1).declare("convex_joint_g", "negative")


def test_reciprocal_value_and_witness():
    out = alg.reciprocal(_neg_form(), "negative")
    assert out.reference(np.array([0.0])) == pytest.approx(-1.0)
    p = witness_eval(out, np.array([0.0]))
    # the two auxiliary minimizers multiply to one at the witness
    assert p.y[-2] * p.y[-1] == pytest.approx(1.0)
    assert (out.partition.m1, out.partition.m2) == (2, 2)


def test_reciprocal_boxes_declare_sign_ranges():
    out = alg.reciprocal(_neg_form(), "negative")
    m1 = out.partition.m1
    n = out.partition.n
    assert out.box.upper[n + m1 - 2] == 0.0
    assert out.box.upper[n + m1 - 1] == 0.0
    assert out.box.lower[-1] == 0.0


def test_reciprocal_mode_hypotheses():
    with pytest.raises(HypothesisViolationError):
        alg.reciprocal(_sq_form(), "negative")  # nonnegative, not negative
    with pytest.raises(FormError):
        alg.reciprocal(_neg_form(), "upside-down")
    pos = trivial_convex(ex.square(ex.var(0)) + 1.0, 1, "pos").declare("positive")
    out = alg.reciprocal(pos, "positive")
    assert out.reference(np.array([2.0])) == pytest.approx(-0.2)
    _witness_suite(out, samples=50, seed=3)


def test_compose_exp():
    out = alg.compose_monotone_convex(_sq_form(), ex.exp(ex.var(0)))
    assert out.reference(np.array([1.0])) == pytest.approx(math.e)
    _witness_suite(out, samples=100, seed=4)


def test_compose_tags_g_convex_where_g_is_jointly_convex():
    phi = ex.exp(ex.var(0))
    assert alg.compose_monotone_convex(_sq_form(), phi).g.tag == ex.CONVEX
    # dc declares no jointly convex g: exp of it keeps its derived tag
    dc = make_catalog_form("dc")
    out = alg.compose_monotone_convex(dc, phi)
    assert "convex_joint_g" not in dc.declares and out.g.tag == ex.NONE


def test_compose_identity():
    out = alg.compose_monotone_convex(_sq_form(), ex.var(0))
    x = np.array([1.7])
    assert out.reference(x) == pytest.approx(_sq_form().reference(x))
    assert len(out.ineq) == 0 and out.partition == _sq_form().partition


def test_compose_rejects_decreasing_phi():
    with pytest.raises(HypothesisViolationError):
        alg.compose_monotone_convex(_sq_form(), ex.neg(ex.var(0)))
    with pytest.raises(HypothesisViolationError, match="phi fails the sampled convexity"):
        alg.compose_monotone_convex(_sq_form(), ex.neg(ex.square(ex.var(0))))
    with pytest.raises(FormError, match="phi must be univariate"):
        alg.compose_monotone_convex(_sq_form(), ex.var(1))


def test_algebra_samples_only_the_convexity_it_cannot_prove(monkeypatch):
    sampled = []
    audit = ex.curvature_audit

    def counted(e, *args, **kw):
        sampled.append(e)
        return audit(e, *args, **kw)

    monkeypatch.setattr(ex, "curvature_audit", counted)
    # the joint convexity of each operand's g and an exp phi are proved
    root = alg.power(_sq_form(), 0.5)
    alg.product(root, _sq_form())
    alg.compose_monotone_convex(root, ex.exp(ex.var(0)))
    assert sampled == []
    # exp(x)^2 is convex, but the rules square only an affine child
    phi = ex.square(ex.exp(ex.var(0)))
    alg.compose_monotone_convex(root, phi)
    assert sampled == [phi]


def test_power_half():
    pw = alg.power(_sq_form(), 0.5)
    x = np.array([2.0])
    assert pw.reference(x) == pytest.approx(2.0)
    p = witness_eval(pw, x)
    np.testing.assert_allclose(p.y, [2.0, 4.0])
    np.testing.assert_allclose(p.z, [16.0])
    assert pw.g.value(p.vec) == pytest.approx(2.0, abs=1e-12)
    assert (pw.partition.m1, pw.partition.m2) == (2, 1)


def test_power_one_is_passthrough():
    f = _sq_form()
    assert alg.power(f, 1.0) is f


def test_power_three_chain():
    pw = alg.power(_sq_form(), 3.0)
    assert pw.reference(np.array([1.0])) == pytest.approx(1.0)
    assert pw.reference(np.array([2.0])) == pytest.approx(64.0)
    _witness_suite(pw, samples=60, seed=5)


def test_power_noninteger_above_two():
    # 2.5 recurses through two products into the fractional lift
    pw = alg.power(_sq_form(), 2.5)
    x = np.array([1.5])
    assert pw.reference(x) == pytest.approx(1.5**5)
    _witness_suite(pw, samples=40, seed=11)


def test_power_rejects_nonpositive_exponent():
    with pytest.raises(FormError):
        alg.power(_sq_form(), 0.0)


def test_power_product_corollary():
    # f1^a * f2^b composes and preserves the witness identity
    f1, f2 = _sq_form(), _sq_form()
    combo = alg.product(alg.power(f1, 0.5), alg.power(f2, 2.0))
    x = np.array([3.0])
    assert combo.reference(x) == pytest.approx(3.0 * 81.0)
    _witness_suite(combo, samples=60, seed=6)


def test_closure_validate_form():
    forms = [
        alg.scaled_sum(_sq_form(), _sq_form(), 2.0, 3.0),
        alg.product(_sq_form(), _sq_form()),
        alg.power(_sq_form(), 0.5),
        alg.power(_sq_form(), 3.0),
    ]
    for form in forms:
        rep = validate_form(form, samples=50, seed=7)
        assert rep.passed, (form.name, rep.failures())


def test_algebra_over_catalog_entry():
    # composition on a real catalog entry with auxiliaries of its own
    base = make_catalog_form("abs_power")
    s = alg.scaled_sum(base, base, 1.0, 2.0)
    assert (s.partition.m1, s.partition.m2) == (2, 2)
    _witness_suite(s, samples=60, seed=8)
    pr = alg.product(base, base)
    _witness_suite(pr, samples=60, seed=9)


# form_to_inline text of one composition per operation, recorded before the
# operations shared one assembly path; it carries the box and the window
N = None
ASSEMBLED = {
    "scaled_sum": {
        "name": "scaled_sum(abs_sqrt[0],abs_sqrt[1])",
        "partition": [2, 4, 2],
        "lower": [N, N, 0.0, N, 0.0, N, 0.0, 0.0],
        "upper": [N, N, N, N, N, N, N, N],
        "g": "(+ (* 1.0 (+ (+ (+ (+ y0 (pow y0 4)) (neg z0)) (sq x0)) (neg z0))) "
        "(* 2.0 (+ (+ (+ (+ y2 (pow y2 4)) (neg z1)) (sq x1)) (neg z1))))",
        "ineq": [
            "(+ (pow y0 4) (neg z0))",
            "(+ (sq x0) (neg z0))",
            "(+ (sq y1) (neg y0))",
            "(+ (pow y2 4) (neg z1))",
            "(+ (sq x1) (neg z1))",
            "(+ (sq y3) (neg y2))",
        ],
        "eq": [],
    },
    "product": {
        "name": "product(sq,abs_power)",
        "partition": [1, 3, 2],
        "lower": [N, 0.0, N, N, 0.0, N],
        "upper": [N, N, N, N, N, N],
        "g": "(+ (* 0.5 (sq (+ y1 y2))) (neg (* 0.5 z1)))",
        "ineq": [
            "(+ (+ (sq y1) (sq y2)) (neg z1))",
            "(+ (sq x0) (neg y1))",
            "(+ (+ (+ (+ (+ y0 (pow y0 4)) (neg z0)) (sq x0)) (neg z0)) (neg y2))",
            "(+ (pow y0 4) (neg z0))",
            "(+ (sq x0) (neg z0))",
            "(neg y0)",
        ],
        "eq": [],
        "window_lower": [-2.5, 0.0, -10.0, -10.0, 0.0, -10.0],
        "window_upper": [2.5, N, 10.0, 10.0, N, 10.0],
    },
    "power": {
        "name": "power(sq,0.5)",
        "partition": [1, 2, 1],
        "lower": [N, 0.0, 0.0, 0.0],
        "upper": [N, N, N, N],
        "g": "(+ (+ (+ (+ y0 (rpow y0 4.0)) (neg z0)) (sq y1)) (neg z0))",
        "ineq": ["(+ (rpow y0 4.0) (neg z0))", "(+ (sq y1) (neg z0))", "(+ (sq x0) (neg y1))"],
        "eq": [],
        "window_lower": [-2.5, 0.0, 0.0, 0.0],
        "window_upper": [2.5, 10.0, 10.0, 10.0],
    },
    "reciprocal": {
        "name": "reciprocal(pos,positive)",
        "partition": [1, 2, 1],
        "lower": [N, N, N, 0.0],
        "upper": [N, 0.0, 0.0, N],
        "g": "(+ (+ (+ (+ (+ (+ y0 (sq (+ y0 y1))) (neg z0)) (neg 2.0)) (sq y0)) (sq y1)) (neg z0))",
        "ineq": [
            "(+ (+ (sq (+ y0 y1)) (neg z0)) (neg 2.0))",
            "(+ (+ (sq y0) (sq y1)) (neg z0))",
            "(+ (+ (sq x0) 1.0) y1)",
        ],
        "eq": [],
    },
}


def test_assembled_forms_are_pinned():
    from saddlelift.cli import form_to_inline

    pos = trivial_convex(ex.square(ex.var(0)) + 1.0, 1, "pos").declare("positive")
    built = {
        "scaled_sum": alg.scaled_sum(abs_sqrt_term(2, 0), abs_sqrt_term(2, 1), 1.0, 2.0),
        "product": alg.product(_sq_form(), make_catalog_form("abs_power")),
        "power": alg.power(_sq_form(), 0.5),
        "reciprocal": alg.reciprocal(pos, "positive"),
    }
    for op, form in built.items():
        assert form_to_inline(form) == ASSEMBLED[op], op
        assert (form.window is None) == ("window_lower" not in ASSEMBLED[op]), op


def test_a_declared_sign_without_a_reference_is_not_spot_checked():
    # the spot check samples the reference: the lying declaration caught
    # above passes where there is no reference to sample, and so does the
    # product, which then has no reference either
    lying = trivial_convex(ex.square(ex.var(0)) - 1.0, 1, "liar").declare("convex_joint_g", "nonneg")
    blind = dataclasses.replace(lying, reference=None)
    form = alg.product(blind, _sq_form())
    assert form.name == "product(liar,sq)" and form.reference is None
