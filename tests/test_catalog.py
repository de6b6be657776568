"""Catalog entries: shapes, reference values, witness identities, and the
known-issues registry contract."""

import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from saddlelift import algebra
from saddlelift import expr as ex
from saddlelift.audit import load_registry, registry_sweep
from saddlelift.catalog import (
    abs_sqrt_term,
    default_suite,
    describe,
    list_catalog,
    make_catalog_form,
    make_structured,
    trivial_convex,
)
from saddlelift.cli import form_to_inline, load_form
from saddlelift.forms import (
    D2_TOL,
    FormError,
    SaddlePoint,
    WitnessInfeasibleError,
    membership,
    validate_form,
    witness_check,
    witness_eval,
    witness_report,
)

BROKEN = {"sigmoid", "geometric_poly", "l01_svm"}
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_abs_power_shape():
    f = make_catalog_form("abs_power")
    assert (f.partition.n, f.partition.m1, f.partition.m2) == (1, 1, 1)
    assert len(f.ineq) == 3 and len(f.eq) == 0
    assert f.box.lower[1] == 0.0 and f.box.lower[2] == 0.0


def test_maxabs_shape_and_flat_reference():
    f = make_catalog_form("maxabs_minus_sum", n=5)
    assert (f.partition.n, f.partition.m1, f.partition.m2) == (5, 6, 5)
    assert len(f.ineq) == 15
    for c in (-3.0, 0.0, 7.5):
        assert f.reference(np.full(5, c)) == 0.0


@pytest.mark.parametrize("n", [1, 5, 10])
def test_the_flagship_lift_misses_its_minmax_identity(n):
    # x = 0, every y_i = y_top = t and z_i = t**2 is feasible, and there
    # g = n*t + sum(-t + t**2 - 2*t**2) = -n*t**2 falls in every z_i, so the
    # min over y of the max over z is below f(0) = 0 (and unbounded as t
    # grows): the lift does not keep its minmax identity
    form = make_catalog_form("maxabs_minus_sum", n=n)
    assert form.reference(np.zeros(n)) == 0.0
    for t in (0.5, 1.0, 10.0):
        vec = np.concatenate([np.zeros(n), np.full(n + 1, t), np.full(n, t * t)])
        assert membership(form, SaddlePoint(form.partition, vec)).feasible
        g = form.g.value(vec)
        assert g == pytest.approx(-n * t * t, rel=1e-12)
        for i in range(2 * n + 1, 3 * n + 1):  # each z_i
            up = vec.copy()
            up[i] += 0.5
            assert form.g.value(up) < g


def test_the_sgn3_a_lift_misses_its_minmax_identity():
    # at x = -2 the witness reaches g = f(x) = -1, but it does not maximize
    # over z: every z_k enters g with a negative coefficient and z4 is fixed
    # by the equality, so z1 at its least feasible value (y2 + y0)**2 = 2
    # gives the largest g, 0.  And the min over y of the max over z is
    # unbounded below: y = (0, 0, sqrt 2, -t), z = (1, 2, 2, t**2, 1 + t)
    # is feasible with g = -2 - 2t
    form = make_catalog_form("sgn3_a")
    x = np.array([-2.0])
    assert form.reference(x) == -1.0
    w = witness_eval(form, x).vec
    assert w[1:].tolist() == [0.0, 0.0, math.sqrt(2.0), 1.0, 1.0, 2.5, 2.0, 1.0, 0.0]
    assert form.g.value(w) == pytest.approx(-1.0, abs=1e-12)
    up = w.copy()
    up[6] = 2.0  # z1
    assert membership(form, SaddlePoint(form.partition, up)).feasible
    assert form.g.value(up) == pytest.approx(0.0, abs=1e-12)
    up[6] = 1.9  # below (y2 + y0)**2
    assert not membership(form, SaddlePoint(form.partition, up)).feasible
    for t in (1.0, 10.0):
        vec = np.array([-2.0, 0.0, 0.0, math.sqrt(2.0), -t, 1.0, 2.0, 2.0, t * t, 1.0 + t])
        assert membership(form, SaddlePoint(form.partition, vec)).feasible
        assert form.g.value(vec) == pytest.approx(-2.0 - 2.0 * t, abs=1e-12)


def test_bilinear2_a():
    f = make_catalog_form("bilinear2_a")
    assert f.reference(np.array([1.0, 1.0])) == 2.0
    assert len(f.ineq) == 2


def test_quadratic_splitting():
    f = make_structured("quadratic", {"A": [[0.0, 1.0], [1.0, 0.0]], "c": [0.0, 0.0]})
    assert f.reference(np.array([1.0, 1.0])) == 2.0
    assert len(f.ineq) == 2
    assert (f.partition.n, f.partition.m1, f.partition.m2) == (2, 0, 2)


def test_quadratic_psd_cross_check():
    # symmetric PSD instance agrees with direct evaluation on random points
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([0.3, -0.7])
    f = make_structured("quadratic", {"A": A, "c": c})
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=2)
        assert f.reference(x) == pytest.approx(x @ A @ x + c @ x, rel=1e-12)
        p = witness_eval(f, x)
        assert f.g.value(p.vec) == pytest.approx(f.reference(x), abs=1e-9)


def test_sparse_l0_reference_values():
    f = make_structured("sparse_l0", {"q": ex.square(ex.var(0) - 1.0), "lam": 2.0, "n": 1})
    assert f.reference(np.array([0.0])) == 1.0
    assert f.reference(np.array([1.0])) == 2.0


def test_bilinear_xy_reference():
    f = make_structured("bilinear_xy", {"A": [[1.0]], "c1": [0.0], "c2": [0.0]})
    assert f.reference(np.array([2.0, 3.0])) == 6.0


def test_bilinear_xy_with_all_zero_data_is_the_zero_form():
    f = make_structured("bilinear_xy", {"A": [[0.0, 0.0]], "c1": [0.0], "c2": [0.0, 0.0]})
    assert f.g == ex.add(ex.const(0.0))
    report = witness_report(f, [2.0, -3.0, 5.0])
    assert report.value == report.reference == 0.0 and report.error == 0.0


def test_pow_a_2n_witness_below_the_box_reads_nan():
    # t**a of a negative Python float is complex, and casting it into the
    # witness point printed numpy's ComplexWarning
    form = make_catalog_form("pow_a_2n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = witness_report(form, [-1.0])
        at_two = witness_eval(form, [2.0]).vec
    assert report.error == math.inf and math.isnan(report.point.y[0])
    assert at_two.tolist() == [2.0, 2.0**0.5, 4.0, 2.0 + 16.0, 4.0]


def test_l01_svm_shape():
    A = [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]]
    f = make_structured("l01_svm", {"A": A, "d": [1.0, -1.0, 0.5], "C": 1.0})
    m, n = 3, 2
    assert (f.partition.n, f.partition.m1, f.partition.m2) == (n + 1, 3 * m, m)
    assert len(f.ineq) == 4 * m and len(f.eq) == m


def test_geometric_poly_shape():
    f = make_structured("geometric_poly", {"a": [1.0, 0.5], "alpha": [[1.0, 2.0], [2.0, 1.0]]})
    m, n = 2, 2
    assert (f.partition.n, f.partition.m1, f.partition.m2) == (n, m, m + n)
    assert len(f.ineq) == m + n and len(f.eq) == m


def test_entropy_reference():
    f = make_catalog_form("entropy", n=2)
    x = np.array([0.5, 0.25])
    assert f.reference(x) == pytest.approx(-(x * np.log(x)).sum())
    p = witness_eval(f, x)
    assert f.g.value(p.vec) == pytest.approx(f.reference(x), abs=1e-12)


def test_sign_family_at_special_points():
    cases = {
        "sgn3_a": {-2.0: -1.0, 0.0: 0.0, 3.0: 1.0},
        "sgn3_b": {-2.0: -1.0, 0.0: 0.0, 3.0: 1.0},
        "sgn2_a": {-2.0: 0.0, 0.0: 1.0, 3.0: 1.0},
        "sgn2_b": {-2.0: 0.0, 0.0: 1.0, 3.0: 1.0},
        "relu_a": {-2.0: 0.0, 0.0: 0.0, 3.0: 3.0},
        "relu_b": {-2.0: 0.0, 0.0: 0.0, 3.0: 3.0},
    }
    for name, values in cases.items():
        f = make_catalog_form(name)
        for xv, want in values.items():
            p = witness_eval(f, [xv])
            assert f.g.value(p.vec) == pytest.approx(want, abs=1e-12), (name, xv)


def test_relu_convex_both_branches():
    f = make_catalog_form("relu_convex")  # b = x^2 - 1
    for xv, want in ((0.5, 0.0), (2.0, 3.0), (-3.0, 8.0)):
        p = witness_eval(f, [xv])
        assert f.g.value(p.vec) == pytest.approx(want, abs=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(FormError):
        make_catalog_form("pow_a", a=1.5)
    with pytest.raises(FormError):
        make_catalog_form("l0_scalar_reg", lam=-1.0)
    with pytest.raises(FormError):
        make_catalog_form("maxabs_minus_sum", n=0)
    # one rule for a: a real number strictly between 0 and 1; the string
    # "0.5" ended in a TypeError
    for name in ("pow_a", "pow_a_plus_1", "pow_a_2n"):
        for a in ("0.5", True, False, None, math.nan, math.inf, 0, 1, 0.0, 1.0, -0.5, 1.5):
            with pytest.raises(FormError, match=rf"{name} requires 0 < a < 1, got {re.escape(repr(a))}"):
                make_catalog_form(name, a=a)
        assert make_catalog_form(name, a=np.float64(0.25)).g == make_catalog_form(name, a=0.25).g
    for n2 in (1.25, math.nan, 0, math.inf, "1", True):  # 1.25 built x^2 against a witness of x^2.5
        with pytest.raises(FormError, match="integer n2"):
            make_catalog_form("pow_a_2n", n2=n2)
    # a size n that is not an integral number ended in a TypeError
    q = ex.square(ex.var(0))
    for name, params in (
        ("maxabs_minus_sum", {}),
        ("entropy", {}),
        ("dc", {}),
        ("relu_convex", {}),
        ("sparse_l0", {"q": q, "lam": 1.0}),
    ):
        for n in (2.5, 2.0000001, "2", math.nan, math.inf, True, 0, -1):
            with pytest.raises(FormError, match=f"{name} requires an integer n >= 1"):
                make_catalog_form(name, n=n, **params)
        form = make_catalog_form(name, n=2.0, **params)
        assert form.partition.n == 2 and type(form.partition.n) is int
    with pytest.raises(KeyError):
        make_catalog_form("nope")
    for name, params, words in (
        ("pow_a_plus_1", {"a": 1.5}, "pow_a_plus_1 requires 0 < a < 1"),
        ("pow_a_2n", {"a": 0.0}, "pow_a_2n requires 0 < a < 1"),
        ("dc", {"d": ex.square(ex.var(1))}, "d may reference only the first 1"),
        ("geometric_poly", {"a": [1.0], "alpha": [1.0]}, "need a of shape (m,) and alpha"),
        ("geometric_poly", {"a": [0.0], "alpha": [[1.0]]}, "coefficients a_i must be nonzero"),
        ("l01_svm", {"A": [[1.0]], "d": [1.0, 2.0]}, "need A of shape (m, n) and d"),
        ("bilinear_xy", {"A": [[1.0]], "c1": [0.0, 0.0], "c2": [0.0]}, "need A of shape (n, m)"),
    ):
        with pytest.raises(FormError) as err:
            make_catalog_form(name, **params)
        assert words in str(err.value)
    for coord in (-1, 2):
        with pytest.raises(FormError, match="coord outside x block"):
            abs_sqrt_term(2, coord)
    with pytest.raises(FormError):
        make_structured("quadratic", {"A": [[1.0, 2.0]], "c": [0.0]})
    with pytest.raises(FormError):
        # supplied expressions must be declared convex
        make_structured("sparse_l0", {"q": ex.sin(ex.var(0)), "lam": 1.0, "n": 1})
    # NaN passed the `lam <= 0` and `C <= 0` checks, and a NaN or infinite
    # entry of the problem data built a form whose witness identity failed
    for bad in (math.nan, math.inf, -math.inf, 0.0):
        for name in ("abs_half_reg", "l0_reg2", "l0_scalar_reg"):
            with pytest.raises(FormError, match="lam must be finite and > 0"):
                make_catalog_form(name, lam=bad)
        with pytest.raises(FormError, match="lam must be finite and > 0"):
            make_catalog_form("sparse_l0", q=ex.square(ex.var(0)), lam=bad, n=1)
        with pytest.raises(FormError, match="C must be finite and > 0"):
            make_catalog_form("l01_svm", A=[[1.0]], d=[1.0], C=bad)
    for bad in (math.nan, math.inf):
        for name, data, key in (
            ("quadratic", {"A": [[0.0, bad], [1.0, 0.0]], "c": [0.0, 0.0]}, "A"),
            ("quadratic", {"A": [[1.0]], "c": [bad]}, "c"),
            ("bilinear_xy", {"A": [[bad]], "c1": [0.0], "c2": [0.0]}, "A"),
            ("geometric_poly", {"a": [1.0, bad], "alpha": [[1.0], [2.0]]}, "a"),
            ("geometric_poly", {"a": [1.0], "alpha": [[bad]]}, "alpha"),
            ("l01_svm", {"A": [[bad, 0.0]], "d": [1.0]}, "A"),
        ):
            with pytest.raises(FormError, match=f"{key} must be finite"):
                make_structured(name, data)


def test_witness_identity_holds_or_form_is_registered():
    registry = load_registry()
    rng = np.random.default_rng(12)
    for form in default_suite():
        error, _ = witness_check(form, form.sample_x(rng, 100))
        if error > D2_TOL:
            assert form.name in registry, f"{form.name} diverges but is not registered"
            assert registry[form.name].counterexample


def test_broken_witnesses_raise():
    for name in ("sigmoid",):
        f = make_catalog_form(name)
        with pytest.raises(WitnessInfeasibleError):
            witness_eval(f, [0.5], check=True)


def test_structural_validation_over_suite():
    for form in default_suite():
        rep = validate_form(form, samples=25, seed=5)
        bad = [it for it in rep.failures() if it.label != "witness identity"]
        assert not bad, (form.name, bad)
        if form.name not in BROKEN:
            assert rep.passed, (form.name, rep.failures())


def test_sweep_lists_the_flagship_through_its_audit_instance():
    # the suite instance (n = 5) is beyond the grid's reach; the n = 1
    # instance shows the grid minmax below the reference
    entry = registry_sweep([make_catalog_form("maxabs_minus_sum")])["maxabs_minus_sum"]
    assert entry.classification == "d2-only"
    oracle, ref = (float(v) for v in re.findall(r"(?:oracle|ref)=(\S+)", entry.counterexample))
    assert oracle < ref - 1.0


def test_registry_matches_sweep():
    # the shipped registry is exactly the audit sweep outcome, names, classes,
    # counterexamples and dates alike; updating one without the other is a
    # test failure by design
    assert registry_sweep(default_suite()) == load_registry()


# sha256 of the inline JSON of the 28 suite forms and the README's three
# algebra compositions, one form a line; any change to a form's nodes, tags
# or the text grammar changes it
_STRUCTURE_SHA256 = "77f52b5c2e66772a75d46653d0b7e47a642c14fca02fb63fb197bcfb5891e8d1"


def test_form_structure_is_pinned():
    sq = trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=True)
    root = algebra.power(sq, 0.5)
    forms = [*default_suite(), root, algebra.product(root, sq), algebra.scaled_sum(root, sq, 1.0, 2.0)]
    text = "\n".join(json.dumps(form_to_inline(f), sort_keys=True) for f in forms)
    assert (len(forms), len(text)) == (31, 14138)
    assert hashlib.sha256(text.encode()).hexdigest() == _STRUCTURE_SHA256


def _pinned_forms():
    x0, x1, x2 = ex.var(0), ex.var(1), ex.var(2)
    sq2 = ex.add(ex.square(x0), ex.square(x1)).with_tag(ex.CONVEX)
    forms = [make_catalog_form("maxabs_minus_sum", n=n) for n in (1, 2, 10, 20)]
    forms += [
        make_catalog_form("l0_reg2", lam=0.5),
        make_catalog_form("l0_scalar_reg", lam=3),
        make_catalog_form("abs_half_reg", lam=0.25),
        make_catalog_form("entropy", n=3),
        make_catalog_form("pow_a", a=0.25),
        make_catalog_form("pow_a_plus_1", a=0.75),
        make_catalog_form("pow_a_2n", a=0.25, n2=2),
        make_catalog_form("dc", d=(2.0 * sq2).with_tag(ex.CONVEX), c=ex.square(x0 - x1), n=2),
        make_catalog_form("relu_convex", b=(sq2 - 1.0).with_tag(ex.CONVEX), n=2),
    ]
    q3 = ex.add(ex.square(x0 - 1.0), ex.square(x1), ex.square(x2 + 2.0)).with_tag(ex.CONVEX)
    forms += [
        make_structured("sparse_l0", {"q": q3, "lam": 1.5, "n": 3}),
        make_structured(
            "l01_svm",
            {
                "A": [[1.0, 0.0, -1.0], [0.5, 2.0, 0.0], [0.0, -1.0, 1.0], [1.0, 1.0, 1.0]],
                "d": [1.0, -1.0, 0.5, -0.5],
                "C": 0.5,
            },
        ),
        make_structured(
            "geometric_poly",
            {"a": [1.0, -0.5, 2.0], "alpha": [[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]]},
        ),
        make_structured(
            "quadratic",
            {"A": [[1.0, -2.0, 0.0], [0.5, 0.0, 3.0], [0.0, -1.0, 2.0]], "c": [0.5, 0.0, -1.0]},
        ),
        make_structured(
            "bilinear_xy",
            {"A": [[1.0, 0.0, -2.0], [0.0, 3.0, 0.5]], "c1": [1.0, 0.0], "c2": [0.0, -1.0, 2.0]},
        ),
        abs_sqrt_term(3, 1),
        trivial_convex(sq2, 2, "bowl", nonneg=True, window=(-2.0, 3.0)),
    ]
    for path in sorted(PROBLEMS.glob("*.json")):
        forms.append(load_form(json.loads(path.read_text())))
    return forms + default_suite()


# sha256 of the inline JSON and declarations of 53 forms: parameterised
# catalog entries, structured instances of several shapes, the two small
# builders, the problem files and the default suite
_PARAMETERISED_SHA256 = "68a33299f26353c87c45743c36f396e475d61f3bdff87f80b9573faba672729a"


def test_parameterised_forms_are_pinned():
    forms = _pinned_forms()
    text = "\n".join(
        json.dumps({**form_to_inline(f), "declares": sorted(f.declares)}, sort_keys=True)
        for f in forms
    )
    assert (len(forms), len(text)) == (53, 33015)
    assert hashlib.sha256(text.encode()).hexdigest() == _PARAMETERISED_SHA256


def test_describe_and_list():
    names = list_catalog()
    assert "abs_power" in names and "maxabs_minus_sum" in names
    d = describe("abs_power")
    assert d["partition"] == [1, 1, 1] and d["inequalities"] == 3


def test_one_table_lists_describes_and_builds_every_suite_family():
    # the structured builders were a second registry: describe("quadratic")
    # raised KeyError and list_catalog() named 23 of the 28 suite families
    suite = default_suite()
    assert sorted(f.name for f in suite) == list_catalog()
    assert len(suite) == 28
    for form in suite:
        d = describe(form.name)
        p = form.partition
        assert d["partition"] == [p.n, p.m1, p.m2], form.name
        assert (d["inequalities"], d["equalities"]) == (len(form.ineq), len(form.eq)), form.name
    assert describe("quadratic")["partition"] == [2, 0, 2]
    assert make_structured("abs_power", {}).g == make_catalog_form("abs_power").g
