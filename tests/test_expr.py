"""Expression engine: evaluation, gradients vs finite differences, curvature
audits, and the text grammar."""

import dataclasses
import math

import numpy as np
import pytest

from saddlelift import expr as ex


def test_square_at_3():
    e = ex.square(ex.var(0))
    assert e.value(np.array([3.0])) == 9.0


def test_affine_eval():
    e = ex.affine([(0, 2.0), (1, -1.0)], 1.0)
    assert e.value(np.array([1.0, 1.0])) == 2.0


def _g41():
    # y + y^4 - z + x^2 - z over (x, y, z)
    y, z = ex.var(1), ex.var(2)
    return y + ex.ipow(y, 4) - z + ex.square(ex.var(0)) - z


def test_g41_value():
    assert _g41().value(np.array([1.0, 1.0, 0.0])) == 3.0


def test_g41_gradient_at_origin():
    _, g = _g41().value_grad(np.zeros(3))
    np.testing.assert_allclose(g, [0.0, 1.0, -2.0])


def test_g1_gradient_at_origin():
    g1 = ex.ipow(ex.var(1), 4) - ex.var(2)
    _, g = g1.value_grad(np.zeros(3))
    np.testing.assert_allclose(g, [0.0, 0.0, -1.0])


def test_constant_gradient_is_zero():
    _, g = ex.const(7.0).value_grad(np.zeros(4))
    np.testing.assert_array_equal(g, np.zeros(4))


def test_dimension_mismatch():
    with pytest.raises(ex.DimensionError):
        ex.var(3).value(np.zeros(2))


def test_domain_errors():
    with pytest.raises(ex.DomainEvalError):
        ex.log(ex.var(0)).value(np.array([-1.0]))
    with pytest.raises(ex.DomainEvalError):
        ex.rpow(ex.var(0), 0.5).value(np.array([-1.0]))


def test_kink_gradients_raise():
    with pytest.raises(ex.NondifferentiableError):
        ex.rpow(ex.var(0), 0.5).value_grad(np.array([0.0]))


def test_real_pow_gradient_at_zero_for_a_above_one():
    v, g = ex.rpow(ex.var(0), 2.5).value_grad(np.array([0.0]))
    assert v == 0.0 and g[0] == 0.0


def _node_zoo():
    x0, x1 = ex.var(0), ex.var(1)
    aff = ex.affine([(0, 0.7), (1, -0.3)], 0.2)
    return [
        ex.const(2.5),
        aff,
        ex.add(ex.square(x0), x1),
        ex.scale(ex.square(aff), -1.5),
        ex.ipow(aff, 3),
        ex.rpow(ex.square(x0) + 0.5, 1.7),
        ex.exp(ex.scale(x1, 0.4)),
        ex.log(ex.square(x0) + 1.2),
        ex.sin(aff),
    ]


def test_gradient_matches_central_differences():
    # every node type, 100 random interior points, relative tolerance 1e-6
    rng = np.random.default_rng(0)
    for e in _node_zoo():
        for _ in range(100):
            p = rng.uniform(-3.0, 3.0, size=2)
            try:
                _, g = e.value_grad(p)
            except ex.NondifferentiableError:
                continue
            fd = ex.fd_gradient(e, p, step=1e-5)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_eval_is_deterministic():
    e = ex.add(*_node_zoo()[:5])
    p = np.array([0.37, -1.22])
    vals = {e.value(p) for _ in range(10)}
    assert len(vals) == 1


def test_curvature_audit_square_convex():
    rep = ex.curvature_audit(
        ex.square(ex.var(0)), [-10.0], [10.0], tag=ex.CONVEX, samples=100
    )
    assert rep.passed


def test_curvature_audit_sin_half_concave_on_0_2pi():
    e = ex.sin(ex.affine([(0, 0.5)]))
    rep = ex.curvature_audit(e, [0.0], [2 * math.pi], tag=ex.CONCAVE, samples=100)
    assert rep.passed


def test_curvature_audit_square_tagged_concave_fails():
    rep = ex.curvature_audit(
        ex.square(ex.var(0)), [-10.0], [10.0], tag=ex.CONCAVE, samples=100
    )
    assert not rep.passed
    assert rep.counterexample is not None
    u, v, t = rep.counterexample
    e = ex.square(ex.var(0))
    mid = t * u + (1 - t) * v
    assert e.value(mid) < t * e.value(u) + (1 - t) * e.value(v)


def test_curvature_audit_affine_band():
    rep = ex.curvature_audit(
        ex.affine([(0, 2.0)], -1.0), [-5.0], [5.0], tag=ex.AFFINE, samples=50
    )
    assert rep.passed


def test_default_tags():
    aff = ex.affine([(0, 1.0)], 0.0)
    assert aff.tag == ex.AFFINE
    assert ex.square(aff).tag == ex.CONVEX
    assert ex.exp(aff).tag == ex.CONVEX
    assert ex.log(aff).tag == ex.CONCAVE
    assert ex.neg(ex.log(aff)).tag == ex.CONVEX
    assert ex.add(ex.square(aff), aff).tag == ex.CONVEX


def test_remap_and_subst():
    e = ex.square(ex.var(0)) + ex.var(2)
    r = e.remap({0: 1, 2: 4})
    assert r.value(np.array([0.0, 3.0, 0.0, 0.0, 5.0])) == 14.0
    phi = ex.exp(ex.var(0))
    comp = phi.subst(0, ex.square(ex.var(1)))
    assert comp.value(np.array([0.0, 2.0])) == pytest.approx(math.exp(4.0))


def test_a_long_sum_builds_and_answers():
    # builtin sum() nests 5,000 sums deep; the per-node methods recursed and
    # raised RecursionError from about 330 terms on
    from saddlelift.algebra import scaled_sum
    from saddlelift.catalog import trivial_convex

    n = 5000
    terms = [ex.square(ex.var(i) - 0.5) for i in range(n)]
    e = sum(terms)
    flat = ex.add(*terms)
    p = np.linspace(-1.0, 1.0, n)
    assert not e.is_affine() and e.max_index() == n - 1
    v, g = e.value_grad(p)
    assert v == e.value(p) == flat.value(p)
    assert g.tobytes() == (2.0 * (p + -0.5)).tobytes()  # 0.0 + 2.0*(x_i - 0.5)
    assert e.value_batch(np.stack([p, -p], axis=1)).tolist() == [v, e.value(-p)]
    form = trivial_convex(e, n, "long")
    both = scaled_sum(form, form, 1.0, 2.0)  # relocates g through remap
    assert both.g.value(p) == 0.0 + 1.0 * v + 2.0 * v
    put = e.subst(0, ex.var(1))
    q = p.copy()
    q[0] = q[1]  # x1 in place of x0 changes the value only where they differ
    assert put.value(q) == e.value(q) and put.value(p) != v


def test_a_shared_tree_is_walked_once_per_node(monkeypatch):
    # thirty levels of e = e + e: 32 distinct nodes, 2**30 paths to the leaf
    e = ex.square(ex.var(0))
    for _ in range(30):
        e = e + e
    calls = 0

    def counted(children):
        def wrapper(self):
            nonlocal calls
            calls += 1
            assert calls <= 1000, "a shared node is walked again"
            return children(self)

        return wrapper

    for cls in (ex.Expr, ex.Sum, ex._Unary):
        monkeypatch.setattr(cls, "children", counted(cls.__dict__["children"]))

    def walked(question):
        nonlocal calls
        calls = 0
        return question(), calls

    assert walked(e.max_index) == (0, 32)
    answer, n = walked(e.is_affine)
    assert answer is False and n <= 32  # it may stop at the square
    raw = ex.var(0)
    for _ in range(30):
        raw = ex.Sum((raw, raw))  # built without a constructor: no answer kept yet
    assert walked(raw.is_affine) == (True, 31)
    assert walked(raw.is_affine) == (True, 0)
    a = ex.var(0)
    for _ in range(30):
        a = a + a  # each + asks is_affine of its new node, whose parts are answered
    assert walked(a.is_affine) == (True, 1)
    moved, n = walked(lambda: e.remap({0: 1}))
    assert n == 32 and moved.parts[0] is moved.parts[1] and moved.max_index() == 1
    put, n = walked(lambda: a.subst(0, ex.var(2)))
    assert n == 31 and put.parts[0] is put.parts[1] and put.max_index() == 2
    assert e.value(np.array([3.0])) == 9.0 * 2.0**30


def test_an_affine_chain_builds_in_linear_steps(monkeypatch):
    # each + asks the tag of its new node; is_affine walked the whole affine
    # chain below it, so building N terms read O(N**2) children
    reads: dict[int, int] = {}
    read = []  # keeps every node read alive, so no id is reused
    method = ex.Sum.__dict__["children"]

    def counted(self):
        reads[id(self)] = reads.get(id(self), 0) + 1
        read.append(self)
        return method(self)

    monkeypatch.setattr(ex.Sum, "children", counted)
    n = 2000
    e = ex.var(0)
    for i in range(1, n):
        e = e + ex.var(i)
    assert e.tag == ex.AFFINE and e.is_affine()
    assert max(reads.values()) <= 2 and sum(reads.values()) <= 2 * n
    assert e.value(np.ones(n)) == n


def test_one_child_nodes():
    x0 = ex.var(0)
    # extra fields follow the child positionally; the tag is keyword-only
    assert ex.Scale(x0, 2.0) == ex.Scale(child=x0, c=2.0, tag=ex.NONE)
    assert (ex.IntPow(x0, 3).k, ex.RealPow(x0, 2.5).a) == (3, 2.5)
    assert ex.Square(x0, tag=ex.CONVEX).tag == ex.CONVEX
    with pytest.raises(TypeError):
        ex.Square(x0, ex.CONVEX)
    for bad in (lambda: ex.IntPow(x0, 0), lambda: ex.RealPow(x0, 0.0), lambda: ex.Sin(ex.square(x0))):
        with pytest.raises(ValueError):
            bad()
    # remap and subst rebuild the node around the new child and keep its other fields
    aff = ex.affine([(0, 0.7), (1, -0.3)], 0.2)
    swap, sub = {0: 1, 1: 0}, ex.affine([(0, 2.0)], 1.0)
    for node in (
        ex.Scale(aff, 2.0), ex.Square(aff), ex.IntPow(aff, 3), ex.RealPow(aff, 1.5),
        ex.Exp(aff), ex.Log(aff), ex.Sin(aff),
    ):
        node = node.with_tag(ex.CONVEX)
        assert node.children() == (aff,)
        assert node.remap(swap) == dataclasses.replace(node, child=aff.remap(swap))
        assert node.subst(1, sub) == dataclasses.replace(node, child=aff.subst(1, sub))


def _names(i):
    return ["x0", "x1", "y0", "z0"][i]


def _resolve(name):
    return {"x0": 0, "x1": 1, "y0": 2, "z0": 3}[name]


def test_grammar_round_trip():
    exprs = [
        ex.add(ex.square(ex.affine([(0, 1.0)], 0.0)), ex.neg(ex.var(3))),
        ex.rpow(ex.var(2), 4.0) - ex.var(3),
        (ex.neg(ex.sin(ex.affine([(0, 0.5)]))) + ex.var(3)).with_tag(ex.CONVEX),
        ex.scale(ex.log(ex.affine([(1, 1.0)], 2.0)), -3.0),
        ex.ipow(ex.var(2), 4),
        *_node_zoo(),  # every node type
    ]
    for e in exprs:
        text = ex.to_sexpr(e, _names)
        back = ex.parse_sexpr(text, _resolve)
        assert back == e, text


def test_grammar_example():
    e = ex.parse_sexpr("(+ (sq (aff x0 1 0)) (neg z0))", _resolve)
    assert e.value(np.array([3.0, 0.0, 0.0, 2.0])) == 7.0


def test_parse_errors_carry_position():
    with pytest.raises(ex.ParseError):
        ex.parse_sexpr("(sq", _resolve)
    with pytest.raises(ex.ParseError) as err:
        ex.parse_sexpr("(sq w9)", _resolve)
    assert "w9" in str(err.value)
    for word in ("max0", "abs"):
        with pytest.raises(ex.ParseError, match=f"unknown operator '{word}'"):
            ex.parse_sexpr(f"({word} x0)", _resolve)


def test_integer_powers_reject_fractional_exponents():
    # the exponent used to go through int(), so x0 ** 2.5 became x0 ** 2
    for k in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integral exponent"):
            ex.ipow(ex.var(0), k)
    # an integral float is kept as an int, so the node equals the int-built one
    assert ex.ipow(ex.var(0), 2.0) == ex.ipow(ex.var(0), 2)
    assert type(ex.ipow(ex.var(0), 2.0).k) is int
    for k in ("2.5", "nan", "inf"):
        with pytest.raises(ex.ParseError, match=f"integer exponent, found '{k}'") as err:
            ex.parse_sexpr(f"(pow x0 {k})", _resolve)
        assert (err.value.line, err.value.column) == (1, 9)
    assert ex.parse_sexpr("(pow x0 2.0)", _resolve) == ex.ipow(ex.var(0), 2)
