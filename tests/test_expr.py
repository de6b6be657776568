"""Expression engine: evaluation, gradients vs finite differences, curvature
audits, and the text grammar."""

import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_subst_derives_a_derived_tag_again():
    # the square of x0 is convex; the square of sin(x1) is not known to be
    e = ex.square(ex.var(0)).subst(0, ex.sin(ex.var(1)))
    assert e.tag == ex.NONE and ex.to_sexpr(e, "v{}".format) == "(sq (sin v1))"
    # an explicit tag stays
    kept = ex.sin(ex.var(0)).with_tag(ex.CONCAVE).subst(0, ex.affine([(1, 0.5)]))
    assert kept.tag == ex.CONCAVE
    # the affine split is made by add and scale, so it carries its derived tag
    split = ex.affine([(0, 2.0), (1, 1.0)], 0.5).subst(0, ex.square(ex.var(2)))
    assert split.tag == ex.CONVEX and split.parts[1].tag == ex.CONVEX
    assert ex.affine([(0, 2.0)]).subst(0, ex.var(1)).tag == ex.AFFINE


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


def _depth() -> int:
    """The number of Python frames below the caller's."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_long_sum_needs_no_frame_per_node():
    # with about 60 frames to spare, any path that recursed once per level of
    # the 5,000-deep sum() would raise RecursionError
    from saddlelift.catalog import trivial_convex
    from saddlelift.cli import form_to_inline

    n = 5000
    e = sum(ex.square(ex.var(i) - 0.5) for i in range(n))
    twin = sum(ex.square(ex.var(i) - 0.5) for i in range(n))
    p = np.linspace(-1.0, 1.0, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 60)
    try:
        facts = e.max_index(), e.is_affine()
        # == and hash recursed once per level (RecursionError from about
        # 300 terms for ==, 1,000 for hash)
        same, hashed, member = e == twin, hash(e) == hash(twin), twin in {e}
        moved, put = e.remap({0: 1}), e.subst(0, ex.var(1))
        unequal = e != moved and e != put
        text, shown = ex.to_sexpr(e, lambda i: f"x{i}"), repr(e)
        v, (vg, g) = e.value(p), e.value_grad(p)
        batch = e.value_batch(np.stack([p, -p], axis=1))
        doc = form_to_inline(trivial_convex(e, n, "long"))
    finally:
        sys.setrecursionlimit(limit)
    assert facts == (n - 1, False)
    assert same and hashed and member and unequal
    assert moved.max_index() == put.max_index() == n - 1
    assert text.count("(sq ") == n and doc["g"] == text
    assert shown.startswith("Sum<(+ (+ (+ ") and len(shown) < 300
    assert v == vg and g.tobytes() == (2.0 * (p + -0.5)).tobytes()
    assert batch[0] == v


def test_a_long_sum_reads_back_from_its_problem_file():
    # the parser called itself once per open form, so the text it is
    # written as could not be read back (RecursionError from about 1,000
    # terms)
    from saddlelift.catalog import trivial_convex
    from saddlelift.cli import form_to_inline, inline_form

    n = 5000
    form = trivial_convex(sum(ex.square(ex.var(i) - 0.5) for i in range(n)), n, "long")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 60)
    try:
        back = inline_form(json.loads(json.dumps(form_to_inline(form))))
        texts = [ex.to_sexpr(f.g, f.partition.name_of) for f in (form, back)]
        same = back.g == form.g
    finally:
        sys.setrecursionlimit(limit)
    assert back.partition == form.partition and texts[0] == texts[1] and same


def test_equality_is_structural_with_floats_by_their_bits():
    x0 = ex.var(0)
    assert ex.square(x0 - 1.0) == ex.square(ex.var(0) - 1.0)
    assert hash(ex.square(x0 - 1.0)) == hash(ex.square(ex.var(0) - 1.0))
    # 0.0 == -0.0 as floats, but the kernels compile the two apart
    assert ex.const(0.0) != ex.const(-0.0)
    assert ex.affine([(0, 1.0)], 0.0) != ex.affine([(0, 1.0)], -0.0)
    # the tag is part of the structure; other types never equal a node
    assert x0 != x0.with_tag(ex.CONVEX) and x0 != 0 and ex.const(1.0) != 1.0
    assert ex.square(x0) != ex.ipow(x0, 2)


def test_repr_is_the_grammar_text_cut_short():
    x0, x1 = ex.var(0), ex.var(1)
    e = ex.square(x0) + ex.log(ex.affine([(1, 2.0)], 1.0))
    assert repr(e) == "Sum<(+ (sq v0) (log (aff v1 2.0 1.0)))>"
    assert repr(ex.Scale(x1, 2.0)) == "Scale<(tag none (* 2.0 v1))>"
    assert repr(ex.const(3)) == "Const<3.0>"
    # e = e + e thirty times: 31 nodes but 2**30 leaves of text, which the
    # generated dataclass repr wrote out in full
    a = x0
    for _ in range(30):
        a = a + a
    start = time.perf_counter()
    shown = repr(a)
    assert time.perf_counter() - start < 0.5
    assert shown.startswith("Sum<(+ (+ ") and shown.endswith("...>") and len(shown) < 300


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

    # every node fixes its answers when it is made: asking reads no child
    assert walked(e.max_index) == (0, 0)
    assert walked(e.is_affine) == (False, 0)
    raw = ex.var(0)
    for _ in range(30):
        raw = ex.Sum((raw, raw))  # built without a constructor
    assert walked(raw.is_affine) == (True, 0)
    a = ex.var(0)
    for _ in range(30):
        a = a + a
    assert walked(a.is_affine) == (True, 0)
    # a rebuild reads each distinct node twice: once walking it, once
    # making its copy (the new leaf included)
    moved, n = walked(lambda: e.remap({0: 1}))
    assert n == 64 and moved.parts[0] is moved.parts[1] and moved.max_index() == 1
    put, n = walked(lambda: a.subst(0, ex.var(2)))
    assert n == 62 and put.parts[0] is put.parts[1] and put.max_index() == 2
    # == walks each distinct node of both trees once (twenty levels here:
    # a comparison per path takes about 2**20 steps)
    short, twin = ex.square(ex.var(0)), ex.square(ex.var(0))
    for _ in range(20):
        short, twin = short + short, twin + twin
    assert walked(lambda: short == twin) == (True, 44)
    other = twin.remap({0: 1})
    assert walked(lambda: short == other) == (False, 44)
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


# -- node facts against a reference walk ------------------------------------

_AFFINE_KINDS = (ex.Const, ex.Var, ex.Affine, ex.Sum, ex.Scale)
_ALL_TAGS = (ex.CONVEX, ex.CONCAVE, ex.AFFINE, ex.NONE)


def _under(node, seen=None):
    """Every distinct node under ``node``, by a plain recursive walk."""
    seen = set() if seen is None else seen
    if id(node) not in seen:
        seen.add(id(node))
        yield node
        for c in node.children():
            yield from _under(c, seen)


def _reference_facts(node):
    """(largest variable index, affinity) of ``node``, read off its whole tree."""
    nodes = list(_under(node))
    indices = [n.index for n in nodes if isinstance(n, ex.Var)]
    indices += [i for n in nodes if isinstance(n, ex.Affine) for i, _ in n.terms]
    return max([-1, *indices]), all(isinstance(n, _AFFINE_KINDS) for n in nodes)


def _reference_tag(node):
    """The curvature tag a constructor gives ``node``."""

    def affine(n):
        return _reference_facts(n)[1]

    if affine(node):
        return ex.AFFINE
    if isinstance(node, (ex.Square, ex.Exp)) and affine(node.child):
        return ex.CONVEX
    if isinstance(node, ex.Log) and affine(node.child):
        return ex.CONCAVE
    if isinstance(node, ex.IntPow) and affine(node.child) and node.k % 2 == 0:
        return ex.CONVEX
    if isinstance(node, ex.RealPow) and affine(node.child) and node.a >= 1.0:
        return ex.CONVEX
    if isinstance(node, ex.Sum):
        tags = {c.tag for c in node.parts}
        if tags <= {ex.CONVEX, ex.AFFINE}:
            return ex.CONVEX
        if tags <= {ex.CONCAVE, ex.AFFINE}:
            return ex.CONCAVE
    if isinstance(node, ex.Scale):
        if node.c >= 0:
            return node.child.tag
        return {ex.CONVEX: ex.CONCAVE, ex.CONCAVE: ex.CONVEX}.get(node.child.tag, node.child.tag)
    return ex.NONE


def _recursive_sexpr(e, name_of):
    """The recursive printer that the iterative ``to_sexpr`` replaced."""

    def num(v):
        return repr(float(v))

    def basic(node):
        if isinstance(node, ex.Const):
            return num(node.c)
        if isinstance(node, ex.Var):
            return name_of(node.index)
        if isinstance(node, ex.Affine):
            bits = [b for i, c in node.terms for b in (name_of(i), num(c))]
            return "(aff " + " ".join(bits + [num(node.offset)]) + ")"
        if isinstance(node, ex.Sum):
            return "(+ " + " ".join(emit(c) for c in node.parts) + ")"
        if isinstance(node, ex.Scale):
            if node.c == -1.0:
                return f"(neg {emit(node.child)})"
            return f"(* {num(node.c)} {emit(node.child)})"
        if isinstance(node, ex.IntPow):
            return f"(pow {emit(node.child)} {node.k})"
        if isinstance(node, ex.RealPow):
            return f"(rpow {emit(node.child)} {num(node.a)})"
        word = {ex.Square: "sq", ex.Exp: "exp", ex.Log: "log", ex.Sin: "sin"}[type(node)]
        return f"({word} {emit(node.child)})"

    def emit(node):
        body = basic(node)
        return body if node.tag == _reference_tag(node) else f"(tag {node.tag} {body})"

    return emit(e)


def _paths(node, memo) -> int:
    """The number of nodes in ``node``'s text, a shared one once per path."""
    if id(node) not in memo:
        memo[id(node)] = 1 + sum(_paths(c, memo) for c in node.children())
    return memo[id(node)]


def _grow(draw, pool):
    """A new node over the nodes of ``pool``, a list of (node, the tag it
    must carry), and the tag that it must carry."""

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    kind = draw(st.sampled_from(
        ["leaf", "add", "raw sum", "unary", "raw unary", "with_tag", "remap", "subst"]
    ))
    if kind == "leaf":
        i = draw(st.integers(0, 4))
        leaves = [ex.var(i), ex.Var(i), ex.const(i / 2), ex.affine([(i, 1.5), (i + 1, -1.0)], 0.5)]
        return draw(st.sampled_from(leaves + [ex.Affine(())])), ex.AFFINE
    if kind in ("add", "raw sum"):
        parts = [pick()[0] for _ in range(draw(st.integers(0, 3)))]
        if kind == "raw sum":
            return ex.Sum(tuple(parts)), ex.NONE
        node = ex.add(*parts)
        return node, _reference_tag(node)
    if kind in ("unary", "raw unary"):
        child = pick()[0]
        word = draw(st.sampled_from(["scale", "sq", "pow", "rpow", "exp", "log", "sin"]))
        if word == "sin" and not _reference_facts(child)[1]:
            word = "exp"  # sin takes an affine argument only
        c = draw(st.sampled_from([-1.0, -0.5, 0.0, 2.0]))
        k = draw(st.integers(1, 4))
        a = draw(st.sampled_from([0.5, 1.0, 1.5]))
        made, raw, *extra = {
            "scale": (ex.scale, ex.Scale, c), "pow": (ex.ipow, ex.IntPow, k),
            "rpow": (ex.rpow, ex.RealPow, a), "sq": (ex.square, ex.Square),
            "exp": (ex.exp, ex.Exp), "log": (ex.log, ex.Log), "sin": (ex.sin, ex.Sin),
        }[word]
        if kind == "raw unary":
            return raw(child, *extra), ex.NONE
        node = made(child, *extra)
        return node, _reference_tag(node)
    src, src_tag = pick()
    if kind == "with_tag":
        tag = draw(st.sampled_from(_ALL_TAGS))
        return src.with_tag(tag), tag
    if kind == "remap":
        mapping = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 5), max_size=3))
        return src.remap(mapping), src_tag  # affinity, so every derived tag, is kept
    sub, sub_tag = pick()
    i = draw(st.integers(0, 5))
    if isinstance(src, ex.Var) and src.index == i:
        return src.subst(i, sub), sub_tag
    try:
        out = src.subst(i, sub)
    except ValueError as err:  # a sine of the variable takes an affine sub only
        assert "affine argument" in str(err) and not _reference_facts(sub)[1]
        return src, src_tag
    if isinstance(src, ex.Affine) and any(j == i for j, _ in src.terms):
        return out, _reference_tag(out)  # the rest plus the scaled sub, by add and scale
    # a rebuilt node whose tag was its derived one is derived again; an
    # explicit tag stays
    return out, (_reference_tag(out) if src_tag == _reference_tag(src) else src_tag)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_node_facts_match_a_reference_walk(data):
    # random DAGs: constructor-made and raw nodes, shared children, retagged
    # nodes and the outputs of remap and subst
    pool = [(ex.var(0), ex.AFFINE)]
    for _ in range(data.draw(st.integers(1, 10), label="new nodes")):
        pool.append(_grow(data.draw, pool))
    paths: dict[int, int] = {}
    for node, tag in pool:
        assert node.tag == tag
        for n in _under(node):
            assert (n.max_index(), n.is_affine()) == _reference_facts(n)
        if _paths(node, paths) <= 200:
            text = _recursive_sexpr(node, lambda i: f"v{i}")
            assert ex.to_sexpr(node, lambda i: f"v{i}") == text
            if len(text) <= 200:
                assert repr(node) == f"{type(node).__name__}<{text}>"


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
