"""Compiled kernels: agreement with a recursive reference evaluator and with
finite differences over the whole catalog, batch values against scalar
values, wide and deep trees, non-finite constants, overflow, error reporting
and kernel caching."""

import dataclasses
import gc
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlelift import algebra, cli
from saddlelift import expr as ex
from saddlelift.catalog import default_suite, make_catalog_form, trivial_convex
from saddlelift.forms import Box, SaddleForm, SaddlePoint, VarPartition
from saddlelift.kernels import Tape
from saddlelift.penalty import penalty_f_theta, penalty_f_theta_value
from test_expr import _node_zoo


def _power(v, a):
    try:
        return v**a
    except OverflowError:
        return math.copysign(math.inf, v) if a % 2 == 1 else math.inf


def _reference(e, p):
    """Value of ``e`` at the point ``p`` by recursion over the tree, with the
    math module's semantics, NaN where ``e`` is undefined and inf where a
    power or exp overflows."""
    if isinstance(e, ex.Const):
        return e.c
    if isinstance(e, ex.Var):
        return p[e.index]
    if isinstance(e, ex.Affine):
        acc = e.offset
        for i, c in e.terms:
            acc = acc + c * p[i]
        return acc
    if isinstance(e, ex.Sum):
        acc = 0.0
        for part in e.parts:
            acc = acc + _reference(part, p)
        return acc
    v = _reference(e.child, p)
    if isinstance(e, ex.Scale):
        return e.c * v
    if isinstance(e, ex.Square):
        return v * v
    if isinstance(e, ex.IntPow):
        return _power(v, e.k)
    if isinstance(e, ex.RealPow):
        return math.nan if v < 0.0 else _power(v, e.a)
    if isinstance(e, ex.Exp):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    if isinstance(e, ex.Log):
        return math.log(v) if v > 0.0 else math.nan
    if isinstance(e, ex.Sin):
        return math.sin(v) if math.isfinite(v) else math.nan
    raise TypeError(f"no reference for {type(e).__name__}")


def _numpy_may_differ(e) -> bool:
    """Whether ``e`` has a node whose numpy and math results may differ in
    the last bits (vectorized exp, log and powers)."""
    if isinstance(e, (ex.Exp, ex.Log, ex.IntPow, ex.RealPow)):
        return True
    return any(_numpy_may_differ(c) for c in e.children())


def _readme_compositions():
    sq = trivial_convex(ex.square(ex.var(0)), 1, "sq", nonneg=True)
    root = algebra.power(sq, 0.5)
    return [root, algebra.product(root, sq), algebra.scaled_sum(root, sq, 1.0, 2.0)]


FORMS = {f.name: f for f in default_suite() + _readme_compositions()}
# numpy's vectorized exp, log and power agree with libm's to a few ulp
BATCH_TOL = 16 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(FORMS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_form_kernels_match_batch_values_and_fd_gradients(name, seed):
    form = FORMS[name]
    lo, hi = form.effective_window()
    p = np.random.default_rng(seed).uniform(lo, hi)
    comps = [e for _, e in form.components()]
    ref = [_reference(e, p.tolist()) for e in comps]
    batch = [b[0] for b in form.tape().value_batch(p[:, None])]
    assert [math.isnan(b) for b in batch] == [math.isnan(r) for r in ref]
    if any(math.isnan(r) for r in ref):
        with pytest.raises(ex.DomainEvalError):
            form.tape().value(p.tolist())
        return
    vals = form.tape().value(p.tolist())
    assert vals == ref
    np.testing.assert_allclose(batch, vals, rtol=BATCH_TOL, atol=BATCH_TOL)
    vals_g, jac, kinks = form.tape().value_grad(p.tolist())
    assert vals_g == vals
    for k, e in enumerate(comps):
        # the expression's own kernel gives the form kernel's numbers exactly
        assert e.value(p) == vals[k]
        if kinks[k] is not None:
            continue
        _, grad = e.value_grad(p)
        assert grad.tobytes() == jac[k].tobytes()
        try:
            fd = ex.fd_gradient(e, p)
        except ex.DomainEvalError:
            continue  # p within a step of the domain boundary
        np.testing.assert_allclose(jac[k], fd, rtol=1e-5, atol=1e-5 * (1.0 + abs(vals[k])))


EXPRS = {f"{f.name}/{label}": (e, f.effective_window()) for f in FORMS.values() for label, e in f.components()}
EXPRS.update({f"zoo{k}": (e, (np.full(2, -3.0), np.full(2, 3.0))) for k, e in enumerate(_node_zoo())})


@pytest.mark.parametrize("name", sorted(EXPRS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_column_matches_value(name, seed):
    e, (lo, hi) = EXPRS[name]
    rng = np.random.default_rng(seed)
    # outside the window too, and with zeros, to reach domain boundaries
    p = rng.uniform(lo - (hi - lo) / 2, hi + (hi - lo) / 2)
    p[rng.random(p.size) < 0.25] = 0.0
    batch = e.value_batch(p[:, None])
    assert batch.shape == (1,)
    try:
        v = e.value(p)
    except ex.DomainEvalError:
        assert math.isnan(batch[0])
        return
    if _numpy_may_differ(e):
        np.testing.assert_allclose(batch[0], v, rtol=BATCH_TOL, atol=BATCH_TOL)
    else:
        assert batch[0] == v or (math.isnan(batch[0]) and math.isnan(v))


def test_batch_outputs_are_fresh_arrays():
    # a Var output is a row of the points and a Const output a float inside
    # the kernel; both come back as new writable float arrays
    points = np.arange(6.0).reshape(2, 3)
    before = points.copy()
    row, const = Tape((ex.var(1), ex.const(2.5))).value_batch(points)
    for out, expected in ((row, points[1]), (const, np.full(3, 2.5))):
        assert out.dtype == float and out.flags.writeable and out.flags.owndata
        assert not np.shares_memory(out, points)
        np.testing.assert_array_equal(out, expected)
        out[:] = -1.0
    np.testing.assert_array_equal(points, before)


def test_batch_outputs_never_alias_inputs_or_each_other():
    # fresh rows are passed through as they are, so a Var output is the
    # input row itself; a repeated subexpression is one local of the
    # kernel; on an open grid an output reading only x is smaller than
    # the broadcast shape
    x, y = np.arange(3.0), np.arange(4.0)[::-1].copy()
    sq = ex.square(ex.var(0))
    cases = [
        ([x, x + 1.0], (ex.var(0), ex.var(1), sq, ex.square(ex.var(0)), ex.add(sq, ex.var(1)))),
        ([x[:, None], y[None, :]], (sq, ex.var(1), ex.add(ex.var(0), ex.var(1)), ex.add(ex.var(0), ex.var(1)))),
    ]
    for rows, outputs in cases:
        before = [r.copy() for r in rows]
        outs = Tape(outputs).value_batch(rows)
        shape = np.broadcast_shapes(*(r.shape for r in rows))
        for k, (out, e) in enumerate(zip(outs, outputs)):
            assert out.shape == shape and out.dtype == float and out.flags.writeable
            assert not any(np.shares_memory(out, r) for r in rows)
            assert not any(np.shares_memory(out, o) for o in outs[:k])
            np.testing.assert_array_equal(out, e.value_batch(np.broadcast_arrays(*before)))
        for out in outs:
            out[...] = -7.0
        for r, b in zip(rows, before):
            np.testing.assert_array_equal(r, b)


_LEAVES = st.one_of(
    st.integers(0, 2).map(ex.var),
    st.sampled_from([0.0, -1.5, 2.0, 1e200]).map(ex.const),
    # sin takes an affine argument only
    st.tuples(st.integers(0, 2), st.sampled_from([1.0, -2.5]), st.sampled_from([0.0, 0.3])).map(
        lambda a: ex.sin(ex.affine([(a[0], a[1])], a[2]))
    ),
)


def _grow(children):
    unary = st.one_of(
        children.map(ex.log),
        children.map(ex.exp),
        children.map(ex.square),
        st.tuples(children, st.integers(2, 5)).map(lambda a: ex.ipow(*a)),
        st.tuples(children, st.sampled_from([0.3, 0.5, 1.5, 2.7])).map(lambda a: ex.rpow(*a)),
        st.tuples(children, st.sampled_from([-0.7, 3.0])).map(lambda a: ex.scale(*a)),
    )
    return st.one_of(unary, st.lists(children, min_size=1, max_size=3).map(lambda ps: ex.add(*ps)))


# zeros, negatives and huge values reach domain NaNs and overflow
_AXIS = st.lists(st.sampled_from([0.0, -2.0, -0.5, 0.25, 1.0, 3.0, 700.0, 1e160]), min_size=1, max_size=4)


def _same_bits(a, b) -> bool:
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(e=st.recursive(_LEAVES, _grow, max_leaves=8), axes=st.tuples(_AXIS, _AXIS, _AXIS))
def test_open_grid_matches_dense_grid(e, axes):
    a0, a1, a2 = (np.array(a) for a in axes)
    dense = e.value_batch(np.stack(np.meshgrid(a0, a1, a2, indexing="ij")))
    open_grid = e.value_batch([a0[:, None, None], a1[None, :, None], a2[None, None, :]])
    assert open_grid.shape == dense.shape
    assert _same_bits(open_grid, dense)
    # as the grid oracle passes them: x as (1, 1), y as (rows, 1), z as (1, nz)
    for k, x in enumerate(a0):
        block = e.value_batch([np.full((1, 1), x), a1[:, None], a2[None, :]])
        assert _same_bits(block, dense[k])


def test_wide_affine_and_sum_compile():
    n = 5000
    rng = np.random.default_rng(0)
    coef = rng.normal(size=n)
    p = rng.normal(size=n)
    aff = ex.affine(enumerate(coef), 0.5)
    want = 0.5
    for c, x in zip(coef, p):
        want += c * x
    assert aff.value(p) == want
    assert aff.value_batch(p[:, None]).tolist() == [want]
    _, g = aff.value_grad(p)
    np.testing.assert_array_equal(g, coef)
    total = ex.add(*[ex.square(ex.var(i)) for i in range(n)])
    want = 0.0
    for x in p:
        want += x * x
    assert total.value(p) == want
    assert total.value_batch(p[:, None]).tolist() == [want]
    _, g = total.value_grad(p)
    np.testing.assert_array_equal(g, 2.0 * p)


def test_deep_chain_compiles():
    # built from the node classes directly: the tagging constructors recurse
    depth = 1000
    e = ex.var(0)
    for _ in range(depth):
        e = ex.Scale(ex.Sum((e, ex.Const(0.5))), 0.5)
    v, g = e.value_grad(np.array([1.0]))
    assert v == pytest.approx(0.5)
    assert g[0] == 0.5**depth
    assert e.value_batch(np.array([[1.0, -3.0]])).tolist() == [v, e.value([-3.0])]


def test_nonfinite_constants():
    e = ex.add(ex.var(0), ex.const(math.inf))
    assert e.value([1.0]) == math.inf
    v, g = e.value_grad([1.0])
    assert v == math.inf and g.tolist() == [1.0]
    assert math.isnan(ex.scale(ex.const(math.nan), 2.0).value([0.0]))
    aff = ex.affine([(0, math.inf)], math.nan)
    v, g = aff.value_grad([1.0])
    assert math.isnan(v) and g.tolist() == [math.inf]


def test_power_overflow_gives_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the documented inf comes without a warning
        cube = ex.ipow(ex.var(0), 3)
        assert cube.value([1e200]) == math.inf
        assert cube.value([-1e200]) == -math.inf
        v, g = cube.value_grad([1e200])
        assert v == math.inf and g[0] == math.inf
        root = ex.rpow(ex.var(0), 2.5)
        assert root.value([1e200]) == math.inf
        v, g = root.value_grad([1e250])
        assert v == math.inf and g[0] == math.inf
        # exp reads inf too, as numpy's exp does, where math.exp raises
        growth = ex.exp(ex.var(0))
        assert growth.value([1000.0]) == math.inf
        v, g = growth.value_grad([1000.0])
        assert v == math.inf and g[0] == math.inf
        # so the smoothed penalty of g1 = exp(x0) - 1 reads inf there
        form = SaddleForm(
            "exp_constraint",
            VarPartition(1, 0, 0),
            Box.whole(1),
            ex.var(0),
            ineq=(ex.add(growth, ex.const(-1.0)),),
        )
        at = np.array([1000.0])
        assert penalty_f_theta_value(form, at, 10.0, 1.01) == math.inf
        assert penalty_f_theta(form, at, 10.0, 1.01)[0] == math.inf


def test_sine_of_an_infinite_argument_reads_nan():
    # 1e300 * 1e10 is inf, where math.sin raises and numpy's sin gives NaN
    wave = ex.sin(ex.affine([(0, 1e300)], 0.0))
    at = np.array([1e10])
    assert math.isnan(wave.value(at))
    v, g = wave.value_grad(at)
    assert math.isnan(v) and math.isnan(g[0])
    assert math.isnan(wave.value_batch(at.reshape(1, 1))[0])
    # so the smoothed penalty of g1 = that sine reads NaN, in value and gradient modes
    form = SaddleForm("sin_constraint", VarPartition(1, 0, 0), Box.whole(1), ex.var(0), ineq=(wave,))
    assert math.isnan(penalty_f_theta_value(form, at, 10.0, 1.01))
    v, g = penalty_f_theta(form, at, 10.0, 1.01)
    assert math.isnan(v) and np.isnan(g).all()


def test_an_unknown_node_type_does_not_compile():
    class Cube(ex._Unary):
        pass

    with pytest.raises(TypeError, match="cannot compile node Cube"):
        Cube(ex.var(0)).value([1.0])


def test_domain_error_names_the_offending_node():
    bad = ex.log(ex.var(1))
    e = ex.add(ex.square(ex.var(0)), bad)
    for fn in (e.value, e.value_grad):
        with pytest.raises(ex.DomainEvalError) as err:
            fn([1.0, -1.0])
        assert err.value.node is bad
    neg = ex.rpow(ex.var(0), 1.5)
    with pytest.raises(ex.DomainEvalError) as err:
        ex.add(neg, ex.var(1)).value([-2.0, 0.0])
    assert err.value.node is neg


def test_real_power_kinks():
    root = ex.rpow(ex.var(0), 0.5)
    e = ex.add(root, ex.var(1))
    assert e.value([0.0, 1.0]) == 1.0
    with pytest.raises(ex.NondifferentiableError) as err:
        e.value_grad([0.0, 1.0])
    assert err.value.node is root
    assert ex.rpow(ex.var(0), 1.0).value_grad([0.0])[1].tolist() == [1.0]
    assert ex.rpow(ex.var(0), 2.5).value_grad([0.0])[1].tolist() == [0.0]


def _kink_form(offset):
    # g = x^2 with the constraint sqrt(x) + offset <= 0 on x >= 0
    return SaddleForm(
        name="kink",
        partition=VarPartition(1, 0, 0),
        box=Box((0.0,), (math.inf,)),
        g=ex.square(ex.var(0)),
        ineq=(ex.add(ex.rpow(ex.var(0), 0.5), ex.const(offset)),),
    )


def test_penalty_gradient_needs_only_active_constraints_differentiable():
    inactive = _kink_form(-1.0)
    p = SaddlePoint(inactive.partition, np.zeros(1))
    assert penalty_f_theta(inactive, p, 10.0, 1.5) == (0.0, pytest.approx([0.0]))
    active = _kink_form(1.0)
    assert penalty_f_theta_value(active, p, 10.0, 1.5) == 10.0
    with pytest.raises(ex.NondifferentiableError) as err:
        penalty_f_theta(active, p, 10.0, 1.5)
    assert isinstance(err.value.node, ex.RealPow)


def test_value_and_value_grad_share_the_point_check():
    for fn in (ex.var(0).value, ex.var(0).value_grad):
        with pytest.raises(ex.DimensionError):
            fn(np.zeros((2, 2)))
    for fn in (ex.var(3).value, ex.var(3).value_grad):
        with pytest.raises(ex.DimensionError):
            fn(np.zeros(2))
    with pytest.raises(ex.DimensionError):
        ex.square(ex.var(3)).value_batch(np.zeros((2, 4)))
    with pytest.raises(ex.DimensionError):  # an open grid one row short
        ex.square(ex.var(2)).value_batch([np.zeros((1, 1)), np.zeros((3, 1))])
    with pytest.raises(ex.DimensionError):
        ex.curvature_audit(ex.square(ex.var(3)), np.zeros(2), np.ones(2))


def test_copies_compile_their_own_kernels():
    e = ex.square(ex.var(0))
    assert e.value([3.0, 5.0]) == 9.0
    assert e.tape() is e.tape()
    moved = e.remap({0: 1})
    assert moved.value([3.0, 5.0]) == 25.0
    tagged = e.with_tag(ex.CONVEX)
    assert "_tape" not in vars(tagged)
    assert tagged.value([3.0]) == 9.0
    assert tagged.tape() is not e.tape()

    form = make_catalog_form("abs_power")
    p = SaddlePoint(form.partition, np.array([1.0, 1.0, 0.0]))  # violations (1, 1, 0)
    before = penalty_f_theta_value(form, p, 10.0, 1.5)
    shifted = dataclasses.replace(form, ineq=tuple(gi - 1.0 for gi in form.ineq))
    assert shifted.tape() is not form.tape()
    assert penalty_f_theta_value(shifted, p, 10.0, 1.5) != before
    assert penalty_f_theta_value(form, p, 10.0, 1.5) == before


def test_kernels_do_not_keep_forms_alive():
    form = make_catalog_form("maxabs_minus_sum", n=2)
    p = SaddlePoint(form.partition, np.ones(form.partition.total))
    penalty_f_theta(form, p, 10.0, 1.5)
    ref = weakref.ref(form)
    del form
    gc.collect()
    assert ref() is None


def test_evaluated_expressions_pickle():
    e = ex.log(ex.add(ex.var(0), ex.const(1.0)))
    e.value_grad([1.0])
    back = pickle.loads(pickle.dumps(e))
    assert back == e
    assert back.value_grad([1.0])[0] == e.value([1.0])


def test_evaluated_forms_pickle():
    # the penalty kernels were kept on the form itself, so a form that had
    # computed a penalty raised PicklingError
    doc = {
        "inline": {
            "partition": [1, 1, 1],
            "lower": [None, 0.0, 0.0],
            "g": "(+ y0 (pow y0 4) (neg z0) (sq x0) (neg z0))",
            "ineq": ["(+ (pow y0 4) (neg z0))", "(+ (sq x0) (neg z0))", "(neg y0)"],
            "eq": ["(aff y0 1 x0 -1 -0.25)"],
        }
    }
    form = cli.load_form({"problem": doc})
    v = [0.7, 0.4, 0.3]
    before = [form.values(v)] + [
        form.smoothed_penalty(v, -1.0, 10.0, 1.5, grad) for grad in (False, True)
    ]
    back = pickle.loads(pickle.dumps(form))
    assert "_tape" not in back.__dict__
    after = [back.values(v)] + [
        back.smoothed_penalty(v, -1.0, 10.0, 1.5, grad) for grad in (False, True)
    ]
    assert after[:2] == before[:2]
    assert after[2][0] == before[2][0] and after[2][1].tobytes() == before[2][1].tobytes()


def _rebuilt(e):
    """``e`` built again node by node with every tag changed: the same
    arithmetic, no node object in common."""
    changes = {"tag": ex.CONVEX if e.tag == ex.NONE else ex.NONE}
    if isinstance(e, ex.Sum):
        changes["parts"] = tuple(_rebuilt(c) for c in e.parts)
    elif e.children():
        changes["child"] = _rebuilt(e.child)
    return dataclasses.replace(e, **changes)


def _in_order(e, seen=None):
    """The nodes of ``e`` in evaluation order: children first, each object once."""
    seen = set() if seen is None else seen
    for c in e.children():
        yield from _in_order(c, seen)
    if id(e) not in seen:
        seen.add(id(e))
        yield e


def _first_error(e, p, grad):
    """The error ``e.value`` (or ``e.value_grad``) raises at ``p`` and the
    node it names, or None: the first domain error in evaluation order, else
    in grad mode the first kink."""
    nodes = list(_in_order(e))
    for n in nodes:
        if isinstance(n, (ex.Log, ex.RealPow)):
            v = _reference(n.child, p)
            if v < 0.0 or (v == 0.0 and isinstance(n, ex.Log)):
                return ex.DomainEvalError, n
    for n in nodes if grad else ():
        if isinstance(n, ex.RealPow) and n.a < 1.0 and _reference(n.child, p) == 0.0:
            return ex.NondifferentiableError, n
    return None


def _outcome(fn, *args):
    """The bytes of what ``fn(*args)`` returns, or the type of the error it
    raises and the node that error names."""
    try:
        out = fn(*args)
    except (ex.DomainEvalError, ex.NondifferentiableError) as err:
        return type(err), err.node
    return [np.asarray(v).tobytes() for v in (out if isinstance(out, tuple) else (out,))]


def _kernels(tape):
    return tape.value.__code__.co_code, tape.value_grad.__code__.co_code, tape._batch.__code__.co_code


_COORD = st.sampled_from([0.0, -0.0, -2.0, -0.5, 0.25, 1.0, 3.0, 700.0, 1e160])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(e=st.recursive(_LEAVES, _grow, max_leaves=8), at=st.lists(_COORD, min_size=3, max_size=3))
def test_structural_copies_are_evaluated_once_and_exactly(e, at):
    copy = _rebuilt(e)
    both = ex.add(e, copy)
    # the copy is lowered as e itself: the kernels of e + copy are those of e + e
    assert _kernels(both.tape()) == _kernels(ex.add(e, e).tape())
    want = _reference(both, at)
    for grad, fn in ((False, both.value), (True, both.value_grad)):
        error = _first_error(e, at, grad)
        if error is not None:  # named at its first copy, the one inside e
            assert _outcome(fn, at) == error
        elif grad:
            ge = e.value_grad(at)[1]
            assert _outcome(fn, at) == _outcome(lambda: (want, (0.0 + ge) + ge))
        else:
            assert _outcome(fn, at) == _outcome(lambda: want)
    batch = both.value_batch(np.array(at)[:, None])
    own = e.value_batch(np.array(at)[:, None])
    assert _same_bits(batch, (0.0 + own) + own)
    if not _numpy_may_differ(e):
        assert _same_bits(batch, np.array([want]))

    # g = e and g_1 = copy - 1 share all of e: the penalty kernels are those
    # of the form whose g_1 is e - 1, and the value is the plain sum's
    def form(g1):
        ineq = (ex.add(g1, ex.const(-1.0)),)
        return SaddleForm("shared", VarPartition(1, 1, 1), Box.whole(3), e, ineq=ineq)

    shared, same = form(copy), form(e)
    assert _kernels(shared.tape()) == _kernels(same.tape())
    error = _first_error(e, at, False)
    g, g1 = _reference(e, at), _reference(shared.ineq[0], at)
    for grad in (False, True):
        for sign, power in ((1.0, 1.01), (-1.0, 2.0)):
            got = _outcome(shared.smoothed_penalty, np.array(at), sign, 10.0, power, grad)
            assert got == _outcome(same.smoothed_penalty, np.array(at), sign, 10.0, power, grad)
            if error is not None:
                assert got == error
            elif not grad:
                try:  # a NaN g_1 counts as violated
                    pen = 0.0 if g1 <= 0.0 else 0.0 + 10.0 * g1**power
                except OverflowError:
                    pen = math.inf
                assert got == _outcome(lambda: sign * g + pen)


def test_structural_sharing_keeps_different_nodes_apart():
    # 0.0 == -0.0 in Python, but a constant or factor of either sign is its own node
    outs = (ex.const(0.0), ex.const(-0.0), ex.scale(ex.var(0), 0.0), ex.scale(ex.var(0), -0.0))
    tape = Tape(outs)
    for vals in (tape.value([1.0]), [v[0] for v in tape.value_batch(np.ones((1, 1)))]):
        assert [math.copysign(1.0, v) for v in vals] == [1.0, -1.0, 1.0, -1.0]
    # one-child nodes of different types have the same fields
    x = ex.var(0)
    outs = (ex.square(x), ex.exp(x), ex.log(x), ex.sin(x), ex.ipow(x, 2), ex.rpow(x, 2.0))
    want = [4.0, math.exp(2.0), math.log(2.0), math.sin(2.0), 4.0, 4.0]
    assert Tape(outs).value([2.0]) == want
