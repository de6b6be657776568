"""Block curvature proved by composition rules (``expr.block_curvature``)
and the prove-else-sample check built on it (``expr.check_curvature``)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from saddlelift import expr as ex

x0, x1, x2 = ex.var(0), ex.var(1), ex.var(2)
PI = math.pi


@pytest.mark.parametrize(
    "e, moving, lower, upper, want",
    [
        (ex.affine([(0, 2.0), (1, -1.0)], 3.0), [0], [-1, -1], [1, 1], ex.AFFINE),
        (ex.affine([(0, 2.0)], 3.0), [1], [-1, -1], [1, 1], ex.CONST),
        (ex.square(x0 - x1), [0, 1], [-1, -1], [1, 1], ex.CONVEX),
        (ex.neg(ex.square(x0)), [0], [-1], [1], ex.CONCAVE),
        (ex.square(x0) + ex.neg(ex.square(x1)), [0], [-1, -1], [1, 1], ex.CONVEX),
        (ex.square(x0) + ex.neg(ex.square(x1)), [1], [-1, -1], [1, 1], ex.CONCAVE),
        (ex.square(x0) + ex.neg(ex.square(x1)), [0, 1], [-1, -1], [1, 1], ex.NONE),
        (ex.square(ex.square(x0)), [0], [-1], [1], ex.NONE),  # sq of a convex child
        (ex.square(ex.square(x0)), [1], [-1, -1], [1, 1], ex.CONST),
        (ex.ipow(x0, 4), [0], [-1], [1], ex.CONVEX),
        (ex.ipow(x0, 3), [0], [0], [1], ex.NONE),  # odd powers prove nothing
        (ex.rpow(x0, 1.5), [0], [0], [4], ex.CONVEX),
        (ex.rpow(ex.log(x0), 0.5), [0], [1], [4], ex.CONCAVE),  # concave, nonnegative child
        (ex.rpow(x0, 1.5), [0], [-1], [4], ex.NONE),  # leaves the domain
        (ex.rpow(ex.square(x0), 0.5), [0], [-1], [1], ex.NONE),  # concave map of convex
        (ex.exp(ex.square(x0)), [0], [-3], [3], ex.CONVEX),
        (ex.exp(ex.neg(ex.square(x0))), [0], [-3], [3], ex.NONE),
        (ex.exp(ex.square(x0)), [0], [-40], [40], ex.NONE),  # exp(1600) overflows
        (ex.log(x0 + 1.0), [0], [0], [2], ex.CONCAVE),
        (ex.log(ex.neg(ex.square(x0)) + 5.0), [0], [-2], [2], ex.CONCAVE),
        (ex.log(x0), [0], [-1], [2], ex.NONE),  # the window crosses 0
        (ex.log(x0), [0], [0], [2], ex.NONE),  # log 0 is outside the domain too
        (ex.sin(x0), [0], [0], [PI], ex.CONCAVE),
        (ex.sin(x0), [0], [PI], [2 * PI], ex.CONVEX),
        (ex.sin(x0), [0], [2 * PI + 0.5], [3 * PI - 0.5], ex.CONCAVE),
        (ex.sin(x0), [0], [0], [2 * PI], ex.NONE),
        (ex.sin(x0), [1], [0, 0], [2 * PI, 1], ex.CONST),
        (ex.log(ex.sin(x0)), [0], [0.5], [2.5], ex.CONCAVE),  # sin > 0 on the window
        (ex.log(ex.sin(x0)), [0], [0.5], [3.5], ex.NONE),
        (ex.exp(ex.sin(x0)), [0], [PI], [2 * PI], ex.CONVEX),
        (ex.scale(ex.log(x0), -2.0), [0], [1], [2], ex.CONVEX),
        (ex.square(x0) + ex.const(math.inf), [0], [-1], [1], ex.NONE),
        (ex.square(x0) + ex.const(math.nan), [1], [-1, -1], [1, 1], ex.NONE),
        (ex.scale(x0, math.inf), [0], [1], [2], ex.NONE),
        (ex.affine([(0, math.nan)]), [1], [1, 1], [2, 2], ex.NONE),
        (ex.square(x0), [0], [-math.inf], [1], ex.NONE),  # an unbounded window
        (ex.square(x0), [0], [1], [-1], ex.NONE),  # a reversed window
        (ex.square(x2), [2], [0, 0], [1, 1], ex.NONE),  # past the window's axes
    ],
)
def test_block_curvature_rules(e, moving, lower, upper, want):
    assert ex.block_curvature(e, moving, lower, upper) == want


def test_block_curvature_reads_no_declared_tag():
    # a concave node declared convex is proved concave, and not convex
    e = ex.neg(ex.square(x0)).with_tag(ex.CONVEX)
    assert ex.block_curvature(e, [0], [-1], [1]) == ex.CONCAVE
    rep = ex.check_curvature(e, [-1], [1], ex.CONVEX, samples=10)
    assert not rep.passed and not rep.proved and rep.counterexample is not None


def test_check_curvature_samples_only_what_it_cannot_prove(monkeypatch):
    sampled = []
    audit = ex.curvature_audit

    def counted(*args, **kw):
        sampled.append(args[0])
        return audit(*args, **kw)

    monkeypatch.setattr(ex, "curvature_audit", counted)
    rep = ex.check_curvature(ex.square(x0), [-1], [1], ex.CONVEX, samples=10)
    assert rep == ex.CurvatureReport(ex.CONVEX, True, 0, proved=True) and sampled == []
    quartic = ex.square(ex.square(x0))  # convex, but not by the rules
    rep = ex.check_curvature(quartic, [-1], [1], ex.CONVEX, samples=10, seed=4)
    assert sampled == [quartic] and not rep.proved
    assert rep == audit(quartic, [-1], [1], tag=ex.CONVEX, samples=10, seed=4)


# the bounds one axis of a random window draws from.  The sampler's blend
# tolerance is absolute (1e-9), so near values of 1e7 its rounding reads as
# a counterexample even on an affine function; the windows and constants
# here are moderate
_BOUNDS = [(-2.0, 2.0), (0.0, 1.0), (0.5, 3.0), (0.0, PI), (PI, 2 * PI), (-10.0, 10.0), (1.0, 1.0)]


def _tree(draw, depth):
    """A random tree over three variables of Var, Const (now and then not
    finite), Affine, Sum, Scale, sq, pow, rpow, exp, log and sin nodes."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        leaves = [
            ex.var(i),
            ex.const(draw(st.sampled_from([-2.0, 0.0, 0.5, 3.0]))),
            ex.const(draw(st.sampled_from([math.inf, -math.inf, math.nan]))),
            ex.affine(
                [(i, draw(st.sampled_from([-1.5, 0.5, 2.0]))), (j, draw(st.sampled_from([-1.0, 1.0])))],
                draw(st.sampled_from([-1.0, 0.0, 4.0])),
            ),
        ]
        return leaves[draw(st.sampled_from([0, 0, 1, 1, 2, 3, 3, 3]))]
    word = draw(st.sampled_from(["sum", "scale", "sq", "pow", "rpow", "exp", "log", "sin"]))
    if word == "sum":
        return ex.add(*[_tree(draw, depth - 1) for _ in range(draw(st.integers(1, 3)))])
    child = _tree(draw, depth - 1)
    if word == "sin":
        if not child.is_affine():
            child = ex.affine([(draw(st.integers(0, 2)), draw(st.sampled_from([0.5, 1.0, -1.0])))])
        return ex.sin(child + draw(st.sampled_from([0.0, PI])))
    return {
        "scale": lambda: ex.scale(child, draw(st.sampled_from([-2.0, -0.5, 0.0, 1.5]))),
        "sq": lambda: ex.square(child),
        "pow": lambda: ex.ipow(child, draw(st.integers(1, 4))),
        "rpow": lambda: ex.rpow(child, draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))),
        "exp": lambda: ex.exp(child),
        "log": lambda: ex.log(child),
    }[word]()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_every_proved_claim_passes_the_sampler(data):
    e = _tree(data.draw, data.draw(st.integers(1, 6), label="depth"))
    window = [data.draw(st.sampled_from(_BOUNDS)) for _ in range(3)]
    lower, upper = [lo for lo, _ in window], [hi for _, hi in window]
    moving = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    curv = ex.block_curvature(e, moving, lower, upper)
    for tag in (ex.CONVEX, ex.CONCAVE, ex.AFFINE):
        if curv in (ex.CONST, ex.AFFINE, tag):
            # no domain error and no counterexample
            rep = ex.curvature_audit(e, lower, upper, tag=tag, samples=20, seed=7, axes=moving)
            assert rep.passed, (e, window, moving, tag, rep)
