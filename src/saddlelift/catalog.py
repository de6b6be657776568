"""Ready-made saddle forms for a library of nonsmooth/nonconvex functions.

Every entry ships the lifted expressions, the box, a witness map, and a
direct reference evaluator of the represented function.  A few entries are
known to break the witness identity (their lifted structure cannot reproduce
the target value on part of the domain); those stay transcribed as-is and are
tracked in the known-issues registry instead of being silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .expr import CONVEX, Expr
from .forms import Box, FormError, SaddleForm, VarPartition

INF = math.inf


def _v(i: int) -> Expr:
    return ex.var(i)


def _aff(terms, offset=0.0) -> Expr:
    return ex.affine(terms, offset)


def _require_convex_tag(e: Expr, label: str) -> None:
    if e.tag not in (ex.CONVEX, ex.AFFINE):
        raise FormError(
            f"{label} must carry a convex (or affine) curvature declaration; "
            f"found {e.tag!r}"
        )


def _x_only(e: Expr, n: int, label: str) -> None:
    if e.max_index() >= n:
        raise FormError(f"{label} may reference only the first {n} coordinates")


# ---------------------------------------------------------------------------
# small builders shared by tests and the algebra


def trivial_convex(
    q: Expr,
    n: int,
    name: str,
    nonneg: bool = False,
    window: tuple[float, float] | None = None,
) -> SaddleForm:
    """A constraint-free form (m1 = m2 = 0) for a convex q over x.

    ``window`` bounds the audit sampling range per x axis; compositions that
    square intermediate values (products, power chains) need a modest window
    for the 1e-9 witness-identity tolerance to be meaningful in doubles.
    """
    _require_convex_tag(q, "q")
    _x_only(q, n, "q")
    declares = {"convex_joint_g"} | ({"nonneg"} if nonneg else set())
    win = None
    if window is not None:
        win = Box((float(window[0]),) * n, (float(window[1]),) * n)
    return SaddleForm(
        name=name,
        partition=VarPartition(n, 0, 0),
        box=Box.whole(n),
        g=q,
        witness=lambda x: (np.empty(0), np.empty(0)),
        reference=lambda x: q.value(np.asarray(x, dtype=float)),
        declares=frozenset(declares),
        window=win,
    )


def abs_sqrt_term(n: int, coord: int) -> SaddleForm:
    """|x_coord|^(1/2) over R^n with two auxiliary minimizers and one maximizer.

    Per-term gadget of the square-root-regularized least-squares form:
    constraints y0^4 - z0, x^2 - z0, y1^2 - y0.
    """
    if not 0 <= coord < n:
        raise FormError("coord outside x block")
    part = VarPartition(n, 2, 1)
    y0, y1, z0 = _v(n), _v(n + 1), _v(n + 2)
    xc = _v(coord)
    g = y0 + ex.ipow(y0, 4) - z0 + ex.square(xc) - z0
    ineq = (
        ex.ipow(y0, 4) - z0,
        ex.square(xc) - z0,
        ex.square(y1) - y0,
    )
    box = Box.from_blocks(
        ([-INF] * n, [INF] * n),
        ([0.0, -INF], [INF, INF]),
        ([0.0], [INF]),
    )

    def witness(x):
        r = math.sqrt(abs(x[coord]))
        return np.array([r, math.sqrt(r)]), np.array([x[coord] ** 2])

    return SaddleForm(
        name=f"abs_sqrt[{coord}]",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=lambda x: math.sqrt(abs(x[coord])),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


# ---------------------------------------------------------------------------
# catalog entries


def _bilinear2(variant: str = "a") -> SaddleForm:
    # f(x0, x1) = 2*x0*x1
    ref = lambda x: 2.0 * x[0] * x[1]
    if variant == "a":
        part = VarPartition(2, 0, 2)
        z0, z1 = _v(2), _v(3)
        g = ex.square(_aff([(0, 1.0), (1, 1.0)])) - z0 - z1
        ineq = (ex.square(_v(0)) - z0, ex.square(_v(1)) - z1)
        witness = lambda x: (np.empty(0), np.array([x[0] ** 2, x[1] ** 2]))
        box = Box.whole(4)
    elif variant == "b":
        part = VarPartition(2, 0, 1)
        z0 = _v(2)
        g = ex.square(_aff([(0, 1.0), (1, 1.0)])) - z0
        ineq = (ex.square(_v(0)) + ex.square(_v(1)) - z0,)
        witness = lambda x: (np.empty(0), np.array([x[0] ** 2 + x[1] ** 2]))
        box = Box.whole(3)
    else:
        raise FormError(f"bilinear2 has variants 'a' and 'b', not {variant!r}")
    return SaddleForm(
        name=f"bilinear2_{variant}",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=ref,
        declares=frozenset({"convex_joint_g"}),
    )


def _abs_half_reg(lam: float = 1.0) -> SaddleForm:
    # f(x0, x1) = (x0 + x1 - 1)^2 + lam * (|x0|^(1/2) + |x1|^(1/2))
    if lam <= 0:
        raise FormError("lam must be > 0")
    part = VarPartition(2, 4, 2)
    y = [_v(2 + j) for j in range(4)]
    z = [_v(6), _v(7)]
    smooth = ex.square(_aff([(0, 1.0), (1, 1.0)], -1.0))
    g = (
        smooth
        + lam * (y[0] + y[2])
        + ex.ipow(y[0], 4) + ex.square(_v(0)) - 2.0 * z[0]
        + ex.ipow(y[2], 4) + ex.square(_v(1)) - 2.0 * z[1]
    )
    ineq = (
        ex.ipow(y[0], 4) - z[0],
        ex.square(_v(0)) - z[0],
        ex.square(y[1]) - y[0],
        ex.ipow(y[2], 4) - z[1],
        ex.square(_v(1)) - z[1],
        ex.square(y[3]) - y[2],
    )
    box = Box.from_blocks(
        ([-INF, -INF], [INF, INF]),
        ([0.0, -INF, 0.0, -INF], [INF, INF, INF, INF]),
        ([0.0, 0.0], [INF, INF]),
    )

    def witness(x):
        r0, r1 = math.sqrt(abs(x[0])), math.sqrt(abs(x[1]))
        yv = np.array([r0, math.sqrt(r0), r1, math.sqrt(r1)])
        return yv, np.array([x[0] ** 2, x[1] ** 2])

    def reference(x):
        return float(
            (x[0] + x[1] - 1.0) ** 2
            + lam * (math.sqrt(abs(x[0])) + math.sqrt(abs(x[1])))
        )

    return SaddleForm(
        name="abs_half_reg",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _l0_pair_witness(xi: float) -> tuple[float, float]:
    """Indicator gadget: y in {0,1} tracking xi != 0 and its binding z."""
    yi = 0.0 if xi == 0.0 else 1.0
    zi = max((xi + yi - 1.0) ** 2, xi**2 + (yi - 1.0) ** 2)
    return yi, zi


def _l0_reg2(lam: float = 1.0) -> SaddleForm:
    # f(x0, x1) = (x0 + x1 - 1)^2 + lam * count_nonzero(x)
    if lam <= 0:
        raise FormError("lam must be > 0")
    part = VarPartition(2, 2, 2)
    parts = [ex.square(_aff([(0, 1.0), (1, 1.0)], -1.0)), lam * (_v(2) + _v(3))]
    ineq = []
    for i in range(2):
        xi, yi, zi = _v(i), _v(2 + i), _v(4 + i)
        a = ex.square(xi + yi - 1.0) - zi
        b = ex.square(xi) + ex.square(yi - 1.0) - zi
        parts.extend([a, b])
        ineq.extend([a, b, ex.square(yi) - yi])
    box = Box.from_blocks(
        ([-INF, -INF], [INF, INF]),
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [INF, INF]),
    )

    def witness(x):
        pairs = [_l0_pair_witness(x[0]), _l0_pair_witness(x[1])]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def reference(x):
        return float((x[0] + x[1] - 1.0) ** 2 + lam * np.count_nonzero(x))

    return SaddleForm(
        name="l0_reg2",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _sin_0_pi() -> SaddleForm:
    # f(x) = sin(x) on [0, pi]; g = z0 with -sin(x) + z0 <= 0
    part = VarPartition(1, 0, 1)
    g = _aff([(1, 1.0)])
    ineq = ((ex.neg(ex.sin(_v(0))) + _v(1)).with_tag(CONVEX),)
    box = Box.from_blocks(([0.0], [math.pi]), ([], []), ([0.0], [1.0]))
    return SaddleForm(
        name="sin_0_pi",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=lambda x: (np.empty(0), np.array([math.sin(x[0])])),
        reference=lambda x: math.sin(x[0]),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _sin_half(index: int = 0) -> Expr:
    return ex.sin(_aff([(index, 0.5)]))


def _sin_0_2pi() -> SaddleForm:
    # f(x) = sin(x) on [0, 2*pi]
    part = VarPartition(1, 1, 2)
    y0, z0, z1 = _v(1), _v(2), _v(3)
    g = y0 - _sin_half() + z0 - ex.square(z0) - ex.square(z1) + 1.0
    ineq = (
        ex.square(z0 + z1) - 1.0 - y0,
        (ex.neg(_sin_half()) + z0).with_tag(CONVEX),
        ex.square(z0) + ex.square(z1) - 1.0,
    )
    box = Box.from_blocks(
        ([0.0], [2.0 * math.pi]),
        ([-1.0], [1.0]),
        ([-1.0, -1.0], [1.0, 1.0]),
    )

    def witness(x):
        h = 0.5 * x[0]
        return np.array([math.sin(x[0])]), np.array([math.sin(h), math.cos(h)])

    return SaddleForm(
        name="sin_0_2pi",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=lambda x: math.sin(x[0]),
    )


def _cos_0_2pi() -> SaddleForm:
    # f(x) = cos(x) on [0, 2*pi]
    part = VarPartition(1, 0, 4)
    z = [_v(1 + k) for k in range(4)]
    g = (
        z[2]
        - ex.square(z[0] + z[1])
        + 1.0
        + z[3]
        - _sin_half()
        + z[0]
        - ex.square(z[0])
        - ex.square(z[1])
        + 1.0
        - ex.square(z[2])
        - ex.square(z[3])
        + 1.0
    )
    ineq = (
        ex.square(z[0] + z[1]) - 1.0 - z[3],
        (ex.neg(_sin_half()) + z[0]).with_tag(CONVEX),
        ex.square(z[0]) + ex.square(z[1]) - 1.0,
        ex.square(z[2]) + ex.square(z[3]) - 1.0,
    )
    box = Box.from_blocks(
        ([0.0], [2.0 * math.pi]),
        ([], []),
        ([-1.0] * 4, [1.0] * 4),
    )

    def witness(x):
        h = 0.5 * x[0]
        return np.empty(0), np.array(
            [math.sin(h), math.cos(h), math.cos(x[0]), math.sin(x[0])]
        )

    return SaddleForm(
        name="cos_0_2pi",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=lambda x: math.cos(x[0]),
    )


def _dc(d: Expr | None = None, c: Expr | None = None, n: int = 1) -> SaddleForm:
    # f(x) = d(x) - c(x) for user-supplied convex d, c; g = d - z, c - z <= 0
    if d is None:
        d = (2.0 * ex.square(_v(0))).with_tag(CONVEX)
    if c is None:
        c = ex.square(_v(0))
    _require_convex_tag(d, "d")
    _require_convex_tag(c, "c")
    _x_only(d, n, "d")
    _x_only(c, n, "c")
    part = VarPartition(n, 0, 1)
    z0 = _v(n)
    box = Box.whole(n + 1)

    def witness(x):
        return np.empty(0), np.array([c.value(np.asarray(x, dtype=float))])

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return d.value(xv) - c.value(xv)

    return SaddleForm(
        name="dc",
        partition=part,
        box=box,
        g=d - z0,
        ineq=(c - z0,),
        witness=witness,
        reference=reference,
    )


def _entropy(n: int = 2) -> SaddleForm:
    # f(x) = -sum x_i * ln(x_i) on 0 < x_i <= 1
    if n < 1:
        raise FormError("n must be >= 1")
    part = VarPartition(n, n, n)
    parts = []
    ineq = []
    for i in range(n):
        xi, yi, zi = _v(i), _v(n + i), _v(2 * n + i)
        parts.append(0.5 * ex.square(xi + yi) - 0.5 * zi)
        ineq.append(ex.neg(ex.log(xi)) - yi)
        ineq.append(ex.square(xi) + ex.square(yi) - zi)
    box = Box.from_blocks(
        ([0.0] * n, [1.0] * n),
        ([0.0] * n, [INF] * n),
        ([0.0] * n, [INF] * n),
    )
    window = Box.from_blocks(
        ([0.01] * n, [1.0] * n),
        ([0.0] * n, [5.0] * n),
        ([0.0] * n, [30.0] * n),
    )

    def witness(x):
        y = -np.log(x)
        return y, x**2 + y**2

    def reference(x):
        return float(-(x * np.log(x)).sum())

    return SaddleForm(
        name="entropy",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
        window=window,
    )


def _sigmoid() -> SaddleForm:
    # f(x) = 2 / (1 + exp(-x)) - 1; transcribed as-is.  The witness identity
    # is off by a constant and the y-box excludes the natural witness; see the
    # known-issues registry.
    part = VarPartition(1, 2, 1)
    y0, y1, z0 = _v(1), _v(2), _v(3)
    g = 2.0 * y0 - 1.0 + ex.square(y0 + y1) - z0 - 1.0 + ex.square(y0) + ex.square(y1) - z0
    ineq = (
        ex.square(y0 + y1) - z0 - 1.0,
        ex.square(y0) + ex.square(y1) - z0,
        ex.exp(ex.neg(_v(0))) + 1.0 - y1,
    )
    box = Box.from_blocks(([-INF], [INF]), ([1.0, 1.0], [INF, INF]), ([0.0], [INF]))

    def witness(x):
        b = 1.0 + math.exp(-x[0])
        y = np.array([1.0 / b, b])
        return y, np.array([(y[0] + y[1]) ** 2 - 1.0])

    return SaddleForm(
        name="sigmoid",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=lambda x: 2.0 / (1.0 + math.exp(-x[0])) - 1.0,
        declares=frozenset({"convex_joint_g"}),
    )


def _pow_a(a: float = 0.5) -> SaddleForm:
    # f(x) = x**a on x >= 0, 0 < a < 1
    if not 0.0 < a < 1.0:
        raise FormError("pow_a requires 0 < a < 1")
    part = VarPartition(1, 1, 1)
    y0, z0 = _v(1), _v(2)
    g = y0 + ex.rpow(y0, 2.0 / a) - z0 + ex.square(_v(0)) - z0
    ineq = (ex.rpow(y0, 2.0 / a) - z0, ex.square(_v(0)) - z0)
    box = Box.from_blocks(([0.0], [INF]), ([0.0], [INF]), ([0.0], [INF]))
    return SaddleForm(
        name="pow_a",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=lambda x: (np.array([x[0] ** a]), np.array([x[0] ** 2])),
        reference=lambda x: float(x[0] ** a),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _pow_a_plus_1(a: float = 0.5) -> SaddleForm:
    # f(x) = x**(a+1) on x >= 0, 0 < a < 1
    if not 0.0 < a < 1.0:
        raise FormError("pow_a_plus_1 requires 0 < a < 1")
    part = VarPartition(1, 1, 2)
    y0, z0, z1 = _v(1), _v(2), _v(3)
    g = 0.5 * ex.square(y0 + _v(0)) - 0.5 * z0 - 0.5 * z1
    ineq = (
        ex.rpow(y0, 2.0 / a) - z0,
        ex.square(_v(0)) - z0,
        ex.square(y0) - z1,
    )
    box = Box.from_blocks(([0.0], [INF]), ([0.0], [INF]), ([0.0, 0.0], [INF, INF]))
    return SaddleForm(
        name="pow_a_plus_1",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=lambda x: (np.array([x[0] ** a]), np.array([x[0] ** 2, x[0] ** (2 * a)])),
        reference=lambda x: float(x[0] ** (a + 1.0)),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _pow_a_2n(a: float = 0.5, n2: int = 1) -> SaddleForm:
    # f(x) = x**(a + 2*n2) on x >= 0, 0 < a < 1, n2 >= 1
    if not 0.0 < a < 1.0:
        raise FormError("pow_a_2n requires 0 < a < 1")
    if n2 < 1:
        raise FormError("pow_a_2n requires n2 >= 1")
    part = VarPartition(1, 2, 2)
    y0, y1, z0, z1 = _v(1), _v(2), _v(3), _v(4)
    g = 0.5 * ex.square(y0 + y1) - 0.5 * z0 + ex.rpow(y0, 2.0 / a) - z1 + ex.square(_v(0)) - z1
    ineq = (
        ex.rpow(y0, 2.0 / a) - z1,
        ex.square(_v(0)) - z1,
        ex.ipow(_v(0), 2 * n2) - y1,
        ex.square(y0) + ex.square(y1) - z0,
    )
    box = Box.from_blocks(
        ([0.0], [INF]), ([0.0, 0.0], [INF, INF]), ([0.0, 0.0], [INF, INF])
    )

    def witness(x):
        t = float(x[0])
        y = np.array([t**a, t ** (2 * n2)])
        return y, np.array([y[0] ** 2 + y[1] ** 2, t**2])

    return SaddleForm(
        name="pow_a_2n",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=lambda x: float(x[0] ** (a + 2 * n2)),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _sgn3(variant: str = "a") -> SaddleForm:
    # f(x) = sign(x) in {-1, 0, 1}
    ref = lambda x: float(np.sign(x[0]))
    if variant == "a":
        part = VarPartition(1, 4, 5)
        y = [_v(1 + j) for j in range(4)]
        z = [_v(5 + k) for k in range(5)]
        ineq = (
            ex.square(y[1] + y[0] - 1.0) - z[0],
            ex.square(y[1]) + ex.square(y[0] - 1.0) - z[0],
            ex.square(y[2] + y[0]) - z[1],
            ex.square(y[2]) + ex.square(y[0]) - z[1],
            ex.square(y[1]) - _v(0) - z[2],
            ex.square(y[2]) - z[2],
            ex.square(y[3] + y[0]) - z[3],
            ex.square(y[3]) + ex.square(y[0]) - z[3],
            ex.square(y[0]) - z[4],
        )
        g = ex.add(y[0], ex.square(y[0]), ex.const(-1.0), y[3], *ineq)
        eq = (z[4] - 1.0 + y[3],)
        box = Box.from_blocks(
            ([-INF], [INF]), ([-INF] * 4, [INF] * 4), ([0.0] * 5, [INF] * 5)
        )

        def witness(x):
            t = float(x[0])
            if t > 0:
                return np.array([1.0, math.sqrt(t), 0.0, 0.0]), np.array(
                    [t, 1.0, 0.0, 1.0, 1.0]
                )
            if t == 0:
                return np.array([0.0, 0.0, 0.0, 1.0]), np.array(
                    [1.0, 0.0, 0.0, 1.0, 0.0]
                )
            return np.array([0.0, 0.0, math.sqrt(-t), 1.0]), np.array(
                [1.0, -t + 0.5, -t, 1.0, 0.0]
            )

    elif variant == "b":
        part = VarPartition(1, 4, 7)
        y = [_v(1 + j) for j in range(4)]
        z = [_v(5 + k) for k in range(7)]
        ineq = (
            ex.square(y[0]) - z[0],
            ex.square(y[1]) - z[1],
            ex.square(y[2]) - z[2],
            ex.square(y[3]) - z[3],
            ex.square(y[1] + y[0] - 1.0) - z[4],
            ex.square(y[2] + y[0] + 1.0) - z[5],
            ex.square(y[3] + y[0]) - z[6],
        )
        g = ex.add(y[0], ex.square(y[0]), ex.const(-1.0), y[3], *ineq)
        eq = (
            z[1] + z[0] - 2.0 * y[0] + 1.0 - z[4],
            z[2] + z[0] + 2.0 * y[0] + 1.0 - z[5],
            z[1] - _v(0) - z[2],
            z[3] + z[0] - z[6],
            z[0] - 1.0 + y[3],
        )
        box = Box.from_blocks(
            ([-INF], [INF]), ([-INF] * 4, [INF] * 4), ([0.0] * 7, [INF] * 7)
        )

        def witness(x):
            t = float(x[0])
            if t > 0:
                yv = np.array([1.0, math.sqrt(t), 0.0, 0.0])
            elif t == 0:
                yv = np.array([0.0, 0.0, 0.0, 1.0])
            else:
                yv = np.array([-1.0, 0.0, math.sqrt(-t), 0.0])
            zv = np.array(
                [
                    yv[0] ** 2,
                    yv[1] ** 2,
                    yv[2] ** 2,
                    yv[3] ** 2,
                    (yv[1] + yv[0] - 1.0) ** 2,
                    (yv[2] + yv[0] + 1.0) ** 2,
                    (yv[3] + yv[0]) ** 2,
                ]
            )
            return yv, zv

    else:
        raise FormError(f"sgn3 has variants 'a' and 'b', not {variant!r}")
    return SaddleForm(
        name=f"sgn3_{variant}",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        eq=eq,
        witness=witness,
        reference=ref,
        declares=frozenset({"convex_joint_g"}),
    )


def _sgn2(variant: str = "a") -> SaddleForm:
    # f(x) = 1 if x >= 0 else 0
    ref = lambda x: 1.0 if x[0] >= 0 else 0.0

    def witness_y(t: float) -> np.ndarray:
        if t >= 0:
            return np.array([1.0, math.sqrt(t), 0.0])
        return np.array([0.0, 0.0, math.sqrt(-t)])

    if variant == "a":
        part = VarPartition(1, 3, 3)
        y = [_v(1 + j) for j in range(3)]
        z = [_v(4 + k) for k in range(3)]
        ineq = (
            ex.square(y[1] + y[0] - 1.0) - z[0],
            ex.square(y[1]) + ex.square(y[0] - 1.0) - z[0],
            ex.square(y[2] + y[0]) - z[1],
            ex.square(y[2]) + ex.square(y[0]) - z[1],
            ex.square(y[1]) - _v(0) - z[2],
            ex.square(y[2]) - z[2],
        )
        g = ex.add(y[0], *ineq)
        eq = ()
        box = Box.from_blocks(
            ([-INF], [INF]),
            ([0.0, -INF, -INF], [1.0, INF, INF]),
            ([0.0] * 3, [INF] * 3),
        )

        def witness(x):
            t = float(x[0])
            yv = witness_y(t)
            zv = np.array(
                [
                    max((yv[1] + yv[0] - 1.0) ** 2, yv[1] ** 2 + (yv[0] - 1.0) ** 2),
                    max((yv[2] + yv[0]) ** 2, yv[2] ** 2 + yv[0] ** 2),
                    max(yv[1] ** 2 - t, yv[2] ** 2),
                ]
            )
            return yv, zv

    elif variant == "b":
        part = VarPartition(1, 3, 5)
        y = [_v(1 + j) for j in range(3)]
        z = [_v(4 + k) for k in range(5)]
        ineq = (
            ex.square(y[0]) - z[0],
            ex.square(y[1]) - z[1],
            ex.square(y[2]) - z[2],
            ex.square(y[1] + y[0] - 1.0) - z[3],
            ex.square(y[2] + y[0]) - z[4],
        )
        g = ex.add(y[0], *ineq)
        eq = (
            z[1] + z[0] - 2.0 * y[0] + 1.0 - z[3],
            z[2] + z[0] - z[4],
            z[1] - _v(0) - z[2],
        )
        box = Box.from_blocks(
            ([-INF], [INF]),
            ([0.0, -INF, -INF], [1.0, INF, INF]),
            ([0.0] * 5, [INF] * 5),
        )

        def witness(x):
            yv = witness_y(float(x[0]))
            zv = np.array(
                [
                    yv[0] ** 2,
                    yv[1] ** 2,
                    yv[2] ** 2,
                    (yv[1] + yv[0] - 1.0) ** 2,
                    (yv[2] + yv[0]) ** 2,
                ]
            )
            return yv, zv

    else:
        raise FormError(f"sgn2 has variants 'a' and 'b', not {variant!r}")
    return SaddleForm(
        name=f"sgn2_{variant}",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        eq=eq,
        witness=witness,
        reference=ref,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _relu(variant: str = "a") -> SaddleForm:
    # f(x) = max(x, 0)
    ref = lambda x: max(float(x[0]), 0.0)

    def witness_y(t: float) -> np.ndarray:
        if t >= 0:
            return np.array([math.sqrt(t), 0.0])
        return np.array([0.0, math.sqrt(-t)])

    if variant == "a":
        part = VarPartition(1, 2, 2)
        y = [_v(1), _v(2)]
        z = [_v(3), _v(4)]
        ineq = (
            ex.square(y[1] + y[0]) - z[0],
            ex.square(y[1]) + ex.square(y[0]) - z[0],
            ex.square(y[0]) - _v(0) - z[1],
            ex.square(y[1]) - z[1],
        )
        g = ex.add(ex.square(y[0]), *ineq)
        eq = ()
        box = Box.from_blocks(([-INF], [INF]), ([-INF] * 2, [INF] * 2), ([0.0] * 2, [INF] * 2))

        def witness(x):
            t = float(x[0])
            yv = witness_y(t)
            zv = np.array(
                [yv[0] ** 2 + yv[1] ** 2, max(yv[0] ** 2 - t, yv[1] ** 2)]
            )
            return yv, zv

    elif variant == "b":
        part = VarPartition(1, 2, 3)
        y = [_v(1), _v(2)]
        z = [_v(3), _v(4), _v(5)]
        ineq = (
            ex.square(y[0]) - z[0],
            ex.square(y[1]) - z[1],
            ex.square(y[1] + y[0]) - z[2],
        )
        g = ex.add(ex.square(y[0]), *ineq)
        eq = (z[0] + z[1] - z[2], z[0] - _v(0) - z[1])
        box = Box.from_blocks(([-INF], [INF]), ([-INF] * 2, [INF] * 2), ([0.0] * 3, [INF] * 3))

        def witness(x):
            yv = witness_y(float(x[0]))
            zv = np.array([yv[0] ** 2, yv[1] ** 2, (yv[1] + yv[0]) ** 2])
            return yv, zv

    else:
        raise FormError(f"relu has variants 'a' and 'b', not {variant!r}")
    return SaddleForm(
        name=f"relu_{variant}",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        eq=eq,
        witness=witness,
        reference=ref,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _relu_convex(b: Expr | None = None, n: int = 1) -> SaddleForm:
    # f(x) = max(b(x), 0) for user-supplied convex b
    if b is None:
        b = (ex.square(_v(0)) - 1.0).with_tag(CONVEX)
    _require_convex_tag(b, "b")
    _x_only(b, n, "b")
    part = VarPartition(n, 2, 4)
    y = [_v(n), _v(n + 1)]
    z = [_v(n + 2 + k) for k in range(4)]
    ineq_in_g = (
        ex.square(y[0]) - z[0],
        ex.square(y[1]) - z[1],
        ex.square(y[1] + y[0]) - z[2],
    )
    g = ex.add(ex.square(y[0]), *ineq_in_g)
    ineq = ineq_in_g + (b - z[3],)
    eq = (z[0] + z[1] - z[2], z[0] - z[3] - z[1])
    box = Box.from_blocks(
        ([-INF] * n, [INF] * n), ([-INF] * 2, [INF] * 2), ([0.0] * 4, [INF] * 4)
    )

    def witness(x):
        t = b.value(np.asarray(x, dtype=float))
        if t >= 0:
            return np.array([math.sqrt(t), 0.0]), np.array([t, 0.0, t, t])
        return np.zeros(2), np.zeros(4)

    def reference(x):
        return max(b.value(np.asarray(x, dtype=float)), 0.0)

    return SaddleForm(
        name="relu_convex",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        eq=eq,
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _abs_power() -> SaddleForm:
    # f(x) = |x|^(1/2); g = y + y^4 - z + x^2 - z
    part = VarPartition(1, 1, 1)
    y0, z0 = _v(1), _v(2)
    g = y0 + ex.ipow(y0, 4) - z0 + ex.square(_v(0)) - z0
    ineq = (
        ex.ipow(y0, 4) - z0,
        ex.square(_v(0)) - z0,
        ex.neg(y0),
    )
    box = Box.from_blocks(([-INF], [INF]), ([0.0], [INF]), ([0.0], [INF]))
    return SaddleForm(
        name="abs_power",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=lambda x: (np.array([math.sqrt(abs(x[0]))]), np.array([x[0] ** 2])),
        reference=lambda x: math.sqrt(abs(x[0])),
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _l0_scalar_reg(lam: float = 2.0) -> SaddleForm:
    # f(x) = (x - 1)^2 + lam * (1 if x != 0 else 0)
    if lam <= 0:
        raise FormError("lam must be > 0")
    part = VarPartition(1, 1, 1)
    x0, y0, z0 = _v(0), _v(1), _v(2)
    a = ex.square(x0 + y0 - 1.0) - z0
    b = ex.square(x0) + ex.square(y0 - 1.0) - z0
    g = ex.square(x0 - 1.0) + lam * (ex.square(y0) + a + b)
    ineq = (a, b, ex.square(y0) - y0)
    box = Box.from_blocks(([-INF], [INF]), ([0.0], [1.0]), ([0.0], [INF]))

    def witness(x):
        yi, zi = _l0_pair_witness(float(x[0]))
        return np.array([yi]), np.array([zi])

    def reference(x):
        return float((x[0] - 1.0) ** 2 + (lam if x[0] != 0 else 0.0))

    return SaddleForm(
        name="l0_scalar_reg",
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _maxabs_minus_sum(n: int = 5) -> SaddleForm:
    # f(x) = n * max_i |x_i| - sum_i |x_i|
    if n < 1:
        raise FormError("n must be >= 1")
    part = VarPartition(n, n + 1, n)
    ytop = _v(2 * n)  # y_{n+1}, the shared majorant
    parts = [ex.scale(ytop, float(n))]
    ineq = []
    for i in range(n):
        xi, yi, zi = _v(i), _v(n + i), _v(2 * n + 1 + i)
        parts.append(ex.neg(yi) + ex.square(yi) - 2.0 * zi + ex.square(xi))
        ineq.append(ex.square(yi) - zi)
    for i in range(n):
        ineq.append(ex.square(_v(i)) - _v(2 * n + 1 + i))
    for i in range(n):
        ineq.append(_v(n + i) - ytop)
    box = Box.from_blocks(
        ([-INF] * n, [INF] * n),
        ([0.0] * (n + 1), [INF] * (n + 1)),
        ([0.0] * n, [INF] * n),
    )

    def witness(x):
        ax = np.abs(x)
        return np.concatenate([ax, [ax.max()]]), x**2

    def reference(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return float(n * ax.max() - ax.sum())

    return SaddleForm(
        name="maxabs_minus_sum",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


# ---------------------------------------------------------------------------
# structured problem builders


def _geometric_poly(a, alpha) -> SaddleForm:
    """Signed-monomial objective sum_i a_i * prod_j x_j^alpha_ij on x > 0.

    Transcribed as published; the stated equalities tie y_i (not its log) to
    the log-lift of the monomial, so the witness cannot satisfy them and the
    entry lives in the known-issues registry.
    """
    a = np.asarray(a, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or alpha.ndim != 2 or alpha.shape[0] != a.size:
        raise FormError("need a of shape (m,) and alpha of shape (m, n)")
    if np.any(a == 0):
        raise FormError("coefficients a_i must be nonzero")
    m, n = alpha.shape
    part = VarPartition(n, m, m + n)
    parts = []
    ineq = []
    eq = []
    for i in range(m):
        yi, zi = _v(n + i), _v(n + m + i)
        gi = ex.neg(ex.log(yi)) - zi
        parts.append(ex.scale(yi, a[i]))
        parts.append(gi)
        ineq.append(gi)
    for j in range(n):
        zj = _v(n + m + m + j)
        gj = ex.neg(ex.log(_v(j))) - zj
        parts.append(gj)
        ineq.append(gj)
    for i in range(m):
        terms = [(n + i, 1.0)] + [(n + m + m + j, -alpha[i, j]) for j in range(n)]
        eq.append(_aff(terms))
    box = Box.from_blocks(
        ([0.0] * n, [INF] * n),
        ([0.0] * m, [INF] * m),
        ([-INF] * (m + n), [INF] * (m + n)),
    )
    window = Box.from_blocks(
        ([0.5] * n, [2.0] * n),
        ([0.05] * m, [20.0] * m),
        ([-4.0] * (m + n), [4.0] * (m + n)),
    )

    def witness(x):
        xv = np.asarray(x, dtype=float)
        y = np.array([np.prod(xv ** alpha[i]) for i in range(m)])
        z = np.concatenate([-np.log(y), -np.log(xv)])
        return y, z

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(sum(a[i] * np.prod(xv ** alpha[i]) for i in range(m)))

    return SaddleForm(
        name="geometric_poly",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        eq=tuple(eq),
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g"}),
        window=window,
    )


def _l01_svm(A, d, C: float = 1.0) -> SaddleForm:
    """Margin classifier 0.5*||x||^2 + C * count(positive margin residuals).

    Residual u_j = 1 - A_j . x - d_j * x0.  The lift forces y_j = u_j with
    y_j >= 0, so any sample with a negative residual has no feasible witness;
    tracked in the known-issues registry.
    """
    A = np.asarray(A, dtype=float)
    d = np.asarray(d, dtype=float)
    if A.ndim != 2 or d.shape != (A.shape[0],):
        raise FormError("need A of shape (m, n) and d of shape (m,)")
    if C <= 0:
        raise FormError("C must be > 0")
    m, n = A.shape
    part = VarPartition(n + 1, 3 * m, m)
    yj = lambda j: _v(n + 1 + j)
    ymj = lambda j: _v(n + 1 + m + j)
    y2mj = lambda j: _v(n + 1 + 2 * m + j)
    zj = lambda j: _v(n + 1 + 3 * m + j)
    parts = [0.5 * ex.square(_v(i)) for i in range(n)]
    ineq = []
    for j in range(m):
        pair_a = ex.square(yj(j) + ymj(j) - 1.0) - zj(j)
        pair_b = ex.square(yj(j)) + ex.square(ymj(j) - 1.0) - zj(j)
        parts.append(C * (ex.square(ymj(j)) + pair_a + pair_b))
        ineq.append(pair_a)
    for j in range(m):
        ineq.append(ex.square(yj(j)) + ex.square(ymj(j) - 1.0) - zj(j))
    for j in range(m):
        ineq.append(ex.square(ymj(j)) - ymj(j))
    for j in range(m):
        ineq.append(ex.square(y2mj(j)) - yj(j))
    eq = tuple(
        _aff([(i, A[j, i]) for i in range(n)] + [(n, d[j]), (n + 1 + j, 1.0)], -1.0)
        for j in range(m)
    )
    box = Box.from_blocks(
        ([-INF] * (n + 1), [INF] * (n + 1)),
        ([0.0] * m + [0.0] * m + [-INF] * m, [INF] * m + [1.0] * m + [INF] * m),
        ([0.0] * m, [INF] * m),
    )

    def witness(x):
        xv = np.asarray(x, dtype=float)
        u = 1.0 - A @ xv[:n] - d * xv[n]
        ind = (u > 0).astype(float)
        y = np.concatenate([u, ind, np.sqrt(np.maximum(u, 0.0))])
        z = np.maximum((u + ind - 1.0) ** 2, u**2 + (ind - 1.0) ** 2)
        return y, z

    def reference(x):
        xv = np.asarray(x, dtype=float)
        u = 1.0 - A @ xv[:n] - d * xv[n]
        return float(0.5 * (xv[:n] ** 2).sum() + C * np.count_nonzero(u > 0))

    return SaddleForm(
        name="l01_svm",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        eq=eq,
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g", "nonneg"}),
    )


def _sparse_l0(q: Expr, lam: float, n: int) -> SaddleForm:
    # f(x) = q(x) + lam * count_nonzero(x) for user-supplied smooth convex q
    _require_convex_tag(q, "q")
    _x_only(q, n, "q")
    if lam <= 0:
        raise FormError("lam must be > 0")
    part = VarPartition(n, n, n)
    parts = [q]
    ineq = []
    for i in range(n):
        xi, yi, zi = _v(i), _v(n + i), _v(2 * n + i)
        pa = ex.square(xi + yi - 1.0) - zi
        pb = ex.square(xi) + ex.square(yi - 1.0) - zi
        parts.append(lam * (ex.square(yi) + pa + pb))
        ineq.append(pa)
    for i in range(n):
        xi, yi, zi = _v(i), _v(n + i), _v(2 * n + i)
        ineq.append(ex.square(xi) + ex.square(yi - 1.0) - zi)
    for i in range(n):
        yi = _v(n + i)
        ineq.append(ex.square(yi) - yi)
    box = Box.from_blocks(
        ([-INF] * n, [INF] * n), ([0.0] * n, [1.0] * n), ([0.0] * n, [INF] * n)
    )

    def witness(x):
        pairs = [_l0_pair_witness(float(t)) for t in x]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(q.value(xv) + lam * np.count_nonzero(xv))

    return SaddleForm(
        name="sparse_l0",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=tuple(ineq),
        witness=witness,
        reference=reference,
        declares=frozenset({"convex_joint_g"}),
    )


def _sign_split_terms(coef: float, i: int, j: int, zi: int, zj: int) -> Expr:
    """(|a|/2) * ((x_i + sgn(a) x_j)^2 - z_i - z_j), the bilinear splitting."""
    s = 1.0 if coef > 0 else -1.0
    quad = ex.square(_aff([(i, 1.0), (j, s)]))
    return (abs(coef) / 2.0) * (quad - _v(zi) - _v(zj))


def _quadratic(A, c) -> SaddleForm:
    # f(x) = x^T A x + c^T x
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or c.shape != (n,):
        raise FormError("need square A and matching c")
    part = VarPartition(n, 0, n)
    parts = []
    for i in range(n):
        for j in range(n):
            if i != j and A[i, j] != 0.0:
                parts.append(_sign_split_terms(A[i, j], i, j, n + i, n + j))
    for i in range(n):
        parts.append(ex.scale(_v(n + i), A[i, i]))
        parts.append(ex.square(_v(i)) - _v(n + i))
        if c[i] != 0.0:
            parts.append(ex.scale(_v(i), c[i]))
    ineq = tuple(ex.square(_v(i)) - _v(n + i) for i in range(n))
    box = Box.from_blocks(([-INF] * n, [INF] * n), ([], []), ([0.0] * n, [INF] * n))

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(xv @ A @ xv + c @ xv)

    return SaddleForm(
        name="quadratic",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=ineq,
        witness=lambda x: (np.empty(0), np.asarray(x, dtype=float) ** 2),
        reference=reference,
        declares=frozenset({"convex_joint_g"}),
    )


def _bilinear_xy(A, c1, c2) -> SaddleForm:
    # f(x1, x2) = c1^T x1 + x1^T A x2 + c2^T x2
    A = np.asarray(A, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    n, m = A.shape
    if c1.shape != (n,) or c2.shape != (m,):
        raise FormError("need A of shape (n, m), c1 of shape (n,), c2 of shape (m,)")
    dim = n + m
    part = VarPartition(dim, 0, dim)
    c = np.concatenate([c1, c2])
    parts = [ex.scale(_v(i), c[i]) for i in range(dim) if c[i] != 0.0]
    for i in range(n):
        for j in range(m):
            if A[i, j] != 0.0:
                parts.append(_sign_split_terms(A[i, j], i, n + j, dim + i, dim + n + j))
    ineq = tuple(ex.square(_v(i)) - _v(dim + i) for i in range(dim))
    if not parts:
        parts = [ex.const(0.0)]
    box = Box.from_blocks(([-INF] * dim, [INF] * dim), ([], []), ([0.0] * dim, [INF] * dim))

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(c1 @ xv[:n] + xv[:n] @ A @ xv[n:] + c2 @ xv[n:])

    return SaddleForm(
        name="bilinear_xy",
        partition=part,
        box=box,
        g=ex.add(*parts),
        ineq=ineq,
        witness=lambda x: (np.empty(0), np.asarray(x, dtype=float) ** 2),
        reference=reference,
        declares=frozenset({"convex_joint_g"}),
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    build: Callable[..., SaddleForm]
    params_doc: str = ""


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry("bilinear2_a", "2*x0*x1 with one maximizer per square", lambda **kw: _bilinear2("a", **kw)),
        CatalogEntry("bilinear2_b", "2*x0*x1 with a single shared maximizer", lambda **kw: _bilinear2("b", **kw)),
        CatalogEntry("abs_half_reg", "(x0+x1-1)^2 + lam*(sqrt|x0| + sqrt|x1|)", _abs_half_reg, "lam > 0"),
        CatalogEntry("l0_reg2", "(x0+x1-1)^2 + lam*count_nonzero(x)", _l0_reg2, "lam > 0"),
        CatalogEntry("sin_0_pi", "sin(x) on [0, pi]", _sin_0_pi),
        CatalogEntry("sin_0_2pi", "sin(x) on [0, 2*pi]", _sin_0_2pi),
        CatalogEntry("cos_0_2pi", "cos(x) on [0, 2*pi]", _cos_0_2pi),
        CatalogEntry("dc", "difference d(x) - c(x) of user convex parts", _dc, "d, c: convex-tagged exprs; n"),
        CatalogEntry("entropy", "-sum x_i ln x_i on (0, 1]^n", _entropy, "n >= 1"),
        CatalogEntry("sigmoid", "2/(1+exp(-x)) - 1 (known-issues entry)", _sigmoid),
        CatalogEntry("pow_a", "x^a on x >= 0, 0 < a < 1", _pow_a, "0 < a < 1"),
        CatalogEntry("pow_a_plus_1", "x^(a+1) on x >= 0, 0 < a < 1", _pow_a_plus_1, "0 < a < 1"),
        CatalogEntry("pow_a_2n", "x^(a+2*n2) on x >= 0", _pow_a_2n, "0 < a < 1, n2 >= 1"),
        CatalogEntry("sgn3_a", "sign(x) in {-1,0,1}, inequality lift", lambda **kw: _sgn3("a", **kw)),
        CatalogEntry("sgn3_b", "sign(x) in {-1,0,1}, equality lift", lambda **kw: _sgn3("b", **kw)),
        CatalogEntry("sgn2_a", "step(x) in {0,1}, inequality lift", lambda **kw: _sgn2("a", **kw)),
        CatalogEntry("sgn2_b", "step(x) in {0,1}, equality lift", lambda **kw: _sgn2("b", **kw)),
        CatalogEntry("relu_a", "max(x, 0), inequality lift", lambda **kw: _relu("a", **kw)),
        CatalogEntry("relu_b", "max(x, 0), equality lift", lambda **kw: _relu("b", **kw)),
        CatalogEntry("relu_convex", "max(b(x), 0) for user convex b", _relu_convex, "b: convex-tagged expr; n"),
        CatalogEntry("abs_power", "sqrt(|x|) via quartic lift", _abs_power),
        CatalogEntry("l0_scalar_reg", "(x-1)^2 + lam*[x != 0]", _l0_scalar_reg, "lam > 0"),
        CatalogEntry("maxabs_minus_sum", "n*max|x_i| - sum|x_i|", _maxabs_minus_sum, "n >= 1"),
    ]
}

STRUCTURED: dict[str, Callable[..., SaddleForm]] = {
    "geometric_poly": _geometric_poly,
    "l01_svm": _l01_svm,
    "sparse_l0": _sparse_l0,
    "quadratic": _quadratic,
    "bilinear_xy": _bilinear_xy,
}


def make_catalog_form(name: str, **params) -> SaddleForm:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog id {name!r}; see list_catalog()")
    return CATALOG[name].build(**params)


def make_structured(kind: str, data: dict) -> SaddleForm:
    if kind not in STRUCTURED:
        raise KeyError(f"unknown structured kind {kind!r}")
    return STRUCTURED[kind](**data)


def list_catalog() -> list[str]:
    return sorted(CATALOG)


def describe(name: str) -> dict:
    entry = CATALOG[name]
    form = make_catalog_form(name)
    p = form.partition
    return {
        "name": name,
        "summary": entry.summary,
        "params": entry.params_doc,
        "partition": [p.n, p.m1, p.m2],
        "inequalities": len(form.ineq),
        "equalities": len(form.eq),
    }


def default_suite() -> list[SaddleForm]:
    """Catalog entries at default parameters plus small structured instances.

    The acceptance suite and the known-issues registry both run over exactly
    this collection.
    """
    forms = [make_catalog_form(name) for name in list_catalog()]
    forms.append(
        make_structured(
            "geometric_poly",
            {"a": [1.0, 0.5], "alpha": [[1.0, 2.0], [2.0, 1.0]]},
        )
    )
    forms.append(
        make_structured(
            "l01_svm",
            {
                "A": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
                "d": [1.0, -1.0, 0.5],
                "C": 1.0,
            },
        )
    )
    forms.append(
        make_structured(
            "sparse_l0",
            {"q": ex.square(_v(0) - 1.0), "lam": 2.0, "n": 1},
        )
    )
    forms.append(make_structured("quadratic", {"A": [[0.0, 1.0], [1.0, 0.0]], "c": [0.0, 0.0]}))
    forms.append(make_structured("bilinear_xy", {"A": [[1.0]], "c1": [0.0], "c2": [0.0]}))
    return forms
