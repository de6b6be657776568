"""Ready-made saddle forms for a library of nonsmooth/nonconvex functions.

One table, :data:`CATALOG`, lists every form family, the structured builders
that take problem data included; each :class:`CatalogEntry` also carries the
parameters of its :func:`default_suite` instance and, where that instance is
beyond the grid oracle's reach, of the instance the registry sweep audits.

Every form ships the lifted expressions, the box, a witness map, and a
direct reference evaluator of the represented function.  A few entries are
known to break the witness identity (their lifted structure cannot reproduce
the target value on part of the domain); those stay transcribed as-is and are
tracked in the known-issues registry instead of being silently repaired.

An entry states only its bounds and its gadgets.  :class:`_Lift` takes one
(lower, upper) bound per variable of the x, y and z blocks, hands out the
variables and derives the partition and the box from the bounds.  The
gadgets the entries share are written once: the l0 indicator pair
(:func:`_l0_pair`, and the count :func:`_l0_terms` built on it), the product
pair (:func:`_pair`), the quartic root pair (:func:`_quartic_pair`), the step
constraints (:func:`_step_ineq`), the equality ReLU lift (:func:`_relu_lift`),
the bilinear splitting (:func:`_split_form`) and the step and ReLU witness
maps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex
from .expr import CONVEX, Expr
from .forms import Box, FormError, SaddleForm, VarPartition

INF = math.inf
_FREE = (-INF, INF)
_NONNEG = (0.0, INF)
_UNIT = (0.0, 1.0)
_JOINT = frozenset({"convex_joint_g"})
_JOINT_NONNEG = frozenset({"convex_joint_g", "nonneg"})


class _Lift:
    """The variable layout of one form: a (lower, upper) bound per variable
    of the x, y and z blocks, in that order.  ``x``, ``y`` and ``z`` are the
    variables; the partition and the box follow from the bounds."""

    def __init__(self, x, y=(), z=()):
        bounds = [*x, *y, *z]
        self.partition = VarPartition(len(x), len(y), len(z))
        self.box = Box(tuple(float(b[0]) for b in bounds), tuple(float(b[1]) for b in bounds))
        v = [ex.var(i) for i in range(len(bounds))]
        self.x, self.y, self.z = v[: len(x)], v[len(x) : len(x) + len(y)], v[len(x) + len(y) :]

    def form(self, name: str, g: Expr, ineq=(), eq=(), **fields) -> SaddleForm:
        return SaddleForm(
            name=name, partition=self.partition, box=self.box, g=g, ineq=ineq, eq=eq, **fields
        )


def _user_convex(e: Expr, n: int, label: str) -> None:
    """A user-supplied expression: convex- or affine-tagged, reading only x."""
    if not isinstance(e, Expr):
        raise FormError(f"{label} must be an expression, not {type(e).__name__}")
    if e.tag not in (ex.CONVEX, ex.AFFINE):
        raise FormError(
            f"{label} must carry a convex (or affine) curvature declaration; "
            f"found {e.tag!r}"
        )
    if e.max_index() >= n:
        raise FormError(f"{label} may reference only the first {n} coordinates")


def _finite(label: str, value, positive: bool = False) -> np.ndarray:
    """``value``, a number or an array, as floats; every entry must be finite
    (and > 0 with ``positive``), so NaN and +-inf fail."""
    v = np.asarray(value, dtype=float)
    if not (np.isfinite(v).all() and (not positive or (v > 0).all())):
        raise FormError(f"{label} must be finite" + (" and > 0" if positive else ""))
    return v


def _integer(form: str, label: str, value, least: int = 1) -> int:
    """``value``, an integral number >= ``least`` (not a bool or a string),
    as an int; NaN and +-inf fail."""
    integral = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (integral and value >= least and float(value).is_integer()):
        raise FormError(f"{form} requires an integer {label} >= {least}, got {value!r}")
    return int(value)


def _fraction(form: str, label: str, value) -> float:
    """``value``, a real number strictly between 0 and 1 (not a bool or a
    string), as a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0.0 < value < 1.0):
        raise FormError(f"{form} requires 0 < {label} < 1, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# gadgets shared by several entries


def _l0_pair(x: Expr, y: Expr, z: Expr) -> tuple[Expr, Expr]:
    """The l0 indicator pair (x + y - 1)^2 - z and x^2 + (y - 1)^2 - z; with
    y in {0, 1} and z binding, y tracks x != 0 (see :func:`_l0_pair_witness`)."""
    return ex.square(x + y - 1.0) - z, ex.square(x) + ex.square(y - 1.0) - z


def _l0_pair_witness(xi: float) -> tuple[float, float]:
    """Indicator gadget: y in {0,1} tracking xi != 0 and its binding z."""
    yi = 0.0 if xi == 0.0 else 1.0
    zi = max((xi + yi - 1.0) ** 2, xi**2 + (yi - 1.0) ** 2)
    return yi, zi


def _l0_witness(x):
    """The l0 pairs' witness over every coordinate of x."""
    pairs = [_l0_pair_witness(float(t)) for t in x]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _l0_terms(lam: float, xs, ys, zs) -> tuple[list[Expr], list[Expr]]:
    """lam * count_nonzero(xs) as g terms lam * (y^2 + pair), and the
    constraints: every first pair member, every second, then y^2 - y."""
    pairs = [_l0_pair(x, y, z) for x, y, z in zip(xs, ys, zs)]
    terms = [lam * (ex.square(y) + a + b) for y, (a, b) in zip(ys, pairs)]
    ineq = [a for a, _ in pairs] + [b for _, b in pairs] + [ex.square(y) - y for y in ys]
    return terms, ineq


def _pair(a: Expr, b: Expr, z: Expr) -> tuple[Expr, Expr]:
    """The product pair (a + b)^2 - z and a^2 + b^2 - z; the two differ by 2ab."""
    return ex.square(a + b) - z, ex.square(a) + ex.square(b) - z


def _quartic_pair(x: Expr, y: Expr, z: Expr) -> tuple[Expr, Expr]:
    """The quartic root pair y^4 - z and x^2 - z; the lift of |x|^(1/2)
    meets the identity at y^4 = x^2 = z."""
    return ex.ipow(y, 4) - z, ex.square(x) - z


def _step_ineq(x0: Expr, y, z) -> tuple[Expr, ...]:
    """The step lift's six constraints: the l0 pair makes y0 an indicator,
    the product pair of y2 and y0 ties them, and y1^2 - x0 and y2^2 share z2."""
    return (
        *_l0_pair(y[1], y[0], z[0]),
        *_pair(y[2], y[0], z[1]),
        ex.square(y[1]) - x0 - z[2],
        ex.square(y[2]) - z[2],
    )


def _step_y(t: float) -> np.ndarray:
    if t >= 0:
        return np.array([1.0, math.sqrt(t), 0.0])
    return np.array([0.0, 0.0, math.sqrt(-t)])


def _relu_y(t: float) -> np.ndarray:
    if t >= 0:
        return np.array([math.sqrt(t), 0.0])
    return np.array([0.0, math.sqrt(-t)])


def _relu_lift(t: Expr, y, z) -> tuple[Expr, tuple[Expr, ...], tuple[Expr, ...]]:
    """g, inequalities and equalities of max(t, 0) by the equality lift: z
    bounds y0^2, y1^2 and (y1 + y0)^2, and the equalities force y0*y1 = 0
    and y0^2 - y1^2 = t."""
    ineq = (ex.square(y[0]) - z[0], ex.square(y[1]) - z[1], ex.square(y[1] + y[0]) - z[2])
    return ex.add(ex.square(y[0]), *ineq), ineq, (z[0] + z[1] - z[2], z[0] - t - z[1])


def _sin_half() -> Expr:
    return ex.sin(ex.affine([(0, 0.5)]))


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
    _user_convex(q, n, "q")
    win = None
    if window is not None:
        win = Box((float(window[0]),) * n, (float(window[1]),) * n)
    return _Lift([_FREE] * n).form(
        name,
        q,
        witness=lambda x: (np.empty(0), np.empty(0)),
        reference=lambda x: q.value(np.asarray(x, dtype=float)),
        declares=_JOINT_NONNEG if nonneg else _JOINT,
        window=win,
    )


def abs_sqrt_term(n: int, coord: int) -> SaddleForm:
    """|x_coord|^(1/2) over R^n with two auxiliary minimizers and one maximizer.

    Per-term gadget of the square-root-regularized least-squares form:
    constraints y0^4 - z0, x^2 - z0, y1^2 - y0.
    """
    if not 0 <= coord < n:
        raise FormError("coord outside x block")
    lift = _Lift([_FREE] * n, [_NONNEG, _FREE], [_NONNEG])
    xc, (y0, y1), (z0,) = lift.x[coord], lift.y, lift.z

    def witness(x):
        r = math.sqrt(abs(x[coord]))
        return np.array([r, math.sqrt(r)]), np.array([x[coord] ** 2])

    return lift.form(
        f"abs_sqrt[{coord}]",
        y0 + ex.ipow(y0, 4) - z0 + ex.square(xc) - z0,
        ineq=(*_quartic_pair(xc, y0, z0), ex.square(y1) - y0),
        witness=witness,
        reference=lambda x: math.sqrt(abs(x[coord])),
        declares=_JOINT_NONNEG,
    )


# ---------------------------------------------------------------------------
# catalog entries


def _bilinear2_a() -> SaddleForm:
    # f(x0, x1) = 2*x0*x1
    lift = _Lift([_FREE] * 2, z=[_FREE] * 2)
    (x0, x1), (z0, z1) = lift.x, lift.z
    return lift.form(
        "bilinear2_a",
        ex.square(ex.affine([(0, 1.0), (1, 1.0)])) - z0 - z1,
        ineq=(ex.square(x0) - z0, ex.square(x1) - z1),
        witness=lambda x: (np.empty(0), np.array([x[0] ** 2, x[1] ** 2])),
        reference=lambda x: 2.0 * x[0] * x[1],
        declares=_JOINT,
    )


def _bilinear2_b() -> SaddleForm:
    # f(x0, x1) = 2*x0*x1
    lift = _Lift([_FREE] * 2, z=[_FREE])
    (x0, x1), (z0,) = lift.x, lift.z
    return lift.form(
        "bilinear2_b",
        ex.square(ex.affine([(0, 1.0), (1, 1.0)])) - z0,
        ineq=(ex.square(x0) + ex.square(x1) - z0,),
        witness=lambda x: (np.empty(0), np.array([x[0] ** 2 + x[1] ** 2])),
        reference=lambda x: 2.0 * x[0] * x[1],
        declares=_JOINT,
    )


def _abs_half_reg(lam: float = 1.0) -> SaddleForm:
    # f(x0, x1) = (x0 + x1 - 1)^2 + lam * (|x0|^(1/2) + |x1|^(1/2))
    _finite("lam", lam, positive=True)
    lift = _Lift([_FREE] * 2, [_NONNEG, _FREE] * 2, [_NONNEG] * 2)
    x, y, z = lift.x, lift.y, lift.z
    smooth = ex.square(ex.affine([(0, 1.0), (1, 1.0)], -1.0))
    g = (
        smooth
        + lam * (y[0] + y[2])
        + ex.ipow(y[0], 4) + ex.square(x[0]) - 2.0 * z[0]
        + ex.ipow(y[2], 4) + ex.square(x[1]) - 2.0 * z[1]
    )
    ineq = (
        *_quartic_pair(x[0], y[0], z[0]),
        ex.square(y[1]) - y[0],
        *_quartic_pair(x[1], y[2], z[1]),
        ex.square(y[3]) - y[2],
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

    return lift.form(
        "abs_half_reg", g, ineq, witness=witness, reference=reference, declares=_JOINT_NONNEG
    )


def _l0_reg2(lam: float = 1.0) -> SaddleForm:
    # f(x0, x1) = (x0 + x1 - 1)^2 + lam * count_nonzero(x)
    _finite("lam", lam, positive=True)
    lift = _Lift([_FREE] * 2, [_UNIT] * 2, [_NONNEG] * 2)
    parts = [ex.square(ex.affine([(0, 1.0), (1, 1.0)], -1.0)), lam * (lift.y[0] + lift.y[1])]
    ineq = []
    for xi, yi, zi in zip(lift.x, lift.y, lift.z):
        a, b = _l0_pair(xi, yi, zi)
        parts.extend([a, b])
        ineq.extend([a, b, ex.square(yi) - yi])

    def reference(x):
        return float((x[0] + x[1] - 1.0) ** 2 + lam * np.count_nonzero(x))

    return lift.form(
        "l0_reg2",
        ex.add(*parts),
        ineq,
        witness=_l0_witness,
        reference=reference,
        declares=_JOINT_NONNEG,
    )


def _sin_0_pi() -> SaddleForm:
    # f(x) = sin(x) on [0, pi]; g = z0 with -sin(x) + z0 <= 0
    lift = _Lift([(0.0, math.pi)], z=[_UNIT])
    (x0,), (z0,) = lift.x, lift.z
    return lift.form(
        "sin_0_pi",
        ex.affine([(z0.index, 1.0)]),
        ineq=((ex.neg(ex.sin(x0)) + z0).with_tag(CONVEX),),
        witness=lambda x: (np.empty(0), np.array([math.sin(x[0])])),
        reference=lambda x: math.sin(x[0]),
        declares=_JOINT_NONNEG,
    )


def _sin_0_2pi() -> SaddleForm:
    # f(x) = sin(x) on [0, 2*pi]
    lift = _Lift([(0.0, 2.0 * math.pi)], [(-1.0, 1.0)], [(-1.0, 1.0)] * 2)
    (y0,), (z0, z1) = lift.y, lift.z
    g = y0 - _sin_half() + z0 - ex.square(z0) - ex.square(z1) + 1.0
    ineq = (
        ex.square(z0 + z1) - 1.0 - y0,
        (ex.neg(_sin_half()) + z0).with_tag(CONVEX),
        ex.square(z0) + ex.square(z1) - 1.0,
    )

    def witness(x):
        h = 0.5 * x[0]
        return np.array([math.sin(x[0])]), np.array([math.sin(h), math.cos(h)])

    return lift.form(
        "sin_0_2pi", g, ineq, witness=witness, reference=lambda x: math.sin(x[0])
    )


def _cos_0_2pi() -> SaddleForm:
    # f(x) = cos(x) on [0, 2*pi]
    lift = _Lift([(0.0, 2.0 * math.pi)], z=[(-1.0, 1.0)] * 4)
    z = lift.z
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

    def witness(x):
        h = 0.5 * x[0]
        return np.empty(0), np.array(
            [math.sin(h), math.cos(h), math.cos(x[0]), math.sin(x[0])]
        )

    return lift.form(
        "cos_0_2pi", g, ineq, witness=witness, reference=lambda x: math.cos(x[0])
    )


def _dc(d: Expr | None = None, c: Expr | None = None, n: int = 1) -> SaddleForm:
    # f(x) = d(x) - c(x) for user-supplied convex d, c; g = d - z, c - z <= 0
    if d is None:
        d = (2.0 * ex.square(ex.var(0))).with_tag(CONVEX)
    if c is None:
        c = ex.square(ex.var(0))
    n = _integer("dc", "n", n)
    _user_convex(d, n, "d")
    _user_convex(c, n, "c")
    lift = _Lift([_FREE] * n, z=[_FREE])
    (z0,) = lift.z

    def witness(x):
        return np.empty(0), np.array([c.value(np.asarray(x, dtype=float))])

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return d.value(xv) - c.value(xv)

    return lift.form("dc", d - z0, (c - z0,), witness=witness, reference=reference)


def _entropy(n: int = 2) -> SaddleForm:
    # f(x) = -sum x_i * ln(x_i) on 0 < x_i <= 1
    n = _integer("entropy", "n", n)
    lift = _Lift([_UNIT] * n, [_NONNEG] * n, [_NONNEG] * n)
    parts = []
    ineq = []
    for xi, yi, zi in zip(lift.x, lift.y, lift.z):
        parts.append(0.5 * ex.square(xi + yi) - 0.5 * zi)
        ineq.append(ex.neg(ex.log(xi)) - yi)
        ineq.append(ex.square(xi) + ex.square(yi) - zi)
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

    return lift.form(
        "entropy",
        ex.add(*parts),
        ineq,
        witness=witness,
        reference=reference,
        declares=_JOINT_NONNEG,
        window=window,
    )


def _sigmoid() -> SaddleForm:
    # f(x) = 2 / (1 + exp(-x)) - 1; transcribed as-is.  The witness identity
    # is off by a constant and the y-box excludes the natural witness; see the
    # known-issues registry.
    lift = _Lift([_FREE], [(1.0, INF)] * 2, [_NONNEG])
    (x0,), (y0, y1), (z0,) = lift.x, lift.y, lift.z
    g = 2.0 * y0 - 1.0 + ex.square(y0 + y1) - z0 - 1.0 + ex.square(y0) + ex.square(y1) - z0
    ineq = (
        ex.square(y0 + y1) - z0 - 1.0,
        ex.square(y0) + ex.square(y1) - z0,
        ex.exp(ex.neg(x0)) + 1.0 - y1,
    )

    def witness(x):
        b = 1.0 + math.exp(-x[0])
        y = np.array([1.0 / b, b])
        return y, np.array([(y[0] + y[1]) ** 2 - 1.0])

    return lift.form(
        "sigmoid",
        g,
        ineq,
        witness=witness,
        reference=lambda x: 2.0 / (1.0 + math.exp(-x[0])) - 1.0,
        declares=_JOINT,
    )


def _pow_a(a: float = 0.5) -> SaddleForm:
    # f(x) = x**a on x >= 0, 0 < a < 1
    a = _fraction("pow_a", "a", a)
    lift = _Lift([_NONNEG], [_NONNEG], [_NONNEG])
    (x0,), (y0,), (z0,) = lift.x, lift.y, lift.z
    return lift.form(
        "pow_a",
        y0 + ex.rpow(y0, 2.0 / a) - z0 + ex.square(x0) - z0,
        ineq=(ex.rpow(y0, 2.0 / a) - z0, ex.square(x0) - z0),
        witness=lambda x: (np.array([x[0] ** a]), np.array([x[0] ** 2])),
        reference=lambda x: float(x[0] ** a),
        declares=_JOINT_NONNEG,
    )


def _pow_a_plus_1(a: float = 0.5) -> SaddleForm:
    # f(x) = x**(a+1) on x >= 0, 0 < a < 1
    a = _fraction("pow_a_plus_1", "a", a)
    lift = _Lift([_NONNEG], [_NONNEG], [_NONNEG] * 2)
    (x0,), (y0,), (z0, z1) = lift.x, lift.y, lift.z
    return lift.form(
        "pow_a_plus_1",
        0.5 * ex.square(y0 + x0) - 0.5 * z0 - 0.5 * z1,
        ineq=(ex.rpow(y0, 2.0 / a) - z0, ex.square(x0) - z0, ex.square(y0) - z1),
        witness=lambda x: (np.array([x[0] ** a]), np.array([x[0] ** 2, x[0] ** (2 * a)])),
        reference=lambda x: float(x[0] ** (a + 1.0)),
        declares=_JOINT_NONNEG,
    )


def _pow_a_2n(a: float = 0.5, n2: int = 1) -> SaddleForm:
    # f(x) = x**(a + 2*n2) on x >= 0, 0 < a < 1, n2 >= 1
    a = _fraction("pow_a_2n", "a", a)
    n2 = _integer("pow_a_2n", "n2", n2)
    lift = _Lift([_NONNEG], [_NONNEG] * 2, [_NONNEG] * 2)
    (x0,), (y0, y1), (z0, z1) = lift.x, lift.y, lift.z
    g = 0.5 * ex.square(y0 + y1) - 0.5 * z0 + ex.rpow(y0, 2.0 / a) - z1 + ex.square(x0) - z1
    ineq = (
        ex.rpow(y0, 2.0 / a) - z1,
        ex.square(x0) - z1,
        ex.ipow(x0, 2 * n2) - y1,
        ex.square(y0) + ex.square(y1) - z0,
    )

    def witness(x):
        t = float(x[0])  # below the box x^a reads NaN, as in pow_a
        y = np.array([t**a if t >= 0.0 else math.nan, t ** (2 * n2)])
        return y, np.array([y[0] ** 2 + y[1] ** 2, t**2])

    return lift.form(
        "pow_a_2n",
        g,
        ineq,
        witness=witness,
        reference=lambda x: float(x[0] ** (a + 2 * n2)),
        declares=_JOINT_NONNEG,
    )


def _sgn3_a() -> SaddleForm:
    # f(x) = sign(x) in {-1, 0, 1}
    lift = _Lift([_FREE], [_FREE] * 4, [_NONNEG] * 5)
    (x0,), y, z = lift.x, lift.y, lift.z
    ineq = (*_step_ineq(x0, y, z), *_pair(y[3], y[0], z[3]), ex.square(y[0]) - z[4])

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

    return lift.form(
        "sgn3_a",
        ex.add(y[0], ex.square(y[0]), ex.const(-1.0), y[3], *ineq),
        ineq,
        (z[4] - 1.0 + y[3],),
        witness=witness,
        reference=lambda x: float(np.sign(x[0])),
        declares=_JOINT,
    )


def _sgn3_b() -> SaddleForm:
    # f(x) = sign(x) in {-1, 0, 1}
    lift = _Lift([_FREE], [_FREE] * 4, [_NONNEG] * 7)
    (x0,), y, z = lift.x, lift.y, lift.z
    ineq = (
        *(ex.square(y[k]) - z[k] for k in range(4)),
        ex.square(y[1] + y[0] - 1.0) - z[4],
        ex.square(y[2] + y[0] + 1.0) - z[5],
        ex.square(y[3] + y[0]) - z[6],
    )
    eq = (
        z[1] + z[0] - 2.0 * y[0] + 1.0 - z[4],
        z[2] + z[0] + 2.0 * y[0] + 1.0 - z[5],
        z[1] - x0 - z[2],
        z[3] + z[0] - z[6],
        z[0] - 1.0 + y[3],
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

    return lift.form(
        "sgn3_b",
        ex.add(y[0], ex.square(y[0]), ex.const(-1.0), y[3], *ineq),
        ineq,
        eq,
        witness=witness,
        reference=lambda x: float(np.sign(x[0])),
        declares=_JOINT,
    )


def _sgn2_a() -> SaddleForm:
    # f(x) = 1 if x >= 0 else 0
    lift = _Lift([_FREE], [_UNIT, _FREE, _FREE], [_NONNEG] * 3)
    (x0,), y, z = lift.x, lift.y, lift.z
    ineq = _step_ineq(x0, y, z)

    def witness(x):
        t = float(x[0])
        yv = _step_y(t)
        zv = np.array(
            [
                max((yv[1] + yv[0] - 1.0) ** 2, yv[1] ** 2 + (yv[0] - 1.0) ** 2),
                max((yv[2] + yv[0]) ** 2, yv[2] ** 2 + yv[0] ** 2),
                max(yv[1] ** 2 - t, yv[2] ** 2),
            ]
        )
        return yv, zv

    return lift.form(
        "sgn2_a",
        ex.add(y[0], *ineq),
        ineq,
        witness=witness,
        reference=lambda x: 1.0 if x[0] >= 0 else 0.0,
        declares=_JOINT_NONNEG,
    )


def _sgn2_b() -> SaddleForm:
    # f(x) = 1 if x >= 0 else 0
    lift = _Lift([_FREE], [_UNIT, _FREE, _FREE], [_NONNEG] * 5)
    (x0,), y, z = lift.x, lift.y, lift.z
    ineq = (
        *(ex.square(y[k]) - z[k] for k in range(3)),
        ex.square(y[1] + y[0] - 1.0) - z[3],
        ex.square(y[2] + y[0]) - z[4],
    )
    eq = (z[1] + z[0] - 2.0 * y[0] + 1.0 - z[3], z[2] + z[0] - z[4], z[1] - x0 - z[2])

    def witness(x):
        yv = _step_y(float(x[0]))
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

    return lift.form(
        "sgn2_b",
        ex.add(y[0], *ineq),
        ineq,
        eq,
        witness=witness,
        reference=lambda x: 1.0 if x[0] >= 0 else 0.0,
        declares=_JOINT_NONNEG,
    )


def _relu_a() -> SaddleForm:
    # f(x) = max(x, 0)
    lift = _Lift([_FREE], [_FREE] * 2, [_NONNEG] * 2)
    (x0,), y, z = lift.x, lift.y, lift.z
    ineq = (*_pair(y[1], y[0], z[0]), ex.square(y[0]) - x0 - z[1], ex.square(y[1]) - z[1])

    def witness(x):
        t = float(x[0])
        yv = _relu_y(t)
        zv = np.array(
            [yv[0] ** 2 + yv[1] ** 2, max(yv[0] ** 2 - t, yv[1] ** 2)]
        )
        return yv, zv

    return lift.form(
        "relu_a",
        ex.add(ex.square(y[0]), *ineq),
        ineq,
        witness=witness,
        reference=lambda x: max(float(x[0]), 0.0),
        declares=_JOINT_NONNEG,
    )


def _relu_b() -> SaddleForm:
    # f(x) = max(x, 0)
    lift = _Lift([_FREE], [_FREE] * 2, [_NONNEG] * 3)
    g, ineq, eq = _relu_lift(lift.x[0], lift.y, lift.z)

    def witness(x):
        yv = _relu_y(float(x[0]))
        zv = np.array([yv[0] ** 2, yv[1] ** 2, (yv[1] + yv[0]) ** 2])
        return yv, zv

    return lift.form(
        "relu_b",
        g,
        ineq,
        eq,
        witness=witness,
        reference=lambda x: max(float(x[0]), 0.0),
        declares=_JOINT_NONNEG,
    )


def _relu_convex(b: Expr | None = None, n: int = 1) -> SaddleForm:
    # f(x) = max(b(x), 0) for user-supplied convex b
    if b is None:
        b = (ex.square(ex.var(0)) - 1.0).with_tag(CONVEX)
    n = _integer("relu_convex", "n", n)
    _user_convex(b, n, "b")
    lift = _Lift([_FREE] * n, [_FREE] * 2, [_NONNEG] * 4)
    z = lift.z
    g, ineq, eq = _relu_lift(z[3], lift.y, z)

    def witness(x):
        t = b.value(np.asarray(x, dtype=float))
        if t >= 0:
            return np.array([math.sqrt(t), 0.0]), np.array([t, 0.0, t, t])
        return np.zeros(2), np.zeros(4)

    def reference(x):
        return max(b.value(np.asarray(x, dtype=float)), 0.0)

    return lift.form(
        "relu_convex",
        g,
        ineq + (b - z[3],),
        eq,
        witness=witness,
        reference=reference,
        declares=_JOINT_NONNEG,
    )


def _abs_power() -> SaddleForm:
    # f(x) = |x|^(1/2); g = y + y^4 - z + x^2 - z
    lift = _Lift([_FREE], [_NONNEG], [_NONNEG])
    (x0,), (y0,), (z0,) = lift.x, lift.y, lift.z
    return lift.form(
        "abs_power",
        y0 + ex.ipow(y0, 4) - z0 + ex.square(x0) - z0,
        ineq=(*_quartic_pair(x0, y0, z0), ex.neg(y0)),
        witness=lambda x: (np.array([math.sqrt(abs(x[0]))]), np.array([x[0] ** 2])),
        reference=lambda x: math.sqrt(abs(x[0])),
        declares=_JOINT_NONNEG,
    )


def _l0_scalar_reg(lam: float = 2.0) -> SaddleForm:
    # f(x) = (x - 1)^2 + lam * (1 if x != 0 else 0)
    _finite("lam", lam, positive=True)
    lift = _Lift([_FREE], [_UNIT], [_NONNEG])
    (term,), ineq = _l0_terms(lam, lift.x, lift.y, lift.z)

    def reference(x):
        return float((x[0] - 1.0) ** 2 + (lam if x[0] != 0 else 0.0))

    return lift.form(
        "l0_scalar_reg",
        ex.square(lift.x[0] - 1.0) + term,
        ineq,
        witness=_l0_witness,
        reference=reference,
        declares=_JOINT_NONNEG,
    )


def _maxabs_minus_sum(n: int = 5) -> SaddleForm:
    # f(x) = n * max_i |x_i| - sum_i |x_i|
    n = _integer("maxabs_minus_sum", "n", n)
    lift = _Lift([_FREE] * n, [_NONNEG] * (n + 1), [_NONNEG] * n)
    x, y, z = lift.x, lift.y, lift.z
    ytop = y[n]  # y_{n+1}, the shared majorant
    parts = [ex.scale(ytop, float(n))]
    parts += [ex.neg(yi) + ex.square(yi) - 2.0 * zi + ex.square(xi) for xi, yi, zi in zip(x, y, z)]
    ineq = [ex.square(yi) - zi for yi, zi in zip(y, z)]
    ineq += [ex.square(xi) - zi for xi, zi in zip(x, z)]
    ineq += [yi - ytop for yi in y[:n]]

    def witness(x):
        ax = np.abs(x)
        return np.concatenate([ax, [ax.max()]]), x**2

    def reference(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return float(n * ax.max() - ax.sum())

    return lift.form(
        "maxabs_minus_sum",
        ex.add(*parts),
        ineq,
        witness=witness,
        reference=reference,
        declares=_JOINT_NONNEG,
    )


# ---------------------------------------------------------------------------
# structured entries: builders that take problem data


def _geometric_poly(a, alpha) -> SaddleForm:
    """Signed-monomial objective sum_i a_i * prod_j x_j^alpha_ij on x > 0.

    Transcribed as published; the stated equalities tie y_i (not its log) to
    the log-lift of the monomial, so the witness cannot satisfy them and the
    entry lives in the known-issues registry.
    """
    a, alpha = _finite("a", a), _finite("alpha", alpha)
    if a.ndim != 1 or alpha.ndim != 2 or alpha.shape[0] != a.size:
        raise FormError("need a of shape (m,) and alpha of shape (m, n)")
    if np.any(a == 0):
        raise FormError("coefficients a_i must be nonzero")
    m, n = alpha.shape
    lift = _Lift([_NONNEG] * n, [_NONNEG] * m, [_FREE] * (m + n))
    y, zy, zx = lift.y, lift.z[:m], lift.z[m:]
    parts = []
    ineq = []
    for yi, zi, ai in zip(y, zy, a):
        gi = ex.neg(ex.log(yi)) - zi
        parts += [ex.scale(yi, ai), gi]
        ineq.append(gi)
    for xj, zj in zip(lift.x, zx):
        gj = ex.neg(ex.log(xj)) - zj
        parts.append(gj)
        ineq.append(gj)
    eq = [
        ex.affine([(yi.index, 1.0)] + [(zj.index, -aij) for zj, aij in zip(zx, row)])
        for yi, row in zip(y, alpha)
    ]
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

    return lift.form(
        "geometric_poly",
        ex.add(*parts),
        ineq,
        eq,
        witness=witness,
        reference=reference,
        declares=_JOINT,
        window=window,
    )


def _l01_svm(A, d, C: float = 1.0) -> SaddleForm:
    """Margin classifier 0.5*||x||^2 + C * count(positive margin residuals).

    Residual u_j = 1 - A_j . x - d_j * x0.  The lift forces y_j = u_j with
    y_j >= 0, so any sample with a negative residual has no feasible witness;
    tracked in the known-issues registry.
    """
    A, d = _finite("A", A), _finite("d", d)
    if A.ndim != 2 or d.shape != (A.shape[0],):
        raise FormError("need A of shape (m, n) and d of shape (m,)")
    _finite("C", C, positive=True)
    m, n = A.shape
    lift = _Lift([_FREE] * (n + 1), [_NONNEG] * m + [_UNIT] * m + [_FREE] * m, [_NONNEG] * m)
    x, u, ind, root = lift.x, lift.y[:m], lift.y[m : 2 * m], lift.y[2 * m :]
    terms, ineq = _l0_terms(C, u, ind, lift.z)
    parts = [0.5 * ex.square(xi) for xi in x[:n]] + terms
    ineq += [ex.square(rj) - uj for rj, uj in zip(root, u)]
    eq = [
        ex.affine([*enumerate(A[j]), (n, d[j]), (u[j].index, 1.0)], -1.0)
        for j in range(m)
    ]

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

    return lift.form(
        "l01_svm",
        ex.add(*parts),
        ineq,
        eq,
        witness=witness,
        reference=reference,
        declares=_JOINT_NONNEG,
    )


def _sparse_l0(q: Expr, lam: float, n: int) -> SaddleForm:
    # f(x) = q(x) + lam * count_nonzero(x) for user-supplied smooth convex q
    n = _integer("sparse_l0", "n", n)
    _user_convex(q, n, "q")
    _finite("lam", lam, positive=True)
    lift = _Lift([_FREE] * n, [_UNIT] * n, [_NONNEG] * n)
    terms, ineq = _l0_terms(lam, lift.x, lift.y, lift.z)

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(q.value(xv) + lam * np.count_nonzero(xv))

    return lift.form(
        "sparse_l0",
        ex.add(q, *terms),
        ineq,
        witness=_l0_witness,
        reference=reference,
        declares=_JOINT,
    )


def _sign_split_terms(coef: float, xi: Expr, xj: Expr, zi: Expr, zj: Expr) -> Expr:
    """(|a|/2) * ((x_i + sgn(a) x_j)^2 - z_i - z_j), the bilinear splitting."""
    s = 1.0 if coef > 0 else -1.0
    quad = ex.square(ex.affine([(xi.index, 1.0), (xj.index, s)]))
    return (abs(coef) / 2.0) * (quad - zi - zj)


def _split_form(name: str, lift: _Lift, parts, reference) -> SaddleForm:
    """A sum of bilinear splittings: each z_i bounds x_i^2, and the witness
    is z = x^2."""
    return lift.form(
        name,
        ex.add(*parts),
        [ex.square(xi) - zi for xi, zi in zip(lift.x, lift.z)],
        witness=lambda x: (np.empty(0), np.asarray(x, dtype=float) ** 2),
        reference=reference,
        declares=_JOINT,
    )


def _quadratic(A, c) -> SaddleForm:
    # f(x) = x^T A x + c^T x
    A, c = _finite("A", A), _finite("c", c)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or c.shape != A.shape[:1]:
        raise FormError("need square A and matching c")
    n = A.shape[0]
    lift = _Lift([_FREE] * n, z=[_NONNEG] * n)
    x, z = lift.x, lift.z
    parts = [
        _sign_split_terms(A[i, j], x[i], x[j], z[i], z[j])
        for i in range(n)
        for j in range(n)
        if i != j and A[i, j] != 0.0
    ]
    for i in range(n):
        parts.append(ex.scale(z[i], A[i, i]))
        parts.append(ex.square(x[i]) - z[i])
        if c[i] != 0.0:
            parts.append(ex.scale(x[i], c[i]))

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(xv @ A @ xv + c @ xv)

    return _split_form("quadratic", lift, parts, reference)


def _bilinear_xy(A, c1, c2) -> SaddleForm:
    # f(x1, x2) = c1^T x1 + x1^T A x2 + c2^T x2
    A, c1, c2 = _finite("A", A), _finite("c1", c1), _finite("c2", c2)
    n, m = A.shape
    if c1.shape != (n,) or c2.shape != (m,):
        raise FormError("need A of shape (n, m), c1 of shape (n,), c2 of shape (m,)")
    lift = _Lift([_FREE] * (n + m), z=[_NONNEG] * (n + m))
    x, z = lift.x, lift.z
    (x1, x2), (z1, z2) = (x[:n], x[n:]), (z[:n], z[n:])
    parts = [ex.scale(xi, ci) for xi, ci in zip(x, np.concatenate([c1, c2])) if ci != 0.0]
    for i in range(n):
        for j in range(m):
            if A[i, j] != 0.0:
                parts.append(_sign_split_terms(A[i, j], x1[i], x2[j], z1[i], z2[j]))
    if not parts:
        parts = [ex.const(0.0)]

    def reference(x):
        xv = np.asarray(x, dtype=float)
        return float(c1 @ xv[:n] + xv[:n] @ A @ xv[n:] + c2 @ xv[n:])

    return _split_form("bilinear_xy", lift, parts, reference)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CatalogEntry:
    """A family of lifted forms: its builder, what its parameters must
    satisfy, ``suite``, the parameters of its :func:`default_suite`
    instance (empty where the builder's defaults are that instance), and
    ``audit_params``, the parameters of the instance ``audit._audited`` gives
    the registry sweep and ``saddlelift audit`` for a form of the family
    beyond the grid oracle's reach (None: none, so the sweep checks only
    the witness identity there and the CLI cannot audit it)."""

    name: str
    summary: str
    build: Callable[..., SaddleForm]
    params_doc: str = ""
    suite: dict = field(default_factory=dict)
    audit_params: dict | None = None


# The one table of form families.  Its order is the default suite's: the
# families built at their defaults by name, then the structured ones.
CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            "abs_half_reg", "(x0+x1-1)^2 + lam*(sqrt|x0| + sqrt|x1|)", _abs_half_reg, "lam > 0"
        ),
        CatalogEntry("abs_power", "sqrt(|x|) via quartic lift", _abs_power),
        CatalogEntry("bilinear2_a", "2*x0*x1 with one maximizer per square", _bilinear2_a),
        CatalogEntry("bilinear2_b", "2*x0*x1 with a single shared maximizer", _bilinear2_b),
        CatalogEntry("cos_0_2pi", "cos(x) on [0, 2*pi]", _cos_0_2pi),
        CatalogEntry(
            "dc", "difference d(x) - c(x) of user convex parts", _dc, "d, c: convex-tagged exprs; n"
        ),
        CatalogEntry("entropy", "-sum x_i ln x_i on (0, 1]^n", _entropy, "n >= 1"),
        CatalogEntry("l0_reg2", "(x0+x1-1)^2 + lam*count_nonzero(x)", _l0_reg2, "lam > 0"),
        CatalogEntry("l0_scalar_reg", "(x-1)^2 + lam*[x != 0]", _l0_scalar_reg, "lam > 0"),
        CatalogEntry(
            "maxabs_minus_sum", "n*max|x_i| - sum|x_i|", _maxabs_minus_sum, "n >= 1",
            audit_params={"n": 1},
        ),
        CatalogEntry("pow_a", "x^a on x >= 0, 0 < a < 1", _pow_a, "0 < a < 1"),
        CatalogEntry("pow_a_2n", "x^(a+2*n2) on x >= 0", _pow_a_2n, "0 < a < 1, n2 >= 1"),
        CatalogEntry("pow_a_plus_1", "x^(a+1) on x >= 0, 0 < a < 1", _pow_a_plus_1, "0 < a < 1"),
        CatalogEntry("relu_a", "max(x, 0), inequality lift", _relu_a),
        CatalogEntry("relu_b", "max(x, 0), equality lift", _relu_b),
        CatalogEntry(
            "relu_convex", "max(b(x), 0) for user convex b", _relu_convex,
            "b: convex-tagged expr; n",
        ),
        CatalogEntry("sgn2_a", "step(x) in {0,1}, inequality lift", _sgn2_a),
        CatalogEntry("sgn2_b", "step(x) in {0,1}, equality lift", _sgn2_b),
        CatalogEntry("sgn3_a", "sign(x) in {-1,0,1}, inequality lift", _sgn3_a),
        CatalogEntry("sgn3_b", "sign(x) in {-1,0,1}, equality lift", _sgn3_b),
        CatalogEntry("sigmoid", "2/(1+exp(-x)) - 1 (known-issues entry)", _sigmoid),
        CatalogEntry("sin_0_2pi", "sin(x) on [0, 2*pi]", _sin_0_2pi),
        CatalogEntry("sin_0_pi", "sin(x) on [0, pi]", _sin_0_pi),
        CatalogEntry(
            "geometric_poly", "sum_i a_i*prod_j x_j^alpha_ij on x > 0", _geometric_poly,
            "a: (m,) nonzero, alpha: (m, n)",
            {"a": [1.0, 0.5], "alpha": [[1.0, 2.0], [2.0, 1.0]]},
        ),
        CatalogEntry(
            "l01_svm", "0.5*|x|^2 + C*count(1 - A.x - d*x0 > 0)", _l01_svm,
            "A: (m, n), d: (m,), C > 0",
            {"A": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]], "d": [1.0, -1.0, 0.5], "C": 1.0},
        ),
        CatalogEntry(
            "sparse_l0", "q(x) + lam*count_nonzero(x) for user convex q", _sparse_l0,
            "q: convex-tagged expr, lam > 0, n",
            {"q": ex.square(ex.var(0) - 1.0), "lam": 2.0, "n": 1},
        ),
        CatalogEntry(
            "quadratic", "x^T A x + c^T x", _quadratic, "A: (n, n), c: (n,)",
            {"A": [[0.0, 1.0], [1.0, 0.0]], "c": [0.0, 0.0]},
        ),
        CatalogEntry(
            "bilinear_xy", "c1^T x1 + x1^T A x2 + c2^T x2", _bilinear_xy,
            "A: (n, m), c1: (n,), c2: (m,)",
            {"A": [[1.0]], "c1": [0.0], "c2": [0.0]},
        ),
    ]
}


def make_catalog_form(name: str, **params) -> SaddleForm:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog id {name!r}; see list_catalog()")
    return CATALOG[name].build(**params)


def make_structured(kind: str, data: dict) -> SaddleForm:
    """The problem-file spelling of :func:`make_catalog_form`."""
    return make_catalog_form(kind, **data)


def list_catalog() -> list[str]:
    return sorted(CATALOG)


def describe(name: str) -> dict:
    """The entry's summary, parameter notes and the shape of its suite instance."""
    entry = CATALOG[name]
    form = entry.build(**entry.suite)
    return {
        "name": name,
        "summary": entry.summary,
        "params": entry.params_doc,
        "partition": list(astuple(form.partition)),
        "inequalities": len(form.ineq),
        "equalities": len(form.eq),
    }


def default_suite() -> list[SaddleForm]:
    """Every catalog entry's suite instance, in table order.

    The acceptance suite and the known-issues registry both run over exactly
    this collection.
    """
    return [make_catalog_form(name, **entry.suite) for name, entry in CATALOG.items()]
