"""Saddle form data model.

A :class:`SaddleForm` packages a nonconvex/nonsmooth scalar function f of x
as a tuple  [g : g_1..g_s ; h_1..h_r]  over a partitioned variable vector
(x, y, z) on a box S = S1 x S2 x S3, where g is convex in (x, y), concave in
z, every g_i is convex, every h_j is affine.  A *witness* map x -> (y, z)
exhibits a feasible point where g equals f(x); a *reference* evaluator gives
ground-truth f(x).  The witness identity is the load-bearing contract here;
the full constrained minmax identity is never assumed.  It is audited
separately, and divergences land in the known-issues registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import expr as ex
from .expr import Expr

if TYPE_CHECKING:
    from .kernels import Tape

D2_TOL = 1e-9


class FormError(Exception):
    """A structural invariant of a saddle form is violated."""


class WitnessAbsentError(FormError):
    pass


class WitnessInfeasibleError(FormError):
    """The stored witness breaks feasibility or the value identity."""


class WitnessOverflowError(FormError):
    """The witness map or the reference left the float range."""


@dataclass(frozen=True)
class VarPartition:
    """Dimensions of the x, y, z blocks; ``xy`` and ``z`` slice a point's blocks."""

    n: int
    m1: int
    m2: int

    def __post_init__(self):
        if self.n < 1 or self.m1 < 0 or self.m2 < 0:
            raise FormError("partition requires n >= 1 and m1, m2 >= 0")

    @property
    def total(self) -> int:
        return self.n + self.m1 + self.m2

    @property
    def xy(self) -> slice:
        return slice(0, self.n + self.m1)

    @property
    def z(self) -> slice:
        return slice(self.n + self.m1, self.total)

    def name_of(self, index: int) -> str:
        if index < 0 or index >= self.total:
            raise FormError(f"index {index} outside partition of size {self.total}")
        if index < self.n:
            return f"x{index}"
        if index < self.n + self.m1:
            return f"y{index - self.n}"
        return f"z{index - self.n - self.m1}"

    def index_of(self, name: str) -> int:
        block, num = name[0], name[1:]
        if not num.isdigit():
            raise KeyError(name)
        i = int(num)
        if block == "x" and i < self.n:
            return i
        if block == "y" and i < self.m1:
            return self.n + i
        if block == "z" and i < self.m2:
            return self.n + self.m1 + i
        raise KeyError(name)


@dataclass(frozen=True)
class Box:
    """Coordinatewise bounds over the full variable vector; +-inf allowed."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise FormError("box bound lengths differ")
        for lo, hi in zip(self.lower, self.upper):
            if not lo <= hi:  # written so that a NaN bound fails
                raise FormError(f"box bounds ({lo}, {hi}) need lower <= upper")

    @classmethod
    def whole(cls, dim: int) -> "Box":
        return cls((-math.inf,) * dim, (math.inf,) * dim)

    @classmethod
    def from_blocks(cls, *blocks) -> "Box":
        """Concatenate (lower_list, upper_list) pairs block by block."""
        lower: list[float] = []
        upper: list[float] = []
        for lo, hi in blocks:
            lower.extend(float(v) for v in lo)
            upper.extend(float(v) for v in hi)
        return cls(tuple(lower), tuple(upper))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def lower_array(self) -> np.ndarray:
        return np.array(self.lower, dtype=float)

    def upper_array(self) -> np.ndarray:
        return np.array(self.upper, dtype=float)

    @cached_property
    def _bound_arrays(self):
        """The lower and upper arrays with their isfinite masks, made once;
        an infinite bound reads 0.0, so no inf - inf is ever computed."""
        lo, hi = self.lower_array(), self.upper_array()
        lo_finite, hi_finite = np.isfinite(lo), np.isfinite(hi)
        return np.where(lo_finite, lo, 0.0), lo_finite, np.where(hi_finite, hi, 0.0), hi_finite

    def excess(self, p: np.ndarray) -> float:
        """Largest coordinatewise violation of the bounds (0 if inside, inf
        at a NaN coordinate)."""
        lo, lo_finite, hi, hi_finite = self._bound_arrays
        if np.isnan(p).any():
            return math.inf
        below = np.where(lo_finite, lo - p, -math.inf)
        above = np.where(hi_finite, p - hi, -math.inf)
        return float(max(0.0, below.max(initial=-math.inf), above.max(initial=-math.inf)))

    def slice(self, indices) -> "Box":
        idx = list(indices)
        return Box(
            tuple(self.lower[i] for i in idx),
            tuple(self.upper[i] for i in idx),
        )


@dataclass(frozen=True)
class SaddlePoint:
    """A full (x, y, z) assignment with partition-aware block accessors."""

    partition: VarPartition
    vec: np.ndarray

    def __post_init__(self):
        v = self.vec
        # a read-only float array that owns its data is as frozen as a copy
        owned = isinstance(v, np.ndarray) and v.base is None and not v.flags.writeable
        if not (owned and v.dtype == float):
            v = np.array(v, dtype=float)
        if v.shape != (self.partition.total,):
            raise FormError(
                f"point has shape {v.shape}, partition needs ({self.partition.total},)"
            )
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @classmethod
    def from_blocks(cls, partition: VarPartition, x, y=(), z=()) -> "SaddlePoint":
        v = np.concatenate(
            [np.atleast_1d(np.asarray(b, dtype=float)) if np.size(b) else np.empty(0) for b in (x, y, z)]
        )
        v.setflags(write=False)  # the point owns the concatenation, uncopied
        return cls(partition, v)

    @property
    def x(self) -> np.ndarray:
        return self.vec[: self.partition.n]

    @property
    def y(self) -> np.ndarray:
        return self.vec[self.partition.n : self.partition.n + self.partition.m1]

    @property
    def z(self) -> np.ndarray:
        return self.vec[self.partition.z]


WitnessMap = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
Reference = Callable[[np.ndarray], float]

# semantic declarations carried by a form, set by whoever constructs it and
# spot-checked by sampling when the algebra consumes them
DECLARABLE = ("convex_joint_g", "nonneg", "negative", "positive")


@dataclass(frozen=True)
class SaddleForm:
    name: str
    partition: VarPartition
    box: Box
    g: Expr
    ineq: tuple[Expr, ...] = ()
    eq: tuple[Expr, ...] = ()
    witness: WitnessMap | None = None
    reference: Reference | None = None
    declares: frozenset = frozenset()
    window: Box | None = None

    def __post_init__(self):
        total = self.partition.total
        if self.box.dim != total:
            raise FormError("box dimension does not match partition")
        if self.window is not None and self.window.dim != total:
            raise FormError("window dimension does not match partition")
        for label, e in self.components():
            if e.max_index() >= total:
                raise FormError(f"{label} references index {e.max_index()} >= {total}")
        for j, h in enumerate(self.eq):
            if not h.is_affine():
                raise FormError(f"equality h{j} is not structurally affine")
        unknown = set(self.declares) - set(DECLARABLE)
        if unknown:
            raise FormError(f"unknown declarations {sorted(unknown)}")
        object.__setattr__(self, "ineq", tuple(self.ineq))
        object.__setattr__(self, "eq", tuple(self.eq))
        object.__setattr__(self, "declares", frozenset(self.declares))

    __getstate__ = Expr.__getstate__  # the tape stays behind, as an expression's does

    def components(self):
        yield "g", self.g
        for i, gi in enumerate(self.ineq):
            yield f"g{i + 1}", gi
        for j, hj in enumerate(self.eq):
            yield f"h{j + 1}", hj

    def tape(self) -> Tape:
        """Kernels evaluating (g, g_1..g_s, h_1..h_r) together, compiled on
        first use and kept on the form."""
        return ex.cached_tape(self, (self.g, *self.ineq, *self.eq))

    def _vector(self, p) -> np.ndarray:
        """The vector of ``p``, a SaddlePoint or a vector of the partition's
        size; anything else raises :class:`FormError`."""
        v = p.vec if isinstance(p, SaddlePoint) else np.asarray(p, dtype=float)
        if v.shape != (self.partition.total,):
            raise FormError(f"point has shape {v.shape}, partition needs ({self.partition.total},)")
        return v

    def values(self, v) -> tuple[float, list, list]:
        """g, then the lists of g_i and h_j values at the point ``v`` (a
        SaddlePoint or its vector), from one call of the value kernel.
        Domain errors raise :class:`~saddlelift.expr.DomainEvalError`."""
        vals = self.tape().value(self._vector(v).tolist())
        s = 1 + len(self.ineq)
        return vals[0], vals[1:s], vals[s:]

    def values_grads(self, v):
        """As :meth:`values`, plus ``grad(k)``: the gradient of component k
        (0 is g, then the g_i, then the h_j), raising
        :class:`~saddlelift.expr.NondifferentiableError` where it does not
        exist.  One call of the value+gradient kernel."""
        vals, jac, kinks = self.tape().value_grad(self._vector(v).tolist())

        def grad(k: int) -> np.ndarray:
            if kinks[k] is not None:
                raise ex.kink_error(kinks[k])
            return jac[k]

        s = 1 + len(self.ineq)
        return vals[0], vals[1:s], vals[s:], grad

    def smoothed_penalty(self, v, sign: float, rho: float, power: float, grad: bool):
        """sign*g + rho * sum max(g_i,0)^power + rho * sum |h_j|^power at the
        point ``v`` (as in :meth:`values`), for a power > 1, and with
        ``grad`` the pair of it and its full-space gradient: one call of the
        tape's penalty kernel, compiled on first use and kept on the form.
        Domain errors raise as in :meth:`values`, a missing gradient of g or
        of an active constraint as in :meth:`values_grads`."""
        return self._penalty_kernel(power, grad)(self._vector(v).tolist(), sign, rho, power)

    def _penalty_kernel(self, power: float, grad: bool):
        """The tape's penalty kernel ``(p, sign, rho, power)`` over a list of
        Python floats, for a power > 1, returned unevaluated."""
        if not power > 1:
            raise ValueError(f"smoothing power must be > 1, got {power}")
        return self.tape().penalty(len(self.ineq), grad)

    def point(self, vec) -> SaddlePoint:
        return SaddlePoint(self.partition, np.asarray(vec, dtype=float))

    def effective_window(self):
        """Bounded sampling window (lower, upper arrays) over all axes."""
        src = self.window if self.window is not None else self.box
        return ex.sample_window(src.lower_array(), src.upper_array())

    def sample_x(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo, hi = self.effective_window()
        n = self.partition.n
        return rng.uniform(lo[:n], hi[:n], size=(count, n))

    def declare(self, *decls: str) -> "SaddleForm":
        return replace(self, declares=self.declares | set(decls))


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class MembershipReport:
    feasible: bool
    ineq_violation: np.ndarray  # max(g_i, 0) per constraint
    eq_violation: np.ndarray  # |h_j| per constraint
    box_excess: float
    tol: float

    @property
    def max_violation(self) -> float:
        """The largest violation; inf where a constraint value is NaN."""
        parts = [self.box_excess]
        if self.ineq_violation.size:
            parts.append(float(self.ineq_violation.max()))
        if self.eq_violation.size:
            parts.append(float(self.eq_violation.max()))
        return math.inf if any(map(math.isnan, parts)) else max(parts)


def _member_values(form: SaddleForm, p: SaddlePoint | np.ndarray):
    """``form.values`` at ``p``, a domain error naming the membership check."""
    try:
        return form.values(p)
    except ex.DomainEvalError as err:
        raise ex.DomainEvalError(f"{err} (while checking membership of {form.name})", err.node)


def membership(
    form: SaddleForm, p: SaddlePoint | np.ndarray, tol: float = D2_TOL, *, values=None
) -> MembershipReport:
    """Per-constraint violation report at ``p``.

    A constraint value that is NaN counts as a violation.  The form is
    evaluated as a whole, so a domain error in g raises here too; a caller
    that already holds ``form.values`` at ``p`` passes them as ``values``.
    """
    v = form._vector(p)
    _, ivals, evals = _member_values(form, v) if values is None else values
    iv = np.array([max(gv, 0.0) for gv in ivals])
    ev = np.array([abs(hv) for hv in evals])
    bx = form.box.excess(v)
    feasible = bx <= tol
    if iv.size:
        feasible = feasible and bool(iv.max() <= tol)
    if ev.size:
        feasible = feasible and bool(ev.max() <= tol)
    return MembershipReport(feasible, iv, ev, bx, tol)


def witness_eval(form: SaddleForm, x, check: bool = True) -> SaddlePoint:
    """Evaluate the witness map at ``x``.

    With ``check`` the returned point is validated as by
    :func:`witness_report`: feasible to 1e-9 and the value identity
    |g(x,y,z) - reference(x)| <= 1e-9.  Failures raise
    :class:`WitnessInfeasibleError`, which signals a catalog bug and belongs
    in the known-issues registry.
    """
    if check:
        return witness_report(form, x, check=True).point
    if form.witness is None:
        raise WitnessAbsentError(f"form {form.name!r} has no witness map")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (form.partition.n,):
        raise FormError(f"x has shape {xv.shape}, expected ({form.partition.n},)")
    try:
        with np.errstate(all="ignore"):  # an inf or NaN is judged by the report
            y, z = form.witness(xv)
    except OverflowError as err:
        raise WitnessOverflowError(
            f"witness map of {form.name!r} overflows at x={xv.tolist()}: {err}"
        ) from err
    return SaddlePoint.from_blocks(form.partition, xv, y, z)


def reference_value(form: SaddleForm, x) -> float:
    """The form's reference f(x); an overflow raises :class:`WitnessOverflowError`."""
    try:
        with np.errstate(all="ignore"):  # as in witness_eval
            return form.reference(x)
    except OverflowError as err:
        raise WitnessOverflowError(
            f"reference of {form.name!r} overflows at x={np.asarray(x).tolist()}: {err}"
        ) from err


@dataclass(frozen=True)
class WitnessReport:
    """The witness point at some x and how well it keeps the witness identity."""

    point: SaddlePoint
    membership: MembershipReport
    value: float  # g at the witness point
    reference: float | None  # f(x); None for a form without a reference

    @property
    def gap(self) -> float | None:
        """|g - f(x)| at the witness point, inf where it is NaN; None
        without a reference."""
        if self.reference is None:
            return None
        gap = abs(self.value - self.reference)
        return math.inf if math.isnan(gap) else gap

    @property
    def error(self) -> float:
        """The larger of the identity gap and the largest violation."""
        return max(self.gap or 0.0, self.membership.max_violation)


def witness_report(form: SaddleForm, x, check: bool = False) -> WitnessReport:
    """Evaluate the witness at ``x`` and measure the witness identity there.

    Evaluation errors (:class:`~saddlelift.expr.ExprError`, and
    :class:`FormError` for a missing or malformed witness or one whose map
    or reference overflows) propagate.  With ``check``, an
    :attr:`WitnessReport.error` above D2_TOL raises
    :class:`WitnessInfeasibleError`.
    """
    p = witness_eval(form, x, check=False)
    values = _member_values(form, p)
    report = WitnessReport(
        p,
        membership(form, p, D2_TOL, values=values),
        values[0],
        None if form.reference is None else reference_value(form, p.x),
    )
    if check and report.error > D2_TOL:
        gap = "no reference" if report.gap is None else f"{report.gap:.3e}"
        raise WitnessInfeasibleError(
            f"witness identity of {form.name!r} fails at x={p.x.tolist()}: "
            f"max violation {report.membership.max_violation:.3e}, |g - f| = {gap}"
        )
    return report


def witness_check(form: SaddleForm, xs) -> tuple[float, np.ndarray | None]:
    """The largest :attr:`WitnessReport.error` over ``xs`` and the first x
    reaching it (None while it is 0); inf at the first x where the witness,
    the reference or g raises.  The witness identity holds where the error
    is at most D2_TOL."""
    worst, at = 0.0, None
    for x in xs:
        try:
            err = witness_report(form, x).error
        except (ex.ExprError, FormError):
            return math.inf, x
        if err > worst:
            worst, at = err, x
    return worst, at


@dataclass(frozen=True)
class AuditItem:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FormAuditReport:
    form: str
    items: tuple[AuditItem, ...]

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def failures(self) -> tuple[AuditItem, ...]:
        return tuple(it for it in self.items if not it.passed)


def validate_form(form: SaddleForm, samples: int = 50, seed: int = 0) -> FormAuditReport:
    """Sampled audit of the declared structure of a form.

    Checks g for convexity over the (x, y) block (z held fixed at sampled
    values) and concavity over the z block, each g_i for convexity on the
    whole box, each h_j for affinity, and the witness identity when a witness
    and reference are present.
    """
    lo, hi = form.effective_window()
    part = form.partition
    items: list[AuditItem] = []

    def run(e: Expr, tag: str, axes, label: str, sd: int):
        try:
            rep = ex.curvature_audit(
                e, lo, hi, tag=tag, samples=samples, seed=sd, axes=axes
            )
        except ex.DomainEvalError as err:
            items.append(AuditItem(label, False, f"domain error during audit: {err}"))
            return
        detail = ""
        if not rep.passed and rep.counterexample is not None:
            u, v, t = rep.counterexample
            detail = f"counterexample u={u.tolist()} v={v.tolist()} t={t}"
        items.append(AuditItem(label, rep.passed, detail))

    run(form.g, ex.CONVEX, range(part.total)[part.xy], "g convex on (x,y)", seed)
    if part.m2 > 0:
        run(form.g, ex.CONCAVE, range(part.total)[part.z], "g concave on z", seed + 1)
    for i, gi in enumerate(form.ineq):
        tag = gi.tag if gi.tag in (ex.CONVEX, ex.AFFINE) else ex.CONVEX
        run(gi, tag, None, f"g{i + 1} convex", seed + 2 + i)
    for j, hj in enumerate(form.eq):
        run(hj, ex.AFFINE, None, f"h{j + 1} affine", seed + 100 + j)

    if form.witness is not None and form.reference is not None:
        xs = form.sample_x(np.random.default_rng(seed + 1000), samples)
        worst, bad_x = witness_check(form, xs)
        ok = worst <= D2_TOL
        detail = "" if ok else f"worst error {worst:.3e} at x={np.asarray(bad_x).tolist()}"
        items.append(AuditItem("witness identity", ok, detail))
    return FormAuditReport(form.name, tuple(items))
