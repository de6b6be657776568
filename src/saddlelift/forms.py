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
import numbers
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

    def excess(self, p: np.ndarray) -> float | np.ndarray:
        """Largest coordinatewise violation of the bounds (0 if inside, inf
        at a NaN coordinate): a float for a point, an array for points
        stacked along the first axis."""
        lo, lo_finite, hi, hi_finite = self._bound_arrays
        below = np.where(lo_finite, lo - p, -math.inf)
        worst = np.maximum(below, np.where(hi_finite, p - hi, -math.inf)).max(axis=-1)
        out = np.where(np.isnan(p).any(axis=-1), math.inf, np.where(worst > 0.0, worst, 0.0))
        return out if out.ndim else float(out)

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
        return cls(partition, _stack(x, y, z))

    @property
    def x(self) -> np.ndarray:
        return self.vec[: self.partition.n]

    @property
    def y(self) -> np.ndarray:
        return self.vec[self.partition.n : self.partition.n + self.partition.m1]

    @property
    def z(self) -> np.ndarray:
        return self.vec[self.partition.z]


def _stack(*blocks) -> np.ndarray:
    """The blocks (scalars or vectors) as one read-only float vector."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    v = np.concatenate([b.reshape(b.size) if b.ndim == 0 or b.size == 0 else b for b in blocks])
    v.setflags(write=False)
    return v


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

    def __getstate__(self):
        # the tape, the window and the z split stay behind, as an expression's tape does
        return {k: v for k, v in self.__dict__.items() if k not in ("_tape", "_window", "_z_split")}

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
        """Bounded sampling window (lower, upper arrays) over all axes,
        computed once per form and read-only."""
        return self._window

    @cached_property
    def _window(self):
        src = self.window if self.window is not None else self.box
        lo, hi = ex.sample_window(src.lower_array(), src.upper_array())
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @cached_property
    def _z_split(self):
        """How G_theta over the z block splits into one function per z_k,
        computed once per form; None where it does not split.  It splits
        when g = r(x, y) + sum_k s_k z_k with finite constants s_k <= 0,
        every inequality reads at most one z_k, as a(x, y) + d z_k with a
        finite constant d < 0, and no equality reads z
        (:func:`~saddlelift.expr.linear_tail`).  Gives the slopes c_k = -s_k,
        then the index, the k and the d of each inequality that reads z, as
        arrays."""
        first, m2 = self.partition.n + self.partition.m1, self.partition.m2
        slopes = ex.linear_tail(self.g, first)
        if not m2 or slopes is None or any(h.max_index() >= first for h in self.eq):
            return None
        c = np.zeros(m2)
        for k, s in slopes.items():
            if not -math.inf < s <= 0.0:
                return None
            c[k - first] = -s
        reads = []
        for i, gi in enumerate(self.ineq):
            co = ex.linear_tail(gi, first)
            if co is None or len(co) > 1 or not all(-math.inf < d < 0.0 for d in co.values()):
                return None
            reads += [(i, k - first, d) for k, d in co.items()]
        rows, ks, ds = np.array(reads, dtype=float).reshape(-1, 3).T
        return c, rows.astype(np.intp), ks.astype(np.intp), ds

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
        return float(_largest(self.box_excess, self.ineq_violation, self.eq_violation))


def _largest(bx, ivals, evals):
    """The feasibility rule: the largest violation of a point, from its box
    excess bx and its g_i and h_j values (or max(g_i, 0) and |h_j|), or of
    each of points stacked along the first axis; inf where one is NaN."""
    worst = np.concatenate([np.asarray(bx)[..., None], ivals, np.abs(evals)], axis=-1).max(axis=-1)
    return np.where(np.isnan(worst), math.inf, np.where(worst > 0.0, worst, 0.0))


def _member_values(form: SaddleForm, p: SaddlePoint | np.ndarray, grads: bool = False):
    """``form.values`` (with ``grads``, ``form.values_grads``) at ``p``, a
    domain error naming the membership check."""
    try:
        return form.values_grads(p) if grads else form.values(p)
    except ex.DomainEvalError as err:
        raise _membership_error(form, err)


def _membership_error(form: SaddleForm, err: ex.DomainEvalError) -> ex.DomainEvalError:
    """The domain error ``err`` of the form's kernels, naming the membership check."""
    return ex.DomainEvalError(f"{err} (while checking membership of {form.name})", err.node)


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
    ivals, evals, bx = np.array(ivals, dtype=float), np.array(evals, dtype=float), form.box.excess(v)
    iv = np.where(ivals < 0.0, 0.0, ivals)  # max(g_i, 0.0), a NaN kept
    return MembershipReport(bool(_largest(bx, ivals, evals) <= tol), iv, np.abs(evals), bx, tol)


def _user_call(what: str, form: SaddleForm, fn, x):
    """``fn(x)``, the form's user-supplied ``what``: an overflow raises
    :class:`WitnessOverflowError`, a ``ValueError`` (outside the domain of
    Python's math) :class:`FormError`."""
    try:
        return fn(x)
    except (OverflowError, ValueError) as err:
        overflow = isinstance(err, OverflowError)
        error, fails = (WitnessOverflowError, "overflows") if overflow else (FormError, "is undefined")
        raise error(f"{what} of {form.name!r} {fails} at x={np.asarray(x).tolist()}: {err}") from err


def _witness_vector(form: SaddleForm, x) -> np.ndarray:
    """:func:`witness_eval` unchecked, as a read-only vector, under the
    caller's errstate."""
    if form.witness is None:
        raise WitnessAbsentError(f"form {form.name!r} has no witness map")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (form.partition.n,):
        raise FormError(f"x has shape {xv.shape}, expected ({form.partition.n},)")
    blocks = _user_call("witness map", form, form.witness, xv)
    try:
        y, z = blocks
        return form._vector(_stack(xv, y, z))
    except (TypeError, ValueError, FormError) as err:  # not a pair of blocks filling the point
        raise FormError(f"witness map of {form.name!r} is malformed at x={xv.tolist()}: {err}") from err


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
    with np.errstate(all="ignore"):  # an inf or NaN is judged by the report
        return SaddlePoint(form.partition, _witness_vector(form, x))


def reference_value(form: SaddleForm, x) -> float:
    """The form's reference f(x) as a float, under the caller's errstate and
    :func:`_user_call`'s rule; a result that is not a real number raises
    :class:`FormError`."""
    f = _user_call("reference", form, form.reference, x)
    if not isinstance(f, numbers.Real):
        raise FormError(f"reference of {form.name!r} gives {type(f).__name__}, not a real number")
    return float(f)


@dataclass(frozen=True)
class WitnessReport:
    """The witness point at some x and how well it keeps the witness identity:
    one row of :func:`_witness_read`."""

    point: SaddlePoint
    value: float  # g at the witness point
    reference: float | None  # f(x); None for a form without a reference
    gap: float | None  # |g - f(x)|, inf where it is NaN; None without a reference
    violation: float  # the largest violation, inf where a constraint value is NaN
    error: float  # the larger of the gap and the violation
    feasible: bool  # violation <= D2_TOL


def witness_report(form: SaddleForm, x, check: bool = False) -> WitnessReport:
    """Evaluate the witness at ``x`` and measure the witness identity there:
    row 0 of :func:`_witness_read` at ``[x]``.

    The row's evaluation error (:class:`~saddlelift.expr.ExprError`, and
    :class:`FormError` for a missing or malformed witness or reference, or
    one whose map or reference overflows or leaves the domain of Python's
    math) is raised.  With ``check``, an :attr:`WitnessReport.error` above
    D2_TOL raises :class:`WitnessInfeasibleError`.
    """
    points, _, values, refs, gaps, violations, errors, raised = _witness_read(form, [x])
    if raised[0] is not None:
        raise raised[0]
    p, violation = SaddlePoint(form.partition, points[0]), float(violations[0])
    ref, gap = (float(refs[0]), float(gaps[0])) if form.reference is not None else (None, None)
    report = WitnessReport(p, float(values[0]), ref, gap, violation, float(errors[0]), violation <= D2_TOL)
    if check and report.error > D2_TOL:
        gap = "no reference" if gap is None else f"{gap:.3e}"
        raise WitnessInfeasibleError(
            f"witness identity of {form.name!r} fails at x={p.x.tolist()}: "
            f"max violation {violation:.3e}, |g - f| = {gap}"
        )
    return report


def _witness_read(form: SaddleForm, xs):
    """:func:`witness_report` at each x of the sequence ``xs``: per sample
    one call each of the witness map, the form's value kernel at the map's
    point and the reference at x, then numpy reductions.  Gives the points
    (NaN rows where the map raised), whether the map gave each, g, f (NaN
    where the reference raised), the identity gaps (0 without a reference),
    the largest violations, the errors, and each row's first exception (a
    domain error of the kernel naming the membership check) or None; a row
    with one reads NaN values and an inf violation and error."""
    k_s, n, kernel, count = 1 + len(form.ineq), form.partition.n, form.tape().value, len(xs)
    points = np.full((count, form.partition.total), math.nan)
    values = np.full((count, k_s + len(form.eq)), math.nan)
    refs, mapped, raised = np.full(count, math.nan), np.zeros(count, bool), [None] * count
    with np.errstate(all="ignore"):
        for k, x in enumerate(xs):
            xv = np.atleast_1d(np.asarray(x, dtype=float))
            try:
                points[k] = v = _witness_vector(form, xv)
                mapped[k] = True
                vals = kernel(v.tolist())
            except (ex.ExprError, FormError) as err:  # after the map, a domain error of the kernel
                raised[k] = _membership_error(form, err) if mapped[k] else err
            if form.reference is not None and xv.shape == (n,):  # else the map raised
                try:
                    refs[k] = reference_value(form, xv)
                except (ex.ExprError, FormError) as err:
                    raised[k] = raised[k] or err
            if raised[k] is None:
                values[k] = vals
        worst = _largest(form.box.excess(points), values[:, 1:k_s], values[:, k_s:])
        worst[np.array([e is not None for e in raised], bool)] = math.inf
        gap = np.abs(values[:, 0] - refs) if form.reference is not None else np.zeros(count)
        gap[np.isnan(gap)] = math.inf
        error = np.maximum(gap, worst)
    return points, mapped, values[:, 0], refs, gap, worst, error, raised


def witness_check(form: SaddleForm, xs) -> tuple[float, np.ndarray | None]:
    """The largest :attr:`WitnessReport.error` over ``xs`` and the first x
    reaching it (None while it is 0); inf at the first x where the witness,
    the reference or g raises.  The witness identity holds where the error
    is at most D2_TOL."""
    xs = list(xs)
    error, raised = _witness_read(form, xs)[-2:]
    for x, err in zip(xs, raised):
        if err is not None:
            return math.inf, x
    worst = error.max(initial=0.0)
    return (float(worst), xs[int(error.argmax())]) if worst > 0.0 else (0.0, None)


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
    """Audit of the declared structure of a form.

    Checks g for convexity over the (x, y) block (z held fixed) and
    concavity over the z block, each g_i for convexity on the whole box and
    each h_j for affinity: each claim proved by composition rules where they
    apply, sampled elsewhere (:func:`~saddlelift.expr.check_curvature` over
    the form's window), and its passed item's detail says which.  Then the
    witness identity, sampled, when a witness and reference are present.
    """
    lo, hi = form.effective_window()
    part = form.partition
    items: list[AuditItem] = []

    def run(e: Expr, tag: str, axes, label: str, sd: int):
        try:
            rep = ex.check_curvature(e, lo, hi, tag, samples=samples, seed=sd, axes=axes)
        except ex.DomainEvalError as err:
            items.append(AuditItem(label, False, f"domain error during audit: {err}"))
            return
        if rep.passed:
            detail = "proved" if rep.proved else "sampled"
        else:
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
