"""Alternating penalty solver, box-constrained inner minimizer, and probes.

The outer loop alternates two smooth subproblems at penalty weight rho_k:
minimize the smoothed descent penalty over the (x, y) block with z frozen,
then minimize the smoothed ascent penalty over the z block with (x, y)
frozen.  It stops when consecutive iterates move by at most eps and the
current point is eps-feasible; otherwise rho is multiplied by a fixed growth
factor.  The inner solver is projected gradient descent with a spectral step
and monotone backtracking, then one coordinate phase after a stall; iterates
stay inside the box and the objective never increases.

Also here: multiplier estimation / stationarity residuals for the two
first-order systems (over (x, y) with nonnegative weights on active
inequalities, and over z for the concave direction), plus empirical probes
for penalty exactness and for stability of the optimal value under
constraint right-hand-side perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import DomainEvalError
from .forms import FormError, SaddleForm, SaddlePoint, _member_values, membership
from .penalty import (
    eps_feasible,
    penalty_f,
    penalty_f_theta,
    penalty_f_theta_value,
    penalty_g,
    penalty_g_theta,
    penalty_g_theta_value,
    total_violation,
)

STATUS_CONVERGED = "eps_feasible_converged"
STATUS_RHO_CAP = "rho_cap_reached"
STATUS_MAX_OUTER = "max_outer_reached"
STATUS_DIVERGED = "diverged"

# inner line search: first trial step, backtracking factor, Armijo slope fraction
_INITIAL_STEP = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
# inner stop: iteration cap, projected-gradient norm tolerance
_MAX_ITERS = 2000
_GRAD_TOL = 1e-8
# kkt_residual: an inequality with g_i >= -_ACT_TOL counts as active
_ACT_TOL = 1e-6


@dataclass(frozen=True)
class SolverParams:
    eps: float = 1e-6
    rho1: float = 10.0
    growth: float = 100.0
    theta: float = 1.01
    max_outer: int = 30
    rho_cap: float = 1e12

    def __post_init__(self):
        # each check written so that NaN fails it
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if not self.rho1 >= 1:
            raise ValueError("rho1 must be >= 1")
        if not self.growth > 1:
            raise ValueError("growth factor must be > 1")
        if not self.theta > 1:
            raise ValueError("theta must be > 1")
        if not self.rho_cap >= self.rho1:
            raise ValueError("rho_cap must be >= rho1")
        if isinstance(self.max_outer, bool) or not isinstance(self.max_outer, int) or self.max_outer < 0:
            raise ValueError("max_outer must be an integer >= 0")


@dataclass(frozen=True)
class InnerResult:
    point: np.ndarray
    value: float
    pg_norm: float
    iterations: int
    converged: bool


def pg_norm(p, g, lo, hi) -> float:
    """The norm of the projected-gradient step p - P(p - g) onto the box [lo, hi]."""
    r = p - np.minimum(np.maximum(p - g, lo), hi)
    return math.sqrt(r @ r)  # np.linalg.norm of a float vector


def inner_minimize(obj, lower, upper, start) -> InnerResult:
    """Projected gradient descent over a box.

    ``obj(p, need_grad)`` returns (value, gradient-or-None).  Iterates stay
    inside [lower, upper]; accepted steps never increase the objective.  The
    spectral (secant) step is safeguarded by monotone backtracking, which
    rejects a trial whose value is not finite or raises ``DomainEvalError``.
    When the joint step stalls on a penalty ridge (where the smoothed gradient
    is numerically discontinuous and any full-gradient move costs more than
    it gains), a coordinate-refinement sweep takes over: single-coordinate
    backtracking moves cannot pay cross-coordinate ridge costs, so smooth
    coordinates keep descending.  A sweep counts only when it lowers the
    objective strictly: a sweep of tie moves ends the coordinate phase, and
    its moves are dropped.  Each phase runs at most once, and the result has
    converged when its projected-gradient norm is within the tolerance.

    ``obj`` receives float arrays of the block's size.  Each trial costs
    one ``obj`` call (for the solver's :func:`_block_objective`, one call of
    the form's penalty kernel) and a few whole-array numpy operations.  The
    coordinate phase does its scalar arithmetic on Python floats (the IEEE
    operations of numpy scalars, without their dispatch cost or overflow
    warnings) and changes only the trial coordinate of the array it passes.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    p = np.minimum(np.maximum(np.asarray(start, dtype=float), lo), hi)
    f, g = obj(p, True)
    if not math.isfinite(f):
        raise ValueError(f"objective is not finite at the start point ({f})")
    iters = 0
    # joint phase: spectral steps along -g until the tolerance, the cap or a stall
    step = _INITIAL_STEP
    prev_p = prev_g = None
    while iters < _MAX_ITERS and not pg_norm(p, g, lo, hi) <= _GRAD_TOL:  # NaN goes on
        iters += 1
        if prev_p is not None:
            s = p - prev_p
            sy = float(s @ (g - prev_g))
            if sy > 1e-18:
                step = float(s @ s) / sy
        alpha = min(max(step, 1e-12), 1e10)
        accepted = False
        fq, q = f, p
        for _ in range(80):
            q = np.minimum(np.maximum(p - alpha * g, lo), hi)
            d = q - p
            if not np.count_nonzero(d):
                break
            try:
                fq = obj(q, False)[0]
            except DomainEvalError:  # a trial off g's domain is a rejected one
                fq = math.inf
            if math.isfinite(fq) and fq <= f + _ARMIJO * float(g @ d):
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted or fq >= f:
            break  # stalled
        prev_p, prev_g = p, g
        p = q
        f, g = obj(q, True)

    if iters < _MAX_ITERS and not pg_norm(p, g, lo, hi) <= _GRAD_TOL:  # a stall
        # coordinate phase: sweeps of one-coordinate moves until one makes no progress
        lows, highs = lo.tolist(), hi.tolist()
        warm = [max(abs(v), 1.0) for v in p.tolist()]
        blocked = [False] * len(warm)
        for _ in range(60):
            if iters >= _MAX_ITERS:
                break
            iters += 1
            q = p.copy()
            moved = False
            for i, (gi, old) in enumerate(zip(g.tolist(), q.tolist())):
                if gi == 0.0 or blocked[i]:
                    continue
                alpha = warm[i]
                for _ in range(30):
                    ti = min(max(old - alpha * gi, lows[i]), highs[i])
                    if ti == old:
                        alpha *= _BACKTRACK
                        continue
                    q[i] = ti
                    try:
                        fq = obj(q, False)[0]
                    except DomainEvalError:
                        fq = math.inf
                    if math.isfinite(fq) and fq <= f - _ARMIJO * abs(gi * (ti - old)):
                        moved = moved or fq < f  # a tie is kept in place but is no progress
                        f = fq
                        warm[i] = 2.0 * alpha
                        break
                    alpha *= _BACKTRACK
                else:
                    q[i] = old
                    blocked[i] = True
            if not moved:
                break
            p = q
            f, g = obj(q, True)
    norm = pg_norm(p, g, lo, hi)
    return InnerResult(p, f, norm, iters, norm <= _GRAD_TOL)


def inner_minimize_multistart(
    obj, lower, upper, start, restarts: int, rng: np.random.Generator, window
) -> InnerResult:
    """Best of a warm start plus ``restarts`` starts drawn uniformly from
    ``window`` (a (lower, upper) pair) with ``rng``.

    Lowest objective wins; exact ties go to the lexicographically smallest
    point, so the multistart result is order-independent and reproducible.
    """
    best = inner_minimize(obj, lower, upper, start)
    wlo, whi = window
    for _ in range(restarts):
        cand = inner_minimize(obj, lower, upper, rng.uniform(wlo, whi))
        if cand.value < best.value or (
            cand.value == best.value and tuple(cand.point) < tuple(best.point)
        ):
            best = cand
    return best


class _Block:
    """A block objective's point as a list of Python floats and the form's
    penalty kernels at power ``theta``.  It stands in for the form in the
    penalty functions, which read only ``smoothed_penalty``, so a trial
    reaches the kernel with nothing converted or checked again."""

    __slots__ = ("point", "kernels")

    def __init__(self, form: SaddleForm, base, theta: float):
        self.point = form._vector(base).tolist()
        self.kernels = (form._penalty_kernel(theta, False), form._penalty_kernel(theta, True))

    def smoothed_penalty(self, p, sign, rho, power, grad):
        return self.kernels[grad](p, sign, rho, power)


def _block_objective(form: SaddleForm, base, block, penalty, penalty_value, rho, theta):
    """``obj(sub, need_grad)`` for :func:`inner_minimize`: a smoothed penalty
    over the coordinates ``block`` of ``base``, the others held fixed.  Each
    trial writes ``sub`` into a :class:`_Block`'s point and passes the block
    to ``penalty`` or ``penalty_value`` in the form's place: one kernel call."""
    blk = _Block(form, base, theta)
    full = blk.point

    def obj(sub, need_grad):
        full[block] = sub.tolist()
        if need_grad:
            v, grad = penalty(blk, full, rho, theta)
            return v, grad[block]
        return penalty_value(blk, full, rho, theta), None

    return obj


def _blocks(form: SaddleForm):
    """Each block of the partition with its name, its slice, its smoothed
    penalty with and without the gradient and its exact penalty: F over
    (x, y), G over z.  The names are looked up per call, so a rebinding of
    them in this module is seen."""
    yield "xy", form.partition.xy, penalty_f_theta, penalty_f_theta_value, penalty_f
    yield "z", form.partition.z, penalty_g_theta, penalty_g_theta_value, penalty_g


# ---------------------------------------------------------------------------
# alternating penalty solver


@dataclass(frozen=True)
class TraceRow:
    k: int
    rho: float
    f_pen: float
    g_pen: float
    violation: float
    step_norm: float
    f_ref: float  # NaN when the form has no reference


@dataclass(frozen=True)
class SolveResult:
    point: SaddlePoint
    status: str
    trace: tuple[TraceRow, ...]
    diagnostic: str = ""

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


TRACE_HEADER = "k,rho,F,G,P,step_norm,f_ref"


def trace_to_csv(trace) -> str:
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(
            f"{r.k},{r.rho:.9g},{r.f_pen:.9g},{r.g_pen:.9g},"
            f"{r.violation:.9g},{r.step_norm:.9g},{r.f_ref:.9g}"
        )
    return "\n".join(lines) + "\n"


def alternating_penalty_solve(
    form: SaddleForm,
    params: SolverParams | None = None,
    start=None,
    seed: int = 0,
) -> SolveResult:
    """Run the alternating penalty loop on a form.

    ``start`` may be a SaddlePoint or a vector of the partition's size
    (anything else raises :class:`FormError`); points outside the box are
    projected in.  A solve draws no random numbers: ``seed`` is accepted
    and ignored, and fixed parameters and start give a bit-for-bit
    reproducible trace.  A solve that ends at a coordinate that is not
    finite or at the largest float in magnitude has diverged, whatever
    stopped the loop.
    """
    params = params or SolverParams()
    part = form.partition
    lo = form.box.lower_array()
    hi = form.box.upper_array()
    p = np.clip(form._vector(np.zeros(part.total) if start is None else start), lo, hi)
    trace: list[TraceRow] = []
    status = STATUS_MAX_OUTER
    diagnostic = ""
    theta = params.theta

    for k in range(1, params.max_outer + 1):
        rho = params.rho1 * params.growth ** (k - 1)
        p2 = p.copy()
        inner = []
        for name, block, penalty, penalty_value, _ in _blocks(form):
            if block.stop == block.start:
                continue
            obj = _block_objective(form, p2, block, penalty, penalty_value, rho, theta)
            res = inner_minimize(obj, lo[block], hi[block], p2[block])
            p2[block] = res.point
            inner.append(f"inner {name}: pg={res.pg_norm:.3e} its={res.iterations}")
        diagnostic = "; ".join(inner)
        p2.setflags(write=False)  # a reference writing into its argument cannot move it

        with np.errstate(over="ignore"):  # a step between huge iterates reads inf
            step_norm = float(np.linalg.norm(p2 - p))
        f_ref = form.reference(p2[: part.n]) if form.reference is not None else math.nan
        trace.append(
            TraceRow(
                k=k,
                rho=rho,
                f_pen=penalty_f(form, p2, rho),
                g_pen=penalty_g(form, p2, rho),
                violation=total_violation(form, p2),
                step_norm=step_norm,
                f_ref=f_ref,
            )
        )
        p = p2
        if step_norm <= params.eps and eps_feasible(form, p2, params.eps):
            status = STATUS_CONVERGED
            break
        if params.rho1 * params.growth**k > params.rho_cap:
            status = STATUS_RHO_CAP
            break
    if not (np.abs(p) < np.finfo(float).max).all():  # NaN fails too
        status = STATUS_DIVERGED
    return SolveResult(SaddlePoint(part, p), status, tuple(trace), diagnostic)


# ---------------------------------------------------------------------------
# first-order residuals and multiplier estimation


@dataclass(frozen=True)
class KktReport:
    alpha: np.ndarray  # s + r entries: inequality then equality weights, (x,y) system
    beta: np.ndarray  # s + r entries for the z system
    stationarity_residual_xy: float
    stationarity_residual_z: float
    complementarity_residual: float
    sign_violation: float


def _stationarity(target, cols, weights):
    r = target.copy()
    for c, w in zip(cols.T, weights):
        r += w * c
    return float(np.linalg.norm(r))


def _estimate(target, cols, lower):
    """Least squares for  cols @ w = -target  with w >= lower, where a NaN
    bound leaves its column out and forces its weight to 0 (an inactive
    inequality).  scipy is imported here, its one use, so importing
    saddlelift does not load it."""
    from scipy.optimize import lsq_linear

    w, keep = np.zeros(lower.size), ~np.isnan(lower)
    if not keep.any():
        return w, float(np.linalg.norm(target))
    A, b = np.ascontiguousarray(cols[:, keep]), -target
    sol = lsq_linear(A, b, bounds=(lower[keep], np.full(A.shape[1], np.inf)))
    w[keep] = sol.x
    return w, float(np.linalg.norm(A @ sol.x - b))


def kkt_residual(
    form: SaddleForm,
    p: SaddlePoint | np.ndarray,
    alpha=None,
    beta=None,
    feas_tol: float = 1e-6,
) -> KktReport:
    """Stationarity residuals of the two first-order systems at ``p``.

    Without ``alpha``/``beta`` the multipliers are estimated by bounded
    least squares over the active constraints (inactive inequality weights
    are forced to zero); with them the residuals of the supplied multipliers
    are reported unchanged.  The form is evaluated once, with gradients.
    """
    v = form._vector(p)
    g, ivals, evals, grad = _member_values(form, v, grads=True)
    rep = membership(form, v, feas_tol, values=(g, ivals, evals))
    if not rep.feasible:
        raise FormError(
            f"kkt_residual needs a feasible point; max violation {rep.max_violation:.3e}"
        )
    xy, zz = form.partition.xy, form.partition.z
    s, r = len(form.ineq), len(form.eq)
    jac = np.array([grad(k) for k in range(1 + s + r)])  # row 0 is g, then the g_i and h_j
    # weight bounds: 0 on an active inequality, -inf on an equality, NaN leaves an inactive one out
    lower = np.array([0.0 if gv >= -_ACT_TOL else math.nan for gv in ivals] + [-math.inf] * r)

    # residual forms: grad_xy g + sum w grad_xy c = 0 and -grad_z g + sum w grad_z c = 0
    found = []
    for given, name, target, cols in (
        (alpha, "alpha", jac[0, xy], jac[1:, xy].T),
        (beta, "beta", -jac[0, zz], jac[1:, zz].T),
    ):
        if given is None:
            found.append(_estimate(target, cols, lower))
            continue
        weights = np.asarray(given, dtype=float)
        if weights.shape != (s + r,):
            raise ValueError(f"{name} must have length {s + r}")
        found.append((weights, _stationarity(target, cols, weights)))
    (alpha, res_xy), (beta, res_z) = found

    comp = 0.0
    sign = 0.0
    for i in range(s):
        comp = max(comp, abs(alpha[i] * ivals[i]), abs(beta[i] * ivals[i]))
        sign = max(sign, -min(alpha[i], 0.0), -min(beta[i], 0.0))
    return KktReport(alpha, beta, res_xy, res_z, comp, sign)


# ---------------------------------------------------------------------------
# exactness / stability probes


@dataclass(frozen=True)
class ExactnessRow:
    rho: float
    f_at_candidate: float
    f_at_point: float
    f_improved: bool
    g_at_candidate: float
    g_at_point: float
    g_improved: bool

    @property
    def no_improvement(self) -> bool:
        return not (self.f_improved or self.g_improved)


def exactness_probe(
    form: SaddleForm,
    p_star: SaddlePoint | np.ndarray,
    rho_list,
    restarts: int = 8,
    seed: int = 0,
) -> tuple[ExactnessRow, ...]:
    """Multistart search for points beating the exact penalties at ``p_star``.

    For each rho, the descent penalty is searched over the (x, y) block with
    z fixed at p_star (and the ascent penalty over z with (x, y) fixed),
    starting from p_star and ``restarts`` random points within 2 of it.
    Candidates are compared with the exact (nonsmooth) penalties; an
    improvement by more than 1e-6 is evidence against exactness.  The
    smoothed penalties use the solver's default theta.
    """
    theta = SolverParams.theta
    star = form._vector(p_star)
    lo = form.box.lower_array()
    hi = form.box.upper_array()
    rows = []
    for i, rho in enumerate(rho_list):
        rng = np.random.default_rng(seed + i)
        at_cand, at_star = [], []
        for _, block, penalty, penalty_value, exact in _blocks(form):
            cand = star.copy()
            if block.stop > block.start:
                obj = _block_objective(form, star, block, penalty, penalty_value, rho, theta)
                window = (
                    np.maximum(lo[block], star[block] - 2.0),
                    np.minimum(hi[block], star[block] + 2.0),
                )
                res = inner_minimize_multistart(
                    obj, lo[block], hi[block], star[block], restarts, rng, window
                )
                cand[block] = res.point
            at_cand.append(exact(form, cand, rho))
            at_star.append(exact(form, star, rho))
        (f_cand, g_cand), (f_star, g_star) = at_cand, at_star

        rows.append(
            ExactnessRow(
                rho=float(rho),
                f_at_candidate=f_cand,
                f_at_point=f_star,
                f_improved=f_cand < f_star - 1e-6,
                g_at_candidate=g_cand,
                g_at_point=g_star,
                g_improved=g_cand < g_star - 1e-6,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class StabilityRow:
    eta: np.ndarray
    tau: np.ndarray
    size: float
    base_value: float
    perturbed_value: float
    bound: float
    holds: bool
    ratio: float
    solve_status: str


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]
    tightest_rho: float


def stability_probe(
    form: SaddleForm,
    p_star: SaddlePoint | np.ndarray,
    perturbations,
    rho: float,
    params: SolverParams | None = None,
) -> StabilityReport:
    """Solve right-hand-side-perturbed problems (g_i <= eta_i, h_j = tau_j)
    and test the value bound
    |g(p*) - g(perturbed optimum)| <= rho * (sum max(eta,0) + sum |tau|)."""
    params = params or SolverParams(max_outer=12)
    base = form.values(p_star)[0]
    rows = []
    tightest = 0.0
    for eta, tau in perturbations:
        eta = np.asarray(eta, dtype=float)
        tau = np.asarray(tau, dtype=float)
        if eta.shape != (len(form.ineq),) or tau.shape != (len(form.eq),):
            raise FormError("perturbation sizes must match the constraint lists")
        size = float(np.maximum(eta, 0.0).sum() + np.abs(tau).sum())
        ineq = tuple(gi - float(e) for gi, e in zip(form.ineq, eta))
        eq = tuple(hj - float(t) for hj, t in zip(form.eq, tau))
        pert = replace(form, name=f"{form.name}[shifted]", ineq=ineq, eq=eq, witness=None, reference=None)
        res = alternating_penalty_solve(pert, params, start=p_star)
        val = form.values(res.point)[0]
        diff = abs(base - val)
        bound = rho * size
        holds = diff <= bound + 1e-9
        if size > 0:
            ratio = diff / size
            tightest = max(tightest, ratio)
        else:
            ratio = 0.0 if diff <= 1e-9 else math.inf
        rows.append(
            StabilityRow(
                eta=eta,
                tau=tau,
                size=size,
                base_value=base,
                perturbed_value=val,
                bound=bound,
                holds=holds,
                ratio=ratio,
                solve_status=res.status,
            )
        )
    return StabilityReport(tuple(rows), tightest)
