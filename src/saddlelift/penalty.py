"""Exact and smoothed penalty functions for the constrained saddle program.

For a form [g : g_1..g_s ; h_1..h_r] and weight rho > 0:

    F(x,y; z,rho)  =  g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G(z; x,y,rho)  = -g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G2(z; x,y,rho) = -g + rho * sum max(g_i, 0)^2 + rho * sum h_j^2

and the C^1 smoothed variants with exponent theta > 1:

    F_theta = g + rho * sum max(g_i,0)^theta + rho * sum |h_j|^theta
    G_theta = -g + ...

F_theta, G_theta and G2 are one sum at power theta or 2.  The gradient of
v^theta at v = 0 is taken as exactly 0 (the one-sided limit), so they are
differentiable everywhere.  A NaN g_i counts as violated in every penalty.
Where a violation's power leaves the float range, the smoothed sum reads inf
(so F_theta, G_theta and G2 read inf wherever g is finite) and the gradient
reads NaN.
Box bounds are not penalized; solvers keep iterates inside the box by
projection.
"""

from __future__ import annotations

import math

import numpy as np

from .forms import SaddleForm, SaddlePoint, membership


def _exact(form: SaddleForm, p: SaddlePoint):
    """g and the total violation sum max(g_i, 0) + sum |h_j| at ``p``."""
    gval, ivals, evals = form.values(p.vec)
    return gval, np.maximum(ivals, 0.0).sum() + np.abs(evals).sum()


def total_violation(form: SaddleForm, p: SaddlePoint) -> float:
    """P(p) = sum max(g_i, 0) + sum |h_j|."""
    return float(_exact(form, p)[1])


def penalty_f(form: SaddleForm, p: SaddlePoint, rho: float) -> float:
    gval, viol = _exact(form, p)
    return float(gval + rho * viol)


def penalty_g(form: SaddleForm, p: SaddlePoint, rho: float) -> float:
    gval, viol = _exact(form, p)
    return float(-gval + rho * viol)


def _smoothed(
    form: SaddleForm, p: SaddlePoint, sign: float, rho: float, power: float, grad: bool
):
    """sign*g + rho * sum max(g_i,0)^power + rho * sum |h_j|^power at ``p``,
    and with ``grad`` its full-space gradient (else None).  A NaN g_i counts
    as violated, as in :func:`_exact` and :func:`membership`."""
    if power <= 1:
        raise ValueError("smoothing exponent theta must be > 1")
    if grad:
        gval, ivals, evals, jac = form.values_grads(p.vec)
        ggrad = jac(0)
        out = np.zeros(p.vec.size)
    else:
        gval, ivals, evals = form.values(p.vec)
    value = 0.0
    try:
        for k, gv in enumerate(ivals, 1):
            if not gv <= 0.0:
                value += rho * gv**power
                if grad:
                    out += rho * power * gv ** (power - 1.0) * jac(k)
        for k, hv in enumerate(evals, 1 + len(ivals)):
            if hv != 0.0:
                value += rho * abs(hv) ** power
                if grad:
                    out += rho * power * abs(hv) ** (power - 1.0) * np.sign(hv) * jac(k)
    except OverflowError:
        # a float power left the float range: the penalty is infinite there
        value = math.inf
        if grad:
            out = np.full(p.vec.size, math.nan)
    return float(sign * gval + value), (sign * ggrad + out if grad else None)


def penalty_f_theta_value(form: SaddleForm, p: SaddlePoint, rho: float, theta: float) -> float:
    return _smoothed(form, p, 1.0, rho, theta, False)[0]


def penalty_g_theta_value(form: SaddleForm, p: SaddlePoint, rho: float, theta: float) -> float:
    return _smoothed(form, p, -1.0, rho, theta, False)[0]


def penalty_f_theta(
    form: SaddleForm, p: SaddlePoint, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed F with its full-space gradient."""
    return _smoothed(form, p, 1.0, rho, theta, True)


def penalty_g_theta(
    form: SaddleForm, p: SaddlePoint, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed G with its full-space gradient."""
    return _smoothed(form, p, -1.0, rho, theta, True)


def penalty_g2(form: SaddleForm, p: SaddlePoint, rho: float) -> tuple[float, np.ndarray]:
    """Squared-violation penalty -g + rho*sum max(g_i,0)^2 + rho*sum h_j^2.

    C^1 everywhere, and convex in the z block whenever every g_i is convex
    and every h_j affine there.
    """
    return _smoothed(form, p, -1.0, rho, 2.0, True)


def eps_feasible(form: SaddleForm, p: SaddlePoint, eps: float) -> bool:
    """True iff every g_i <= eps, every |h_j| <= eps, and box excess <= eps:
    :func:`~saddlelift.forms.membership` at tolerance eps, whose rule counts
    a NaN constraint value as violated.  Constraints are not evaluated
    outside the box."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if form.box.excess(p.vec) > eps:
        return False
    return membership(form, p, eps).feasible
