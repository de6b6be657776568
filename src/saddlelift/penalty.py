"""Exact and smoothed penalty functions for the constrained saddle program.

For a form [g : g_1..g_s ; h_1..h_r] and weight rho > 0:

    F(x,y; z,rho)  =  g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G(z; x,y,rho)  = -g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G2(z; x,y,rho) = -g + rho * sum max(g_i, 0)^2 + rho * sum h_j^2

and the C^1 smoothed variants with exponent theta > 1:

    F_theta = g + rho * sum max(g_i,0)^theta + rho * sum |h_j|^theta
    G_theta = -g + ...

Each function here reads its point as the form does (a SaddlePoint or its
vector).  F_theta, G_theta and G2 are one sum at power theta or 2, evaluated
by one call of the form's penalty kernel (:meth:`SaddleForm.smoothed_penalty`).
The gradient of v^theta at v = 0 is taken as exactly 0 (the one-sided limit),
so they are differentiable everywhere.  A NaN g_i counts as violated in every
penalty.  Where a violation's power leaves the float range, the smoothed sum
reads inf (so F_theta, G_theta and G2 read inf wherever g is finite); there,
and where a term's coefficient is not finite, the gradient reads NaN
throughout.  Box bounds are not penalized; solvers keep iterates inside the
box by projection.
"""

from __future__ import annotations

import numpy as np

from .forms import SaddleForm, SaddlePoint, membership


def _exact(form: SaddleForm, p: SaddlePoint | np.ndarray):
    """g and the total violation sum max(g_i, 0) + sum |h_j| at ``p``."""
    gval, ivals, evals = form.values(p)
    return gval, np.maximum(ivals, 0.0).sum() + np.abs(evals).sum()


def total_violation(form: SaddleForm, p: SaddlePoint | np.ndarray) -> float:
    """P(p) = sum max(g_i, 0) + sum |h_j|."""
    return float(_exact(form, p)[1])


def penalty_f(form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float) -> float:
    gval, viol = _exact(form, p)
    return float(gval + rho * viol)


def penalty_g(form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float) -> float:
    gval, viol = _exact(form, p)
    return float(-gval + rho * viol)


def penalty_f_theta_value(form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float, theta: float) -> float:
    return form.smoothed_penalty(p, 1.0, rho, theta, False)


def penalty_g_theta_value(form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float, theta: float) -> float:
    return form.smoothed_penalty(p, -1.0, rho, theta, False)


def penalty_f_theta(
    form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed F with its full-space gradient."""
    return form.smoothed_penalty(p, 1.0, rho, theta, True)


def penalty_g_theta(
    form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed G with its full-space gradient."""
    return form.smoothed_penalty(p, -1.0, rho, theta, True)


def penalty_g2(form: SaddleForm, p: SaddlePoint | np.ndarray, rho: float) -> tuple[float, np.ndarray]:
    """Squared-violation penalty -g + rho*sum max(g_i,0)^2 + rho*sum h_j^2.

    C^1 everywhere, and convex in the z block whenever every g_i is convex
    and every h_j affine there.
    """
    return form.smoothed_penalty(p, -1.0, rho, 2.0, True)


def eps_feasible(form: SaddleForm, p: SaddlePoint | np.ndarray, eps: float) -> bool:
    """True iff every g_i <= eps, every |h_j| <= eps, and box excess <= eps:
    :func:`~saddlelift.forms.membership` at tolerance eps, whose rule counts
    a NaN constraint value as violated.  Constraints are not evaluated
    outside the box."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    v = form._vector(p)
    if form.box.excess(v) > eps:
        return False
    return membership(form, v, eps).feasible
