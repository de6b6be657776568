"""Exact and smoothed penalty functions for the constrained saddle program.

For a form [g : g_1..g_s ; h_1..h_r] and weight rho > 0:

    F(x,y; z,rho)  =  g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G(z; x,y,rho)  = -g + rho * sum max(g_i, 0) + rho * sum |h_j|
    G2(z; x,y,rho) = -g + rho * sum max(g_i, 0)^2 + rho * sum h_j^2

and the C^1 smoothed variants with exponent theta > 1:

    F_theta = g + rho * sum max(g_i,0)^theta + rho * sum |h_j|^theta
    G_theta = -g + ...

The gradient of v^theta at v = 0 is taken as exactly 0 (the one-sided limit),
so F_theta / G_theta / G2 are differentiable everywhere.  Box bounds are not
penalized; solvers keep iterates inside the box by projection.
"""

from __future__ import annotations

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


def _smoothed_terms(ivals, evals, rho: float, theta: float, grad=None, size: int = 0):
    """rho * sum (g_i+)^theta + rho * sum |h_j|^theta, and with ``grad``
    (see :meth:`SaddleForm.values_grads`) its gradient of length ``size``."""
    value = 0.0
    out = np.zeros(size) if grad is not None else None
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**theta
            if grad is not None:
                out += rho * theta * gv ** (theta - 1.0) * grad(k)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        if hv != 0.0:
            value += rho * abs(hv) ** theta
            if grad is not None:
                out += rho * theta * abs(hv) ** (theta - 1.0) * np.sign(hv) * grad(k)
    return value, out


def _smoothed(form: SaddleForm, p: SaddlePoint, rho: float, theta: float):
    if theta <= 1:
        raise ValueError("smoothing exponent theta must be > 1")
    gval, ivals, evals, grad = form.values_grads(p.vec)
    ggrad = grad(0)
    pv, pg = _smoothed_terms(ivals, evals, rho, theta, grad, p.vec.size)
    return gval, ggrad, pv, pg


def penalty_f_theta_value(form: SaddleForm, p: SaddlePoint, rho: float, theta: float) -> float:
    gval, ivals, evals = form.values(p.vec)
    return float(gval + _smoothed_terms(ivals, evals, rho, theta)[0])


def penalty_g_theta_value(form: SaddleForm, p: SaddlePoint, rho: float, theta: float) -> float:
    gval, ivals, evals = form.values(p.vec)
    return float(-gval + _smoothed_terms(ivals, evals, rho, theta)[0])


def penalty_f_theta(
    form: SaddleForm, p: SaddlePoint, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed F with its full-space gradient."""
    gval, ggrad, pv, pg = _smoothed(form, p, rho, theta)
    return float(gval + pv), ggrad + pg


def penalty_g_theta(
    form: SaddleForm, p: SaddlePoint, rho: float, theta: float
) -> tuple[float, np.ndarray]:
    """Smoothed G with its full-space gradient."""
    gval, ggrad, pv, pg = _smoothed(form, p, rho, theta)
    return float(-gval + pv), -ggrad + pg


def penalty_g2(form: SaddleForm, p: SaddlePoint, rho: float) -> tuple[float, np.ndarray]:
    """Squared-violation penalty -g + rho*sum max(g_i,0)^2 + rho*sum h_j^2.

    C^1 everywhere, and convex in the z block whenever every g_i is convex
    and every h_j affine there.
    """
    gval, ivals, evals, grad = form.values_grads(p.vec)
    value = -gval
    out = -grad(0)
    for k, gv in enumerate(ivals, 1):
        if gv > 0.0:
            value += rho * gv**2
            out += 2.0 * rho * gv * grad(k)
    for k, hv in enumerate(evals, 1 + len(ivals)):
        value += rho * hv**2
        out += 2.0 * rho * hv * grad(k)
    return float(value), out


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
