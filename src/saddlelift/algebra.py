"""Closure operations on saddle forms.

Each operation assembles the lifted objective, constraint lists, box, witness
map, and reference evaluator of the result mechanically from its inputs, so
the witness identity is preserved by construction.  Index bookkeeping is
deterministic: the first operand's y/z blocks come first, then the second
operand's, then any auxiliaries introduced by the operation.

Semantic hypotheses (nonnegativity, sign, joint convexity of the lifted
objective, monotonicity of a composed scalar map) are caller declarations;
every operation requires the ones it needs and spot-checks them by sampling,
and a detected violation is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import expr as ex
from .expr import CONVEX, Expr
from .forms import Box, FormError, SaddleForm, VarPartition


class HypothesisViolationError(FormError):
    """A declared semantic hypothesis is absent or contradicted by sampling."""


def _spot_check_sign(form: SaddleForm, decl: str, op: str):
    """Sample the reference over the x window and verify a declared sign."""
    if form.reference is None:
        return
    for x in form.sample_x(np.random.default_rng(7), 25):
        r = form.reference(x)
        bad = (
            (decl == "nonneg" and r < -1e-9)
            or (decl == "negative" and r > -1e-12)
            or (decl == "positive" and r < 1e-12)
        )
        if bad:
            raise HypothesisViolationError(
                f"{op}: declaration {decl!r} of {form.name!r} fails at "
                f"x={x.tolist()} with value {r}"
            )


def _spot_check_joint_convexity(form: SaddleForm, op: str):
    lo, hi = form.effective_window()
    rep = ex.curvature_audit(form.g, lo, hi, tag=CONVEX, samples=25, seed=11)
    if not rep.passed:
        raise HypothesisViolationError(
            f"{op}: lifted objective of {form.name!r} is declared jointly convex "
            "but sampling found a counterexample"
        )


def _check(forms, sign: str, op: str) -> None:
    """Require joint convexity of g and the ``sign`` declaration of every
    operand, then spot-check them: each sign first, then each convexity."""
    for f in forms:
        for decl in ("convex_joint_g", sign):
            if decl not in f.declares:
                raise HypothesisViolationError(
                    f"{op} needs {f.name!r} declared {decl!r}; "
                    f"present declarations: {sorted(f.declares)}"
                )
    for f in forms:
        _spot_check_sign(f, sign, op)
    for f in forms:
        _spot_check_joint_convexity(f, op)


INF = math.inf


class _Stack:
    """The operands of an operation side by side over a shared x block, plus
    the operation's auxiliary variables.

    Layout: x, the operands' y blocks in order, the auxiliary y's, the
    operands' z blocks in order, the auxiliary z's.  ``aux_y``/``aux_z`` hold
    one (lower, upper) box bound per auxiliary.  After construction ``g``,
    ``ineq`` and ``eq`` hold each operand's expressions relocated into the
    stacked layout, and ``y``/``z`` the auxiliary variables.
    """

    def __init__(self, forms, aux_y=(), aux_z=()):
        first = forms[0]
        for f in forms[1:]:
            if f.partition.n != first.partition.n:
                raise FormError(
                    f"x-dimension mismatch: {first.name} has n={first.partition.n}, "
                    f"{f.name} has n={f.partition.n}"
                )
        n = first.partition.n
        m1 = sum(f.partition.m1 for f in forms)
        m2 = sum(f.partition.m2 for f in forms)
        self.forms, self.aux_y, self.aux_z = forms, list(aux_y), list(aux_z)
        self.partition = VarPartition(n, m1 + len(aux_y), m2 + len(aux_z))
        z_base = n + self.partition.m1
        self.y = [ex.var(n + m1 + j) for j in range(len(aux_y))]
        self.z = [ex.var(z_base + m2 + k) for k in range(len(aux_z))]
        self.g, self.ineq, self.eq = [], (), ()
        y_off = z_off = 0
        for f in forms:
            p = f.partition
            mapping = {p.n + j: n + y_off + j for j in range(p.m1)}
            mapping.update({p.n + p.m1 + k: z_base + z_off + k for k in range(p.m2)})
            self.g.append(f.g.remap(mapping))
            self.ineq += tuple(e.remap(mapping) for e in f.ineq)
            self.eq += tuple(e.remap(mapping) for e in f.eq)
            y_off, z_off = y_off + p.m1, z_off + p.m2

    def _box(self, boxes, clip: float) -> Box:
        """Intersected x bounds, concatenated y/z blocks, auxiliaries last."""
        n = self.partition.n
        xl = [max(col) for col in zip(*(b.lower[:n] for b in boxes))]
        xu = [min(col) for col in zip(*(b.upper[:n] for b in boxes))]
        yl, yu, zl, zu = [], [], [], []
        for b, f in zip(boxes, self.forms):
            s = n + f.partition.m1
            yl += b.lower[n:s]
            yu += b.upper[n:s]
            zl += b.lower[s:]
            zu += b.upper[s:]
        for lo, hi, bounds in ((yl, yu, self.aux_y), (zl, zu, self.aux_z)):
            lo += [max(a, -clip) for a, _ in bounds]
            hi += [min(b, clip) for _, b in bounds]
        return Box.from_blocks((xl, xu), (yl, yu), (zl, zu))

    def form(self, name, g, ineq, declares, reference, aux_witness=None) -> SaddleForm:
        """The stacked form with objective ``g`` and the gadget's ``ineq``
        ahead of the operands' constraints.  ``reference`` maps the operands'
        reference values to the result's; ``aux_witness`` maps them to the
        auxiliaries' witness values (y list, z list)."""
        forms = self.forms
        window = None
        if any(f.window is not None for f in forms):
            # an auxiliary's audit window is its box clipped to +-WINDOW_CLIP
            window = self._box(
                [f.box if f.window is None else f.window for f in forms], ex.WINDOW_CLIP
            )
        witnesses = [f.witness for f in forms]
        refs = [f.reference for f in forms]
        has_refs = all(r is not None for r in refs)

        witness = None
        if all(w is not None for w in witnesses) and (aux_witness is None or has_refs):
            def witness(x):
                ys, zs = zip(*(w(x) for w in witnesses))
                if aux_witness is None:
                    return np.concatenate(ys), np.concatenate(zs)
                ay, az = aux_witness([r(x) for r in refs])
                return np.concatenate([*ys, ay]), np.concatenate([*zs, az])

        return SaddleForm(
            name=name,
            partition=self.partition,
            box=self._box([f.box for f in forms], INF),
            g=g,
            ineq=tuple(ineq) + self.ineq,
            eq=self.eq,
            witness=witness,
            reference=(lambda x: reference([r(x) for r in refs])) if has_refs else None,
            declares=declares,
            window=window,
        )


def scaled_sum(f1: SaddleForm, f2: SaddleForm, a1: float, a2: float) -> SaddleForm:
    """Form for a1*f1 + a2*f2 with positive weights."""
    if a1 <= 0 or a2 <= 0:
        raise FormError("scaled_sum requires positive weights")
    st = _Stack((f1, f2))
    g1, g2 = st.g
    return st.form(
        f"scaled_sum({f1.name},{f2.name})",
        ex.add(ex.scale(g1, a1), ex.scale(g2, a2)),
        (),
        f1.declares & f2.declares & {"convex_joint_g", "nonneg"},
        lambda r: a1 * r[0] + a2 * r[1],
    )


def product(f1: SaddleForm, f2: SaddleForm) -> SaddleForm:
    """Form for f1*f2; needs both lifted objectives jointly convex and both
    functions nonnegative."""
    _check((f1, f2), "nonneg", "product")
    st = _Stack((f1, f2), aux_y=[(-INF, INF)] * 2, aux_z=[(-INF, INF)])
    (g1, g2), (yh1, yh2), (zh,) = st.g, st.y, st.z
    return st.form(
        f"product({f1.name},{f2.name})",
        0.5 * ex.square(yh1 + yh2) - 0.5 * zh,
        (
            ex.square(yh1) + ex.square(yh2) - zh,
            (g1 - yh1).with_tag(CONVEX),
            (g2 - yh2).with_tag(CONVEX),
        ),
        frozenset({"convex_joint_g", "nonneg"}),
        lambda r: r[0] * r[1],
        lambda r: ([r[0], r[1]], [r[0] ** 2 + r[1] ** 2]),
    )


RECIPROCAL_MODES = ("negative", "positive")


def reciprocal(f: SaddleForm, mode: str) -> SaddleForm:
    """Reciprocal lift; ``mode`` names the sign of the carried function.

    mode "negative": the input form carries a negative-valued function r and
    the output carries 1/r; mode "positive": the input carries a positive r
    and the output carries -(1/r), the saddle lift of the reciprocal's
    negation.  Either way the output's reference is the value of the new
    lifted objective at the composed witness, where the two auxiliary
    minimizers multiply to one.
    """
    if mode not in RECIPROCAL_MODES:
        raise FormError(f"mode must be one of {RECIPROCAL_MODES}")
    _check((f,), mode, "reciprocal")
    st = _Stack((f,), aux_y=[(-INF, 0.0)] * 2, aux_z=[(0.0, INF)])
    (g0,), (yb1, yb2), (zb,) = st.g, st.y, st.z
    sgn = 1.0 if mode == "negative" else -1.0

    def aux_witness(r):
        y2v = sgn * r[0]
        y1v = 1.0 / y2v
        return [y1v, y2v], [y1v**2 + y2v**2]

    return st.form(
        f"reciprocal({f.name},{mode})",
        yb1 + ex.square(yb1 + yb2) - zb - 2.0 + ex.square(yb1) + ex.square(yb2) - zb,
        (
            ex.square(yb1 + yb2) - zb - 2.0,
            ex.square(yb1) + ex.square(yb2) - zb,
            (g0 + yb2).with_tag(CONVEX),
        ),
        frozenset({"convex_joint_g", "negative"}),
        lambda r: 1.0 / (sgn * r[0]),
        aux_witness,
    )


def compose_monotone_convex(f: SaddleForm, phi: Expr) -> SaddleForm:
    """Form for phi(f(x)) with phi a univariate monotone increasing convex map.

    ``phi`` references variable index 0 as its argument.  The lifted
    objective becomes phi(g); constraints, box, and witness are unchanged.
    """
    if phi.max_index() > 0:
        raise FormError("phi must be univariate over variable index 0")
    lo, hi = np.array([-10.0]), np.array([10.0])
    rep = ex.curvature_audit(phi, lo, hi, tag=CONVEX, samples=25, seed=3)
    if not rep.passed:
        raise HypothesisViolationError("phi fails the sampled convexity check")
    rng = np.random.default_rng(3)
    for t in rng.uniform(-10.0, 10.0, size=25):
        _, dphi = phi.value_grad(np.array([t]))
        if dphi[0] < -1e-9:
            raise HypothesisViolationError(
                f"phi fails the sampled monotonicity check at t={t}"
            )

    g = phi.subst(0, f.g)
    reference = None
    if f.reference is not None:
        reference = lambda x: phi.value(np.array([f.reference(x)]))
    return replace(
        f,
        name=f"compose({f.name})",
        g=g,
        reference=reference,
        declares=f.declares & {"convex_joint_g"},
    )


def power(f: SaddleForm, a: float) -> SaddleForm:
    """Form for f(x)**a, a > 0.

    a = 1 passes the form through untouched; 0 < a < 1 uses the fractional
    lift with two auxiliary minimizers and one maximizer; a > 1 recurses as
    product(f, power(f, a - 1)).
    """
    if a <= 0:
        raise FormError("power requires a > 0")
    if a == 1.0:
        return f
    if a > 1.0:
        return product(f, power(f, a - 1.0))
    _check((f,), "nonneg", "power")
    st = _Stack((f,), aux_y=[(0.0, INF)] * 2, aux_z=[(0.0, INF)])
    (g0,), (yb1, yb2), (zb,) = st.g, st.y, st.z

    def aux_witness(r):
        y1v = r[0] ** a
        return [y1v, r[0]], [max(y1v ** (2.0 / a), r[0] ** 2)]

    return st.form(
        f"power({f.name},{a})",
        yb1 + ex.rpow(yb1, 2.0 / a) - zb + ex.square(yb2) - zb,
        (
            ex.rpow(yb1, 2.0 / a) - zb,
            ex.square(yb2) - zb,
            (g0 - yb2).with_tag(CONVEX),
        ),
        frozenset({"convex_joint_g", "nonneg"}),
        lambda r: r[0] ** a,
        aux_witness,
    )
