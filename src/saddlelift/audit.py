"""Brute-force oracles for the lifted-form identities, plus the registry.

A form promises two things about each x: the witness point reproduces the
reference value feasibly (the witness identity), and the constrained
min-over-y of max-over-z of the lifted objective equals the reference (the
full minmax identity).  The second is *audited*, never assumed: a grid oracle
enumerates the (y, z) box at finite resolution and classifies each form as

    d2-and-d3-verified   both identities hold within tolerance,
    d2-only              the witness identity holds, the grid minmax does not,
    failed               even the witness identity breaks.

Forms that are not fully verified belong in the known-issues registry, a
versioned text file shipped with the package.  Tests assert that audit
outcomes match the registry, so a divergence between the code and the
registry is a deliberate, reviewable change.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .catalog import CATALOG
from .expr import ExprError
from .forms import D2_TOL, FormError, SaddleForm, _witness_read, witness_check

_CHUNK = 200_000

CLASS_VERIFIED = "d2-and-d3-verified"
CLASS_D2_ONLY = "d2-only"
CLASS_FAILED = "failed"

GRID_AXES = 4  # the most (y, z) axes the grid oracle scans


@dataclass(frozen=True)
class GridSpec:
    """Per-axis bounds (finite, lo <= hi) over the (y, z) axes and a shared
    resolution (an integer >= 2)."""

    resolution: int = 201
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not isinstance(self.resolution, numbers.Integral) or self.resolution < 2:
            raise ValueError(f"grid resolution must be >= 2 and an integer, got {self.resolution!r}")
        if not all(isinstance(b, numbers.Real) and math.isfinite(b) for p in self.bounds or () for b in p):
            raise ValueError(f"grid bounds must be finite numbers, got {self.bounds!r}")
        if any(lo > hi for lo, hi in self.bounds or ()):
            raise ValueError(f"grid bounds must have lo <= hi, got {self.bounds!r}")


def _default_bounds(form: SaddleForm, witness) -> list[tuple[float, float]]:
    """Window bounds per (y, z) axis as Python floats, widened to cover the
    ``witness`` vector's finite coordinates (None, or the NaN row of a map
    that raised: the window alone) and cut to the box.  A caller places
    them in a :class:`GridSpec`, whose check they pass or fail."""
    lo, hi = form.effective_window()
    n = form.partition.n
    bounds = [[float(a), float(b)] for a, b in zip(lo[n:], hi[n:])]
    if witness is not None:
        for i, wi in enumerate(witness[n:].tolist()):
            if math.isfinite(wi):
                bounds[i][0] = min(bounds[i][0], wi - 1.0)
                bounds[i][1] = max(bounds[i][1], wi + 1.0)
    box = form.box
    return [(float(max(b[0], l)), float(min(b[1], u))) for b, l, u in zip(bounds, box.lower[n:], box.upper[n:])]


def _grid_scan(form: SaddleForm, x, grid: GridSpec):
    """(value, achieving point) of min over grid-y of max over grid-z of g
    restricted to grid points feasible at D2_TOL, the box included (explicit
    bounds may reach past it); (+inf, None) when no grid point is feasible.

    The grid is evaluated open, per chunk of at most _CHUNK points.  One
    C-order index runs over the rows of the lead axes (the y axes, then as
    many leading z axes as a row's remaining z points need to fit in a
    chunk), and a chunk takes whole rows, crossing y slices as it may.
    Dimension 0 holds the chunk's rows and each remaining z axis a dimension
    of its own: each x coordinate as a (1, 1, ..., 1) array, the lead
    coordinates as (rows, 1, ..., 1) arrays built from the chunk's own
    indices, and remaining z axis j as its linspace of length resolution at
    position 1 + j.  So no batch call exceeds a chunk, and a subexpression is
    computed on the axes it reads: one of x alone once per chunk, one of x
    and the lead axes once per row, one of a remaining z axis once per point
    of that axis.  Each row keeps its largest feasible g and the first z
    reaching it, and a y slice the first of its rows reaching their maximum:
    the first z in C order.  Only the achieving point is built as a vector."""
    part = form.partition
    if part.m1 + part.m2 > GRID_AXES:
        raise FormError(f"grid oracle supports m1 + m2 <= {GRID_AXES}, form has {part.m1 + part.m2}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if form.box.slice(range(part.n)).excess(x) > D2_TOL:
        return math.inf, None
    if grid.bounds is None:  # placed by the witness map's point, as an identity audit places it
        grid = replace(grid, bounds=tuple(_default_bounds(form, _witness_read(form, [x])[0][0])))
    bounds = grid.bounds
    if len(bounds) != part.m1 + part.m2:
        raise FormError(
            f"grid needs {part.m1 + part.m2} axis bounds, got {len(bounds)}"
        )
    axes = [np.linspace(lo, hi, grid.resolution) for lo, hi in bounds]
    r, m1, m2 = grid.resolution, part.m1, part.m2
    lead = m1  # the y axes, then the z axes a row needs to fit in a chunk
    while r ** (m1 + m2 - lead) > _CHUNK:
        lead += 1
    nrows, rows = r**lead, max(1, _CHUNK // r ** (m1 + m2 - lead))

    def coords(flat, ax):
        """The coordinates on axes ``ax`` of the C-order flat indices ``flat``."""
        idx = np.unravel_index(flat, (r,) * len(ax)) if ax else ()
        return [a[i] for a, i in zip(ax, idx)]

    # dimension 0 holds the chunk's rows, dimension 1 + j remaining z axis j
    col = (1,) * (m1 + m2 - lead)
    xs = list(x.reshape((-1, 1) + col))
    zs = [a.reshape((1,) + col[:j] + (r,) + col[j + 1 :]) for j, a in enumerate(axes[lead:])]
    # per row: max of g over its feasible z (-inf when there is none) and
    # the first z achieving it, in C order
    row_max = np.full(nrows, -math.inf)
    row_arg = np.zeros(nrows, dtype=np.intp)
    checks = [(gi, False) for gi in form.ineq] + [(hj, True) for hj in form.eq]
    # the box rule, at the grid points of each axis whose bounds reach past the box
    reach = [(i, form.box.slice([i])) for i, (lo, hi) in enumerate(bounds, part.n)
             if not form.box.lower[i] - D2_TOL <= lo <= hi <= form.box.upper[i] + D2_TOL]
    for s in range(0, nrows, rows):
        e = min(s + rows, nrows)
        pts = xs + [c.reshape((-1,) + col) for c in coords(np.arange(s, e), axes[:lead])] + zs
        feas = np.ones((e - s,) + (r,) * len(col), dtype=bool)
        for i, box in reach:
            feas &= box.excess(pts[i][..., None]) <= D2_TOL
        # per constraint, so a chunk stops at the first one leaving no point feasible
        for c, is_eq in checks:
            vals = c.value_batch(pts)
            feas &= (np.abs(vals) if is_eq else vals) <= D2_TOL  # NaN fails
            if not feas.any():
                break
        else:
            g = form.g.value_batch(pts).reshape(e - s, -1)
            g[np.isnan(g) | ~feas.reshape(g.shape)] = -math.inf
            row_arg[s:e] = g.argmax(axis=1)
            row_max[s:e] = g[np.arange(e - s), row_arg[s:e]]
    by_slice = row_max.reshape(r**m1, -1)  # the rows of each y slice
    slice_max = by_slice.max(axis=1)
    # a slice whose max is -inf has no feasible z; one whose max is +inf never wins
    slice_max[slice_max == -math.inf] = math.inf
    k = int(np.argmin(slice_max))
    if slice_max[k] == math.inf:
        return math.inf, None
    row = k * by_slice.shape[1] + int(by_slice[k].argmax())  # an earlier row keeps a tie
    point = [*x, *coords(row, axes[:lead]), *coords(row_arg[row], axes[lead:])]
    return float(slice_max[k]), np.array(point)


def grid_minmax(form: SaddleForm, x, grid: GridSpec | None = None) -> float:
    """Exhaustive grid value of the constrained min-max at ``x``.

    Returns +inf when no grid point is feasible.
    """
    return _grid_scan(form, x, grid or GridSpec())[0]


# ---------------------------------------------------------------------------
# identity audit


@dataclass(frozen=True)
class IdentityRow:
    x: np.ndarray
    reference: float
    witness_value: float  # NaN when the witness map is absent or errors out
    witness_feasible: bool
    witness_gap: float
    oracle: float
    oracle_gap: float
    allowance: float
    minmax_point: np.ndarray | None


@dataclass(frozen=True)
class IdentityAuditReport:
    form: str
    rows: tuple[IdentityRow, ...]
    classification: str
    counterexample: str


def _gradient_bound(form: SaddleForm, x, probe) -> np.ndarray:
    """Per-axis bound on the (y, z)-gradient of g at the point ``probe``
    whose discretization error matters (the oracle's achieved minmax point
    when available, else the witness); None probes the window midpoint."""
    n = form.partition.n
    if probe is None:
        lo, hi = form.effective_window()
        probe = np.concatenate([np.atleast_1d(x), (lo[n:] + hi[n:]) / 2.0])
    try:
        _, grad = form.g.value_grad(np.asarray(probe, dtype=float))
    except ExprError:
        return np.full(form.partition.m1 + form.partition.m2, 0.5)
    return np.maximum(0.5, np.abs(grad[n:]))


def identity_audit(
    form: SaddleForm,
    xs,
    grid: GridSpec | None = None,
    tol: float = 1e-2,
) -> IdentityAuditReport:
    """Audit the witness identity and the grid minmax identity on samples.

    A form passes the minmax check when |oracle - reference| <= tol + h*L at
    every sample, h the largest grid step and L a sampled gradient bound
    (grids cannot certify exact equality).
    """
    if form.reference is None:
        raise FormError("identity_audit needs a form with a reference evaluator")
    grid = grid or GridSpec()
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    points, mapped, values, refs, _, violation, error, _ = _witness_read(form, xs)
    rows = []
    for k, x in enumerate(xs):
        ref = float(refs[k])
        gx = grid
        if grid.bounds is None:
            gx = replace(grid, bounds=tuple(_default_bounds(form, points[k])))
        oracle, opoint = _grid_scan(form, x, gx)
        steps = np.array([(hi - lo) / (gx.resolution - 1) for lo, hi in gx.bounds])
        probe = opoint if opoint is not None else points[k] if mapped[k] else None
        with np.errstate(over="ignore"):  # inf where a far witness widened the grid
            allowance = float(steps @ _gradient_bound(form, x, probe)) if steps.size else 0.0
        ogap = abs(oracle - ref) if math.isfinite(oracle) else math.inf
        rows.append(
            IdentityRow(
                x=x,
                reference=ref,
                witness_value=float(values[k]),
                witness_feasible=bool(violation[k] <= D2_TOL),
                witness_gap=float(error[k]),
                oracle=oracle,
                oracle_gap=ogap,
                allowance=allowance,
                minmax_point=opoint,
            )
        )
    if not rows:
        raise ValueError("identity_audit needs at least one sample")
    d2_ok = all(r.witness_gap <= D2_TOL for r in rows)
    d3_ok = all(r.oracle_gap <= tol + r.allowance for r in rows)
    if d2_ok and d3_ok:
        classification = CLASS_VERIFIED
        counterexample = ""
    elif d2_ok:
        classification = CLASS_D2_ONLY
        worst = max(rows, key=lambda r: (0 if math.isfinite(r.oracle_gap) else 1, r.oracle_gap))
        pt = "none" if worst.minmax_point is None else _fmt_vec(worst.minmax_point)
        counterexample = (
            f"x={_fmt_vec(worst.x)} oracle={worst.oracle:.6g} "
            f"ref={worst.reference:.6g} minmax_point={pt}"
        )
    else:
        classification = CLASS_FAILED
        worst = max(rows, key=lambda r: (0 if math.isfinite(r.witness_gap) else 1, r.witness_gap))
        counterexample = (
            f"x={_fmt_vec(worst.x)} witness_gap={worst.witness_gap:.6g} "
            f"feasible={worst.witness_feasible}"
        )
    return IdentityAuditReport(form.name, tuple(rows), classification, counterexample)


def _fmt_vec(v) -> str:
    return "[" + " ".join(f"{float(t):.6g}" for t in np.atleast_1d(v)) + "]"


# ---------------------------------------------------------------------------
# known-issues registry


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    classification: str
    counterexample: str
    date: str

    def line(self) -> str:
        return f"{self.name}, {self.classification}, {self.counterexample}, {self.date}"


def parse_registry_line(line: str) -> RegistryEntry | None:
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    head, _, rest = line.partition(", ")
    cls, _, rest = rest.partition(", ")
    counterexample, _, date = rest.rpartition(", ")
    if not (head and cls and date):
        raise ValueError(f"malformed registry line: {line!r}")
    return RegistryEntry(head, cls, counterexample, date)


def load_registry(path=None) -> dict[str, RegistryEntry]:
    """Registry entries by form name; defaults to the packaged file."""
    if path is None:
        from importlib.resources import files

        text = files("saddlelift").joinpath("known_issues.txt").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = {}
    for line in text.splitlines():
        entry = parse_registry_line(line)
        if entry is not None:
            entries[entry.name] = entry
    return entries


# ---------------------------------------------------------------------------
# registry sweep: the fixed audit procedure behind the shipped registry

SWEEP_SAMPLES = 6
SWEEP_TOL = 0.05
SWEEP_DATE = "2026-08-09"


def sweep_resolution(form: SaddleForm) -> int:
    axes = form.partition.m1 + form.partition.m2
    if axes <= 2:
        return 41
    if axes == 3:
        return 25
    return 13


def _audited(form: SaddleForm) -> SaddleForm | None:
    """The form the grid oracle audits for ``form``: itself within reach, else
    the ``audit_params`` instance of the catalog family of its name, or None."""
    if form.partition.m1 + form.partition.m2 <= GRID_AXES:
        return form
    entry = CATALOG.get(form.name)
    if entry is None or entry.audit_params is None:
        return None
    return entry.build(**entry.audit_params)


def _audit(form: SaddleForm, seed: int, samples: int, resolution, tol: float):
    """The audit of ``form`` on ``samples`` x's from ``seed``, as (the form
    whose rows the report holds, the report): the identity audit of the form
    :func:`_audited` gives, at ``resolution(that form)`` points per axis.
    Where that is another form or none, ``form``'s own witness identity is
    checked first, and where it breaks a failed report without rows stands
    for ``form`` (an audit instance speaks only for the minmax identity);
    the report is None where nothing is left to audit."""
    audited = _audited(form)
    if audited is not form:
        worst, worst_x = witness_check(form, form.sample_x(np.random.default_rng(seed), samples))
        if worst > D2_TOL:
            broken = f"x={_fmt_vec(worst_x)} witness_gap={worst:.6g}"
            return form, IdentityAuditReport(form.name, (), CLASS_FAILED, broken)
        if audited is None:
            return form, None
    xs = audited.sample_x(np.random.default_rng(seed), samples)
    return audited, identity_audit(audited, xs, GridSpec(resolution(audited)), tol)


def registry_sweep(forms) -> dict[str, RegistryEntry]:
    """Classify forms with fixed audit parameters (x sampled from seed 0);
    divergent ones get entries.

    Each form with a reference gets one :func:`_audit` at
    :func:`sweep_resolution`.  The shipped known_issues.txt is exactly this
    sweep's output over the default catalog suite, and tests re-run it to
    keep the file honest.
    """
    entries: dict[str, RegistryEntry] = {}
    for form in forms:
        if form.reference is None:
            continue
        report = _audit(form, 0, SWEEP_SAMPLES, sweep_resolution, SWEEP_TOL)[1]
        if report is not None and report.classification != CLASS_VERIFIED:
            found = report.classification, report.counterexample
            entries[form.name] = RegistryEntry(form.name, *found, SWEEP_DATE)
    return entries
