"""saddlelift: convex-concave saddle lifts of nonsmooth/nonconvex functions.

Build or pick a lifted form, verify its witness identity, solve it with the
alternating penalty loop, and audit the full minmax identity with a grid
oracle.  See the README for a tour.
"""

from . import algebra, audit, catalog, expr, penalty, solver
from .algebra import (
    HypothesisViolationError,
    compose_monotone_convex,
    power,
    product,
    reciprocal,
    scaled_sum,
)
from .audit import GridSpec, IdentityAuditReport, grid_minmax, identity_audit, load_registry
from .catalog import default_suite, list_catalog, make_catalog_form, make_structured
from .forms import (
    Box,
    FormError,
    SaddleForm,
    SaddlePoint,
    VarPartition,
    WitnessAbsentError,
    WitnessInfeasibleError,
    WitnessOverflowError,
    membership,
    validate_form,
    witness_eval,
)
from .penalty import (
    eps_feasible,
    penalty_f,
    penalty_f_theta,
    penalty_g,
    penalty_g2,
    penalty_g_theta,
    total_violation,
)
from .solver import (
    KktReport,
    SolverParams,
    SolveResult,
    alternating_penalty_solve,
    exactness_probe,
    inner_minimize,
    kkt_residual,
    stability_probe,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "FormError",
    "GridSpec",
    "HypothesisViolationError",
    "IdentityAuditReport",
    "KktReport",
    "SaddleForm",
    "SaddlePoint",
    "SolveResult",
    "SolverParams",
    "VarPartition",
    "WitnessAbsentError",
    "WitnessInfeasibleError",
    "WitnessOverflowError",
    "algebra",
    "alternating_penalty_solve",
    "audit",
    "catalog",
    "compose_monotone_convex",
    "default_suite",
    "eps_feasible",
    "exactness_probe",
    "expr",
    "grid_minmax",
    "identity_audit",
    "inner_minimize",
    "kkt_residual",
    "list_catalog",
    "load_registry",
    "make_catalog_form",
    "make_structured",
    "membership",
    "penalty",
    "penalty_f",
    "penalty_f_theta",
    "penalty_g",
    "penalty_g2",
    "penalty_g_theta",
    "power",
    "product",
    "reciprocal",
    "scaled_sum",
    "solver",
    "stability_probe",
    "total_violation",
    "validate_form",
    "witness_eval",
]
