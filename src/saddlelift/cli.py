"""Command-line front end: problem files in, traces and reports out.

A problem file is a JSON document:

    {
      "problem": {"catalog": "abs_power", "params": {...}}
               | {"structured": "quadratic", "data": {...}}
               | {"inline": {"name": ..., "partition": [n, m1, m2],
                             "lower": [...], "upper": [...],
                             "g": "<expr>", "ineq": [...], "eq": [...]}},
      "solver": { ... optional SolverParams fields ... },
      "start":  [ ... optional full start vector ... ]
    }

"catalog" and "structured" name an entry of the one catalog table alike.
Expressions use the text grammar, e.g. "(+ (sq (aff x0 1 0)) (neg z0))".
Box bounds use null for an unbounded end.  Every float printed by the CLI
carries 9 significant digits, and solve output and trace files are
byte-identical across runs: a solve draws no random numbers.

Exit codes: 0 success, 1 usage or parse errors, 2 infeasible / failed
results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import catalog as cat
from . import expr as ex
from .audit import CLASS_FAILED, GRID_AXES, _audit, load_registry
from .forms import (
    Box,
    FormError,
    SaddleForm,
    VarPartition,
    witness_report,
)
from .solver import (
    SolverParams,
    alternating_penalty_solve,
    kkt_residual,
    trace_to_csv,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _round_floats(obj):
    """Clamp every float to 9 significant digits; non-finite becomes None."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):  # an array's entries are floats
        return [_round_floats(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_round_floats(obj), sort_keys=True))


def _x_resolver(name: str) -> int:
    if name.startswith("x") and name[1:].isdigit():
        return int(name[1:])
    raise KeyError(name)


_EXPR_FIELDS = ("q", "d", "c", "b")


def _parse_expr_fields(fields) -> dict:
    """A copy of ``fields`` with the string values of _EXPR_FIELDS parsed."""
    out = dict(fields)
    for key in _EXPR_FIELDS:
        if isinstance(out.get(key), str):
            out[key] = ex.parse_sexpr(out[key], _x_resolver)
    return out


def load_form(doc: dict) -> SaddleForm:
    prob = doc.get("problem")
    if not isinstance(prob, dict):
        raise CliError("problem file needs a 'problem' object")
    for key, fields in (("catalog", "params"), ("structured", "data")):
        if key in prob:  # two spellings of one catalog lookup
            if prob[key] not in cat.CATALOG:
                raise CliError(f"unknown catalog id: {prob[key]}")
            return cat.make_catalog_form(prob[key], **_parse_expr_fields(prob.get(fields, {})))
    if "inline" in prob:
        return inline_form(prob["inline"])
    raise CliError("'problem' must contain 'catalog', 'structured', or 'inline'")


def inline_form(doc: dict) -> SaddleForm:
    try:
        n, m1, m2 = (int(v) for v in doc["partition"])
    except (KeyError, ValueError, TypeError):
        raise CliError("inline form needs 'partition': [n, m1, m2]")
    part = VarPartition(n, m1, m2)

    def bounds(key: str, default: float) -> tuple[float, ...]:
        vals = doc.get(key)
        if vals is None:
            return (default,) * part.total
        if len(vals) != part.total:
            raise CliError(f"'{key}' must have {part.total} entries")
        return tuple(default if v is None else float(v) for v in vals)

    box = Box(bounds("lower", -math.inf), bounds("upper", math.inf))
    g = ex.parse_sexpr(doc["g"], part.index_of)
    ineq = tuple(ex.parse_sexpr(s, part.index_of) for s in doc.get("ineq", []))
    eq = tuple(ex.parse_sexpr(s, part.index_of) for s in doc.get("eq", []))
    window = None
    if "window_lower" in doc or "window_upper" in doc:
        window = Box(bounds("window_lower", -math.inf), bounds("window_upper", math.inf))
    return SaddleForm(
        name=str(doc.get("name", "inline")),
        partition=part,
        box=box,
        g=g,
        ineq=ineq,
        eq=eq,
        window=window,
    )


def form_to_inline(form: SaddleForm) -> dict:
    """Serialize the structural part of a form (round-trips via inline_form)."""
    part = form.partition

    def bounds_or_null(vals):
        return [None if not math.isfinite(v) else v for v in vals]

    doc = {
        "name": form.name,
        "partition": [part.n, part.m1, part.m2],
        "lower": bounds_or_null(form.box.lower),
        "upper": bounds_or_null(form.box.upper),
        "g": ex.to_sexpr(form.g, part.name_of),
        "ineq": [ex.to_sexpr(e, part.name_of) for e in form.ineq],
        "eq": [ex.to_sexpr(e, part.name_of) for e in form.eq],
    }
    if form.window is not None:
        doc["window_lower"] = bounds_or_null(form.window.lower)
        doc["window_upper"] = bounds_or_null(form.window.upper)
    return doc


def load_problem_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise CliError(f"parse error in {path}: {err.msg} (line {err.lineno}, column {err.colno})")
    if not isinstance(doc, dict):
        raise CliError(f"{path} must hold a JSON object")
    try:
        form = load_form(doc)
    except ex.ParseError as err:
        raise CliError(f"parse error in {path}: {err}")
    except FormError as err:
        raise CliError(f"bad form in {path}: {err}")
    except (KeyError, TypeError, ValueError) as err:
        # a missing field, a wrong type or an unknown parameter in the file
        raise CliError(f"bad form in {path}: {type(err).__name__}: {err}")
    try:
        params = SolverParams(**doc.get("solver", {}))
    except (TypeError, ValueError) as err:
        raise CliError(f"bad solver parameters: {err}")
    start = doc.get("start")
    if start is not None:
        try:
            start = np.asarray(start, dtype=float)
        except (TypeError, ValueError):
            raise CliError(f"start vector must be a list of numbers, got {start!r}")
        if start.shape != (form.partition.total,):
            raise CliError(
                f"start vector must have length {form.partition.total}, got {start.size}"
            )
        if np.isnan(start).any():  # an infinite entry is clipped to the box
            raise CliError(f"start vector must not hold NaN, got {start.tolist()}")
    return form, params, start


def _parse_vector(text: str, expected: int, what: str) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise CliError(f"could not parse {what}: {text!r}")
    if vals.size != expected:
        raise CliError(f"{what} must have {expected} entries, got {vals.size}")
    return vals


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    form, params, start = load_problem_file(args.file)
    try:
        result = alternating_penalty_solve(form, params, start=start, seed=args.seed)
    except (ex.ExprError, ValueError) as err:  # off the domain, at a kink, or a non-finite start
        _emit({"form": form.name, "error": str(err)})
        return 2
    p = result.point
    summary = {
        "form": form.name,
        "status": result.status,
        "x": p.x,
        "y": p.y,
        "z": p.z,
        "f_ref": form.reference(p.x) if form.reference is not None else None,
        "outer_iterations": len(result.trace),
        "rho_final": result.trace[-1].rho if result.trace else None,
        "violation": result.trace[-1].violation if result.trace else None,
        "eps": params.eps,
        "diagnostic": result.diagnostic,
    }
    _emit(summary)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace_to_csv(result.trace))
    return 0 if result.converged else 2


# the fields of an IdentityRow that an audit row prints
_AUDIT_ROW_FIELDS = ("x", "reference", "witness_value", "witness_feasible", "oracle", "allowance")


def cmd_audit(args) -> int:
    if args.grid < 2:
        raise CliError(f"--grid must be >= 2, got {args.grid}")
    if args.samples < 1:
        raise CliError(f"--samples must be >= 1, got {args.samples}")
    if not 0.0 <= args.tol < math.inf:  # NaN fails too
        raise CliError(f"--tol must be a finite number >= 0, got {args.tol}")
    form, _, _ = load_problem_file(args.file)
    if form.reference is None:
        raise CliError("audit needs a problem with a reference evaluator", 2)
    try:
        audited, report = _audit(form, args.seed, args.samples, lambda _: args.grid, args.tol)
    except ValueError as err:  # a grid the default placement cannot scan
        raise CliError(f"cannot place the audit grid of {form.name}: {err}", 2)
    if report is None:  # beyond the grid, and its family names no audit instance
        raise CliError(f"cannot audit {form.name}: grid oracle supports m1 + m2 <= {GRID_AXES}", 2)
    listed = load_registry().get(form.name)
    _emit(
        {
            "form": report.form,
            "partition": dataclasses.astuple(audited.partition),
            "classification": report.classification,
            "counterexample": report.counterexample,
            "samples": args.samples,
            "grid_resolution": args.grid,
            "tol": args.tol,
            "registry": listed.classification if listed else None,
            "rows": [{k: getattr(r, k) for k in _AUDIT_ROW_FIELDS} for r in report.rows],
        }
    )
    return 0 if report.classification != CLASS_FAILED else 2


def cmd_kkt(args) -> int:
    if not 0.0 <= args.feas_tol < math.inf:  # NaN fails too
        raise CliError(f"--feas-tol must be a finite number >= 0, got {args.feas_tol}")
    form, _, _ = load_problem_file(args.file)
    p = _parse_vector(args.point, form.partition.total, "--point")
    s, r = len(form.ineq), len(form.eq)
    alpha = _parse_vector(args.alpha, s + r, "--alpha") if args.alpha else None
    beta = _parse_vector(args.beta, s + r, "--beta") if args.beta else None
    try:
        report = kkt_residual(form, p, alpha=alpha, beta=beta, feas_tol=args.feas_tol)
    except (ex.ExprError, FormError) as err:  # infeasible, outside the domain, or at a kink
        _emit({"form": form.name, "error": str(err)})
        return 2
    _emit({"form": form.name, **dataclasses.asdict(report)})
    return 0


def cmd_witness(args) -> int:
    form, _, _ = load_problem_file(args.file)
    x = _parse_vector(args.x, form.partition.n, "--x")
    try:
        report = witness_report(form, x, check=True)
    except (ex.ExprError, FormError) as err:
        # no witness, one that breaks the identity or overflows, or g outside its domain
        _emit({"form": form.name, "error": str(err)})
        return 2
    p = report.point
    out = {
        "form": form.name,
        "x": p.x,
        "y": p.y,
        "z": p.z,
        "g_value": report.value,
        "reference": report.reference,
        "max_violation": report.violation,
        "feasible": report.feasible,
    }
    if report.gap is not None:
        out["witness_gap"] = report.gap
    _emit(out)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        registry = load_registry()
        for name in cat.list_catalog():
            d = cat.describe(name)
            flag = " [known-issues]" if name in registry else ""
            print(
                f"{name}: {d['summary']}  partition={d['partition']} "
                f"ineq={d['inequalities']} eq={d['equalities']}{flag}"
            )
        return 0
    if not args.id:  # argparse's choices leave "describe"
        raise CliError("catalog describe needs an id")
    try:
        _emit(cat.describe(args.id))
    except KeyError:
        raise CliError(f"unknown catalog id: {args.id}")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # "-1,1,1" and "-1e-3" are values

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saddlelift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the alternating penalty solver")
    p.add_argument("file")
    p.add_argument("--trace", help="write the iteration trace CSV here")
    p.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: a solve draws no random numbers"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="grid-oracle audit of the form identities")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=201, help="grid resolution per axis (>= 2)")
    p.add_argument("--samples", type=int, default=5, help="sampled x points (>= 1)")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled x points")
    p.add_argument("--tol", type=float, default=1e-2)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("kkt", help="stationarity residuals at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated full vector")
    p.add_argument("--alpha", help="use these multipliers instead of estimating")
    p.add_argument("--beta", help="use these multipliers instead of estimating")
    p.add_argument("--feas-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_kkt)

    p = sub.add_parser("witness", help="evaluate and check the witness map")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="comma-separated x vector")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("catalog", help="list or describe catalog entries")
    p.add_argument("action", choices=["list", "describe"])
    p.add_argument("id", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
