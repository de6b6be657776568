"""Command-line interface: subcommands, exit codes, round trips, determinism."""

import dataclasses
import hashlib
import inspect
import json
import math
from pathlib import Path

import pytest

from saddlelift import audit, cli
from saddlelift import expr as ex
from saddlelift.audit import GridSpec, identity_audit
from saddlelift.catalog import CATALOG, default_suite, make_catalog_form, make_structured
from saddlelift.solver import SolverParams, kkt_residual

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _write(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _dc_problem():
    return {
        "problem": {
            "catalog": "dc",
            "params": {"d": "(tag convex (* 2 (sq x0)))", "c": "(sq x0)", "n": 1},
        },
        "solver": {"max_outer": 15},
        "start": [2.0, 0.0],
    }


def test_load_form_parses_expression_strings_of_catalog_and_structured_forms():
    doc = _dc_problem()
    assert cli.load_form(doc).g == make_catalog_form(
        "dc", d=ex.scale(ex.square(ex.var(0)), 2.0), c=ex.square(ex.var(0)), n=1
    ).g
    data = {"q": "(sq (aff x0 1 -1))", "lam": 2.0, "n": 1}
    form = cli.load_form({"problem": {"structured": "sparse_l0", "data": data}})
    want = make_structured("sparse_l0", {"q": ex.square(ex.affine([(0, 1.0)], -1.0)), "lam": 2.0, "n": 1})
    assert (form.g, form.ineq, form.eq) == (want.g, want.ineq, want.eq)
    assert data["q"] == "(sq (aff x0 1 -1))"  # the document is not modified


def test_solve_dc(tmp_path, capsys):
    path = _write(tmp_path, _dc_problem())
    trace = str(tmp_path / "trace.csv")
    code = cli.main(["solve", path, "--trace", trace, "--seed", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "eps_feasible_converged"
    assert abs(out["f_ref"]) <= 1e-2
    lines = Path(trace).read_text().strip().splitlines()
    assert lines[0] == "k,rho,F,G,P,step_norm,f_ref"


def test_solve_shipped_problem_file(capsys):
    code = cli.main(["solve", str(PROBLEMS / "ex41.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "eps_feasible_converged"


def test_solve_flagship_file(capsys):
    code = cli.main(["solve", str(PROBLEMS / "p51_n5.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "eps_feasible_converged"
    assert abs(out["f_ref"]) <= 1e-2


def test_solve_exit_code_on_nonconverged(tmp_path, capsys):
    doc = _dc_problem()
    doc["solver"] = {"max_outer": 1, "eps": 1e-15}
    path = _write(tmp_path, doc)
    code = cli.main(["solve", path])
    capsys.readouterr()
    assert code == 2


def test_kkt_known_multipliers(capsys):
    code = cli.main(
        ["kkt", str(PROBLEMS / "ex41.json"), "--point", "0,0,0",
         "--alpha", "1,1,1", "--beta", "1,1,1"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["stationarity_residual_xy"] == 0.0
    assert out["stationarity_residual_z"] == 0.0
    assert out["alpha"] == [1.0, 1.0, 1.0]


def test_kkt_infeasible_point(capsys):
    code = cli.main(["kkt", str(PROBLEMS / "ex41.json"), "--point", "1,1,0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "error" in out


def test_witness_command(capsys):
    code = cli.main(["witness", str(PROBLEMS / "ex41.json"), "--x", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["y"] == [2.0] and out["z"] == [16.0]
    assert out["witness_gap"] == 0.0


def test_witness_failure_exit_code(tmp_path, capsys):
    doc = {"problem": {"catalog": "sigmoid"}}
    path = _write(tmp_path, doc)
    code = cli.main(["witness", path, "--x", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and "error" in out


def test_witness_overflow_is_an_error_line(tmp_path, capsys):
    # the l0 witness map squares x in Python floats: OverflowError at 1e160
    path = _write(tmp_path, {"problem": {"catalog": "l0_scalar_reg"}})
    code = cli.main(["witness", path, "--x", "1e160"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and "overflows" in out["error"]


@pytest.mark.parametrize("name", ["sin_0_pi", "sin_0_2pi", "cos_0_2pi"])
@pytest.mark.parametrize("x", ["inf", "-inf"])
def test_a_witness_outside_the_math_domain_is_an_error_line(tmp_path, capsys, name, x):
    # the witness map and the reference call Python's math at x, which ended
    # the command in a ValueError traceback
    path = _write(tmp_path, {"problem": {"catalog": name}})
    code = cli.main(["witness", path, f"--x={x}"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and name in out["error"] and "math domain error" in out["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["kkt", "--point", "0,0,0,0,0,0"],
        # the witness map's own np.log(0) warns before g raises
        pytest.param(
            ["witness", "--x", "0,0"],
            marks=pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning"),
        ),
        ["solve"],  # from the default start, the origin
    ],
)
def test_point_outside_the_domain_is_an_error_line(tmp_path, capsys, argv):
    # entropy's g takes logs of x: at x = 0 it raises DomainEvalError
    path = _write(tmp_path, {"problem": {"catalog": "entropy"}})
    code = cli.main([argv[0], path, *argv[1:]])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["form"] == "entropy" and "log of non-positive value" in out["error"]


@pytest.mark.parametrize("start", [[1e160, 0.0, 1e300], [float("inf"), 0.0, 0.0]])
def test_start_where_the_penalty_is_not_finite_is_an_error_line(tmp_path, capsys, start):
    # a failed solve, not a malformed file: it used to end in a ValueError traceback
    doc = json.loads((PROBLEMS / "ex41.json").read_text())
    path = _write(tmp_path, {**doc, "start": start})
    code = cli.main(["solve", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["form"] == "abs_power" and "not finite at the start point (inf)" in out["error"]


def test_start_entry_the_box_clips_may_be_infinite(tmp_path, capsys):
    # abs_power's y0 has lower bound 0, so -inf there starts at 0
    doc = json.loads((PROBLEMS / "ex41.json").read_text())
    assert cli.main(["solve", _write(tmp_path, {**doc, "start": [0.5, float("-inf"), 1.0]})]) == 0
    clipped = capsys.readouterr().out
    assert cli.main(["solve", _write(tmp_path, {**doc, "start": [0.5, 0.0, 1.0]})]) == 0
    assert capsys.readouterr().out == clipped


def test_catalog_list_and_describe(capsys):
    assert cli.main(["catalog", "list"]) == 0
    text = capsys.readouterr().out
    assert "abs_power" in text and "maxabs_minus_sum" in text
    assert cli.main(["catalog", "describe", "abs_power"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["partition"] == [1, 1, 1]


def test_catalog_covers_the_structured_families(capsys):
    # a problem file could name "structured": "quadratic", but the catalog
    # command listed 23 families and `describe quadratic` exited 1
    assert cli.main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 28
    assert sorted(line.split(":")[0] for line in lines) == sorted(f.name for f in default_suite())
    assert cli.main(["catalog", "describe", "quadratic"]) == 0
    assert json.loads(capsys.readouterr().out)["partition"] == [2, 0, 2]
    assert cli.main(["catalog", "describe", "nope"]) == 1
    assert capsys.readouterr().err == "error: unknown catalog id: nope\n"
    assert cli.main(["catalog", "describe"]) == 1
    assert capsys.readouterr().err == "error: catalog describe needs an id\n"


@pytest.mark.parametrize("key, fields", [("catalog", "params"), ("structured", "data")])
def test_both_problem_keys_name_any_catalog_family(key, fields):
    data = {"A": [[0.0, 1.0], [1.0, 0.0]], "c": [0.0, 0.0]}
    form = cli.load_form({"problem": {key: "quadratic", fields: data}})
    assert form.g == make_catalog_form("quadratic", **data).g
    assert cli.load_form({"problem": {key: "abs_power"}}).g == make_catalog_form("abs_power").g
    with pytest.raises(cli.CliError, match="unknown catalog id: nope"):
        cli.load_form({"problem": {key: "nope"}})


def test_audit_command(tmp_path, capsys):
    path = _write(tmp_path, _dc_problem())
    code = cli.main(["audit", path, "--grid", "501", "--samples", "4", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["classification"] == "d2-and-d3-verified"


def test_audit_of_a_reference_outside_its_domain_fails(tmp_path, capsys):
    # d = -log x0 has no value at the sampled x < 0, in g or in the
    # reference: the audit ended in a DomainEvalError traceback (exit 1)
    doc = {"problem": {"catalog": "dc", "params": {"d": "(tag convex (neg (log x0)))"}}}
    code = cli.main(["audit", _write(tmp_path, doc), "--grid", "11", "--samples", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["classification"] == "failed"
    raised = [row for row in out["rows"] if row["x"][0] < 0.0]
    assert raised and all(row["reference"] is None and not row["witness_feasible"] for row in raised)


def test_audit_reaches_the_flagship_through_its_audit_instance(capsys):
    # m1 + m2 = 11 at n = 5: the audit exited 2 with "cannot audit", while the
    # registry sweep audits the n = 1 instance and lists the family d2-only
    argv = ["audit", str(PROBLEMS / "p51_n5.json"), "--grid", "11", "--samples", "2"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["form"] == "maxabs_minus_sum" and out["partition"] == [1, 2, 1]
    assert out["classification"] == out["registry"] == "d2-only"
    assert all(len(row["x"]) == 1 for row in out["rows"])


def test_audit_checks_the_witness_of_a_form_it_audits_through_an_instance(monkeypatch, capsys):
    # the n = 1 instance's clean witness rows stood for a flagship whose own
    # witness identity breaks, and the audit exited 0 with d2-only
    load = cli.load_problem_file
    broken = dataclasses.replace(make_catalog_form("maxabs_minus_sum", n=5), reference=lambda x: 123.0)
    monkeypatch.setattr(cli, "load_problem_file", lambda path: (broken, *load(path)[1:]))
    argv = ["audit", str(PROBLEMS / "p51_n5.json"), "--grid", "11", "--samples", "2"]
    assert cli.main(argv) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["form"] == "maxabs_minus_sum" and out["partition"] == list(dataclasses.astuple(broken.partition))
    assert out["classification"] == "failed" and "witness_gap=" in out["counterexample"]
    assert out["registry"] == "d2-only" and out["samples"] == 2 and out["rows"] == []


def test_a_boolean_outer_iteration_count_is_rejected(tmp_path, capsys):
    # json's true passed as an int, and the solve ran one outer iteration
    with pytest.raises(ValueError, match="max_outer must be an integer >= 0"):
        SolverParams(max_outer=True)
    path = _write(tmp_path, {**_dc_problem(), "solver": {"max_outer": True}})
    assert cli.main(["solve", path]) == 1
    assert "error: bad solver parameters: max_outer" in capsys.readouterr().err


def test_the_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    audit_args = parser.parse_args(["audit", "p.json"])
    assert audit_args.grid == GridSpec().resolution
    assert audit_args.tol == inspect.signature(identity_audit).parameters["tol"].default
    kkt_args = parser.parse_args(["kkt", "p.json", "--point", "0"])
    assert kkt_args.feas_tol == inspect.signature(kkt_residual).parameters["feas_tol"].default


def test_non_finite_floats_print_as_null(capsys):
    cli._emit({"a": math.inf, "b": [math.nan, -math.inf, 1.0]})
    assert capsys.readouterr().out == '{"a": null, "b": [null, null, 1.0]}\n'


@pytest.mark.parametrize(
    "argv, code, words",
    [
        # argparse read a value starting "-1," or "-1e" as an option and exited 1
        # with "expected one argument"; only --point=-1,1,1 worked
        (["kkt", "--point", "-1,1,1"], 0, '"form": "abs_power"'),
        (["witness", "--x", "-1e-3"], 0, '"y": [0.0316227766]'),
        (["kkt", "--point", "0,a,0"], 1, "could not parse --point: '0,a,0'"),
        (["witness", "--x", "1,2"], 1, "--x must have 1 entries, got 2"),
    ],
)
def test_vector_arguments(capsys, argv, code, words):
    assert cli.main([argv[0], str(PROBLEMS / "ex41.json"), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert words in (captured.out if code == 0 else captured.err)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


_UNAUDITABLE = {
    # m1 + m2 = 5, beyond the grid, a clean witness and no audit instance
    "relu_b": {"problem": {"catalog": "relu_b"}},
    # no reference evaluator to audit against
    "inline": {"problem": {"inline": {"partition": [1, 0, 0], "g": "(sq x0)"}}},
}


@pytest.mark.parametrize(
    "problem, args, code",
    [
        (None, ["--grid", "1"], 1),
        (None, ["--samples", "0"], 1),
        (None, ["--samples", "-3"], 1),
        ("relu_b", ["--grid", "11", "--samples", "1"], 2),
        # a NaN, negative or infinite tolerance gave a verdict with exit 0
        (None, ["--tol", "nan"], 1),
        (None, ["--tol", "-1"], 1),
        (None, ["--tol", "inf"], 1),
        ("inline", [], 2),
    ],
)
def test_audit_rejects_what_it_cannot_audit(tmp_path, capsys, problem, args, code):
    # a degenerate grid or sample count, and a form beyond the grid with no
    # audit instance, used to end in a traceback (or, for --samples 0, in a
    # verdict from no rows)
    path = _write(tmp_path, _UNAUDITABLE[problem] if problem else _dc_problem())
    assert cli.main(["audit", path, *args]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_audit_of_a_window_that_misses_the_box_is_an_error(tmp_path, monkeypatch, capsys):
    # the window [5, 6] of y0 lies outside its box [0, 1]: the default grid
    # placement clipped it to the reversed bounds (5, 1), and the audit
    # printed a verdict from a grid with a negative step
    inline = {"partition": [1, 1, 0], "lower": [-1, 0], "upper": [1, 1], "g": "(sq y0)"}
    doc = {"problem": {"inline": {**inline, "window_lower": [-1, 5], "window_upper": [1, 6]}}}
    load = cli.load_problem_file
    with_reference = lambda path: (dataclasses.replace(load(path)[0], reference=lambda x: 0.0), *load(path)[1:])
    monkeypatch.setattr(cli, "load_problem_file", with_reference)
    assert cli.main(["audit", _write(tmp_path, doc), "--grid", "11", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot place the audit grid of inline: grid bounds must have lo <= hi")
    assert captured.out == ""


_REGISTRY = audit.load_registry()


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_the_audit_command_reproduces_each_registry_line(tmp_path, capsys, name):
    # l01_svm and geometric_poly, beyond the grid with a broken witness and no
    # audit instance, exited 2 with "cannot audit" though the sweep lists them failed
    params = {k: ex.to_sexpr(v, lambda i: f"x{i}") if isinstance(v, ex.Expr) else v
              for k, v in CATALOG[name].suite.items()}
    path = _write(tmp_path, {"problem": {"catalog": name, "params": params}})
    form = cli.load_problem_file(path)[0]
    grid = audit.sweep_resolution(audit._audited(form) or form)
    sweep = ["--samples", str(audit.SWEEP_SAMPLES), "--tol", str(audit.SWEEP_TOL), "--grid", str(grid)]
    argv = ["audit", path, "--seed", "0", *sweep]
    entry = _REGISTRY[name]
    assert cli.main(argv) == (2 if entry.classification == audit.CLASS_FAILED else 0)
    out = json.loads(capsys.readouterr().out)
    assert (out["classification"], out["counterexample"]) == (entry.classification, entry.counterexample)
    assert out["registry"] == entry.classification


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_kkt_rejects_a_bad_feasibility_tolerance(capsys, tol):
    # NaN and -1 read every point as infeasible: "needs a feasible point;
    # max violation 0.000e+00", exit 2
    argv = ["kkt", str(PROBLEMS / "ex41.json"), "--point", "0,0,0", "--feas-tol", tol]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "--feas-tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "solver",
    [{"z_trust": 1e4}, {"inner": {"armijo": 1e-4}}, {"inner": [1]}, {"inner": {"restarts": 2}}],
)
def test_bad_solver_parameters_exit_one(tmp_path, capsys, solver):
    path = _write(tmp_path, {**_dc_problem(), "solver": solver})
    assert cli.main(["solve", path]) == 1
    assert "error: bad solver parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver", [{"eps": float("nan"), "theta": float("nan")}, {"max_outer": float("nan")}]
)
def test_nan_solver_parameters_exit_one(tmp_path, capsys, solver):
    # json reads NaN; the checks used to pass it, and the solve exited 0 or
    # (for max_outer) ended in a TypeError traceback
    path = _write(tmp_path, {**_dc_problem(), "solver": solver})
    assert "NaN" in Path(path).read_text()
    assert cli.main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert "error: bad solver parameters" in captured.err
    assert captured.out == ""


_INLINE = {"partition": [1, 0, 0], "g": "(sq x0)"}
_NAN = float("nan")


@pytest.mark.parametrize(
    "doc, words",
    [
        ([1], "must hold a JSON object"),
        ({"problem": {"inline": {"partition": [1, 0, 0]}}}, "bad form"),
        ({"problem": {"inline": {**_INLINE, "lower": 5}}}, "bad form"),
        ({"problem": {"catalog": "pow_a", "params": {"b": 1}}}, "bad form"),
        ({"problem": {"catalog": "pow_a", "params": [1]}}, "bad form"),
        ({"problem": {"catalog": "l0_scalar_reg", "params": {"lam": "x"}}}, "bad form"),
        ({"problem": {"structured": "quadratic", "data": {"A": [[1]]}}}, "bad form"),
        ({**_dc_problem(), "start": "abc"}, "start vector"),
        ({**_dc_problem(), "start": [1, "x", 2]}, "start vector"),
        ({"problem": {"structured": "quadratic", "data": {"A": 1.0, "c": [0.0]}}}, "bad form"),
        ({"problem": {"catalog": "dc", "params": {"d": 1}}}, "bad form"),
        (
            {"problem": {"structured": "sparse_l0", "data": {"q": [1], "lam": 1.0, "n": 1}}},
            "bad form",
        ),
        ({"problem": {"inline": {**_INLINE, "g": "(pow x0 2.5)"}}}, "integer exponent, found '2.5'"),
        ({"problem": {"inline": {**_INLINE, "g": "(pow x0 inf)"}}}, "integer exponent, found 'inf'"),
        ({"problem": {"catalog": "pow_a_2n", "params": {"n2": 1.25}}}, "integer n2"),
        ({**_dc_problem(), "start": [2.0, float("nan")]}, "start vector"),
        ({"problem": {"inline": {**_INLINE, "lower": [float("nan")]}}}, "bad form"),
        # NaN parameters and data built forms, and the solve exited 2 with a
        # misleading witness-identity line
        ({"problem": {"catalog": "l0_scalar_reg", "params": {"lam": _NAN}}}, "lam must be finite"),
        ({"problem": {"catalog": "abs_half_reg", "params": {"lam": _NAN}}}, "lam must be finite"),
        (
            {"problem": {"structured": "quadratic", "data": {"A": [[_NAN]], "c": [0.0]}}},
            "A must be finite",
        ),
        (
            {"problem": {"structured": "l01_svm", "data": {"A": [[1.0]], "d": [1.0], "C": _NAN}}},
            "C must be finite",
        ),
        (
            {"problem": {"structured": "geometric_poly", "data": {"a": [_NAN], "alpha": [[1.0]]}}},
            "a must be finite",
        ),
        # a size n that is not an integral number ended in a TypeError
        ({"problem": {"catalog": "maxabs_minus_sum", "params": {"n": 2.5}}}, "integer n >= 1"),
        ({"problem": {"catalog": "maxabs_minus_sum", "params": {"n": "2"}}}, "integer n >= 1"),
        ({"problem": {"catalog": "entropy", "params": {"n": _NAN}}}, "integer n >= 1"),
        ({"problem": {"catalog": "relu_convex", "params": {"n": 1.5}}}, "integer n >= 1"),
        (
            {"problem": {"structured": "sparse_l0", "data": {"q": "(sq x0)", "lam": 1, "n": 2.5}}},
            "integer n >= 1",
        ),
        ({"solver": {}}, "problem file needs a 'problem' object"),
        ({"problem": {"expr": "(sq x0)"}}, "'problem' must contain 'catalog'"),
        ({"problem": {"inline": {"g": "(sq x0)"}}}, "inline form needs 'partition'"),
        ({"problem": {"inline": {**_INLINE, "upper": [1.0, 2.0]}}}, "'upper' must have 1 entries"),
        ({**_dc_problem(), "start": [2.0]}, "start vector must have length 2, got 1"),
    ],
)
def test_malformed_problem_file_exits_one(tmp_path, capsys, doc, words):
    path = _write(tmp_path, doc)
    assert cli.main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err


def test_expression_parse_error_carries_position(tmp_path, capsys):
    doc = {
        "problem": {
            "inline": {
                "name": "broken",
                "partition": [1, 0, 0],
                "g": "(sq nope)",
            }
        }
    }
    path = _write(tmp_path, doc)
    assert cli.main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert "nope" in err


def test_a_structured_field_reads_only_x(tmp_path, capsys):
    # an expression field of a catalog family is a function of x alone
    doc = {"problem": {"structured": "dc", "data": {"c": "(sq y0)"}}}
    assert cli.main(["solve", _write(tmp_path, doc)]) == 1
    assert "unknown variable 'y0' (line 1, column 5)" in capsys.readouterr().err


def test_inline_round_trip():
    for form in default_suite():
        doc = cli.form_to_inline(form)
        back = cli.inline_form(doc)
        assert back.partition == form.partition, form.name
        assert back.box == form.box, form.name
        assert back.g == form.g, form.name
        assert back.ineq == form.ineq, form.name
        assert back.eq == form.eq, form.name
        if form.window is not None:
            assert back.window == form.window, form.name


def test_inline_solve(tmp_path, capsys):
    # the quartic lift written out inline, no witness/reference
    doc = {
        "problem": {
            "inline": {
                "name": "inline41",
                "partition": [1, 1, 1],
                "lower": [None, 0.0, 0.0],
                "upper": [None, None, None],
                "g": "(+ y0 (pow y0 4) (neg z0) (sq x0) (neg z0))",
                "ineq": ["(+ (pow y0 4) (neg z0))", "(+ (sq x0) (neg z0))", "(neg y0)"],
            }
        },
        "solver": {"max_outer": 12},
        "start": [0.4, 0.4, 0.5],
    }
    path = _write(tmp_path, doc)
    code = cli.main(["solve", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["f_ref"] is None


def test_byte_identical_reruns(tmp_path, capsys):
    path = _write(tmp_path, _dc_problem())
    outs, traces = [], []
    for run in range(2):
        trace = str(tmp_path / f"t{run}.csv")
        code = cli.main(["solve", path, "--trace", trace, "--seed", "7"])
        assert code == 0
        outs.append(capsys.readouterr().out)
        traces.append(Path(trace).read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


# Recorded before the witness report became a row of the bulk witness read:
# stdout and exit code of `saddlelift witness` on every catalog family's
# suite instance, each x coordinate set to one of these values.
_WITNESS_XS = (0.0, 0.5, -1.5, 2.0, 7.25, 1e-3, 1e160)
_WITNESS_SHA256 = "a3809763051390e58591123dad6ab943fc00e3cb3887c117b194a9c9ce279165"


def _suite_problem(entry):
    """The problem file of a catalog family's ``default_suite()`` instance."""
    params = {
        k: ex.to_sexpr(v, "x{}".format) if isinstance(v, ex.Expr) else v for k, v in entry.suite.items()
    }
    return {"problem": {"catalog": entry.name, "params": params}}


def test_witness_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    runs = 0
    for name, entry in CATALOG.items():
        path = _write(tmp_path, _suite_problem(entry), f"{name}.json")
        n = cli.load_problem_file(path)[0].partition.n
        for x in _WITNESS_XS:
            code = cli.main(["witness", path, "--x", ",".join([repr(x)] * n)])
            digest.update(f"{name}:{x!r}:{code}:{capsys.readouterr().out}".encode())
            runs += 1
    assert runs == 196
    assert digest.hexdigest() == _WITNESS_SHA256
