"""Command-line front end: verbs, exit codes, text/json value agreement."""

import contextlib
import dataclasses
import io
import json
import math
import re

import pytest

import dxdy.cli
import dxdy.oracle
from dxdy import residues, roots
from dxdy.cli import _build_parser, main


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err
    return invoke


def run_json(invoke, *argv):
    status, out, err = invoke(*argv, "--json")
    assert status == 0, err
    return json.loads(out)


def test_integrate_line_reference_value(run):
    status, out, _ = run("integrate-line", "1/(x^2+1)^2")
    assert status == 0
    assert repr(math.pi / 2) in out


def test_residues_verb_lists_conjugate_pair(run):
    doc = run_json(run, "residues", "1/(z^2+1)^2")
    assert doc["schema_version"] == "1"
    poles = {tuple(p["location"]): p for p in doc["poles"]}
    assert poles[(0.0, 1.0)]["order"] == 2
    assert poles[(0.0, 1.0)]["residue"] == [0.0, -0.25]
    assert poles[(0.0, -1.0)]["residue"] == [0.0, 0.25]


def test_tolerances_list_the_root_finder_and_derivative_constants(run):
    doc = run_json(run, "residues", "1/(z^2+1)^2")
    assert doc["schema_version"] == "1"
    assert doc["tolerances"] == {
        "root_cluster_tol": roots.CLUSTER_TOL,
        "root_verify_tol": roots.VERIFY_TOL,
        "root_kappa": roots.KAPPA,
        "root_dk_floor": roots.DK_FLOOR,
        "derivative_step": residues.DERIVATIVE_STEP,
    }


def test_contour_verb_surfaces_imaginary_defect(run):
    status, out, _ = run("integrate-contour", "1/(z*(z-3.14159265358979))",
                         "--center", "0,0", "--radius", "1")
    assert status == 0
    assert "imaginary defect" in out
    doc = run_json(run, "integrate-contour", "1/(z*(z-3.14159265358979))",
                   "--center", "0,0", "--radius", "1")
    assert abs(doc["value"]) <= 1e-10
    assert abs(doc["imaginary_defect"] + 2.0) <= 1e-9
    assert doc["warnings"]


def test_contour_verify_flag(run):
    doc = run_json(run, "integrate-contour", "1/(z^2+1)^2",
                   "--center", "0,1", "--radius", "0.5", "--verify")
    assert doc["verification"]["passed"] is True
    assert abs(doc["value"] - math.pi / 2) <= 1e-10


def test_contour_verify_explains_a_defect_failure(run, monkeypatch):
    # the oracle's symbolic side is shifted by 2 pi in the defect only: the
    # verification block says the defect is what failed, and which
    # quadrature settings were in effect
    base = run_json(run, "integrate-contour", "1/z", "--center", "0,0",
                    "--radius", "1")
    assert "quad_tol" not in base["tolerances"]
    integrate_closed = dxdy.oracle.integrate_closed

    def shifted(*args):
        result = integrate_closed(*args)
        return dataclasses.replace(
            result, imaginary_defect=result.imaginary_defect - 2 * math.pi)

    monkeypatch.setattr(dxdy.oracle, "integrate_closed", shifted)
    status, out, _ = run("integrate-contour", "1/z", "--center", "0,0",
                         "--radius", "1", "--verify", "--verify-tol", "1e-7",
                         "--json")
    assert status == 1
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    check = doc["verification"]
    assert check["passed"] is False
    assert check["difference"] <= 1e-7
    assert abs(check["defect_difference"] - 2 * math.pi) <= 1e-7
    assert {key: doc["tolerances"][key] for key in
            ("quad_tol", "quad_min_points", "quad_max_points")} == {
        "quad_tol": dxdy.oracle.differential_quad_tol(1e-7),
        "quad_min_points": dxdy.oracle.MIN_POINTS,
        "quad_max_points": dxdy.oracle.MAX_POINTS,
    }
    assert dxdy.oracle.differential_quad_tol(1e-7) == 1e-10
    assert math.isclose(dxdy.oracle.differential_quad_tol(1e-9), 1e-11)


@pytest.mark.parametrize("text,want", [
    ("1/(x^2+1)", math.pi),
    ("exp(I*2*x)/(x^2+1)", math.pi * math.exp(-2)),
])
def test_integrate_line_verify_flag(run, text, want):
    base = run_json(run, "integrate-line", text)
    assert "verification" not in base and "quad_tol" not in base["tolerances"]
    doc = run_json(run, "integrate-line", text, "--verify")
    assert doc["schema_version"] == "1"
    check = doc["verification"]
    assert check["passed"] is True
    assert check["tol"] == 1e-8
    assert abs(check["quadrature"] - want) <= 1e-9
    assert check["difference"] == abs(doc["value"] - check["quadrature"])
    assert doc["tolerances"]["quad_tol"] == dxdy.oracle.differential_quad_tol(
        1e-8)
    assert {k: v for k, v in doc.items() if k != "verification"} == {
        **base, "tolerances": doc["tolerances"]}


def test_integrate_line_verify_failure_and_oracle_error(run, monkeypatch):
    monkeypatch.setattr(dxdy.cli, "real_line_quadrature",
                        lambda f, tol: math.pi + 1e-6)
    status, out, _ = run("integrate-line", "1/(x^2+1)", "--verify",
                         "--json")
    assert status == 1
    check = json.loads(out)["verification"]
    assert check["passed"] is False
    assert abs(check["difference"] - 1e-6) <= 1e-12

    def fails(f, tol):
        raise dxdy.oracle.QuadratureError("did not converge")

    monkeypatch.setattr(dxdy.cli, "real_line_quadrature", fails)
    status, _, err = run("integrate-line", "1/(x^2+1)", "--verify")
    assert status == 1
    assert "did not converge" in err


def test_cauchy_verb(run):
    doc = run_json(run, "cauchy", "1/(z+I)^2", "--at", "0,1", "--n", "1")
    assert doc["applicable"] is True
    assert abs(doc["contour_integral"] - math.pi / 2) <= 1e-10
    doc = run_json(run, "cauchy", "1/(z-pi)", "--at", "0,0")
    assert doc["applicable"] is False
    assert doc["warnings"]


def test_laurent_verb(run):
    doc = run_json(run, "laurent", "sin(z)/z^3", "--center", "0,0",
                   "--from", "-3", "--to", "2")
    coeffs = {c["exponent"]: c["coefficient"] for c in doc["coefficients"]}
    assert coeffs[-2] == [1.0, 0.0]
    assert coeffs[0] == [pytest.approx(-1 / 6), 0.0]


def test_laurent_verb_refuses_a_point_beside_a_pole(run):
    status, out, err = run("laurent", "1/(z-1)", "--center", "1.00000001,0",
                           "--from", "-1", "--to", "1")
    assert status == 1 and not out
    assert "not on it" in err


def test_classify_verb(run):
    doc = run_json(run, "classify", "--k", "0-y/(x^2+y^2)",
                   "--g", "x/(x^2+y^2)")
    assert doc["classification"] == "closed_and_CR"
    doc = run_json(run, "classify", "--k", "x", "--g", "y")
    assert doc["classification"] == "closed_only"
    doc = run_json(run, "classify", "--k", "y", "--g", "0")
    assert doc["classification"] == "not_closed"


@pytest.mark.parametrize("option", [
    ["--samples", "0"], ["--samples", "-3"], ["--step", "0"],
    ["--step=-1e-6"], ["--step", "nan"], ["--tol=-1"], ["--step", "inf"],
    ["--sample-radius", "nan"],
])
def test_classify_rejects_bad_options_with_exit_two(option, capsys):
    # each of these used to print a verdict the samples never tested
    with pytest.raises(SystemExit) as info:
        main(["classify", "--k", "y", "--g", "0", *option])
    assert info.value.code == 2
    assert option[0].split("=")[0] in capsys.readouterr().err


CONTOUR = ["integrate-contour", "1/(z-1)", "--center", "0,0"]


@pytest.mark.parametrize("argv,option", [
    (["cauchy", "1/(z-1)", "--at", "0,0", "--n", "-1"], "--n"),
    (["laurent", "1/(z-1)", "--center", "0,0", "--from", "3", "--to", "1"],
     "--from"),
    ([*CONTOUR, "--radius", "-1"], "--radius"),
    ([*CONTOUR, "--radius", "0"], "--radius"),
    ([*CONTOUR, "--radius", "1", "--clearance", "0"], "--clearance"),
    ([*CONTOUR, "--radius", "1", "--clearance=-1"], "--clearance"),
    ([*CONTOUR, "--radius", "1", "--clearance", "nan"], "--clearance"),
    ([*CONTOUR, "--radius", "2", "--verify", "--verify-tol=-1"],
     "--verify-tol"),
    (["integrate-line", "1/(x^2+1)", "--verify", "--verify-tol", "0"],
     "--verify-tol"),
    (["integrate-contour", "1/z", "--center", "nan,0", "--radius", "1"],
     "--center"),
    (["laurent", "1/z", "--center", "inf,0", "--from", "-1", "--to", "1"],
     "--center"),
    (["cauchy", "1/z", "--at", "nan,0"], "--at"),
    ([*CONTOUR, "--radius", "2", "--verify", "--verify-tol", "inf"],
     "--verify-tol"),
    (["classify", "--k", "y", "--g", "0", "--tol", "inf"], "--tol"),
    (["cauchy", "1/z", "--at", "1/0"], "--at"),
    ([*CONTOUR, "--radius", "inf"], "--radius"),
    ([*CONTOUR, "--radius", "1", "--clearance", "inf"], "--clearance"),
    (["integrate-line", "exp(I*t*x)/(x^2+1)", "--t", "inf"], "--t"),
])
def test_bad_option_values_exit_two(argv, option, capsys):
    # each of these used to end in a ValueError (exit 1), or, for the
    # clearance, in a value of 0 with the pole on the circle dropped; a
    # non-finite value gave an answer that was wrong or never tested
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert option in capsys.readouterr().err


def test_cached_parser_keeps_no_state_between_calls(run):
    line = ("integrate-line", "exp(I*t*x)/(x^2+1)")
    status, _, err = run(*line, "--t", "2")
    assert status == 0, err
    status, _, err = run(*line)  # t is not bound again by the earlier call
    assert status == 2
    assert "unbound symbol 't'" in err
    with pytest.raises(SystemExit) as info:
        main(["laurent", "1/z"])
    assert info.value.code == 2

    argv = ["cauchy", "1/(z+I)^2", "--at", "0,1", "--n", "1", "--json"]
    status, cached, _ = run(*argv)
    assert status == 0
    fresh = _build_parser.__wrapped__()
    args = fresh.parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert args.func(args) == 0
    assert out.getvalue() == cached
    assert _build_parser.cache_info().misses == 1


def test_binding_option(run):
    doc = run_json(run, "integrate-line", "exp(I*t*x)/(x^2+1)", "--t", "2")
    assert abs(doc["value"] - math.pi * math.exp(-2)) <= 1e-9


def test_parse_errors_exit_two(run):
    status, _, err = run("residues", "z^(1/2)")
    assert status == 2
    assert "not periodic" in err
    status, _, err = run("residues", "1/(z")
    assert status == 2
    status, _, err = run("integrate-contour", "x+1", "--center", "0,0",
                         "--radius", "1")
    assert status == 2
    # zero denominators are expression errors; these exited 1
    for text in ("1/(z-z)", "(z-z)^-1", "1/(1e-200*z)/(1e-200*z)"):
        status, _, err = run("residues", text)
        assert status == 2 and "zero" in err
    # literals beyond the double range; these printed NaN residues, exit 0
    for verb, text in (("residues", "1e309/(z-1)"),
                       ("integrate-line", "1e309/(x^2+1)")):
        status, out, err = run(verb, text)
        assert status == 2 and not out
        assert "'1e309' lies beyond the double range" in err


def test_computation_errors_exit_one(run):
    status, _, err = run("integrate-contour", "1/(z-1)", "--center", "0,0",
                         "--radius", "1")
    assert status == 1
    assert "contour" in err
    status, _, err = run("integrate-line", "1/(x+I)^1")
    assert status == 1
    status, _, err = run("integrate-line", "1/(x^2-1)")
    assert status == 1


@pytest.mark.parametrize("argv,message", [
    # Durand-Kerner overflows; these ended in a NaN conversion error
    (["residues", "1/(z-1)^40"], "Durand-Kerner"),
    (["residues", "1/(z^2+1e300)"], "Durand-Kerner"),
    (["integrate-line", "1/(x^2+1e300)"], "Durand-Kerner"),
    # values beyond the double range; these ended in a traceback
    (["cauchy", "exp(z)", "--at", "0,0", "--n", "171"], "171!"),
    (["cauchy", "exp(1000*z)", "--at", "1,0"], "exp("),
    (["residues", "exp(1000*z)/(z-1)"], "exp("),
    (["residues", "sin(1000*I*z)/(z-1)"], "sin("),
    (["laurent", "cos(z)/z", "--center", "0,800", "--from", "-1", "--to",
      "1"], "double range"),
    (["integrate-contour", "exp(800*z)/(z-1)", "--center", "1,0",
      "--radius", "0.5", "--verify"], "exp("),
    # a folded coefficient beyond the range; this printed a NaN residue
    (["residues", "1e200*1e200/(z-1)"], "folded coefficient"),
    # an entire factor argument beyond the range; this exited 2 as a
    # grammar error ("no constant term"), reading 0*inf = NaN as a constant
    (["residues", "exp(1e200*1e200*z)/(z-1)"], "folded coefficient"),
    (["integrate-line", "sin(1e200*1e200*x)/(x^2+1)"], "folded coefficient"),
])
def test_overflows_exit_one(run, argv, message):
    status, out, err = run(*argv)
    assert status == 1 and not out
    assert message in err


def test_largest_finite_factorial_still_gives_a_derivative(run):
    doc = run_json(run, "cauchy", "exp(z)", "--at", "0,0", "--n", "170")
    assert doc["derivative"] == [1.0000000000000004, 0.0]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["laurent", "1/z"])  # missing required options
    assert info.value.code == 2


def test_text_and_json_values_agree(run):
    _, text, _ = run("integrate-line", "1/(x^2+1)")
    doc = run_json(run, "integrate-line", "1/(x^2+1)")
    assert f"value: {doc['value']!r}" in text
    for pole in doc["poles"]:
        u, v = pole["residue"]
        sign = "+" if v >= 0 else "-"
        assert f"residue: {u!r} {sign} {abs(v)!r}·dxdy" in text
    # every float in the text round-trips to a value present in the document
    floats_in_text = {float(tok) for tok in re.findall(
        r"-?\d+\.\d+(?:e-?\d+)?", text)}
    def collect(node, acc):
        if isinstance(node, float):
            acc.add(abs(node))
        elif isinstance(node, dict):
            for item in node.values():
                collect(item, acc)
        elif isinstance(node, list):
            for item in node:
                collect(item, acc)
    doc_floats = set()
    collect(doc, doc_floats)
    for value in floats_in_text:
        assert abs(value) in doc_floats


def test_check_verb_passes(run):
    status, out, _ = run("check")
    assert status == 0
    assert "checks passed" in out
    doc = run_json(run, "check")
    assert doc["passed"] is True
