"""Command-line front end: verbs, exit codes, text/json value agreement."""

import contextlib
import dataclasses
import io
import json
import math
import re

import pytest

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
    ["--step=-1e-6"], ["--step", "nan"], ["--tol=-1"],
])
def test_classify_rejects_bad_options_with_exit_two(option, capsys):
    # each of these used to print a verdict the samples never tested
    with pytest.raises(SystemExit) as info:
        main(["classify", "--k", "y", "--g", "0", *option])
    assert info.value.code == 2
    assert option[0].split("=")[0] in capsys.readouterr().err


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


def test_computation_errors_exit_one(run):
    status, _, err = run("integrate-contour", "1/(z-1)", "--center", "0,0",
                         "--radius", "1")
    assert status == 1
    assert "contour" in err
    status, _, err = run("integrate-line", "1/(x+I)^1")
    assert status == 1
    status, _, err = run("integrate-line", "1/(x^2-1)")
    assert status == 1


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
