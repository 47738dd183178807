"""Command-line front end: verbs, exit codes, text/json value agreement."""

import json
import math
import re
import runpy
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dxdy.cli
import dxdy.oracle
from dxdy import functions, roots
from dxdy.algebra import format_even
from dxdy.cli import _build_parser, main
from dxdy.contours import IntegralResult


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


def _readme_cli_examples():
    """The command lines of README's CLI block, without the leading dxdy."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI\n\n```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("dxdy ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_exit_zero(run, argv):
    status, out, err = run(*argv)
    assert status == 0, err
    assert out


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


def test_tolerances_list_the_root_finder_constants(run):
    # one key per public upper-case constant of the root finder, named
    # root_ plus its lower-cased name: a constant added, deleted or
    # renamed without its key fails here, and so does a key left behind
    doc = run_json(run, "residues", "1/(z^2+1)^2")
    assert doc["schema_version"] == "1"
    constants = {f"root_{name.lower()}": getattr(roots, name)
                 for name in vars(roots)
                 if name.isupper() and not name.startswith("_")}
    assert doc["tolerances"] == constants


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


def test_contour_verify_passes_at_an_order_9_pole(run):
    # the oracle samples about the center, where (z-1)^9 is w^9 exactly
    doc = run_json(run, "integrate-contour", "z^8/(z-1)^9",
                   "--center", "1,0", "--radius", "0.5", "--verify")
    assert doc["verification"]["passed"] is True
    assert abs(doc["imaginary_defect"] - 2 * math.pi) <= 1e-9


def test_contour_verify_passes_at_a_rounded_order_8_pole(run):
    # the folded (z-a)^8 at a decimal center: its rounded ring of roots
    # once passed the simple-root certificate as 8 simple poles, whose
    # residues of about 1e8 gave value 1.375e8 where the truth is 0
    status, out, err = run("integrate-contour", "1/(z-(0.61-2.1*I))^8",
                           "--center", "0.61,-2.1", "--radius", "0.5",
                           "--verify", "--json")
    assert status == 0, err
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    assert doc["value"] == 0.0
    assert [p["order"] for p in doc["poles"]] == [8]


def test_contour_verify_explains_a_defect_failure(run, monkeypatch):
    # the oracle's symbolic side is shifted by 2 pi in the defect only: the
    # verification block says the defect is what failed, and which
    # quadrature settings were in effect
    base = run_json(run, "integrate-contour", "1/z", "--center", "0,0",
                    "--radius", "1")
    assert "quad_tol" not in base["tolerances"]
    integrate_closed = dxdy.oracle.integrate_closed

    def shifted(*args):
        r = integrate_closed(*args)
        return IntegralResult(r.real_value, r.imaginary_defect - 2 * math.pi,
                              r.enclosed, r.residues, r.warnings,
                              r.half_plane)

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
    # the axis oracle runs the same doubling rule as the circle one
    assert doc["tolerances"]["quad_min_points"] == dxdy.oracle.MIN_POINTS
    assert doc["tolerances"]["quad_max_points"] == dxdy.oracle.MAX_POINTS
    assert {k: v for k, v in doc.items() if k != "verification"} == {
        **base, "tolerances": {**base["tolerances"],
                               "quad_tol": 1e-10, "quad_min_points": 32,
                               "quad_max_points": 2 ** 21}}


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


@pytest.mark.parametrize("n", ["0", "1"])
def test_cauchy_verb_refuses_a_point_the_root_table_calls_a_pole(run, n):
    # the table location 1 is the pole; 1e-8 beside it is a regular point,
    # read as 1/d or -1/d^2 for the double d, not as the pole's expansion
    status, out, err = run("cauchy", "1/(z-1)", "--at", "1,0", "--n", n)
    assert status == 1 and not out
    assert "is a pole of the function" in err
    doc = run_json(run, "cauchy", "1/(z-1)", "--at", "1.00000001,0",
                   "--n", n)
    d = float(1.00000001) - 1
    want = 1 / d if n == "0" else -1 / d ** 2
    got = doc["value" if n == "0" else "derivative"]
    assert got == [pytest.approx(want, rel=1e-15), 0.0]
    assert doc["tolerances"]["window_trust"] == functions.WINDOW_TRUST


def test_laurent_verb_refuses_a_point_beside_a_pole(run):
    # the denominator (z-1)(z-1-2^-20) vanishes exactly at 1, but its table
    # lists one double root between the two, so 1 is a zero that it does
    # not list
    status, out, err = run("laurent", "1/((z-1)*(z-(1+2^(-20))))",
                           "--center", "1,0", "--from", "-1", "--to", "1")
    assert status == 1 and not out
    assert "a zero of the denominator that its root table does not list" in err


@pytest.mark.parametrize("center", ["1.00000001", "1.001", "1.1"])
def test_laurent_verb_reads_regular_points_beside_an_order_8_pole(run,
                                                                  center):
    # the float t_0 of (z-1)^8 there is mostly rounding: the window is
    # shifted exactly, and a_0 is 1/d^8 for the double d = center - 1
    doc = run_json(run, "laurent", "1/(z-1)^8", "--center", f"{center},0",
                   "--from", "0", "--to", "0")
    want = float(1 / (Fraction(float(center)) - 1) ** 8)
    [a_0] = doc["coefficients"]
    assert a_0["coefficient"] == [pytest.approx(want, rel=1e-15), 0.0]
    assert doc["tolerances"]["window_trust"] == functions.WINDOW_TRUST
    [warning] = doc["warnings"]
    assert warning.endswith("pass the nearest, 1.0 + 0.0·dxdy "
                            "(multiplicity 8)")


@pytest.mark.parametrize("text, order, lead",
                         [("1/(z-0.1)^3", 3, 1.0),
                          ("1/((z-0.1)*(z-0.3))", 1, -5.0)])
def test_a_pole_typed_off_its_table_location_is_named_in_a_warning(
        run, text, order, lead):
    # the stored denominator, its coefficients rounded, has no root at the
    # double 0.1, and its table puts the pole an ulp or more away: 0.1 is a
    # regular point with a huge a_0, and both verbs name the table root
    [pole] = [p for p in functions.find_poles(
        functions.meromorphic_from_text(text)) if p.location.u < 0.2]
    assert complex(pole.location) != 0.1 and pole.order == order
    window = ("--from", str(-order), "--to", str(-order))
    for argv in (("laurent", text, "--center", "0.1,0", *window),
                 ("cauchy", text, "--at", "0.1,0")):
        [warning, *_] = run_json(run, *argv)["warnings"]
        assert warning.endswith(f"pass the nearest, "
                                f"{format_even(complex(pole.location))} "
                                f"(multiplicity {order})")
    # passed for the center, the table location reads the pole's window,
    # without the warning, and cauchy refuses it
    at = f"{pole.location.u!r},{pole.location.v!r}"
    doc = run_json(run, "laurent", text, "--center", at, *window)
    [a_lead] = doc["coefficients"]
    assert a_lead["coefficient"][0] == pytest.approx(lead, rel=1e-9)
    assert doc["warnings"] == []
    status, out, err = run("cauchy", text, "--at", at)
    assert status == 1 and not out
    assert "is a pole of the function" in err


def test_classify_verb(run):
    doc = run_json(run, "classify", "--k", "0-y/(x^2+y^2)",
                   "--g", "x/(x^2+y^2)")
    assert doc["classification"] == "closed_and_CR"
    doc = run_json(run, "classify", "--k", "x", "--g", "y")
    assert doc["classification"] == "closed_only"
    doc = run_json(run, "classify", "--k", "y", "--g", "0")
    assert doc["classification"] == "not_closed"


@pytest.mark.parametrize("k, status, message", [
    ("exp(1000*x)", 1, "lies beyond the double range"),
    ("z", 2, "unbound symbol 'z'"),
])
def test_classify_errors_exit_by_their_kind(run, k, status, message):
    got, out, err = run("classify", "--k", k, "--g", "0")
    assert (got, out) == (status, "")
    assert message in err


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
    # a verb returns its fields; main puts the header in front
    doc = {"schema_version": "1", "verb": "cauchy", **args.func(args)}
    assert json.dumps(doc, indent=2) + "\n" == cached
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
    # exponents that fold to no finite integer; these exited 1
    for text, message, position in (
            ("z^(1/0)", "divides by zero", 1),
            ("1/(z-1)^(1/0)", "divides by zero", 7),
            ("z^(1e300*1e300)", "beyond the double range", 1),
            ("z^(2^2000)", "beyond the double range", 1)):
        status, out, err = run("residues", text)
        assert status == 2 and not out
        assert f"{message} (at position {position})" in err, text
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
    # roots whose x^n or Horner bound lies beyond the double range
    (["residues", "1/(z^3+1e300*z+1)"], "Aberth"),
    (["residues", "1/(z^2+1e308)"], "Aberth"),
    (["integrate-line", "1/(x^2+1e308)"], "Aberth"),
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
    # a document value beyond the range; these printed Infinity or NaN and
    # exited 0
    (["residues", "1e300/(z*(z-1e-10))"], "poles[0].residue lies beyond"),
    (["cauchy", "exp(700*z)", "--at", "1,0", "--n", "4"],
     "derivative lies beyond"),
    (["cauchy", "1e300*z", "--at", "1e10,0"], "value lies beyond"),
    # the monic rescale beyond the range; the first two printed NaN, the
    # last failed in the root finder
    (["residues", "1e300/(1e-10*z)"], "rescaled coefficient"),
    (["integrate-line", "1e300/(1e-10*(x^2+1))"], "rescaled coefficient"),
    (["residues", "1/(1e-320*z)"], "rescaled coefficient"),
    # a numerator the rescale underflows to zero; this listed no pole
    (["residues", "1e-300/(1e100*(z-1))"], "rescaled numerator"),
])
def test_overflows_exit_one(run, argv, message):
    # in text and --json mode alike, so no NaN or Infinity is printed
    for mode in ([], ["--json"]):
        status, out, err = run(*argv, *mode)
        assert status == 1 and not out
        assert message in err


def test_poles_near_the_top_of_the_double_range(run):
    # the Newton-polygon start puts the iterates on |z| = 1e150 at once
    doc = run_json(run, "residues", "1/(z^2+1e300)")
    poles = sorted(doc["poles"], key=lambda p: p["location"][1])
    assert [p["order"] for p in poles] == [1, 1]
    for pole, sign in zip(poles, (-1, 1)):
        (u, v), (ru, rv) = pole["location"], pole["residue"]
        assert u == 0.0 and ru == 0.0
        assert v == pytest.approx(sign * 1e150, rel=1e-15)
        assert rv == pytest.approx(-sign * 5e-151, rel=1e-15)
    doc = run_json(run, "integrate-line", "1/(x^2+1e300)")
    assert doc["value"] == pytest.approx(math.pi * 1e-150, rel=1e-15)


@pytest.mark.parametrize("m", range(31, 46))
def test_high_order_pole_is_found_or_the_call_exits_one(run, m):
    # beyond m = 30 the noise floor of (z-1)^m is too wide to read the
    # order from every time; the call must then fail, never list m
    # simple poles, whose residues would be near 1e6
    status, out, err = run("residues", f"1/(z-1)^{m}", "--json")
    if status == 1:
        assert not out and err.startswith("error: ")
        return
    assert status == 0, err
    (pole,) = json.loads(out)["poles"]
    assert (pole["location"], pole["order"]) == ([1.0, 0.0], m)
    assert pole["residue"] == [0.0, 0.0]


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
    rows = {row["name"]: row for row in doc["checks"]}
    assert list(rows) == [
        "integrate-line 1/(x^2+1) = pi",
        "integrate-line 1/(x^2+1)^2 = pi/2 (reduction and derivative routes)",
        "integrate-line exp(I*t*x)/(x^2+1) = pi*e^-t for t in {0.5, 1, 2}",
        "unit circle of 1/(z(z-pi)): real 0, imaginary defect -2, warning",
        "algebra: basis products, commutation, conjugation, polar powers",
        "laurent sin(z)/z^3 over [-3, 2] = (0, 1, 0, -1/6, 0, 1/120)",
    ]
    algebra = rows["algebra: basis products, commutation, conjugation, "
                   "polar powers"]
    assert algebra["detail"] == ("basis True, commutation True, conj True, "
                                 "powers True")


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["dxdy", "check"])
    # an earlier import of the module (as by a test that imports every
    # module) would make runpy warn that it runs a stale copy
    monkeypatch.delitem(sys.modules, "dxdy.__main__", raising=False)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("dxdy", run_name="__main__")
    assert exit_info.value.code == 0
    assert "6/6 checks passed" in capsys.readouterr().out
