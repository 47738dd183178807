"""What one benchmark operation calls in dxdy, and how its output is checked.

``execute(op)`` makes the program calls and is the only timed part; it
returns the raw results.  ``verify(op, output)`` turns them into plain
numbers and compares them with ``truth``; it returns ``None`` or a
description of the disagreement.  The dxdy modules are looked up as module
attributes at call time, so the traced run sees every call it patches.
"""

from __future__ import annotations

import contextlib
import io
import json

import truth
from inputs import Op, degree_text, order_text, real_line_text

#: tolerance of the oscillatory real-line oracle (1e-9, its default, costs
#: about 10 s per call); fixed so that figures stay comparable
OSC_QUAD_TOL = 1e-7
#: the other oracle tolerances, pinned at today's defaults for the same reason
QUAD_TOL = 1e-9
DIFF_TOL = 1e-8

# filled by bind() after dxdy is imported
dx = None


def bind(modules) -> None:
    """Use these dxdy submodules (a namespace with one field per module)."""
    global dx
    dx = modules


def _c(x) -> complex:
    return complex(x.u, x.v)


def _pair(values) -> complex:
    return complex(values[0], values[1])


# ---------------------------------------------------------------------------
# poles

def _degree(p):
    f = dx.functions.meromorphic_from_text(degree_text(p["n"], p["c"]))
    poles = dx.functions.find_poles(f)
    return [(pole, dx.residues.residue(f, pole)) for pole in poles]


def _check_degree(p, out):
    return truth.check_degree_residues(
        p["n"], p["c"],
        [(_c(pole.location), pole.order, _c(r)) for pole, r in out])


def _order_function(m: int):
    return dx.functions.meromorphic_from_text(order_text(m))


def _unit_circle_at_one():
    return dx.contours.CircleContour(dx.algebra.even(1.0, 0.0), 0.5)


def _order(p):
    f = _order_function(p["m"])
    result = dx.contours.integrate_closed(f, _unit_circle_at_one())
    routes = [(pole, series,
               dx.residues.residue_by_order_reduction(f, pole).a_minus_1,
               dx.residues.residue_by_derivative_formula(f, pole).a_minus_1)
              for pole, series in zip(result.enclosed, result.residues)]
    return result, routes


def _check_order(p, out):
    result, routes = out
    return truth.check_order_ladder(
        p["m"], result.real_value, result.imaginary_defect,
        [(_c(pole.location), pole.order, tuple(_c(r) for r in rs))
         for pole, *rs in routes])


# ---------------------------------------------------------------------------
# verify

def _poly_mul(a: list[complex], b: list[complex]) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a: list[complex], k: int) -> list[complex]:
    out = [1 + 0j]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def planted_function(terms):
    """The common-denominator form of sum_j sum_k a_jk/(z-p_j)^k.

    Built in plain complex arithmetic, so dxdy receives only coefficient
    lists; the denominator is monic.
    """
    orders = [len(coeffs) for _, coeffs in terms]
    factors = [_poly_pow([-p, 1 + 0j], m) for (p, _), m in zip(terms, orders)]
    den = [1 + 0j]
    for factor in factors:
        den = _poly_mul(den, factor)
    num = [0j] * len(den)
    for j, (p, coeffs) in enumerate(terms):
        others = [1 + 0j]
        for i, factor in enumerate(factors):
            if i != j:
                others = _poly_mul(others, factor)
        for k, a in enumerate(coeffs, start=1):
            part = _poly_mul(_poly_pow([-p, 1 + 0j], orders[j] - k), others)
            for i, x in enumerate(part):
                num[i] += a * x
    even = dx.algebra.even
    poly = dx.polynomials.Polynomial.from_coeffs
    return dx.functions.MeromorphicFunction(
        poly([even(x.real, x.imag) for x in num]),
        poly([even(x.real, x.imag) for x in den]))


def _planted(p):
    contour = dx.contours.CircleContour(
        dx.algebra.even(p["center"].real, p["center"].imag), p["radius"])
    return dx.oracle.differential_check(planted_function(p["terms"]), contour,
                                        tol=DIFF_TOL)


def _check_planted(p, report):
    inside = [coeffs[0] for pole, coeffs in p["terms"]
              if abs(pole - p["center"]) < p["radius"]]
    return _check_report(truth.contour_integral(inside), report)


def _check_report(want, report):
    return truth.check_differential(
        want, report.symbolic, report.quadrature, report.defect_symbolic,
        report.defect_quadrature, DIFF_TOL)


def _verify_order(p):
    return dx.oracle.differential_check(_order_function(p["m"]),
                                        _unit_circle_at_one(), tol=DIFF_TOL)


def _check_verify_order(p, report):
    return _check_report(truth.contour_integral([1.0]), report)


def _quad_tol(p) -> float:
    return OSC_QUAD_TOL if p["family"] == "osc" else QUAD_TOL


def _real_line(p):
    bindings = {"t": p["t"]} if p["family"] == "osc" else None
    f = dx.functions.meromorphic_from_text(real_line_text(p), bindings,
                                           real_line=True)
    quad = dx.oracle.real_line_quadrature(f, tol=_quad_tol(p))
    return quad, dx.contours.integrate_real_line(f)


def _check_real_line(p, out):
    quad, result = out
    return truth.check_real_line(
        truth.real_line_value(p["family"], p["a"], p["t"]),
        result.real_value, result.imaginary_defect, quad, _quad_tol(p))


# ---------------------------------------------------------------------------
# session: in-process CLI calls, stdout captured

def _cli(p):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = dx.cli.main(p["argv"] + ["--json"])
        except SystemExit as exit:      # argparse rejected the arguments
            status = exit.code
    return status, buf.getvalue()


def _check_cli(kind, p, out):
    status, text = out
    if status != 0:
        return f"{kind}: exit status {status}"
    doc = json.loads(text)
    if kind == "residues":
        return truth.check_degree_residues(
            3, p["c"], [(_pair(e["location"]), e["order"], _pair(e["residue"]))
                        for e in doc["poles"]])
    if kind == "laurent":
        return truth.check_laurent(
            p["c"], [(e["exponent"], _pair(e["coefficient"]))
                     for e in doc["coefficients"]])
    if kind == "integrate-contour":
        return truth.check_contour(truth.contour_integral(p["residues"]),
                                   doc["value"], doc["imaginary_defect"])
    if kind == "integrate-line":
        return truth.check_real_line(
            truth.real_line_value(p["family"], p["a"], p["t"]),
            doc["value"], doc["imaginary_defect"])
    if kind == "cauchy":
        got = doc["value"] if p["n"] == 0 else doc["derivative"]
        return truth.check_cauchy(
            truth.cauchy_derivative(p["family"], p["p"], p["z0"], p["n"]),
            _pair(got))
    if kind == "classify":
        return truth.check_classification(p["verdict"], doc["classification"])
    if kind == "check":
        return truth.check_regression(
            [(c["name"], c["passed"]) for c in doc["checks"]])
    raise ValueError(f"unknown session verb {kind!r}")


SESSION_VERBS = ("residues", "laurent", "integrate-contour", "integrate-line",
                 "cauchy", "classify", "check")

EXECUTE = {"degree": _degree, "order": _order, "planted": _planted,
           "verify_order": _verify_order, "real_line": _real_line,
           **{verb: _cli for verb in SESSION_VERBS}}

VERIFY = {"degree": _check_degree, "order": _check_order,
          "planted": _check_planted, "verify_order": _check_verify_order,
          "real_line": _check_real_line}


def execute(op: Op):
    return EXECUTE[op.kind](op.params)


def verify(op: Op, output) -> str | None:
    if op.kind in VERIFY:
        return VERIFY[op.kind](op.params, output)
    return _check_cli(op.kind, op.params, output)
