"""Command-line front end.

Verbs map one-to-one onto library operations.  Each verb is a function
from the parsed arguments to the fields of its document; `main` alone
puts schema_version 1 and the verb's name in front, prints the document
(as JSON with --json, else as text carrying the same numeric values) and
sets the exit status.  Exit codes: 0 success; 1 a ComputationError (pole
on contour, decay violation, non-convergence, a value beyond the double
range, a NaN or infinity in the document, which then is not printed), a
failed --verify or a failed check; 2 a UsageError (bad expression) or a
bad option value.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import checks as checks_mod
from . import oracle as oracle_mod
from . import roots as roots_mod
from .algebra import EvenElement, format_even
from .contours import (AXIS_TOL, CircleContour, CLOCKWISE, COUNTERCLOCKWISE,
                       integrate_closed, integrate_real_line)
from .errors import ComputationError, UsageError
from .expressions import ParseError, parse_point
from .functions import (WINDOW_TRUST, OneForm, beside_a_pole,
                        classify_one_form, find_poles, meromorphic_from_text)
from .oracle import (differential_check, differential_quad_tol,
                     real_line_quadrature)
from .residues import cauchy_integral_value, laurent_expand, residue

SCHEMA_VERSION = "1"


def _pair(x: EvenElement) -> list[float]:
    return [x.u, x.v]


def _point(text: str) -> EvenElement:
    """An argparse type: parse_point, with its message on a bad point."""
    try:
        return parse_point(text)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _bindings(args) -> dict[str, float]:
    return {"t": args.t} if getattr(args, "t", None) is not None else {}


def _base_tolerances(**verb_tolerances: float) -> dict[str, float]:
    return {
        "root_verify_tol": roots_mod.VERIFY_TOL,
        "root_kappa": roots_mod.KAPPA,
        "root_dk_floor": roots_mod.DK_FLOOR,
        "root_certify_gap": roots_mod.CERTIFY_GAP,
        **verb_tolerances,
    }


def _render(doc: dict, indent: int = 0) -> list[str]:
    """A document as indented text lines, one per value."""
    pad = "  " * indent
    out = []
    for key, value in doc.items():
        if isinstance(value, dict):
            out.append(f"{pad}{key}:")
            out += _render(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                out.append(f"{pad}{key}:")
                out += _render(item, indent + 1)
        elif (isinstance(value, list) and len(value) == 2
              and all(isinstance(x, float) for x in value)):
            out.append(f"{pad}{key}: {format_even(complex(*value))}")
        else:
            out.append(f"{pad}{key}: {value!r}" if isinstance(value, float)
                       else f"{pad}{key}: {value}")
    return out


def _render_checks(doc: dict) -> list[str]:
    """The check verb's text: PASS or FAIL per row, then the tally."""
    out = []
    for r in doc["checks"]:
        out.append(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}")
        if not r["passed"]:
            out.append(f"      {r['detail']}")
    total = sum(r["passed"] for r in doc["checks"])
    return out + [f"{total}/{len(doc['checks'])} checks passed"]


def _non_finite(value) -> list | None:
    """The keys and indices that lead to the first value of a document with
    a NaN or an infinity in it, a pair counting as one value, else None."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        items = enumerate(value)
    else:
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                return []
        return None
    for key, child in items:
        path = _non_finite(child)
        if path is not None:
            return [key, *path]
    return None


def _pole_entries(poles, residues) -> list[dict]:
    return [
        {"location": _pair(p.location), "order": p.order,
         "residue": _pair(r)}
        for p, r in zip(poles, residues)
    ]


def _add_verification(doc: dict, verification: dict,
                      quad_tol: float) -> None:
    """A --verify block, and the oracle's settings that the run used."""
    doc["verification"] = verification
    doc["tolerances"].update(
        quad_tol=quad_tol,
        quad_min_points=oracle_mod.MIN_POINTS,
        quad_max_points=oracle_mod.MAX_POINTS,
    )


# ---------------------------------------------------------------------------
# verbs: each returns its document's fields, in order

def _cmd_residues(args) -> dict:
    f = meromorphic_from_text(args.expression, _bindings(args))
    poles = find_poles(f)
    return {
        "expression": args.expression,
        "poles": _pole_entries(poles, [residue(f, p) for p in poles]),
        "warnings": [],
        "tolerances": _base_tolerances(),
    }


def _cmd_laurent(args) -> dict:
    if args.low > args.high:
        args.parser.error("--from must not exceed --to")
    f = meromorphic_from_text(args.expression, _bindings(args))
    window = laurent_expand(f, args.center, args.low, args.high)
    return {
        "expression": args.expression,
        "center": _pair(args.center),
        "window": [args.low, args.high],
        "coefficients": [
            {"exponent": n, "coefficient": _pair(c)}
            for n, c in zip(range(args.low, args.high + 1),
                            window.window_coefficients(args.low, args.high))
        ],
        "warnings": beside_a_pole(f, args.center),
        "tolerances": _base_tolerances(window_trust=WINDOW_TRUST),
    }


def _cmd_integrate_contour(args) -> dict:
    f = meromorphic_from_text(args.expression, _bindings(args))
    orientation = CLOCKWISE if args.clockwise else COUNTERCLOCKWISE
    contour = CircleContour(args.center, args.radius,
                            orientation, clearance=args.clearance)
    result = integrate_closed(f, contour)
    doc = {
        "expression": args.expression,
        "center": _pair(contour.center),
        "radius": contour.radius,
        "orientation": orientation,
        "poles": _pole_entries(result.enclosed, result.residues),
        "value": result.real_value,
        "imaginary_defect": result.imaginary_defect,
        "warnings": list(result.warnings),
        "tolerances": _base_tolerances(pole_clearance=contour.band),
    }
    if args.verify:
        report = differential_check(f, contour, tol=args.verify_tol)
        _add_verification(doc, {
            "passed": report.passed,
            "quadrature": report.quadrature,
            "difference": report.difference,
            "defect_quadrature": report.defect_quadrature,
            "defect_difference": report.defect_difference,
            "tol": report.tol,
        }, differential_quad_tol(report.tol))
    return doc


def _cmd_integrate_line(args) -> dict:
    f = meromorphic_from_text(args.expression, _bindings(args),
                              real_line=True)
    result = integrate_real_line(f, args.half_plane)
    doc = {
        "expression": args.expression,
        "half_plane": result.half_plane,
        "poles": _pole_entries(result.enclosed, result.residues),
        "value": result.real_value,
        "imaginary_defect": result.imaginary_defect,
        "warnings": list(result.warnings),
        "tolerances": _base_tolerances(axis_tol=AXIS_TOL),
    }
    if args.verify:
        quad_tol = differential_quad_tol(args.verify_tol)
        quadrature = real_line_quadrature(f, quad_tol)
        difference = abs(result.real_value - quadrature)
        _add_verification(doc, {
            "passed": (difference
                       <= args.verify_tol * (1.0 + abs(result.real_value))),
            "quadrature": quadrature,
            "difference": difference,
            "tol": args.verify_tol,
        }, quad_tol)
    return doc


def _cmd_cauchy(args) -> dict:
    f = meromorphic_from_text(args.expression, _bindings(args))
    contour_value, deriv, applicable = cauchy_integral_value(f, args.at,
                                                             args.n)
    return {
        "expression": args.expression,
        "at": _pair(args.at),
        "n": args.n,
        "warnings": beside_a_pole(f, args.at) + ([] if applicable else [
            "the value is not a 2-form; the special integral formula does "
            "not apply and the contour integral shown is only the real "
            "part"]),
        "tolerances": _base_tolerances(window_trust=WINDOW_TRUST),
        # f itself at n = 0: the same coefficient read, another name
        "value" if args.n == 0 else "derivative": _pair(deriv),
        "applicable": applicable,
        "contour_integral": contour_value,
    }


def _cmd_classify(args) -> dict:
    form = OneForm.from_expressions(args.k, args.g)
    samples = []
    count = args.samples
    for i in range(count):
        angle = 2.0 * math.pi * (i + 0.5) / count
        r = args.sample_radius * (0.6 + 0.4 * ((i * 7919) % count) / count)
        samples.append((r * math.cos(angle) + 0.05,
                        r * math.sin(angle) - 0.05))
    verdict = classify_one_form(form, samples, step=args.step, tol=args.tol)
    return {
        "k": args.k,
        "g": args.g,
        "samples": len(samples),
        "classification": verdict.value,
        "warnings": [],
        "tolerances": {"step": args.step, "tol": args.tol},
    }


def _cmd_check(args) -> dict:
    results = checks_mod.run_all()
    return {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------

def _bounded(convert, accept, requirement: str):
    """An argparse type: convert, then reject what fails accept (exit 2)."""
    def checked(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    checked.__name__ = convert.__name__  # argparse's "invalid int value"
    return checked


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dxdy",
        description="Residues, Laurent expansions and contour integrals in "
                    "the real plane algebra where dxdy plays the imaginary "
                    "unit.")
    parser.set_defaults(render=_render)
    sub = parser.add_subparsers(dest="verb", required=True)

    finite = _bounded(float, math.isfinite, "must be finite")
    positive = _bounded(float, lambda x: 0 < x < math.inf,
                        "must be positive and finite")

    def add_common(p):
        p.add_argument("expression", help="integrand expression in z "
                       "(x in real-line mode); I denotes dxdy, pi is "
                       "predefined")
        p.add_argument("--t", type=finite, default=None,
                       help="bind the symbol t to a value")
        p.add_argument("--json", action="store_true",
                       help="emit the structured document instead of text")

    def add_verify(p):
        p.add_argument("--verify", action="store_true",
                       help="cross-check against direct quadrature")
        p.add_argument("--verify-tol", type=positive, default=1e-8)

    p = sub.add_parser("residues", help="poles and residues of an expression")
    add_common(p)
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("laurent", help="Laurent coefficients over a window")
    add_common(p)
    p.add_argument("--center", type=_point, required=True,
                   help="expansion center 'u,v'")
    p.add_argument("--from", dest="low", type=int, required=True,
                   help="lowest exponent")
    p.add_argument("--to", dest="high", type=int, required=True,
                   help="highest exponent")
    p.set_defaults(func=_cmd_laurent, parser=p)

    p = sub.add_parser("integrate-contour",
                       help="circle contour integral of f dx")
    add_common(p)
    p.add_argument("--center", type=_point, required=True,
                   help="circle center 'u,v'")
    p.add_argument("--radius", type=positive, required=True)
    p.add_argument("--clockwise", action="store_true")
    p.add_argument("--clearance", type=positive, default=None,
                   help="absolute pole-on-contour band (default "
                        "1e-6 * radius)")
    add_verify(p)
    p.set_defaults(func=_cmd_integrate_contour)

    p = sub.add_parser("integrate-line",
                       help="improper integral over the real axis")
    add_common(p)
    p.add_argument("--half-plane", choices=["auto", "upper", "lower"],
                   default="auto")
    add_verify(p)
    p.set_defaults(func=_cmd_integrate_line)

    p = sub.add_parser("cauchy",
                       help="special integral formula at a regular point")
    add_common(p)
    p.add_argument("--at", type=_point, required=True,
                   help="evaluation point 'u,v'")
    p.add_argument("--n", default=0,
                   type=_bounded(int, lambda n: n >= 0, "must be non-negative"),
                   help="derivative order (0 evaluates f itself)")
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("classify",
                       help="closedness / CR classification of k dx + g dy")
    p.add_argument("--k", required=True, help="dx component, in x and y")
    p.add_argument("--g", required=True, help="dy component, in x and y")
    p.add_argument("--samples", default=24,
                   type=_bounded(int, lambda n: n >= 1, "must be at least 1"))
    p.add_argument("--sample-radius", type=finite, default=1.5)
    p.add_argument("--step", default=1e-6, type=positive)
    p.add_argument("--tol", default=1e-5,
                   type=_bounded(float, lambda t: 0 <= t < math.inf,
                                 "must be non-negative and finite"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="run the built-in regression suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check, render=_render_checks)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = {"schema_version": SCHEMA_VERSION, "verb": args.verb,
               **args.func(args)}
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ComputationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # NaN or an infinity: no double, and no strict JSON
    path = _non_finite(doc)
    if path is not None:
        where = path[0] + "".join(f"[{key}]" if isinstance(key, int)
                                  else f".{key}" for key in path[1:])
        print(f"error: {where} lies beyond the double range", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2) if args.json
          else "\n".join(args.render(doc)))
    # a failed --verify or a failed check row
    return 0 if doc.get("verification", doc).get("passed", True) else 1
