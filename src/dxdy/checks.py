"""Built-in regression suite over the worked reference values.

Every check pins a deterministic value the engine must reproduce: the
classic improper integrals, the imaginary-only contour case, the algebra
relations, and the Laurent display of sin(z)/z^3.  The CLI ``check`` verb
runs these and exits nonzero on any failure; the pytest acceptance module
covers the same ground plus the randomized statistical criteria.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .algebra import (DX, DXDY, DY, Multivector, even, even_int_pow,
                      even_mul, mv_product, to_polar)
from .contours import CircleContour, integrate_closed, integrate_real_line
from .functions import find_poles, meromorphic_from_text
from .residues import (cauchy_integral_value, laurent_expand,
                       residue_by_order_reduction)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_line_reciprocal_quadratic() -> CheckResult:
    got = integrate_real_line(
        meromorphic_from_text("1/(x^2+1)", real_line=True)).real_value
    return CheckResult(
        "integrate-line 1/(x^2+1) = pi",
        _close(got, math.pi, 1e-10),
        f"got {got!r}, want {math.pi!r} within 1e-10")


def check_line_squared_quadratic() -> CheckResult:
    f = meromorphic_from_text("1/(x^2+1)^2", real_line=True)
    want = math.pi / 2
    direct = integrate_real_line(f).real_value
    upper = [p for p in find_poles(f) if p.location.v > 0][0]
    report = residue_by_order_reduction(f, upper)
    via_reduction = -2.0 * math.pi * report.a_minus_1.v
    order, a2 = report.extracted[0]
    a2_ok = order == 2 and abs(a2 - even(-0.25)) <= 1e-12
    fc = meromorphic_from_text("1/(z+I)^2")
    via_derivative, _, applicable = cauchy_integral_value(fc, even(0, 1), n=1)
    ok = (_close(direct, want, 1e-10) and _close(via_reduction, want, 1e-10)
          and _close(via_derivative, want, 1e-10) and a2_ok and applicable)
    return CheckResult(
        "integrate-line 1/(x^2+1)^2 = pi/2 (reduction and derivative routes)",
        ok,
        f"direct {direct!r}, reduction {via_reduction!r}, derivative "
        f"{via_derivative!r}, a2 {a2.u!r}")


def check_line_oscillatory() -> CheckResult:
    details = []
    ok = True
    for t in (0.5, 1.0, 2.0):
        f = meromorphic_from_text("exp(I*t*x)/(x^2+1)", {"t": t},
                                  real_line=True)
        got = integrate_real_line(f).real_value
        want = math.pi * math.exp(-t)
        ok = ok and _close(got, want, 1e-9)
        details.append(f"t={t:g}: {got!r} vs {want!r}")
    return CheckResult(
        "integrate-line exp(I*t*x)/(x^2+1) = pi*e^-t for t in {0.5, 1, 2}",
        ok, "; ".join(details))


def check_imaginary_defect() -> CheckResult:
    f = meromorphic_from_text("1/(z*(z-pi))")
    result = integrate_closed(f, CircleContour(even(0, 0), 1.0))
    ok = (_close(result.real_value, 0.0, 1e-10)
          and _close(result.imaginary_defect, -2.0, 1e-10)
          and len(result.warnings) > 0)
    return CheckResult(
        "unit circle of 1/(z(z-pi)): real 0, imaginary defect -2, warning",
        ok,
        f"value {result.real_value!r}, defect {result.imaginary_defect!r}, "
        f"warnings {len(result.warnings)}")


def check_algebra_relations() -> CheckResult:
    """The product is bilinear, so its 16 blade products, each an exact
    +-blade, prove the relations for all elements.  With blades indexed by
    bits (1 = dx, 2 = dy), blade i times blade j is +-blade (i ^ j): shared
    factors square to 1, and a dy left of a dx flips the sign."""
    blades = (Multivector(s=1.0), DX, DY, DXDY)
    basis_ok = all(
        mv_product(x, y) == (-1.0 if i & 2 and j & 1 else 1.0) * blades[i ^ j]
        for i, x in enumerate(blades) for j, y in enumerate(blades))
    commutation_ok = all(  # e alpha = alpha conj(e), e even, alpha a 1-form
        mv_product(e, a) == mv_product(a, e_conj) for a in (DX, DY)
        for e, e_conj in ((blades[0], blades[0]), (DXDY, -DXDY)))
    rng = random.Random(90125)
    conj_ok = True
    power_ok = True
    for _ in range(400):
        x = even(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(x) < 0.1:
            continue
        rho_sq = even_mul(x, x.conj())
        if abs(rho_sq - even(x.norm_sq())) > 1e-14 * x.norm_sq():
            conj_ok = False
        polar = to_polar(x)
        m = rng.randint(-8, 8)
        direct = even_int_pow(x, m)
        via_polar = even(polar.rho ** m * math.cos(m * polar.phi),
                         polar.rho ** m * math.sin(m * polar.phi))
        if abs(direct - via_polar) > 1e-12 * abs(via_polar):
            power_ok = False
    ok = basis_ok and commutation_ok and conj_ok and power_ok
    return CheckResult(
        "algebra: basis products, commutation, conjugation, polar powers",
        ok,
        f"basis {basis_ok}, commutation {commutation_ok}, conj {conj_ok}, "
        f"powers {power_ok}")


def check_laurent_display() -> CheckResult:
    f = meromorphic_from_text("sin(z)/z^3")
    window = laurent_expand(f, even(0, 0), -3, 2)
    got = window.window_coefficients(-3, 2)
    want = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    ok = all(abs(g - even(w)) <= 1e-14 for g, w in zip(got, want))
    return CheckResult(
        "laurent sin(z)/z^3 over [-3, 2] = (0, 1, 0, -1/6, 0, 1/120)",
        ok, f"got {[(c.u, c.v) for c in got]}")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_line_reciprocal_quadratic,
    check_line_squared_quadratic,
    check_line_oscillatory,
    check_imaginary_defect,
    check_algebra_relations,
    check_laurent_display,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
