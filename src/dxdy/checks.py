"""Built-in regression suite over the worked reference values.

Every check pins a deterministic value the engine must reproduce: the
classic improper integrals, the imaginary-only contour case, the algebra
relations, and the Laurent display of sin(z)/z^3.  The CLI ``check`` verb
runs these and exits nonzero on any failure; the pytest acceptance module
covers the same ground plus the randomized statistical criteria.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .algebra import (DX, DXDY, DY, EvenElement, Multivector, _Frozen,
                      even, even_int_pow, even_mul, mv_product, to_polar)
from .contours import CircleContour, integrate_closed, integrate_real_line
from .functions import find_poles, meromorphic_from_text
from .residues import (cauchy_integral_value, laurent_expand,
                       residue_by_order_reduction)


class CheckResult(_Frozen):
    """One row of the suite: its name, verdict and what it compared."""

    __slots__ = ("name", "passed", "detail")


def _row(name: str):
    """Make the decorated body, which returns (passed, detail), the check
    row called ``name``: calling it returns the row's ``CheckResult``."""
    def named(body: Callable[[], tuple[bool, str]]):
        @functools.wraps(body)
        def check() -> CheckResult:
            return CheckResult(name, *body())
        check.row_name = name
        return check
    return named


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


@_row("integrate-line 1/(x^2+1) = pi")
def check_line_reciprocal_quadratic():
    got = integrate_real_line(
        meromorphic_from_text("1/(x^2+1)", real_line=True)).real_value
    return (_close(got, math.pi, 1e-10),
            f"got {got!r}, want {math.pi!r} within 1e-10")


@_row("integrate-line 1/(x^2+1)^2 = pi/2 (reduction and derivative routes)")
def check_line_squared_quadratic():
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
    return ok, (f"direct {direct!r}, reduction {via_reduction!r}, derivative "
                f"{via_derivative!r}, a2 {a2.u!r}")


@_row("integrate-line exp(I*t*x)/(x^2+1) = pi*e^-t for t in {0.5, 1, 2}")
def check_line_oscillatory():
    details = []
    ok = True
    for t in (0.5, 1.0, 2.0):
        f = meromorphic_from_text("exp(I*t*x)/(x^2+1)", {"t": t},
                                  real_line=True)
        got = integrate_real_line(f).real_value
        want = math.pi * math.exp(-t)
        ok = ok and _close(got, want, 1e-9)
        details.append(f"t={t:g}: {got!r} vs {want!r}")
    return ok, "; ".join(details)


@_row("unit circle of 1/(z(z-pi)): real 0, imaginary defect -2, warning")
def check_imaginary_defect():
    f = meromorphic_from_text("1/(z*(z-pi))")
    result = integrate_closed(f, CircleContour(even(0, 0), 1.0))
    ok = (_close(result.real_value, 0.0, 1e-10)
          and _close(result.imaginary_defect, -2.0, 1e-10)
          and len(result.warnings) > 0)
    return ok, (f"value {result.real_value!r}, "
                f"defect {result.imaginary_defect!r}, "
                f"warnings {len(result.warnings)}")


def _gaussian_pow(a: int, b: int, m: int) -> EvenElement:
    """(a + b*dxdy)^m in Python ints, for a^2 + b^2 = 2: the inverse is
    (a - b*dxdy)/2, so a negative power is conj(x)^|m| / 2^|m| exactly."""
    if m < 0:
        b = -b
    p, q = 1, 0
    for _ in range(abs(m)):
        p, q = p * a - q * b, p * b + q * a
    scale = 2 ** max(-m, 0)
    return even(p / scale, q / scale)


@_row("algebra: basis products, commutation, conjugation, polar powers")
def check_algebra_relations():
    """Each relation is tested on a few points where every float operation
    is exact, so the algebra's results are compared with ``==``.

    The product is bilinear, so its 16 blade products, each an exact
    +-blade, prove the relations for all elements.  With blades indexed by
    bits (1 = dx, 2 = dy), blade i times blade j is +-blade (i ^ j): shared
    factors square to 1, and a dy left of a dx flips the sign.

    x*conj(x) - |x|^2 is a quadratic form in (u, v), since even_mul is
    bilinear and conj linear, so it vanishes everywhere if it vanishes at
    1, dxdy and 1 + dxdy, where every product is exact.

    Powers are taken at the four points +-1 +- dxdy, one per quadrant, for
    m in -8..8.  |x|^2 = 2 there, so every inverse and every product is an
    exact dyadic: ``even_int_pow`` must equal the Gaussian-integer power bit
    for bit, and rho^m (cos m*phi + dxdy sin m*phi) from ``to_polar`` must
    agree with it to 1e-12.  Acceptance criterion 09 keeps the comparison at
    random points."""
    blades = (Multivector(s=1.0), DX, DY, DXDY)
    basis_ok = all(
        mv_product(x, y) == (-1.0 if i & 2 and j & 1 else 1.0) * blades[i ^ j]
        for i, x in enumerate(blades) for j, y in enumerate(blades))
    commutation_ok = all(  # e alpha = alpha conj(e), e even, alpha a 1-form
        mv_product(e, a) == mv_product(a, e_conj) for a in (DX, DY)
        for e, e_conj in ((blades[0], blades[0]), (DXDY, -DXDY)))
    conj_ok = all(even_mul(x, x.conj()) == even(x.norm_sq())
                  for x in (even(1.0), even(0.0, 1.0), even(1.0, 1.0)))
    power_ok = True
    for a, b in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        x = even(a, b)
        polar = to_polar(x)
        for m in range(-8, 9):
            direct = even_int_pow(x, m)
            via_polar = even(polar.rho ** m * math.cos(m * polar.phi),
                             polar.rho ** m * math.sin(m * polar.phi))
            if (direct != _gaussian_pow(a, b, m)
                    or abs(direct - via_polar) > 1e-12 * abs(via_polar)):
                power_ok = False
    return (basis_ok and commutation_ok and conj_ok and power_ok,
            f"basis {basis_ok}, commutation {commutation_ok}, "
            f"conj {conj_ok}, powers {power_ok}")


@_row("laurent sin(z)/z^3 over [-3, 2] = (0, 1, 0, -1/6, 0, 1/120)")
def check_laurent_display():
    f = meromorphic_from_text("sin(z)/z^3")
    window = laurent_expand(f, even(0, 0), -3, 2)
    got = window.window_coefficients(-3, 2)
    want = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    ok = all(abs(g - even(w)) <= 1e-14 for g, w in zip(got, want))
    return ok, f"got {[(c.u, c.v) for c in got]}"


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_line_reciprocal_quadratic,
    check_line_squared_quadratic,
    check_line_oscillatory,
    check_imaginary_defect,
    check_algebra_relations,
    check_laurent_display,
)


def run_all() -> list[CheckResult]:
    """Every row, each under its own guard: a row that raises is a failed
    row whose detail is ``TypeName: message``, and the rows after it still
    run.  Calling the row's function directly raises with the traceback."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as err:
            results.append(CheckResult(check.row_name, False,
                                       f"{type(err).__name__}: {err}"))
    return results
