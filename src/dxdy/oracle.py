"""Independent numeric verification by direct quadrature.

Everything the residue machinery produces can be checked against direct
integration: 1-form integrals on circles by the periodic trapezoid rule
(spectrally accurate for analytic integrands, refined by doubling), and
real-line integrals by adaptive Simpson with an analytic tail bound.  The
quadrature paths share only even-element evaluation with the rest of the
package; they never touch series or residue code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .algebra import even
from .contours import CircleContour, COUNTERCLOCKWISE, integrate_closed
from .functions import MeromorphicFunction

MAX_CIRCLE_POINTS = 2 ** 20


class QuadratureError(RuntimeError):
    """Non-finite samples or failure to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    n_points: int = 32
    tail_cutoff: float = 1e6
    tol: float = 1e-10

    def __post_init__(self):
        if self.n_points < 16 or self.n_points % 2:
            raise ValueError("n_points must be even and >= 16")
        if not self.tail_cutoff > 0:
            raise ValueError("tail_cutoff must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def quad_circle(k: Callable[[float, float], float],
                g: Callable[[float, float], float],
                contour: CircleContour,
                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of k dx + g dy over the circle by the periodic trapezoid rule.

    Doubles the point count until two successive refinements agree within
    spec.tol (scaled by the estimate magnitude).
    """
    cx, cy = contour.center.u, contour.center.v
    r = contour.radius

    def estimate(n: int) -> float:
        total = 0.0
        step = 2.0 * math.pi / n
        for i in range(n):
            t = i * step
            ct, st = math.cos(t), math.sin(t)
            x = cx + r * ct
            y = cy + r * st
            try:
                sample = -k(x, y) * r * st + g(x, y) * r * ct
            except (ZeroDivisionError, OverflowError) as err:
                raise QuadratureError(
                    f"singular integrand sample on the contour at "
                    f"t={t:.6g}") from err
            if not math.isfinite(sample):
                raise QuadratureError(
                    f"non-finite integrand sample on the contour at t={t:.6g}")
            total += sample
        return total * step

    n = spec.n_points
    previous = estimate(n)
    agreements = 0
    while n <= MAX_CIRCLE_POINTS:
        n *= 2
        current = estimate(n)
        if abs(current - previous) < spec.tol * (1.0 + abs(current)):
            agreements += 1
            if agreements >= 2:
                value = current
                if contour.orientation != COUNTERCLOCKWISE:
                    value = -value
                return value
        else:
            agreements = 0
        previous = current
    raise QuadratureError(
        f"circle quadrature did not converge below {spec.tol:g} within "
        f"{MAX_CIRCLE_POINTS} points")


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      fa: float, fm: float, fb: float, whole: float,
                      tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise QuadratureError(f"non-finite sample in [{a:g}, {b:g}]")
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0,
                                depth - 1))


def _simpson_panel(f, a, b, tol, depth=48):
    try:
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    except (ZeroDivisionError, OverflowError) as err:
        raise QuadratureError(f"singular sample in [{a:g}, {b:g}]") from err
    if not all(map(math.isfinite, (fa, fm, fb))):
        raise QuadratureError(f"non-finite sample in [{a:g}, {b:g}]")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth)


def _oscillatory_panels(inner: float, T: float, half_period: float) -> list[tuple[float, float]]:
    """Uniform half-period panels from inner to the cutoff.

    Panels wider than the oscillation alias the adaptive error estimate
    (subdivided estimates agree while both are wrong), so the walk stays at
    half-period resolution all the way out."""
    panels = []
    a = inner
    while a < T:
        b = min(a + half_period, T)
        panels.append((a, b))
        a = b
    return panels


def quad_real_line(H: Callable[[float], float], spec: QuadratureSpec,
                   tail_bound: float,
                   oscillation: float = 0.0) -> float:
    """Integral of H over the axis, truncated at spec.tail_cutoff.

    tail_bound is the caller's analytic bound on the discarded |x| >
    tail_cutoff contribution; it must fit inside the tolerance.  A nonzero
    ``oscillation`` (the dxdy-scale of an exp factor) pre-splits the body
    into oscillation-sized panels so the adaptive rule tracks the waves
    instead of recursing from the whole interval.
    """
    if tail_bound > 0.5 * spec.tol:
        raise QuadratureError(
            f"analytic tail bound {tail_bound:g} exceeds half the tolerance "
            f"{spec.tol:g}; increase tail_cutoff")
    T = spec.tail_cutoff
    inner = min(T, 32.0)
    budget = 0.5 * spec.tol
    total = _simpson_panel(H, -inner, inner, 0.5 * budget)
    if T > inner:
        if oscillation:
            half_period = max(math.pi / abs(oscillation), 1e-3)
            panels = _oscillatory_panels(inner, T, half_period)
            per = 0.25 * budget / max(1, 2 * len(panels))
            for a, b in panels:
                total += _simpson_panel(H, a, b, per)
                total += _simpson_panel(H, -b, -a, per)
        else:
            total += _simpson_panel(H, inner, T, 0.25 * budget)
            total += _simpson_panel(H, -T, -inner, 0.25 * budget)
    return total


# ---------------------------------------------------------------------------
# meromorphic-function front ends

def one_form_components(f: MeromorphicFunction):
    """(k, g) of the 1-form f dx: k = u-part of f, g = -v-part."""
    def k(x: float, y: float) -> float:
        return f(even(x, y)).u

    def g(x: float, y: float) -> float:
        return -f(even(x, y)).v

    return k, g


def dual_form_components(f: MeromorphicFunction):
    """(k, g) whose circle integral is the imaginary part of the classical
    integral of f dz, i.e. the imaginary defect."""
    def k(x: float, y: float) -> float:
        return f(even(x, y)).v

    def g(x: float, y: float) -> float:
        return f(even(x, y)).u

    return k, g


def circle_quadrature(f: MeromorphicFunction, contour: CircleContour,
                      spec: QuadratureSpec = QuadratureSpec()) -> float:
    k, g = one_form_components(f)
    return quad_circle(k, g, contour, spec)


def _tail_parameters(f: MeromorphicFunction) -> tuple[float, float, int]:
    """(C, safe_radius, gap) with |rational(x)| <= C/|x|^gap for |x| >= radius."""
    gap = f.degree_gap()
    num_lead = abs(f.num.leading()) if not f.num.is_zero() else 0.0
    den_lead = abs(f.den.leading())
    C = 2.0 * num_lead / den_lead
    mass = sum(abs(c) for c in f.den.coeffs) / den_lead
    radius = 2.0 * (1.0 + mass)
    return C, radius, gap


def _axis_oscillation(f: MeromorphicFunction) -> float:
    """Oscillation frequency of the entire factor along the real axis.

    exp needs a pure dxdy scale to stay bounded there and oscillates at its
    v-part; sin/cos need a pure real scale and oscillate at its u-part.
    """
    if f.factor is None:
        return 0.0
    scale = f.factor.scale
    magnitude = abs(scale) + 1e-300
    if f.factor.kind == "exp":
        if abs(scale.u) > 1e-12 * magnitude:
            raise QuadratureError(
                "exp factor grows along the axis; no finite tail bound")
        return abs(scale.v)
    if abs(scale.v) > 1e-12 * magnitude:
        raise QuadratureError(
            f"{f.factor.kind} factor grows along the axis; no finite "
            f"tail bound")
    return abs(scale.u)


def real_line_tail_bound(f: MeromorphicFunction, cutoff: float) -> float:
    """Analytic bound on the |x| > cutoff contribution of f's u-part.

    Pure rational decay gives 2*C*cutoff^(1-gap)/(gap-1); an oscillatory exp
    factor improves this by one integration by parts to 6*C/(|t|*cutoff^gap).
    """
    C, radius, gap = _tail_parameters(f)
    if cutoff < radius:
        return math.inf
    if C == 0.0:
        return 0.0
    t = _axis_oscillation(f)
    if t:
        return 6.0 * C / (abs(t) * cutoff ** gap)
    if gap < 2:
        return math.inf
    return 2.0 * C * cutoff ** (1 - gap) / (gap - 1)


def real_line_spec(f: MeromorphicFunction, tol: float) -> QuadratureSpec:
    """Choose a cutoff that drives the analytic tail bound under tol/2."""
    C, radius, gap = _tail_parameters(f)
    t = _axis_oscillation(f)
    if C == 0.0:
        return QuadratureSpec(tail_cutoff=radius, tol=tol)
    if t:
        cutoff = (6.0 * C / (abs(t) * 0.25 * tol)) ** (1.0 / gap)
    else:
        cutoff = (2.0 * C / (0.25 * tol * (gap - 1))) ** (1.0 / (gap - 1))
    return QuadratureSpec(tail_cutoff=max(cutoff, radius), tol=tol)


def axis_evaluator(f: MeromorphicFunction) -> Callable[[float], float]:
    """u-part of f on the axis as a plain-float closure.

    Built directly on complex Horner evaluation of the coefficient lists, so
    the quadrature path shares no arithmetic with the algebra/series stack.
    """
    num = [complex(c.u, c.v) for c in f.num.coeffs]
    den = [complex(c.u, c.v) for c in f.den.coeffs]
    if f.factor is not None:
        kind = f.factor.kind
        scale = complex(f.factor.scale.u, f.factor.scale.v)
    else:
        kind, scale = None, 0j

    def H(x: float) -> float:
        p = 0j
        for c in reversed(num):
            p = p * x + c
        q = 0j
        for c in reversed(den):
            q = q * x + c
        value = p / q
        if kind == "exp":
            value *= cmath.exp(scale * x)
        elif kind == "sin":
            value *= cmath.sin(scale * x)
        elif kind == "cos":
            value *= cmath.cos(scale * x)
        return value.real

    return H


def real_line_quadrature(f: MeromorphicFunction,
                         spec: QuadratureSpec | None = None,
                         tol: float = 1e-9) -> float:
    """Direct quadrature of the u-part of f along the axis."""
    if spec is None:
        spec = real_line_spec(f, tol)
    t = _axis_oscillation(f)
    bound = real_line_tail_bound(f, spec.tail_cutoff)
    return quad_real_line(axis_evaluator(f), spec, bound, oscillation=t)


@dataclass(frozen=True)
class DifferentialReport:
    passed: bool
    symbolic: float
    quadrature: float
    difference: float
    defect_symbolic: float
    defect_quadrature: float
    defect_difference: float
    tol: float


def differential_check(f: MeromorphicFunction, contour: CircleContour,
                       tol: float = 1e-8) -> DifferentialReport:
    """Compare the residue-route contour value against direct quadrature.

    The real value is quadratured through the form, the imaginary defect
    through the dual form; the check passes only if both agree within tol
    relative to the symbolic side.
    """
    result = integrate_closed(f, contour)
    spec = QuadratureSpec(tol=min(tol * 1e-2, 1e-10))
    quad = quad_circle(*one_form_components(f), contour, spec)
    dual = quad_circle(*dual_form_components(f), contour, spec)
    difference = abs(result.real_value - quad)
    defect_difference = abs(result.imaginary_defect - dual)
    passed = (difference <= tol * (1.0 + abs(result.real_value))
              and defect_difference
              <= tol * (1.0 + abs(result.imaginary_defect)))
    return DifferentialReport(
        passed=passed,
        symbolic=result.real_value,
        quadrature=quad,
        difference=difference,
        defect_symbolic=result.imaginary_defect,
        defect_quadrature=dual,
        defect_difference=defect_difference,
        tol=tol,
    )
