"""Independent numeric verification by direct quadrature.

One rule does most of the work: the periodic trapezoid rule, refined by
doubling, which converges geometrically on analytic periodic integrands.
A circle is one period of its angle; x = tan(theta) makes the axis one
period, on which H(tan(theta))/cos(theta)^2 is analytic when H is rational
with degree gap >= 2 and no axis pole, so nothing is truncated.
Oscillatory axis integrands are folded onto [0, inf), integrated one
half-period at a time by adaptive Simpson, and the partial sums are
extrapolated with Wynn's epsilon algorithm.  On a circle f is evaluated
once per node, and the scalar and dxdy parts of f dz, the 1-form and its
dual form, are summed side by side.  Integrands are evaluated by the
oracle's own complex Horner evaluator from the coefficient lists;
the oracle shares only pole location with the rest of the package, never
even-element evaluation, series or residue code.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .contours import (AXIS_TOL, CircleContour, COUNTERCLOCKWISE,
                       integrate_closed)
from .functions import MeromorphicFunction, find_poles

#: points of the first trapezoid estimate
MIN_POINTS = 32
#: points of the finest trapezoid estimate, after which the rule gives up,
#: and the number of samples the oscillatory axis rule may take
MAX_POINTS = 2 ** 21
#: half-periods an oscillatory axis integral may sum before it gives up
MAX_CYCLES = 1000


class QuadratureError(RuntimeError):
    """Non-finite samples or failure to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def _checked(sample: Callable[[float], complex], t: float) -> complex:
    """sample(t), with singular and non-finite values as QuadratureError."""
    try:
        value = sample(t)
    except (ZeroDivisionError, OverflowError) as err:
        raise QuadratureError(
            f"singular integrand sample at t={t:.6g}") from err
    if not cmath.isfinite(value):
        raise QuadratureError(f"non-finite integrand sample at t={t:.6g}")
    return value


def _limit(estimates: Iterable[float], tol: float, what: str) -> float:
    """The first estimate that agrees with the two before it within tol
    (scaled by its magnitude); QuadratureError if there is none."""
    previous, agreements = math.nan, 0
    for current in estimates:
        if abs(current - previous) < tol * (1.0 + abs(current)):
            agreements += 1
            if agreements >= 2:
                return current
        else:
            agreements = 0
        previous = current
    raise QuadratureError(f"{what} did not converge below {tol:g}")


#: the parts of a sample: the real part, and of a complex sample the imag
_PARTS = (operator.attrgetter("real"), operator.attrgetter("imag"))


def _periodic_trapezoid(sample: Callable[[float], complex], period: float,
                        start: float, shift: float, tol: float,
                        parts: int = 1) -> list[float]:
    """Trapezoid rule over one period with n doubling from MIN_POINTS to
    MAX_POINTS, nodes at origin + i * period / n, for each of the first
    ``parts`` parts (real, imag) of the samples.

    The origin, start + shift * period / MIN_POINTS, is the same at every
    level, so each level's nodes are the previous level's plus the
    midpoints between them, and only the midpoints are sampled.  Each
    level's new samples are summed exactly rounded (fsum), so an estimate
    is within a few ulps of n * max|sample| * step of the fixed-n rule.
    Each part stops at its own limit, bit for bit where a run on it alone
    would, and nodes are sampled only while some part needs them.
    """
    origin = start + shift * period / MIN_POINTS

    def sums(nodes):
        samples = [_checked(sample, t) for t in nodes]
        return [math.fsum(map(part, samples)) for part in _PARTS[:parts]]

    def estimates():
        n = MIN_POINTS
        step = period / n
        totals = sums(origin + i * step for i in range(n))
        yield [total * step for total in totals]
        while n < MAX_POINTS:
            totals = [total + new for total, new in zip(
                totals, sums(origin + (i + 0.5) * step for i in range(n)))]
            n, step = 2 * n, 0.5 * step
            yield [total * step for total in totals]

    what = f"trapezoid rule within {MAX_POINTS} points"
    return [_limit(map(operator.itemgetter(j), levels), tol, what)
            for j, levels in enumerate(itertools.tee(estimates(), parts))]


def _contour_integral(F: Callable[[complex], complex], contour: CircleContour,
                      spec: QuadratureSpec, parts: int) -> list[float]:
    """The circle integral of F dz by the periodic trapezoid rule, evaluating
    F once per node: its scalar part, the integral of the 1-form F dx, and
    with parts=2 its dxdy part, the integral of the dual form."""
    cx, cy = contour.center.u, contour.center.v
    r = contour.radius

    def sample(t: float) -> complex:
        ct, st = math.cos(t), math.sin(t)
        w = F(complex(cx + r * ct, cy + r * st))
        # k dx + g dy sampled as -k*r*sin + g*r*cos, for (k, g) the form
        # (w.real, -w.imag) and the dual form (w.imag, w.real)
        return complex(-w.real * r * st + -w.imag * r * ct,
                       -w.imag * r * st + w.real * r * ct)

    values = _periodic_trapezoid(sample, 2.0 * math.pi, 0.0, 0.0, spec.tol,
                                 parts)
    return (values if contour.orientation == COUNTERCLOCKWISE
            else [-value for value in values])


def quad_circle(k: Callable[[float, float], float],
                g: Callable[[float, float], float],
                contour: CircleContour,
                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of k dx + g dy over the circle by the periodic trapezoid
    rule: the scalar part of the integral of (k - g dxdy) dz."""

    def F(z: complex) -> complex:
        return complex(k(z.real, z.imag), -g(z.real, z.imag))

    return _contour_integral(F, contour, spec, 1)[0]


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      fa: float, fm: float, fb: float, whole: float,
                      rtol: float, depth: int) -> float:
    """Simpson on [a, b], split until the halves agree with the whole
    within rtol times the integral of |f| there.

    The test scales with the panel, as rounding noise does; an absolute
    tolerance halved at each split can stay below the noise of a sharp
    peak at every depth and so keep splitting.
    """
    m = 0.5 * (a + b)
    flm = _checked(f, 0.5 * (a + m))
    frm = _checked(f, 0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    size = (b - a) / 12.0 * (abs(fa) + 4.0 * abs(flm) + 2.0 * abs(fm)
                             + 4.0 * abs(frm) + abs(fb))
    if depth <= 0 or abs(delta) <= 15.0 * rtol * size:
        return left + right + delta / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, rtol, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, rtol, depth - 1))


def _simpson_panel(f, a, b, rtol, depth=48):
    fa, fm, fb = (_checked(f, x) for x in (a, 0.5 * (a + b), b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, rtol, depth)


def _wynn(diagonal: list[float], s: float) -> tuple[list[float], float]:
    """Add the partial sum s to Wynn's epsilon table, given and returned
    as its last ascending diagonal (column k first), with the deepest
    even-column entry, the extrapolated limit.  The diagonal stops before
    an infinite entry: the sequence has settled there."""
    new = [s]
    for k, old in enumerate(diagonal):
        delta = new[k] - old
        entry = (diagonal[k - 1] if k else 0.0) + (
            1.0 / delta if delta else math.inf)
        if not math.isfinite(entry):
            break
        new.append(entry)
    return new, new[(len(new) - 1) & ~1]


def _oscillatory_axis(H: Callable[[float], float], frequency: float,
                      peaks: list[float], tol: float) -> float:
    """Integral of H over the axis when H oscillates at this frequency.

    H(x) + H(-x) is integrated over successive half-periods of [0, inf),
    split at the ``peaks`` (the |u| of the poles).  Past the last peak the
    partial sums alternate about the limit, and Wynn's epsilon algorithm
    extrapolates them; its estimates can settle briefly before they
    converge, so they must agree within a tenth of tol.
    """
    samples = 0

    def folded(x: float) -> float:
        nonlocal samples
        samples += 1
        if samples > MAX_POINTS:
            raise QuadratureError(
                f"half-period sum did not converge below {tol:g} within "
                f"{MAX_POINTS} samples")
        return H(x) + H(-x)

    def extrapolations():
        half_period = math.pi / frequency
        last_peak = max(peaks, default=0.0)
        diagonal: list[float] = []
        partial = 0.0
        for cycle in range(MAX_CYCLES):
            a, b = cycle * half_period, (cycle + 1) * half_period
            cuts = [a, *(x for x in peaks if a < x < b), b]
            for lo, hi in zip(cuts, cuts[1:]):
                partial += _simpson_panel(folded, lo, hi, 0.1 * tol)
            if a >= last_peak:
                diagonal, limit = _wynn(diagonal, partial)
                yield limit

    return _limit(extrapolations(), 0.1 * tol,
                  f"half-period sum within {MAX_CYCLES} half-periods")


# ---------------------------------------------------------------------------
# meromorphic-function front ends

_FACTORS = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}


def _complex_evaluator(f: MeromorphicFunction) -> Callable[[complex], complex]:
    """f as a plain-complex closure, u + v*dxdy read as u + v*1j.

    Built directly on complex Horner evaluation of the coefficient lists and
    cmath's exp, sin and cos, so the quadrature path shares no arithmetic
    with the algebra/series stack.
    """
    num = [complex(c.u, c.v) for c in reversed(f.num.coeffs)]
    den = [complex(c.u, c.v) for c in reversed(f.den.coeffs)]
    if f.factor is None:
        factor, scale = None, 0j
    else:
        factor = _FACTORS[f.factor.kind]
        scale = complex(f.factor.scale.u, f.factor.scale.v)

    def F(z: complex) -> complex:
        p = 0j
        for c in num:
            p = p * z + c
        q = 0j
        for c in den:
            q = q * z + c
        value = p / q
        if factor is not None:
            value *= factor(scale * z)
        return value

    return F


def one_form_components(f: MeromorphicFunction):
    """(k, g) of the 1-form f dx: k = u-part of f, g = -v-part."""
    F = _complex_evaluator(f)

    def k(x: float, y: float) -> float:
        return F(complex(x, y)).real

    def g(x: float, y: float) -> float:
        return -F(complex(x, y)).imag

    return k, g


def dual_form_components(f: MeromorphicFunction):
    """(k, g) whose circle integral is the imaginary part of the classical
    integral of f dz, i.e. the imaginary defect."""
    F = _complex_evaluator(f)

    def k(x: float, y: float) -> float:
        return F(complex(x, y)).imag

    def g(x: float, y: float) -> float:
        return F(complex(x, y)).real

    return k, g


def circle_quadrature(f: MeromorphicFunction, contour: CircleContour,
                      spec: QuadratureSpec = QuadratureSpec()) -> float:
    return _contour_integral(_complex_evaluator(f), contour, spec, 1)[0]


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
            raise QuadratureError("exp factor grows along the axis")
        return abs(scale.v)
    if abs(scale.v) > 1e-12 * magnitude:
        raise QuadratureError(f"{f.factor.kind} factor grows along the axis")
    return abs(scale.u)


def axis_evaluator(f: MeromorphicFunction) -> Callable[[float], float]:
    """u-part of f on the axis as a plain-float closure."""
    F = _complex_evaluator(f)

    def H(x: float) -> float:
        return F(x).real

    return H


def real_line_quadrature(f: MeromorphicFunction, tol: float = 1e-9) -> float:
    """Direct quadrature of the u-part of f along the axis.

    Needs deg(den) >= deg(num) + 2, or + 1 with an oscillating factor, and
    no pole on the axis; anything else raises QuadratureError.
    """
    if f.is_zero():
        return 0.0
    frequency = _axis_oscillation(f)
    gap = f.degree_gap()
    if gap < (1 if frequency else 2):
        raise QuadratureError(
            f"integrand does not decay fast enough along the axis (degree "
            f"gap {gap})")
    poles = find_poles(f)
    for p in poles:
        if abs(p.location.v) <= AXIS_TOL:
            raise QuadratureError(f"pole at {p.location} lies on the axis")
    H = axis_evaluator(f)
    if frequency:
        peaks = sorted({abs(p.location.u) for p in poles})
        return _oscillatory_axis(H, frequency, peaks, tol)

    def mapped(theta: float) -> float:
        return H(math.tan(theta)) / math.cos(theta) ** 2

    # a non-dyadic shift keeps every level's nodes off theta = +-pi/2, the
    # image of x = inf, by at least a third of the finest step
    return _periodic_trapezoid(mapped, math.pi, -0.5 * math.pi, 1.0 / 3.0,
                               tol)[0]


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


def differential_quad_tol(tol: float) -> float:
    """Tolerance of the quadratures behind a check at tol (the circle's of
    a differential check, the axis one of integrate-line --verify): a
    hundredth of tol, and never looser than 1e-10."""
    return min(tol * 1e-2, 1e-10)


def differential_check(f: MeromorphicFunction, contour: CircleContour,
                       tol: float = 1e-8) -> DifferentialReport:
    """Compare the residue-route contour value against direct quadrature.

    The real value is quadratured through the form, the imaginary defect
    through the dual form, both from one trapezoid run over f dz; the check
    passes only if both agree within tol relative to the symbolic side.
    """
    result = integrate_closed(f, contour)
    spec = QuadratureSpec(tol=differential_quad_tol(tol))
    quad, dual = _contour_integral(_complex_evaluator(f), contour, spec, 2)
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
