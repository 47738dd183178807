"""Independent numeric verification by direct quadrature.

Every integral is one rule: the periodic trapezoid rule, refined by
doubling until three estimates agree, which converges geometrically on
analytic integrands that are periodic or vanish at both ends of a window.
A circle is one period of its angle; x = tan(theta) makes the axis one
period, on which a rational integrand with degree gap >= 2 and no axis
pole is analytic, so nothing is truncated.  An oscillatory axis integrand
is cut at its pole abscissae.  Between cuts, x = tanh(pi/2 sinh s)
clusters the nodes at the cuts, where narrow peaks sit; past the outer
cuts, each exp part of the factor leaves the axis on a 45 degree ray into
the half-plane where it decays, under r = exp(pi/2 sinh s).  No pole lies
beyond the outer cuts, so by Cauchy's theorem the rays give the axis
integral: like the axis checks, they rely on the pole list.  On a circle f
is evaluated once per node, and the scalar and dxdy parts of f dz, the
1-form and its dual form, are summed side by side.  Integrands are
evaluated by the oracle's own complex Horner evaluator from the
coefficient lists; the oracle shares only pole location with the rest of
the package, never even-element evaluation, series or residue code.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Callable, Iterable

from .algebra import EvenElement, _Frozen
from .contours import (AXIS_DIRECTION_TOL, AXIS_TOL, CircleContour,
                       COUNTERCLOCKWISE, integrate_closed)
from .errors import ComputationError, UsageError
from .functions import MeromorphicFunction, find_poles

#: points of the first trapezoid estimate
MIN_POINTS = 32
#: points of the finest trapezoid estimate, after which the rule gives up
MAX_POINTS = 2 ** 21
#: the double-exponential maps run s over [-WINDOW, WINDOW], as one period:
#: past it the tanh-sinh weights, and the exp-sinh weights toward the ray's
#: start, are below 1e-17, and toward infinity r exceeds 4e18
WINDOW = 4.0

_HALF_PI = 0.5 * math.pi


class QuadratureError(ComputationError, RuntimeError):
    """Non-finite samples or failure to reach the requested tolerance."""


class QuadratureSpec(_Frozen):
    """The tolerance a quadrature must reach."""

    __slots__ = ("tol",)

    def __init__(self, tol: float = 1e-10) -> None:
        if not tol > 0:
            raise UsageError("tol must be positive")
        self._fill_slots(tol)


def _checked(sample: Callable[[float], complex], t: float) -> complex:
    """sample(t), with singular and non-finite values as QuadratureError."""
    try:
        value = sample(t)
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        raise QuadratureError(  # ValueError: cmath's domain error at inf
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
    would, and nodes are sampled only while some part needs them.  A level
    is sampled and checked finite in one pass; one with a bad sample is
    walked again through ``_checked``, which names its first bad node.
    """
    origin = start + shift * period / MIN_POINTS

    def sums(nodes):
        nodes = list(nodes)
        try:
            samples = list(map(sample, nodes))
            finite = all(map(cmath.isfinite, samples))
        except (ZeroDivisionError, OverflowError, ValueError):
            finite = False
        if not finite:  # again node by node, to name the first bad one
            samples = [_checked(sample, t) for t in nodes]
        try:
            return [math.fsum(map(part, samples)) for part in _PARTS[:parts]]
        except OverflowError:  # finite samples, but their sum is not
            raise QuadratureError("integrand samples sum beyond the double "
                                  "range") from None

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


def _tanh_sinh(H: Callable[[float], float], a: float, b: float,
               tol: float) -> float:
    """Integral of H over [a, b] under x = mid + half * tanh(pi/2 sinh s):
    the nodes cluster double-exponentially at both ends."""
    half = 0.5 * (b - a)

    def sample(s: float) -> float:
        w = _HALF_PI * math.sinh(s)
        # half * (1 - tanh|w|), the distance to the nearer end, without the
        # cancellation of 1 - tanh near the ends
        d = half / (math.exp(abs(w)) * math.cosh(w))
        return (H(a + d if w < 0.0 else b - d)
                * (half * _HALF_PI * math.cosh(s) / math.cosh(w) ** 2))

    return _periodic_trapezoid(sample, 2.0 * WINDOW, -WINDOW, 0.0, tol)[0]


def _exp_sinh_ray(R: Callable[[complex], complex], c: complex, a: complex,
                  start: float, sense: float, tol: float) -> float:
    """Real part of the integral of c R(x) exp(a x) over the axis from start
    to sense * infinity, taken on the 45 degree ray z = start + r * omega
    into the half-plane where exp(a z) decays, under r = exp(pi/2 sinh s).

    Cauchy's theorem keeps the value when no pole of R lies between the
    axis and the ray, as no pole does past the outermost pole abscissa.
    """
    omega = complex(sense, math.copysign(1.0, a.imag)) / math.sqrt(2.0)
    weight = sense * omega * c * _HALF_PI

    def sample(s: float) -> float:
        r = math.exp(_HALF_PI * math.sinh(s))
        z = start + r * omega
        e = cmath.exp(a * z)
        if not e:
            # underflowed far out on the ray, where R(z) may overflow
            return 0.0
        return (R(z) * e * weight * (r * math.cosh(s))).real

    return _periodic_trapezoid(sample, 2.0 * WINDOW, -WINDOW, 0.0, tol)[0]


# ---------------------------------------------------------------------------
# meromorphic-function front ends

_FACTORS = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}
#: (c, b) with factor(sz) the sum of c * exp(b * sz): exp is one part, and
#: cos w = (e^{iw} + e^{-iw})/2 and sin w = (e^{iw} - e^{-iw})/2i are two
_EXP_PARTS = {"exp": ((1.0, 1.0),), "cos": ((0.5, 1j), (0.5, -1j)),
              "sin": ((-0.5j, 1j), (0.5j, -1j))}


def _rational_evaluator(f: MeromorphicFunction
                        ) -> Callable[[complex], complex]:
    """The rational part of f by complex Horner evaluation of its
    coefficient lists, u + v*dxdy read as u + v*1j."""
    num = f.num.coeffs[::-1]
    den = f.den.coeffs[::-1]

    def R(z: complex) -> complex:
        p = 0j
        for c in num:
            p = p * z + c
        q = 0j
        for c in den:
            q = q * z + c
        return p / q

    return R


def _complex_evaluator(f: MeromorphicFunction) -> Callable[[complex], complex]:
    """f as a plain-complex closure, u + v*dxdy read as u + v*1j.

    Built on the rational evaluator and cmath's exp, sin and cos, so the
    quadrature path shares no arithmetic with the algebra/series stack.
    """
    R = _rational_evaluator(f)
    if f.factor is None:
        return R
    factor = _FACTORS[f.factor.kind]
    scale = complex(f.factor.scale)

    def F(z: complex) -> complex:
        return R(z) * factor(scale * z)

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
        if abs(scale.u) > AXIS_DIRECTION_TOL * magnitude:
            raise QuadratureError("exp factor grows along the axis")
        return abs(scale.v)
    if abs(scale.v) > AXIS_DIRECTION_TOL * magnitude:
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
    no denominator root on the axis; anything else raises QuadratureError.
    A tol that is not positive raises UsageError.
    """
    if not tol > 0:
        raise UsageError("tol must be positive")
    if f.is_zero():
        return 0.0
    frequency = _axis_oscillation(f)
    gap = f.degree_gap()
    if gap < (1 if frequency else 2):
        raise QuadratureError(
            f"integrand does not decay fast enough along the axis (degree "
            f"gap {gap})")
    poles = find_poles(f)
    # a root whose pole a sin/cos zero cancels is a pole of each exp part
    for loc, _ in f.den_roots:
        if abs(loc.imag) <= AXIS_TOL:
            raise QuadratureError(
                f"denominator root at {EvenElement(loc.real, loc.imag)} "
                f"lies on the axis")
    H = axis_evaluator(f)
    if frequency:
        cuts = sorted({p.location.u for p in poles}) or [0.0]
        R = _rational_evaluator(f)
        scale = complex(f.factor.scale)
        pieces = [_tanh_sinh(H, a, b, tol) for a, b in zip(cuts, cuts[1:])]
        for c, b in _EXP_PARTS[f.factor.kind]:
            pieces.append(_exp_sinh_ray(R, c, b * scale, cuts[-1], 1.0, tol))
            pieces.append(_exp_sinh_ray(R, c, b * scale, cuts[0], -1.0, tol))
        return math.fsum(pieces)

    def mapped(theta: float) -> float:
        return H(math.tan(theta)) / math.cos(theta) ** 2

    # a non-dyadic shift keeps every level's nodes off theta = +-pi/2, the
    # image of x = inf, by at least a third of the finest step
    return _periodic_trapezoid(mapped, math.pi, -0.5 * math.pi, 1.0 / 3.0,
                               tol)[0]


class DifferentialReport(_Frozen):
    """The residue route's value and defect against quadrature's."""

    __slots__ = ("passed", "symbolic", "quadrature", "difference",
                 "defect_symbolic", "defect_quadrature", "defect_difference",
                 "tol")


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
