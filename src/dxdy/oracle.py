"""Independent numeric verification by direct quadrature.

Every integral is one rule: the periodic trapezoid rule, refined by
doubling until three estimates agree, which converges geometrically on
analytic integrands that are periodic or vanish at both ends of a window.
A circle is one period of its angle; x = tan(theta) makes the axis one
period, on which a rational integrand with degree gap >= 2 and no axis
pole is analytic, so nothing is truncated.  An oscillatory axis integrand
is cut at its pole abscissae.  Between cuts, x = tanh(pi/2 sinh s)
clusters the nodes at the cuts, where narrow peaks sit; past the outer
cuts, each exp part of the factor leaves the axis on two 45 degree rays
into the half-plane where it decays, under r = exp(pi/2 sinh s), as the
two parts of one run that computes r and its weight once per node.  No
pole lies beyond the outer cuts, so by Cauchy's theorem the rays give the
axis integral: like the axis checks, they rely on the pole list.  On a
circle about c, f is evaluated once per node w = z - c, and f dz =
f(c + w) i w dt carries the scalar and dxdy parts, the 1-form and its dual
form, side by side.  Integrands are evaluated by the oracle's own complex
Horner evaluator from the coefficient lists.  It, the maps and the
samplers take a whole level's nodes as one list, so the rule makes one
Python call per level, not a chain of them per node, and each node's
arithmetic is what it would be alone.  On a circle the lists are first
Taylor-shifted to its center, exactly, by exactmath's dyadic shift, and
each shifted coefficient is rounded once, so Horner runs in w without
the cancellation of the expanded form in z: Horner's rounding bound
eps * sum |a_k| |z|^k is 4^m times |(z-1)^m| on |z - 1| = 1/2, noise that
the stopping test would have to outlast.  The oracle shares two
things with the rest of the package: pole location, and that exact shift
kernel, which the derivative-formula residue route also uses.  It shares
no even-element evaluation, series or residue code.  integrate_closed
reads its residues from local_expansion's float series and the float
Polynomial.taylor_shift, and the oracle uses neither, so
differential_check still referees that route independently.
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
from .exactmath import dyadic_poly, dyadic_taylor_shift
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


def _checked(level: Callable[[list[float]], list], t: float) -> complex:
    """The sample at t, as a level of one node, with singular and
    non-finite values as QuadratureError."""
    try:
        value = level([t])[0]
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


def _periodic_trapezoid(level: Callable[[list[float]], list], period: float,
                        start: float, shift: float, tol: float,
                        parts: int = 1) -> list[float]:
    """Trapezoid rule over one period with n doubling from MIN_POINTS to
    MAX_POINTS, nodes at origin + i * period / n, for each of the first
    ``parts`` parts (real, imag) of the samples.

    ``level`` maps the list of a level's new nodes to the list of their
    samples, in node order, so the integrand runs once per level, not once
    per node.  The origin, start + shift * period / MIN_POINTS, is the same
    at every level, so each level's nodes are the previous level's plus
    the midpoints between them, and only the midpoints are sampled.  Each
    level's new samples are summed exactly rounded (fsum), so an estimate
    is within a few ulps of n * max|sample| * step of the fixed-n rule.
    Each part stops at its own limit, bit for bit where a run on it alone
    would, and nodes are sampled only while some part needs them.  A level
    is sampled and checked finite in one pass; one with a bad sample is
    walked again through ``_checked``, which names its first bad node.
    """
    origin = start + shift * period / MIN_POINTS

    def sums(nodes):
        try:
            samples = level(nodes)
            finite = all(map(cmath.isfinite, samples))
        except (ZeroDivisionError, OverflowError, ValueError):
            finite = False
        if not finite:  # again node by node, to name the first bad one
            samples = [_checked(level, t) for t in nodes]
        try:
            return [math.fsum(map(part, samples)) for part in _PARTS[:parts]]
        except OverflowError:  # finite samples, but their sum is not
            raise QuadratureError("integrand samples sum beyond the double "
                                  "range") from None

    def estimates():
        n = MIN_POINTS
        step = period / n
        totals = sums([origin + i * step for i in range(n)])
        yield [total * step for total in totals]
        while n < MAX_POINTS:
            totals = [total + new for total, new in zip(
                totals, sums([origin + (i + 0.5) * step for i in range(n)]))]
            n, step = 2 * n, 0.5 * step
            yield [total * step for total in totals]

    what = f"trapezoid rule within {MAX_POINTS} points"
    return [_limit(map(operator.itemgetter(j), levels), tol, what)
            for j, levels in enumerate(itertools.tee(estimates(), parts))]


def _contour_integral(F: Callable[[list[complex]], list[complex]],
                      contour: CircleContour, spec: QuadratureSpec,
                      parts: int) -> list[float]:
    """The circle integral of F(w) dz, w = z - center, by the periodic
    trapezoid rule, evaluating F once per level on the list of its nodes:
    its scalar part, the integral of the 1-form F dx, and with parts=2 its
    dxdy part, the integral of the dual form."""
    r = contour.radius

    def level(ts: list[float]) -> list[complex]:
        ws = [cmath.rect(r, t) for t in ts]
        # dz = i w dt; 1j * w is complex(-w.imag, w.real) but for the sign
        # of its zero real part at t = 0, which fsum does not see
        return [v * (1j * w) for v, w in zip(F(ws), ws)]

    values = _periodic_trapezoid(level, 2.0 * math.pi, 0.0, 0.0, spec.tol,
                                 parts)
    return (values if contour.orientation == COUNTERCLOCKWISE
            else [-value for value in values])


def quad_circle(k: Callable[[float, float], float],
                g: Callable[[float, float], float],
                contour: CircleContour,
                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of k dx + g dy over the circle by the periodic trapezoid
    rule: the scalar part of the integral of (k - g dxdy) dz."""
    cx, cy = contour.center.u, contour.center.v

    def F(ws: list[complex]) -> list[complex]:
        values = []
        for w in ws:
            x, y = cx + w.real, cy + w.imag
            values.append(complex(k(x, y), -g(x, y)))
        return values

    return _contour_integral(F, contour, spec, 1)[0]


def _tanh_sinh(H: Callable[[list[float]], list[float]], a: float, b: float,
               tol: float) -> float:
    """Integral of H over [a, b] under x = mid + half * tanh(pi/2 sinh s):
    the nodes cluster double-exponentially at both ends."""
    half = 0.5 * (b - a)

    def level(ss: list[float]) -> list[float]:
        ws = [_HALF_PI * math.sinh(s) for s in ss]
        # half * (1 - tanh|w|), the distance to the nearer end, without the
        # cancellation of 1 - tanh near the ends
        ds = [half / (math.exp(abs(w)) * math.cosh(w)) for w in ws]
        xs = [a + d if w < 0.0 else b - d for w, d in zip(ws, ds)]
        return [h * (half * _HALF_PI * math.cosh(s) / math.cosh(w) ** 2)
                for h, s, w in zip(H(xs), ss, ws)]

    return _periodic_trapezoid(level, 2.0 * WINDOW, -WINDOW, 0.0, tol)[0]


def _exp_sinh_rays(R: Callable[[list[complex]], list[complex]], c: complex,
                   a: complex, first: float, last: float,
                   tol: float) -> list[float]:
    """Real parts of the integrals of c R(x) exp(a x) over the axis from
    last to infinity and from -infinity to first, as the two parts of one
    run.  Each is taken on the 45 degree ray z = cut + r * omega into the
    half-plane where exp(a z) decays, under r = exp(pi/2 sinh s), so the
    two rays share r and its weight r cosh s at every node.

    Cauchy's theorem keeps the value when no pole of R lies between the
    axis and the ray, as no pole does past the outermost pole abscissae.
    """
    rays = []
    for start, sense in ((last, 1.0), (first, -1.0)):
        omega = complex(sense, math.copysign(1.0, a.imag)) / math.sqrt(2.0)
        rays.append((start, omega, sense * omega * c * _HALF_PI))

    def level(ss: list[float]) -> list[complex]:
        rs = [math.exp(_HALF_PI * math.sinh(s)) for s in ss]
        weights = [r * math.cosh(s) for r, s in zip(rs, ss)]
        parts = []
        for start, omega, scale in rays:
            zs = [start + r * omega for r in rs]
            es = [cmath.exp(a * z) for z in zs]
            # an e that underflowed far out on the ray, where R(z) may
            # overflow, leaves the sample 0
            values = iter(R([z for z, e in zip(zs, es) if e]))
            parts.append([(next(values) * e * scale * weight).real if e
                          else 0.0 for e, weight in zip(es, weights)])
        return list(map(complex, *parts))

    return _periodic_trapezoid(level, 2.0 * WINDOW, -WINDOW, 0.0, tol, 2)


# ---------------------------------------------------------------------------
# meromorphic-function front ends

_FACTORS = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}
#: (c, b) with factor(sz) the sum of c * exp(b * sz): exp is one part, and
#: cos w = (e^{iw} + e^{-iw})/2 and sin w = (e^{iw} - e^{-iw})/2i are two
_EXP_PARTS = {"exp": ((1.0, 1.0),), "cos": ((0.5, 1j), (0.5, -1j)),
              "sin": ((-0.5j, 1j), (0.5j, -1j))}


def _shifted(coeffs: tuple[complex, ...], center: complex) -> list[complex]:
    """Coefficients of p(center + w) in w: the exact Taylor shift, each
    coefficient rounded once; QuadratureError past the double range."""
    try:
        return [t.to_complex() for t in dyadic_taylor_shift(
            dyadic_poly(coeffs), center, len(coeffs))]
    except OverflowError:
        raise QuadratureError(
            f"coefficients shifted to the center {center} leave the double "
            f"range") from None


def _rational_evaluator(f: MeromorphicFunction, center: complex = 0j
                        ) -> Callable[[list[complex]], list[complex]]:
    """The rational part of f at center + w as a function of a list of w,
    by complex Horner evaluation in w of its coefficient lists, run over
    the whole list and Taylor-shifted to a nonzero center; u + v*dxdy read
    as u + v*1j."""
    num, den = f.num.coeffs, f.den.coeffs
    if center:
        num, den = _shifted(num, center), _shifted(den, center)
    # Horner starts at the leading coefficient; a zero numerator is [0j]
    p0, *num = num[::-1] or [0j]
    q0, *den = den[::-1]

    def R(ws: list[complex]) -> list[complex]:
        values = []
        for w in ws:
            p, q = p0, q0
            for c in num:
                p = p * w + c
            for c in den:
                q = q * w + c
            values.append(p / q)
        return values

    return R


def _complex_evaluator(f: MeromorphicFunction, center: complex = 0j
                       ) -> Callable[[list[complex]], list[complex]]:
    """f at center + w as a plain-complex function of a list of w, u +
    v*dxdy read as u + v*1j.

    Built on the rational evaluator and cmath's exp, sin and cos, so the
    quadrature path shares no arithmetic with the algebra/series stack.
    The factor is evaluated at center + w, unshifted.
    """
    R = _rational_evaluator(f, center)
    if f.factor is None:
        return R
    factor = _FACTORS[f.factor.kind]
    scale = complex(f.factor.scale)
    if center:
        def F(ws: list[complex]) -> list[complex]:
            return [p * factor(scale * (center + w))
                    for p, w in zip(R(ws), ws)]
    else:
        def F(ws: list[complex]) -> list[complex]:
            return [p * factor(scale * w) for p, w in zip(R(ws), ws)]

    return F


def _components(f: MeromorphicFunction, k_part: Callable[[complex], float],
                g_part: Callable[[complex], float]):
    """(k, g) at a point (x, y): k_part and g_part of f's value there."""
    F = _complex_evaluator(f)
    return (lambda x, y: k_part(F([complex(x, y)])[0]),
            lambda x, y: g_part(F([complex(x, y)])[0]))


def one_form_components(f: MeromorphicFunction):
    """(k, g) of the 1-form f dx: k = u-part of f, g = -v-part."""
    return _components(f, lambda w: w.real, lambda w: -w.imag)


def dual_form_components(f: MeromorphicFunction):
    """(k, g) whose circle integral is the imaginary part of the classical
    integral of f dz, i.e. the imaginary defect."""
    return _components(f, lambda w: w.imag, lambda w: w.real)


def circle_quadrature(f: MeromorphicFunction, contour: CircleContour,
                      spec: QuadratureSpec = QuadratureSpec()) -> float:
    F = _complex_evaluator(f, complex(contour.center))
    return _contour_integral(F, contour, spec, 1)[0]


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


def axis_evaluator(f: MeromorphicFunction
                   ) -> Callable[[list[float]], list[float]]:
    """u-part of f on the axis, as a function of a list of plain floats."""
    F = _complex_evaluator(f)

    def H(xs: list[float]) -> list[float]:
        return [value.real for value in F(xs)]

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
            pieces += _exp_sinh_rays(R, c, b * scale, cuts[0], cuts[-1], tol)
        return math.fsum(pieces)

    def mapped(thetas: list[float]) -> list[float]:
        return [h / math.cos(theta) ** 2 for h, theta
                in zip(H(list(map(math.tan, thetas))), thetas)]

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
    quad, dual = _contour_integral(
        _complex_evaluator(f, complex(contour.center)), contour, spec, 2)
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
