"""Residues, Laurent windows, order reduction, and the special integral
formulas for evaluation points where the integrand value is a 2-form.

Three independent routes to a residue are provided:

* ``residue`` reads a_{-1} off the local Laurent expansion (source of truth);
* ``residue_by_order_reduction`` runs the iterative peel-off procedure,
  extracting the leading principal coefficient and subtracting it until the
  pole is exhausted;
* ``residue_by_derivative_formula`` evaluates the (m-1)-th x-derivative of
  z'^m f at the pole by central differences.  The stencil is summed in exact
  rational arithmetic so the difference quotient is truncation-limited even
  for high orders, where plain float sampling would drown in eps/h**(m-1)
  noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import E_ZERO, EvenElement, even, even_mul
from .exactmath import (EXACT_ONE, EXACT_ZERO, ExactEven, central_stencil,
                        exact_deflate, exact_eval, exact_poly, fd_weights)
from .functions import MeromorphicFunction, Pole, local_expansion
from .series import (DEFAULT_WINDOW, LaurentSeries, WindowError, make_series)

#: widest coefficient window laurent_expand will produce
MAX_LAURENT_WINDOW = 64

#: default step of the derivative-formula cross-check
DERIVATIVE_STEP = 1e-4

#: u-part this small relative to the element magnitude counts as a 2-form
TWO_FORM_TOL = 1e-10


class PoleExpansionError(ValueError):
    """The function is singular where a regular point was required."""


def is_two_form(x: EvenElement) -> bool:
    """Whether the u-part vanishes within the scale-aware tolerance."""
    return abs(x.u) <= TWO_FORM_TOL * (abs(x.u) + abs(x.v) + 1e-300)


@dataclass(frozen=True)
class ResidueReport:
    pole: Pole
    a_minus_1: EvenElement
    leading: EvenElement
    method: str  # 'order_reduction' | 'derivative_formula'
    extracted: tuple[tuple[int, EvenElement], ...] = ()


def _expansion_at_pole(f: MeromorphicFunction, p: Pole) -> LaurentSeries:
    window = max(DEFAULT_WINDOW, p.order + 2)
    return local_expansion(f, p.location, window)


def residue(f: MeromorphicFunction, p: Pole) -> EvenElement:
    """a_{-1} of the local expansion about the pole."""
    s = _expansion_at_pole(f, p)
    if s.is_zero() or s.valuation > -1:
        return E_ZERO
    return s.coefficient(-1)


def residue_by_order_reduction(f: MeromorphicFunction, p: Pole) -> ResidueReport:
    """Iterative peel-off of the principal part, in series space.

    Each round extracts the current leading coefficient a_m of z'^{-m} and
    subtracts a_m/z'^m from the expansion; the remainder's pole order drops
    strictly until the constant term is reached.  a_{-1} is the coefficient
    extracted at order one, or zero when the constant term arrives first.
    """
    s = _expansion_at_pole(f, p)
    if s.is_zero() or s.valuation >= 0:
        raise PoleExpansionError(
            f"{p.location} is not a pole of the function (valuation "
            f"{s.valuation if not s.is_zero() else 'infinite'})")
    leading = s.coeffs[0]
    extracted = []
    a_minus_1 = E_ZERO
    current = s
    while not current.is_zero() and current.valuation < 0:
        order = -current.valuation
        coeff = current.coeffs[0]
        extracted.append((order, coeff))
        if order == 1:
            a_minus_1 = coeff
        current = make_series(current.center, current.valuation + 1,
                              current.coeffs[1:])
    return ResidueReport(pole=p, a_minus_1=a_minus_1, leading=leading,
                         method="order_reduction", extracted=tuple(extracted))


# ---------------------------------------------------------------------------
# derivative-formula route (finite differences, exact arithmetic)

_FACTOR_TAYLOR_TERMS = 18


def _exact_factor_values(f: MeromorphicFunction, z0: EvenElement,
                         offsets: list[Fraction]) -> list[ExactEven]:
    """Entire-factor samples at z0 + offset, anchored at z0.

    The factor is expanded as an exact-rational Taylor polynomial in the
    (tiny) offset around w0 = scale*z0, with the transcendental anchors
    taken once in double precision.  The anchor rounding then enters every
    stencil value as a common factor, which a linear difference quotient
    cannot amplify.
    """
    from .algebra import even_cos, even_exp, even_sin
    factor = f.factor
    assert factor is not None
    scale = ExactEven.from_floats(factor.scale.u, factor.scale.v)
    w0 = even_mul(factor.scale, z0)
    s0 = ExactEven.from_floats(*_pair(even_sin(w0)))
    c0 = ExactEven.from_floats(*_pair(even_cos(w0)))
    e0 = ExactEven.from_floats(*_pair(even_exp(w0)))
    out = []
    for offset in offsets:
        dw = scale * offset
        if factor.kind == "exp":
            # e0 * sum dw^n / n!
            term = EXACT_ONE
            total = EXACT_ONE
            for n in range(1, _FACTOR_TAYLOR_TERMS):
                term = term * dw / n
                total = total + term
            out.append(e0 * total)
            continue
        # sin/cos need the offset's own sine and cosine series
        cos_dw = EXACT_ONE
        sin_dw = EXACT_ZERO
        term = EXACT_ONE
        for n in range(1, _FACTOR_TAYLOR_TERMS):
            term = term * dw / n
            if n % 2 == 1:
                sin_dw = sin_dw + (term if n % 4 == 1 else -term)
            else:
                cos_dw = cos_dw + (term if n % 4 == 0 else -term)
        if factor.kind == "sin":
            out.append(s0 * cos_dw + c0 * sin_dw)
        else:
            out.append(c0 * cos_dw - s0 * sin_dw)
    return out


def _pair(x: EvenElement) -> tuple[float, float]:
    return x.u, x.v


def residue_by_derivative_formula(f: MeromorphicFunction, p: Pole,
                                  step: float = DERIVATIVE_STEP) -> ResidueReport:
    """a_{-1} = (1/(m-1)!) d^{m-1}[z'^m f]/dx^{m-1} at the pole.

    The removable-singularity function g = z'^m f is sampled on a symmetric
    x-stencil excluding the pole itself.  z'^m is cancelled against the
    denominator beforehand by deflating it m times at the pole in exact
    arithmetic: coefficient rounding scatters a multiplicity-m root by about
    eps**(1/m), which is comparable to the step, so sampling the raw
    denominator would see the scatter cloud rather than the order-m pole
    this formula is about.  The difference quotient itself is also summed
    exactly; see the module docstring.
    """
    m = p.order
    d = m - 1
    nodes = central_stencil(d)
    h = Fraction(step)
    weights = fd_weights(d, [Fraction(j) for j in nodes])
    z0 = ExactEven.from_floats(p.location.u, p.location.v)
    num = exact_poly([(c.u, c.v) for c in f.num.coeffs])
    cofactor = exact_poly([(c.u, c.v) for c in f.den.coeffs])
    for _ in range(m):
        cofactor = exact_deflate(cofactor, z0)
    offsets = [j * h for j in nodes]
    if f.factor is not None:
        factor_values = _exact_factor_values(f, p.location, offsets)
    else:
        factor_values = [EXACT_ONE] * len(offsets)
    acc = EXACT_ZERO
    for weight, offset, factor_value in zip(weights, offsets, factor_values):
        x = z0 + ExactEven(offset, Fraction(0))
        g = exact_eval(num, x) / exact_eval(cofactor, x) * factor_value
        acc = acc + weight * g
    acc = acc / h ** d
    fact = math.factorial(d)
    value = even(float(acc.u) / fact, float(acc.v) / fact)
    leading = local_expansion(f, p.location, max(DEFAULT_WINDOW, m + 2))
    lead_coeff = leading.coeffs[0] if not leading.is_zero() else E_ZERO
    return ResidueReport(pole=p, a_minus_1=value, leading=lead_coeff,
                         method="derivative_formula")


# ---------------------------------------------------------------------------
# special integral formulas

def _require_regular(f: MeromorphicFunction, z0: EvenElement) -> None:
    scale = f.den.max_coeff()
    if abs(f.den(z0)) <= 1e-9 * scale:
        raise PoleExpansionError(f"{z0} is a pole of the function")


def cauchy_evaluate(f: MeromorphicFunction,
                    z0: EvenElement) -> tuple[EvenElement, bool]:
    """f(z0) and whether the special integral formula applies there.

    The formula reads the contour integral of f/(z - z0) dx around z0 as
    2*pi*dxdy*f(z0), which is only meaningful when f(z0) is a 2-form (its
    u-part vanishes); the flag reports that applicability.
    """
    _require_regular(f, z0)
    value = f(z0)
    return value, is_two_form(value)


def cauchy_derivative(f: MeromorphicFunction, z0: EvenElement,
                      n: int) -> EvenElement:
    """n-th x-derivative of f at a regular point, off the local expansion."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    _require_regular(f, z0)
    s = local_expansion(f, z0, max(DEFAULT_WINDOW, n + 2))
    if s.is_zero() or n < s.valuation:
        return E_ZERO
    return s.coefficient(n) * float(math.factorial(n))


def cauchy_integral_value(f: MeromorphicFunction, z0: EvenElement,
                          n: int = 0) -> tuple[float, EvenElement, bool]:
    """Value of the contour integral of f/(z-z0)^{n+1} dx around z0.

    Returns (real value, n-th derivative, applicable).  The real value is
    the u-part of (2 pi / n!) dxdy times the derivative, i.e. -2 pi times
    the v-part of the n-th Taylor coefficient; it represents the classical
    integral only when the coefficient is a 2-form.
    """
    deriv = cauchy_derivative(f, z0, n)
    a_n = deriv / float(math.factorial(n))
    return -2.0 * math.pi * a_n.v, deriv, is_two_form(a_n)


# ---------------------------------------------------------------------------
# Laurent windows

def laurent_expand(f: MeromorphicFunction, z0: EvenElement, lo: int,
                   hi: int) -> LaurentSeries:
    """Laurent coefficients of f about z0 exposed over exponents [lo, hi]."""
    if lo > hi:
        raise ValueError("empty window: lo > hi")
    if hi - lo + 1 > MAX_LAURENT_WINDOW:
        raise WindowError(
            f"window of {hi - lo + 1} coefficients exceeds the configured "
            f"maximum {MAX_LAURENT_WINDOW}")
    window = max(1, hi + f.den.degree + 2)
    s = local_expansion(f, z0, window)
    if s.is_zero():
        return make_series(z0, lo, [E_ZERO] * (hi - lo + 1))
    return make_series(z0, lo, s.window_coefficients(lo, hi))
