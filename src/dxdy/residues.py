"""Residues, Laurent windows, order reduction, and the special integral
formulas for evaluation points where the integrand value is a 2-form.

Three routes to a residue are provided:

* ``residue`` reads a_{-1} off the local Laurent expansion (source of truth);
* ``residue_by_order_reduction`` reads the whole principal part
  a_{-m}..a_{-1} off the same expansion, so it is a walkthrough of the
  peel-off procedure rather than an independent check;
* ``residue_by_derivative_formula`` reads the (m-1)-th x-derivative of
  z'^m f at the pole, over (m-1)!, as that function's Taylor coefficient
  m-1: an exact power-series division of the numerator and entire factor
  by the denominator's cofactor, in plain integers, rounded once.  It
  differentiates nothing and shares no float series code with the first
  route.
"""

from __future__ import annotations

import math

from .algebra import E_ZERO, EvenElement, _Frozen
from .errors import ComputationError, RangeError, UsageError
from .exactmath import (Dyadic, DyadicPoly, dyadic_poly,
                        dyadic_series_quotient, dyadic_taylor_shift)
from .functions import (RESIDUAL_TOL, EntireFactor, MeromorphicFunction,
                        Pole, _den_valuation, local_expansion)
from .polynomials import Polynomial, vanishes_at
from .series import (LaurentSeries, WindowError, _zero_order,
                     derivative_cycle)

#: widest coefficient window laurent_expand will produce
MAX_LAURENT_WINDOW = 64

#: u-part this small relative to the element magnitude counts as a 2-form
TWO_FORM_TOL = 1e-10


class PoleExpansionError(ComputationError, ValueError):
    """The function is singular where a regular point was required."""


def is_two_form(x: EvenElement) -> bool:
    """Whether the u-part vanishes within the scale-aware tolerance."""
    return abs(x.u) <= TWO_FORM_TOL * (abs(x.u) + abs(x.v) + 1e-300)


class ResidueReport(_Frozen, defaults={"extracted": ()}):
    """A residue with the route that found it: method is
    'order_reduction' or 'derivative_formula'."""

    __slots__ = ("pole", "a_minus_1", "leading", "method", "extracted")


def _expansion_at_pole(f: MeromorphicFunction, p: Pole) -> LaurentSeries:
    """The principal part a_{-order}..a_{-1}, and no more."""
    return local_expansion(f, p.location, p.order)


def residue(f: MeromorphicFunction, p: Pole) -> EvenElement:
    """a_{-1} of the local expansion about the pole."""
    s = _expansion_at_pole(f, p)
    if s.is_zero() or s.valuation > -1:
        return E_ZERO
    return s.coefficient(-1)


def residue_by_order_reduction(f: MeromorphicFunction, p: Pole) -> ResidueReport:
    """The peel-off of the principal part, in series space.

    Each round extracts the leading coefficient a_{-k} of z'^{-k} and
    subtracts a_{-k}/z'^k, so the rounds read a_{-m}, ..., a_{-1} off the
    expansion in turn; exact zeros are skipped, as a peel would find the
    next order at once.  a_{-1} is the coefficient extracted at order one,
    or zero when the constant term arrives first.
    """
    s = _expansion_at_pole(f, p)
    extracted = tuple((-n, EvenElement(c.real, c.imag))
                      for n, c in zip(range(s.valuation, 0), s.coeffs) if c)
    if not extracted:
        raise PoleExpansionError(
            f"{p.location} is not a pole of the function (no nonzero "
            f"coefficient below z'^0)")
    a_minus_1 = extracted[-1][1] if extracted[-1][0] == 1 else E_ZERO
    return ResidueReport(pole=p, a_minus_1=a_minus_1, leading=extracted[0][1],
                         method="order_reduction", extracted=extracted)


# ---------------------------------------------------------------------------
# derivative-formula route (exact power-series division)

def residue_by_derivative_formula(f: MeromorphicFunction,
                                  p: Pole) -> ResidueReport:
    """a_{-1} = (1/(m-1)!) d^{m-1}[z'^m f]/dx^{m-1} at the pole, read as
    Taylor coefficient m-1 of z'^m f by exact power-series division.

    z'^m f = N F / C, each factor from its structural valuation on, as in
    local_expansion: N is the numerator's t_0.. at the pole and C the
    denominator's t_mult.., mult being its table multiplicity, since
    t_0..t_{mult-1} there are root error; F is the entire factor's Taylor
    terms F^(j)(w0) (scale z')^j / j! from its zero order on, around the
    anchors F^(j)(w0) rounded once.  Every datum is exact over a power of
    two, so a_{-1} and the leading a_{-m} are each one rounding of an
    exact quotient coefficient (``exactmath.dyadic_series_quotient``).
    """
    m = p.order
    z0 = complex(p.location)
    mult = _den_valuation(f, z0)
    num = _taylor(f.num, z0, 0, m)
    cofactor = _taylor(f.den, z0, mult, m)
    divisor, zero_order = 1, 0
    if f.factor is not None:
        num, divisor, zero_order = _with_factor(num, f.factor, z0)
    if mult - zero_order != m:  # coefficient m-1 would not be a_{-1}
        raise PoleExpansionError(
            f"{p.location} is not a pole of order {m} of the function")
    if cofactor.re[0] == 0 == cofactor.im[0]:
        raise ZeroDivisionError("exact division by zero")
    value, lead = (EvenElement(q.real, q.imag) for q in (
        dyadic_series_quotient(num, cofactor, k, divisor) for k in (m - 1, 0)))
    return ResidueReport(p, value, lead, "derivative_formula")


def _taylor(poly: Polynomial, z0: complex, lo: int, count: int) -> DyadicPoly:
    """Exact t_lo .. t_{lo+count-1} of poly at z0 over one power of two,
    zero past the degree."""
    ts = dyadic_taylor_shift(dyadic_poly(poly.coeffs), z0,
                             min(lo + count, len(poly.coeffs)))[lo:]
    ts += [Dyadic(0, 0, 0)] * (count - len(ts))
    exp = max(t.exp for t in ts)
    return DyadicPoly(tuple(t.re << exp - t.exp for t in ts),
                      tuple(t.im << exp - t.exp for t in ts), exp)


def _with_factor(num: DyadicPoly, factor: EntireFactor,
                 z0: complex) -> tuple[DyadicPoly, int, int]:
    """num times the entire factor's Taylor terms F^(j)(w0) scale^j / j! at
    z0, j from the factor's zero order v on, exactly; the product comes
    over the terms' common denominator (v + len(num) - 1)!, and that
    denominator and v are returned with it."""
    s = complex(factor.scale)
    w0 = s * z0
    cycle = derivative_cycle(factor.kind, w0)
    anchors, scale = dyadic_poly(cycle), dyadic_poly([s])
    sr, si = scale.re[0], scale.im[0]
    v = _zero_order(factor.kind, w0, cycle)
    top = v + len(num.re) - 1
    divisor = math.factorial(top)
    terms = []
    pr, pi = (sr, si) if v else (1, 0)  # numerator of scale**j
    for j in range(v, top + 1):
        g = divisor // math.factorial(j) << scale.exp * (top - j)
        ar, ai = anchors.re[j % len(cycle)], anchors.im[j % len(cycle)]
        terms.append((g * (ar * pr - ai * pi), g * (ar * pi + ai * pr)))
        pr, pi = pr * sr - pi * si, pr * si + pi * sr
    re, im = [], []
    for j in range(len(num.re)):
        pairs = [(num.re[i], num.im[i], *terms[j - i]) for i in range(j + 1)]
        re.append(sum(a * c - b * d for a, b, c, d in pairs))
        im.append(sum(a * d + b * c for a, b, c, d in pairs))
    return (DyadicPoly(tuple(re), tuple(im),
                       num.exp + anchors.exp + scale.exp * top), divisor, v)


# ---------------------------------------------------------------------------
# special integral formulas

def _require_regular(f: MeromorphicFunction, z0: EvenElement) -> None:
    """Refuse a pole, and a point the root table places on one: there the
    expansion read would be the pole's."""
    x = complex(z0)
    if vanishes_at(f.den.coeffs, x, RESIDUAL_TOL):
        raise PoleExpansionError(f"{z0} is a pole of the function")
    if _den_valuation(f, x) > 0:
        raise PoleExpansionError(f"{z0} is a pole of the root table")


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
    """n-th x-derivative of f off the local expansion, away from poles."""
    if n < 0:
        raise UsageError("derivative order must be >= 0")
    if n > 170:  # 171! exceeds the largest double
        raise RangeError(f"{n}! lies beyond the double range")
    _require_regular(f, z0)
    # coefficient n of each shift, product and inverse reads inputs 0..n
    s = local_expansion(f, z0, n + 1)
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
        raise UsageError("empty window: lo > hi")
    if hi - lo + 1 > MAX_LAURENT_WINDOW:
        raise WindowError(
            f"window of {hi - lo + 1} coefficients exceeds the configured "
            f"maximum {MAX_LAURENT_WINDOW}")
    x = complex(z0)
    if (_den_valuation(f, x) > 0
            and not vanishes_at(f.den.coeffs, x, RESIDUAL_TOL)):
        raise PoleExpansionError(
            f"{z0} is within the root table's radius of a pole, not on it")
    s = local_expansion(f, z0, max(1, hi + f.den.degree + 2))
    if s.is_zero():
        return LaurentSeries(x, lo, (0j,) * (hi - lo + 1))
    return s.window(lo, hi)
