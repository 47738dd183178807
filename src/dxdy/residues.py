"""Residues, Laurent windows, order reduction, and the special integral
formulas for evaluation points where the integrand value is a 2-form.

Three routes to a residue are provided:

* ``residue`` reads a_{-1} off the local Laurent expansion (source of truth);
* ``residue_by_order_reduction`` reads the whole principal part
  a_{-m}..a_{-1} off the same expansion, so it is a walkthrough of the
  peel-off procedure rather than an independent check;
* ``residue_by_derivative_formula`` evaluates the (m-1)-th x-derivative of
  z'^m f at the pole by central differences.  The stencil is summed exactly,
  in plain integers, and rounded once, so the difference quotient is
  truncation-limited even for high orders, where plain float sampling would
  drown in eps/h**(m-1) noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import E_ZERO, EvenElement, even, even_mul, to_complexes
from .exactmath import (Dyadic, DyadicPoly, central_stencil, dyadic_poly,
                        dyadic_taylor_shift, offset_poly, real_horner,
                        stencil_weights)
from .functions import (EntireFactor, MeromorphicFunction, Pole,
                        _den_valuation, local_expansion)
from .polynomials import Polynomial
from .series import (DEFAULT_WINDOW, LaurentSeries, WindowError,
                     derivative_cycle)

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
    extracted = tuple((-n, c) for n, c in zip(range(s.valuation, 0), s.coeffs)
                      if not c.is_zero())
    if not extracted:
        raise PoleExpansionError(
            f"{p.location} is not a pole of the function (no nonzero "
            f"coefficient below z'^0)")
    a_minus_1 = extracted[-1][1] if extracted[-1][0] == 1 else E_ZERO
    return ResidueReport(pole=p, a_minus_1=a_minus_1, leading=extracted[0][1],
                         method="order_reduction", extracted=extracted)


# ---------------------------------------------------------------------------
# derivative-formula route (finite differences, exact integer arithmetic)

_FACTOR_TAYLOR_TERMS = 18

#: common denominator of the entire factor's Taylor terms
_FACTOR_DEN = math.factorial(_FACTOR_TAYLOR_TERMS - 1)


def _factor_poly(factor: EntireFactor, z0: EvenElement, e: int) -> DyadicPoly:
    """The entire factor at z0 + d as an integer polynomial in X = d * 2**e.

    The factor is its Taylor sum sum_n F^(n)(w0) dw^n / n! over
    n < _FACTOR_TAYLOR_TERMS, with dw = scale*d around w0 = scale*z0 and
    the anchors F^(n)(w0) taken once in double precision.  The anchor
    rounding then enters every stencil value as a common factor, which a
    linear difference quotient cannot amplify.  The result P gives
    F = P(X) / (2**P.exp * _FACTOR_DEN).
    """
    cycle = derivative_cycle(factor.kind, even_mul(factor.scale, z0))
    anchors = dyadic_poly(to_complexes(cycle))
    scale = dyadic_poly(to_complexes([factor.scale]))
    sr, si = scale.re[0], scale.im[0]
    shift = scale.exp + e
    top = _FACTOR_TAYLOR_TERMS - 1
    re, im = [], []
    pr, pi = 1, 0  # numerator of scale**n
    for n in range(_FACTOR_TAYLOR_TERMS):
        g = _FACTOR_DEN // math.factorial(n) << shift * (top - n)
        ar, ai = anchors.re[n % len(cycle)], anchors.im[n % len(cycle)]
        re.append(g * (ar * pr - ai * pi))
        im.append(g * (ar * pi + ai * pr))
        pr, pi = pr * sr - pi * si, pr * si + pi * sr
    return DyadicPoly(tuple(re), tuple(im), anchors.exp + shift * top)


def residue_by_derivative_formula(f: MeromorphicFunction, p: Pole,
                                  step: float = DERIVATIVE_STEP) -> ResidueReport:
    """a_{-1} = (1/(m-1)!) d^{m-1}[z'^m f]/dx^{m-1} at the pole.

    The removable-singularity function g = z'^m f is sampled on a symmetric
    x-stencil z0 + j*step excluding the pole itself.  z'^m is cancelled
    against the denominator exactly: with t_i its Taylor coefficients at
    z0, the cofactor after m deflations is C(z0+d) = sum_{i>=m} t_i d^(i-m).
    Coefficient rounding scatters a multiplicity-m root by about
    eps**(1/m), which is comparable to the step, so sampling the raw
    denominator would see the scatter cloud rather than the order-m pole
    this formula is about.  step is dyadic, so numerator, cofactor and
    entire factor are integer polynomials in j times the step's integer
    mantissa, and the weighted sum is one exact rational whose components
    are each rounded once; see the ``exactmath`` docstring.
    """
    m = p.order
    d = m - 1
    nodes = central_stencil(d)
    z0 = complex(p.location.u, p.location.v)
    mantissa, step_den = step.as_integer_ratio()
    e = step_den.bit_length() - 1
    num = offset_poly(_taylor(f.num, z0), e)
    cofactor = offset_poly(_taylor(f.den, z0)[m:], e)
    # the value is (acc_re + i*acc_im) / q * 2**shift / divisor, where
    # acc / q sums w_j * N_j * F_j / C_j over the stencil in integer numerators
    shift = cofactor.exp - num.exp + e * d
    divisor = mantissa ** d
    factor = None
    if f.factor is not None:
        factor = _factor_poly(f.factor, p.location, e)
        shift -= factor.exp
        divisor *= _FACTOR_DEN
    acc_re = acc_im = 0
    q = 1
    for j, (w_num, w_den) in zip(nodes, stencil_weights(d, nodes)):
        x = j * mantissa
        nr, ni = real_horner(num, x)
        if factor is not None:
            fr, fi = real_horner(factor, x)
            nr, ni = nr * fr - ni * fi, nr * fi + ni * fr
        cr, ci = real_horner(cofactor, x)
        norm = cr * cr + ci * ci
        if norm == 0:
            raise ZeroDivisionError("exact division by zero")
        term_q = w_den * norm
        acc_re = acc_re * term_q + w_num * (nr * cr + ni * ci) * q
        acc_im = acc_im * term_q + w_num * (ni * cr - nr * ci) * q
        q *= term_q
    q *= divisor
    if q < 0:
        acc_re, acc_im, q = -acc_re, -acc_im, -q
    if shift >= 0:
        acc_re <<= shift
        acc_im <<= shift
    else:
        q <<= -shift
    fact = math.factorial(d)
    value = even(acc_re / q / fact, acc_im / q / fact)
    leading = local_expansion(f, p.location, 1)
    lead_coeff = leading.coeffs[0] if not leading.is_zero() else E_ZERO
    return ResidueReport(pole=p, a_minus_1=value, leading=lead_coeff,
                         method="derivative_formula")


def _taylor(poly: Polynomial, z0: complex) -> list[Dyadic]:
    """Exact Taylor coefficients of poly at z0, all of them."""
    return dyadic_taylor_shift(dyadic_poly(to_complexes(poly.coeffs)), z0,
                               len(poly.coeffs))


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
    """n-th x-derivative of f off the local expansion, away from poles."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    _require_regular(f, z0)
    if _den_valuation(f, z0) > 0:  # the expansion would be the pole's
        raise PoleExpansionError(f"{z0} is a pole of the root table")
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
        return LaurentSeries(z0, lo, (E_ZERO,) * (hi - lo + 1))
    return LaurentSeries(z0, lo, tuple(s.window_coefficients(lo, hi)))
