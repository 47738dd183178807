"""Meromorphic functions over the even subalgebra.

A function is a rational part (two polynomials with even-element
coefficients, denominator monic, shared roots cancelled) times at most one
entire factor exp/sin/cos(scale*z).  Poles come from denominator roots; a
simple zero of a sin/cos factor sitting on a denominator root lowers the
pole order by one.  Every function roots its denominator once, when it is
built, and that root table is the only place a pole order or a Laurent
valuation is decided.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, Sequence

from . import expressions as ex
from .algebra import (EvenElement, _Frozen, complex_cos, complex_exp,
                      complex_inv, complex_sin, even, format_even)
from .errors import ComputationError, RangeError, UsageError
from .polynomials import (ONE_POLY, Polynomial, Z_POLY, ZERO_POLY,
                          vanishes_at)
from .roots import CLUSTER_TOL, RootFindingError, find_roots
from .series import (DEFAULT_WINDOW, LaurentSeries, entire_series,
                     entire_zero_order, series_inv, series_mul)

#: a numerator value this small (relative to Horner's bound on its
#: rounding) at a denominator root counts as a shared root and is cancelled
CANCEL_TOL = 1e-9

#: reported pole locations must satisfy |den(loc)| <= RESIDUAL_TOL times
#: Horner's bound sum |a_k| |loc|**k on its rounding
RESIDUAL_TOL = 1e-9


class UnsupportedExpressionError(UsageError):
    """Expression falls outside the rational-times-entire-factor model."""


class SingularSampleError(ComputationError, ValueError):
    """A classification sample sits on or too close to a singularity."""


_ENTIRE = {"exp": complex_exp, "sin": complex_sin, "cos": complex_cos}


class EntireFactor(_Frozen):
    """exp, sin or cos of scale*z; kind is 'exp', 'sin' or 'cos'."""

    __slots__ = ("kind", "scale")

    def at(self, x: complex) -> complex:
        """The factor at the float pair x = complex(u, v)."""
        return _ENTIRE[self.kind](complex(self.scale) * x)


class Pole(_Frozen):
    """A pole of the given order at location."""

    __slots__ = ("location", "order")


#: (location, multiplicity) pairs of a polynomial's roots
_Roots = tuple[tuple[complex, int], ...]


class MeromorphicFunction(_Frozen, uncompared=("den_roots",),
                          unshown=("den_roots",)):
    """num/den times the entire factor, if any.

    ``den_roots`` holds the (location, multiplicity) roots of ``den``;
    given when already known (``to_meromorphic`` keeps those found while
    normalizing), found here when ``None``.
    """

    __slots__ = ("num", "den", "factor", "den_roots")

    def __init__(self, num: Polynomial, den: Polynomial,
                 factor: EntireFactor | None = None,
                 den_roots: _Roots | None = None) -> None:
        if den_roots is None:
            den_roots = (tuple(find_roots(den.coeffs)) if den.degree >= 1
                         else ())
        self._fill_slots(num, den, factor, den_roots)

    def __call__(self, z: EvenElement) -> EvenElement:
        """num/den times the factor, on float pairs; one conversion out."""
        x = complex(z)
        value = self.num.at(x) * complex_inv(self.den.at(x))
        if self.factor is not None:
            value = value * self.factor.at(x)
        return EvenElement(value.real, value.imag)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def degree_gap(self) -> int:
        """deg(den) - deg(num) of the rational part."""
        return self.den.degree - self.num.degree


# ---------------------------------------------------------------------------
# expression -> meromorphic function

class _Rational(_Frozen):
    """num/den times the factor, as folded: nothing normalized or rooted."""

    __slots__ = ("num", "den", "factor")


def _constant(value: float) -> _Rational:
    return _Rational(Polynomial.constant(value), ONE_POLY, None)


#: what each predefined name folds to; the caller's table may add bindings
_NAMES = {"z": _Rational(Z_POLY, ONE_POLY, None),
          "I": _Rational(Polynomial.constant(1j), ONE_POLY, None),
          "pi": _constant(math.pi)}


def _fold(e: ex.Expr, names: dict[str, _Rational]) -> _Rational:
    if isinstance(e, ex.Num):
        return _constant(e.value)
    if isinstance(e, ex.Sym):
        if e.name in names:
            return names[e.name]
        if e.name == "x":
            raise UnsupportedExpressionError(
                "the symbol x is only accepted for real-line integrands; "
                "use z in contour mode")
        raise UnsupportedExpressionError(f"unbound symbol {e.name!r}")
    if isinstance(e, ex.Neg):
        r = _fold(e.operand, names)
        return _Rational(-r.num, r.den, r.factor)
    if isinstance(e, ex.BinOp):
        a = _fold(e.left, names)
        b = _fold(e.right, names)
        if e.op in "+-":
            if a.factor is not None or b.factor is not None:
                if (a.factor is None or b.factor is None
                        or a.factor != b.factor):
                    raise UnsupportedExpressionError(
                        "sums mixing different entire factors are not "
                        "representable")
            num = a.num * b.den
            other = b.num * a.den
            num = num + other if e.op == "+" else num - other
            return _Rational(num, a.den * b.den, a.factor)
        if e.op == "*":
            if a.factor is not None and b.factor is not None:
                raise UnsupportedExpressionError(
                    "products of two entire factors are not representable")
            return _Rational(a.num * b.num, a.den * b.den,
                             a.factor or b.factor)
        # division
        if b.factor is not None:
            raise UnsupportedExpressionError(
                "an entire factor in a denominator is not meromorphic "
                "in this model")
        if b.num.is_zero():
            raise UnsupportedExpressionError("division by the zero expression")
        return _Rational(a.num * b.den, a.den * b.num, a.factor)
    if isinstance(e, ex.Pow):
        r = _fold(e.base, names)
        if r.factor is not None and e.exponent not in (0, 1):
            raise UnsupportedExpressionError(
                "powers of entire factors are not representable")
        if e.exponent == 0:
            return _Rational(ONE_POLY, ONE_POLY, None)
        if e.exponent > 0:
            return _Rational(r.num.int_pow(e.exponent),
                             r.den.int_pow(e.exponent), r.factor)
        if r.num.is_zero():
            raise UnsupportedExpressionError(
                "negative power of the zero expression")
        m = -e.exponent
        return _Rational(r.den.int_pow(m), r.num.int_pow(m), r.factor)
    if isinstance(e, ex.Call):
        arg = _fold(e.arg, names)
        if arg.factor is not None:
            raise UnsupportedExpressionError(
                "entire factors cannot be composed")
        scale = _linear_scale(arg)
        return _Rational(ONE_POLY, ONE_POLY, EntireFactor(e.func, scale))
    raise TypeError(f"not an expression node: {e!r}")


def _linear_scale(arg: _Rational) -> EvenElement:
    """The c of an entire-call argument, which must be exactly c*z."""
    # 0*inf leaves a NaN constant term, which is no grammar error
    _require_finite(arg.num.coeffs + arg.den.coeffs)
    num = arg.num
    if arg.den.degree != 0 or num.degree > 1:
        raise UnsupportedExpressionError(
            "entire factor arguments must be a constant multiple of z")
    if num.degree >= 0 and num.coeffs[0]:
        raise UnsupportedExpressionError(
            "entire factor arguments must have no constant term")
    if num.degree < 1:
        return even(0.0)
    c = num.coeffs[1] * complex_inv(arg.den.coeffs[0])
    return EvenElement(c.real, c.imag)


def normalize_rational(num: Polynomial, den: Polynomial
                       ) -> tuple[Polynomial, Polynomial, _Roots]:
    """Monic denominator, shared roots cancelled, and its root table: each
    cancellation lowers its root's multiplicity there, and rescaling the
    lead moves no root, so the denominator is rooted once."""
    if den.is_zero():
        raise UnsupportedExpressionError("zero denominator polynomial")
    den, inv_lead = den.monic()
    num = num.scale(inv_lead)
    if num.is_zero():
        return ZERO_POLY, ONE_POLY, ()
    roots = []
    for loc, mult in find_roots(den.coeffs) if den.degree >= 1 else ():
        while mult and vanishes_at(num.coeffs, loc, CANCEL_TOL):
            num = num.deflate(loc)
            den = den.deflate(loc)
            mult -= 1
        if num.is_zero():
            return ZERO_POLY, ONE_POLY, ()
        if mult:
            roots.append((loc, mult))
    # deflation keeps den monic up to rounding; retighten the lead
    den, inv_lead = den.monic()
    num = num.scale(inv_lead)
    return num, den, tuple(roots)


def _require_finite(coeffs: tuple[complex, ...]) -> None:
    for c in coeffs:
        if not cmath.isfinite(c):
            raise RangeError(f"folded coefficient {format_even(c)} lies "
                             f"beyond the double range")


def to_meromorphic(e: ex.Expr, names: dict[str, _Rational] = _NAMES
                   ) -> MeromorphicFunction:
    """Normalize a parsed expression into the meromorphic model."""
    r = _fold(e, names)
    _require_finite(r.num.coeffs + r.den.coeffs)
    num, den, roots = normalize_rational(r.num, r.den)
    return MeromorphicFunction(num, den, r.factor, roots)


def meromorphic_from_text(text: str, bindings: dict[str, float] | None = None,
                          real_line: bool = False) -> MeromorphicFunction:
    """Parse and fold; x is z on the real line, each binding a constant."""
    names = dict(_NAMES, x=_NAMES["z"]) if real_line else dict(_NAMES)
    for name, value in (bindings or {}).items():
        names[name] = _constant(float(value))
    return to_meromorphic(ex.parse(text), names)


# ---------------------------------------------------------------------------
# poles

def find_poles(f: MeromorphicFunction) -> tuple[Pole, ...]:
    """All denominator roots, with orders reduced by entire-factor zeros."""
    factor = f.factor
    poles = []
    for loc, mult in f.den_roots:
        if not vanishes_at(f.den.coeffs, loc, RESIDUAL_TOL):
            raise RootFindingError(
                f"root residual too large at {EvenElement(loc.real, loc.imag)}"
                f"; denominator is ill-conditioned")
        order = mult
        if factor is not None:
            order -= entire_zero_order(factor.kind, complex(factor.scale), loc)
        if order >= 1:
            poles.append(Pole(EvenElement(loc.real, loc.imag), order))
    return tuple(sorted(poles, key=lambda p: (p.location.u, p.location.v)))


# ---------------------------------------------------------------------------
# local expansion

def _den_valuation(f: MeromorphicFunction, center: complex) -> int:
    """Multiplicity of the table root at center; 0 if none is that close."""
    radius = CLUSTER_TOL * (1.0 + abs(center))
    for loc, mult in f.den_roots:
        if abs(loc - center) <= radius:
            return mult
    return 0


def _taylor_window(p: Polynomial, center: complex, valuation: int,
                   window: int) -> LaurentSeries:
    """t_valuation.. of p's Taylor shift to center, zero-padded to window."""
    shifted = p.taylor_shift(center, valuation + window)[valuation:]
    return LaurentSeries(center, valuation,
                         shifted + (0j,) * (window - len(shifted)))


def local_expansion(f: MeromorphicFunction, center: EvenElement,
                    window: int = DEFAULT_WINDOW) -> LaurentSeries:
    """Laurent series of f about center covering `window` coefficients.

    Each factor's valuation is structural.  The denominator's is the
    multiplicity m of its table root at center: the computed t_0..t_{m-1}
    there are root error and are dropped by index.  The numerator's is 0,
    since normalizing cancelled the shared roots, and the entire factor's
    is its zero order at center.  The k-th coefficient of a Cauchy product
    or an inverse depends on the first k + 1 inputs alone, so every factor
    is cut to `window` coefficients.
    """
    if window < 1:
        raise UsageError("window must be >= 1")
    x = complex(center)
    if f.is_zero():
        return LaurentSeries(x, 0, ())
    den = _taylor_window(f.den, x, _den_valuation(f, x), window)
    result = series_mul(_taylor_window(f.num, x, 0, window), series_inv(den))
    if f.factor is not None:
        # the factor's valuation is 0 or 1: up to z'^window covers the window
        result = series_mul(result, entire_series(
            f.factor.kind, complex(f.factor.scale), x, window))
    return result


# ---------------------------------------------------------------------------
# 1-forms and their classification

class FormClass(enum.Enum):
    NOT_CLOSED = "not_closed"
    CLOSED_ONLY = "closed_only"
    CLOSED_AND_CR = "closed_and_CR"


class OneForm(_Frozen, defaults={"both": None}):
    """alpha = k dx + g dy; ``both``, if set, gives (k, g) in one call."""

    __slots__ = ("k", "g", "both")

    def at(self, x: float, y: float) -> tuple[float, float]:
        return self.both(x, y) if self.both else (self.k(x, y), self.g(x, y))

    @staticmethod
    def from_function(f: Callable[[EvenElement], EvenElement]) -> "OneForm":
        """The form w dx with w = f(z): k = u-part, g = -v-part."""
        def both(x: float, y: float) -> tuple[float, float]:
            w = f(even(x, y))
            return w.u, -w.v

        return OneForm(lambda x, y: both(x, y)[0],
                       lambda x, y: both(x, y)[1], both)

    @staticmethod
    def from_expressions(k_text: str, g_text: str) -> "OneForm":
        """Components given as expressions in x and y (real-valued)."""
        run_k, run_g = (ex.compile_expression(ex.parse(text))
                        for text in (k_text, g_text))
        def both(x: float, y: float) -> tuple[float, float]:
            env = {"x": complex(x, 0.0), "y": complex(y, 0.0)}
            return run_k(env).real, run_g(env).real

        return OneForm(lambda x, y: both(x, y)[0],
                       lambda x, y: both(x, y)[1], both)


def classify_one_form(form: OneForm, samples: Sequence[tuple[float, float]],
                      step: float = 1e-6, tol: float = 1e-5) -> FormClass:
    """Test closedness (k_y = g_x) and the extra CR condition (k_x = -g_y).

    Central differences with the given step; each sample must satisfy the
    conditions within tol scaled by the local derivative magnitude, and every
    sample must agree for the stronger verdicts.  No samples, step <= 0 or
    tol < 0 raise UsageError, as the verdict would be untested.
    """
    if not samples:
        raise UsageError("classification needs at least one sample")
    if not step > 0:
        raise UsageError(f"step must be positive, got {step}")
    if not tol >= 0:
        raise UsageError(f"tol must be non-negative, got {tol}")
    closed = True
    cauchy_riemann = True
    for x, y in samples:
        try:
            (k_e, g_e), (k_w, g_w) = form.at(x + step, y), form.at(x - step, y)
            (k_n, g_n), (k_s, g_s) = form.at(x, y + step), form.at(x, y - step)
            k_x, g_x = (k_e - k_w) / (2 * step), (g_e - g_w) / (2 * step)
            k_y, g_y = (k_n - k_s) / (2 * step), (g_n - g_s) / (2 * step)
        except ZeroDivisionError as err:
            raise SingularSampleError(
                f"sample ({x}, {y}) is too close to a singularity") from err
        derivs = (k_x, k_y, g_x, g_y)
        if not all(math.isfinite(d) for d in derivs):
            raise SingularSampleError(
                f"sample ({x}, {y}) is too close to a singularity")
        local = tol * (1.0 + max(abs(d) for d in derivs))
        if abs(k_y - g_x) > local:
            closed = False
        if abs(k_x + g_y) > local:
            cauchy_riemann = False
    if not closed:
        return FormClass.NOT_CLOSED
    return FormClass.CLOSED_AND_CR if cauchy_riemann else FormClass.CLOSED_ONLY
