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

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import expressions as ex
from .algebra import (E_DXDY, E_ZERO, EvenElement, even, even_cos,
                      even_exp, even_inv, even_mul, even_sin)
from .polynomials import ONE_POLY, Polynomial, Z_POLY, ZERO_POLY
from .roots import CLUSTER_TOL, RootFindingError, find_roots
from .series import (DEFAULT_WINDOW, LaurentSeries, entire_series,
                     entire_zero_order, series_inv, series_mul)

#: a numerator value this small (relative to the numerator scale) at a
#: denominator root counts as a shared root and is cancelled
CANCEL_TOL = 1e-9

#: reported pole locations must satisfy |den(loc)| <= RESIDUAL_TOL * max coeff
RESIDUAL_TOL = 1e-9


class UnsupportedExpressionError(ValueError):
    """Expression falls outside the rational-times-entire-factor model."""


class SingularSampleError(ValueError):
    """A classification sample sits on or too close to a singularity."""


@dataclass(frozen=True)
class EntireFactor:
    kind: str  # 'exp' | 'sin' | 'cos'
    scale: EvenElement

    def __call__(self, z: EvenElement) -> EvenElement:
        w = even_mul(self.scale, z)
        if self.kind == "exp":
            return even_exp(w)
        if self.kind == "sin":
            return even_sin(w)
        return even_cos(w)


@dataclass(frozen=True)
class Pole:
    location: EvenElement
    order: int


#: (location, multiplicity) pairs of a polynomial's roots
_Roots = tuple[tuple[EvenElement, int], ...]


@dataclass(frozen=True)
class MeromorphicFunction:
    num: Polynomial
    den: Polynomial
    factor: EntireFactor | None = None
    #: (location, multiplicity) roots of ``den``; given when already known
    #: (``to_meromorphic`` keeps those found while normalizing), found here
    #: when ``None``
    den_roots: _Roots | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.den_roots is None:
            roots = _roots_of(self.den) if self.den.degree >= 1 else ()
            object.__setattr__(self, "den_roots", roots)

    def __call__(self, z: EvenElement) -> EvenElement:
        value = even_mul(self.num(z), even_inv(self.den(z)))
        if self.factor is not None:
            value = even_mul(value, self.factor(z))
        return value

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def degree_gap(self) -> int:
        """deg(den) - deg(num) of the rational part."""
        return self.den.degree - self.num.degree


# ---------------------------------------------------------------------------
# expression -> meromorphic function

@dataclass(frozen=True)
class _Rational:
    num: Polynomial
    den: Polynomial
    factor: EntireFactor | None


def _fold(e: ex.Expr) -> _Rational:
    if isinstance(e, ex.Num):
        return _Rational(Polynomial.constant(even(e.value)), ONE_POLY, None)
    if isinstance(e, ex.Sym):
        if e.name == "z":
            return _Rational(Z_POLY, ONE_POLY, None)
        if e.name == "I":
            return _Rational(Polynomial.constant(E_DXDY), ONE_POLY, None)
        if e.name == "pi":
            return _Rational(Polynomial.constant(even(math.pi)), ONE_POLY, None)
        if e.name == "x":
            raise UnsupportedExpressionError(
                "the symbol x is only accepted for real-line integrands; "
                "use z in contour mode")
        raise UnsupportedExpressionError(f"unbound symbol {e.name!r}")
    if isinstance(e, ex.Neg):
        r = _fold(e.operand)
        return _Rational(-r.num, r.den, r.factor)
    if isinstance(e, ex.BinOp):
        a = _fold(e.left)
        b = _fold(e.right)
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
            raise ZeroDivisionError("division by the zero expression")
        return _Rational(a.num * b.den, a.den * b.num, a.factor)
    if isinstance(e, ex.Pow):
        r = _fold(e.base)
        if r.factor is not None and e.exponent not in (0, 1):
            raise UnsupportedExpressionError(
                "powers of entire factors are not representable")
        if e.exponent == 0:
            return _Rational(ONE_POLY, ONE_POLY, None)
        if e.exponent > 0:
            return _Rational(r.num.int_pow(e.exponent),
                             r.den.int_pow(e.exponent), r.factor)
        if r.num.is_zero():
            raise ZeroDivisionError("negative power of the zero expression")
        m = -e.exponent
        return _Rational(r.den.int_pow(m), r.num.int_pow(m), r.factor)
    if isinstance(e, ex.Call):
        arg = _fold(e.arg)
        if arg.factor is not None:
            raise UnsupportedExpressionError(
                "entire factors cannot be composed")
        scale = _linear_scale(arg)
        return _Rational(ONE_POLY, ONE_POLY, EntireFactor(e.func, scale))
    raise TypeError(f"not an expression node: {e!r}")


def _linear_scale(arg: _Rational) -> EvenElement:
    """The c of an entire-call argument, which must be exactly c*z."""
    if arg.den.degree != 0:
        raise UnsupportedExpressionError(
            "entire factor arguments must be a constant multiple of z")
    num = arg.num
    inv = even_inv(arg.den.coeffs[0])
    if num.degree > 1:
        raise UnsupportedExpressionError(
            "entire factor arguments must be a constant multiple of z")
    if num.degree >= 0 and not num.coeffs[0].is_zero():
        raise UnsupportedExpressionError(
            "entire factor arguments must have no constant term")
    if num.degree < 1:
        return even(0.0)
    return even_mul(num.coeffs[1], inv)


def normalize_rational(num: Polynomial, den: Polynomial
                       ) -> tuple[Polynomial, Polynomial, _Roots | None]:
    """Monic denominator, shared roots cancelled.

    The third item holds the roots of the returned denominator when they
    were found on exactly its coefficients, i.e. nothing was cancelled and
    retightening the lead changed no bit; otherwise it is None.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator polynomial")
    den, lead = den.monic()
    num = num.scale(even_inv(lead))
    if num.is_zero():
        return ZERO_POLY, ONE_POLY, None
    rooted, roots = den, None
    if den.degree >= 1:
        roots = _roots_of(den)
        for loc, mult in roots:
            cancelled = 0
            while cancelled < mult:
                scale = num.max_coeff()
                if num.degree < 0 or abs(num(loc)) > CANCEL_TOL * scale:
                    break
                num, _ = num.deflate(loc)
                den, _ = den.deflate(loc)
                cancelled += 1
            if num.is_zero():
                return ZERO_POLY, ONE_POLY, None
    # deflation keeps den monic up to rounding; retighten the lead
    if not den.is_zero() and den.degree >= 0:
        den, lead = den.monic()
        num = num.scale(even_inv(lead))
    if roots is not None and _bits(den) != _bits(rooted):
        roots = None
    return num, den, roots


def to_meromorphic(e: ex.Expr) -> MeromorphicFunction:
    """Normalize a parsed expression into the meromorphic model."""
    r = _fold(e)
    num, den, roots = normalize_rational(r.num, r.den)
    return MeromorphicFunction(num, den, r.factor, roots)


def meromorphic_from_text(text: str, bindings: dict[str, float] | None = None,
                          real_line: bool = False) -> MeromorphicFunction:
    node = ex.parse(text)
    if bindings:
        node = ex.substitute(node, bindings)
    if real_line:
        node = ex.rewrite_x_to_z(node)
    return to_meromorphic(node)


# ---------------------------------------------------------------------------
# poles

def _roots_of(p: Polynomial) -> _Roots:
    pairs = find_roots([complex(c.u, c.v) for c in p.coeffs])
    return tuple((even(loc.real, loc.imag), mult) for loc, mult in pairs)


def _bits(p: Polynomial) -> list[tuple[str, str]]:
    """The coefficients bit for bit (0.0 and -0.0 differ)."""
    return [(c.u.hex(), c.v.hex()) for c in p.coeffs]


def find_poles(f: MeromorphicFunction) -> tuple[Pole, ...]:
    """All denominator roots, with orders reduced by entire-factor zeros."""
    scale = f.den.max_coeff()
    poles = []
    for loc, mult in f.den_roots:
        if abs(f.den(loc)) > RESIDUAL_TOL * scale:
            raise RootFindingError(
                f"root residual too large at {loc}; denominator is "
                f"ill-conditioned")
        order = mult
        if f.factor is not None:
            order -= entire_zero_order(f.factor.kind, f.factor.scale, loc)
        if order >= 1:
            poles.append(Pole(loc, order))
    return tuple(sorted(poles, key=lambda p: (p.location.u, p.location.v)))


# ---------------------------------------------------------------------------
# local expansion

def _den_valuation(f: MeromorphicFunction, center: EvenElement) -> int:
    """Multiplicity of the table root at center; 0 if none is that close."""
    for loc, mult in f.den_roots:
        if abs(loc - center) <= CLUSTER_TOL * (1.0 + abs(center)):
            return mult
    return 0


def _taylor_window(p: Polynomial, center: EvenElement, valuation: int,
                   window: int) -> LaurentSeries:
    """t_valuation.. of p's Taylor shift to center, zero-padded to window."""
    shifted = p.taylor_shift(center)[valuation:valuation + window]
    return LaurentSeries(center, valuation,
                         shifted + (E_ZERO,) * (window - len(shifted)))


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
        raise ValueError("window must be >= 1")
    if f.is_zero():
        return LaurentSeries(center, 0, ())
    den = _taylor_window(f.den, center, _den_valuation(f, center), window)
    result = series_mul(_taylor_window(f.num, center, 0, window),
                        series_inv(den))
    if f.factor is not None:
        # the factor's valuation is 0 or 1: up to z'^window covers the window
        result = series_mul(result, entire_series(
            f.factor.kind, f.factor.scale, center, window))
    return result


# ---------------------------------------------------------------------------
# 1-forms and their classification

class FormClass(enum.Enum):
    NOT_CLOSED = "not_closed"
    CLOSED_ONLY = "closed_only"
    CLOSED_AND_CR = "closed_and_CR"


@dataclass(frozen=True)
class OneForm:
    """alpha = k dx + g dy given by plane-valued component callables."""

    k: Callable[[float, float], float]
    g: Callable[[float, float], float]

    @staticmethod
    def from_function(f: Callable[[EvenElement], EvenElement]) -> "OneForm":
        """The form w dx with w = f(z): k = u-part, g = -v-part."""
        def k(x: float, y: float) -> float:
            return f(even(x, y)).u

        def g(x: float, y: float) -> float:
            return -f(even(x, y)).v

        return OneForm(k, g)

    @staticmethod
    def from_expressions(k_text: str, g_text: str) -> "OneForm":
        """Components given as expressions in x and y (real-valued)."""
        def component(text):
            run = ex.compile_expression(ex.parse(text))

            def evaluator(x: float, y: float) -> float:
                return run({"x": even(x), "y": even(y)}).u
            return evaluator

        return OneForm(component(k_text), component(g_text))


def classify_one_form(form: OneForm, samples: Sequence[tuple[float, float]],
                      step: float = 1e-6, tol: float = 1e-5) -> FormClass:
    """Test closedness (k_y = g_x) and the extra CR condition (k_x = -g_y).

    Central differences with the given step; each sample must satisfy the
    conditions within tol scaled by the local derivative magnitude, and every
    sample must agree for the stronger verdicts.  No samples, step <= 0 or
    tol < 0 raise ValueError, as the verdict would be untested.
    """
    if not samples:
        raise ValueError("classification needs at least one sample")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    closed = True
    cauchy_riemann = True
    for x, y in samples:
        try:
            k_x = (form.k(x + step, y) - form.k(x - step, y)) / (2 * step)
            k_y = (form.k(x, y + step) - form.k(x, y - step)) / (2 * step)
            g_x = (form.g(x + step, y) - form.g(x - step, y)) / (2 * step)
            g_y = (form.g(x, y + step) - form.g(x, y - step)) / (2 * step)
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
