"""Meromorphic functions over the even subalgebra.

A function is a rational part (two polynomials with even-element
coefficients, denominator monic, shared roots cancelled) times at most one
entire factor exp/sin/cos(scale*z).  Poles come from denominator roots; a
simple zero of a sin/cos factor sitting on a denominator root lowers the
pole order by one.  Every function roots its denominator once, when it is
built, and a center is a pole only when it is a location of that table.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, Iterator, Sequence

from . import expressions as ex
from .algebra import (ENTIRE_KERNELS, EvenElement, _Frozen, complex_inv,
                      even, format_even)
from .errors import ComputationError, RangeError, UsageError
from .exactmath import dyadic_poly, dyadic_taylor_shift
from .polynomials import (ONE_POLY, Polynomial, Z_POLY, ZERO_POLY,
                          runs_vanish_at, vanishes_at, zero_runs)
from .roots import RootFindingError, find_roots
from .series import (LaurentSeries, _inverse, _product, entire_series,
                     entire_zero_order, zero_series)

#: a numerator value this small (relative to Horner's bound on its
#: rounding) at a denominator root counts as a shared root and is cancelled
CANCEL_TOL = 1e-9

#: every root table location must satisfy |den(loc)| <= RESIDUAL_TOL times
#: Horner's bound sum |a_k| |loc|**k on its rounding
RESIDUAL_TOL = 1e-9

#: the float window at a regular point is kept when the error bound of its
#: t_0, 4·deg·eps times Horner's bound, is within this fraction of |t_0|
WINDOW_TRUST = 1e-8


class UnsupportedExpressionError(UsageError):
    """Expression falls outside the rational-times-entire-factor model."""


class SingularSampleError(ComputationError, ValueError):
    """A classification sample sits on or too close to a singularity."""


class PoleExpansionError(ComputationError, ValueError):
    """The function is singular where a regular point was required."""


class EntireFactor(_Frozen):
    """exp, sin or cos of scale*z; kind is 'exp', 'sin' or 'cos'."""

    __slots__ = ("kind", "scale")

    def at(self, x: complex) -> complex:
        """The factor at the float pair x = complex(u, v)."""
        return ENTIRE_KERNELS[self.kind](complex(self.scale) * x)


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
    normalizing), found here when ``None``; either way, RootFindingError
    if ``den`` does not vanish at a location to RESIDUAL_TOL.
    """

    __slots__ = ("num", "den", "factor", "den_roots")

    def __init__(self, num: Polynomial, den: Polynomial,
                 factor: EntireFactor | None = None,
                 den_roots: _Roots | None = None) -> None:
        if den_roots is None:
            den_roots = (tuple(find_roots(den.coeffs)) if den.degree >= 1
                         else ())
        zeros = zero_runs(den.coeffs)
        for loc, _ in den_roots:
            if not runs_vanish_at(zeros, loc, RESIDUAL_TOL):
                raise RootFindingError(f"root residual too large at "
                                       f"{EvenElement(loc.real, loc.imag)}; "
                                       f"denominator is ill-conditioned")
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
    if num.is_zero():
        return ZERO_POLY, ONE_POLY, ()
    den, inv_lead = den.monic()
    num = num.scale(inv_lead)
    if num.is_zero():
        raise RangeError("rescaled numerator lies below the double range: "
                         "every coefficient underflows to zero")
    _require_finite(num.coeffs + den.coeffs, "rescaled")
    roots = []
    zeros = zero_runs(num.coeffs)
    for loc, mult in find_roots(den.coeffs) if den.degree >= 1 else ():
        while mult and runs_vanish_at(zeros, loc, CANCEL_TOL):
            num = num.deflate(loc)
            den = den.deflate(loc)
            zeros = zero_runs(num.coeffs)
            mult -= 1
        if mult:
            roots.append((loc, mult))
    # deflation keeps den monic up to rounding; retighten the lead
    den, inv_lead = den.monic()
    num = num.scale(inv_lead)
    return num, den, tuple(roots)


def _require_finite(coeffs: tuple[complex, ...], what="folded") -> None:
    for c in coeffs:
        if not cmath.isfinite(c):
            raise RangeError(f"{what} coefficient {format_even(c)} lies "
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
        order = mult
        if factor is not None:
            order -= entire_zero_order(factor.kind, complex(factor.scale), loc)
        if order >= 1:
            poles.append(Pole(EvenElement(loc.real, loc.imag), order))
    return tuple(sorted(poles, key=lambda p: (p.location.u, p.location.v)))


# ---------------------------------------------------------------------------
# local expansion

def _den_valuation(f: MeromorphicFunction, center: complex) -> int:
    """Multiplicity of the table root at center, 0 at any other point."""
    return next((m for loc, m in f.den_roots if loc == center), 0)


def _taylor_window(p: Polynomial, center: complex, valuation: int,
                   window: int, exact: bool = False) -> tuple[complex, ...]:
    """t_valuation.. of p's Taylor shift to center, zero-padded to window;
    if exact, the dyadic shift with each t_j rounded once."""
    terms = min(valuation + window, len(p.coeffs))
    if exact:
        shifted = tuple(t.to_complex() for t in dyadic_taylor_shift(
            dyadic_poly(p.coeffs), center, terms))[valuation:]
    else:
        shifted = p.taylor_shift(center, terms)[valuation:]
    return shifted + (0j,) * (window - len(shifted))


def _untrusted(p: Polynomial, x: complex) -> bool:
    """Whether WINDOW_TRUST rejects p's float t_0 at x."""
    return vanishes_at(p.coeffs, x, 4 * p.degree * 2.0 ** -52 / WINDOW_TRUST)


def local_expansion(f: MeromorphicFunction, center: EvenElement,
                    window: int) -> LaurentSeries:
    """Laurent series of f about center covering `window` coefficients.

    Each factor's valuation is structural.  The denominator's is the
    multiplicity m of the table root located at center (_den_valuation):
    the computed t_0..t_{m-1} there are root error and are dropped by
    index.  Elsewhere it is 0, and the numerator's is 0 (normalizing
    cancelled shared roots); off the table, each keeps its float window
    unless WINDOW_TRUST rejects its t_0, as near a multiple root, and
    then shifts exactly, and an exact denominator t_0 of 0 is refused.
    The entire factor's is its zero order at center.  Coefficient k of a
    product or an inverse reads inputs 0..k alone, so every factor is cut
    to `window` coefficients, and the inverse and products run on those
    tuples (series._inverse, series._product), the arithmetic of
    series_inv and series_mul, into the one series returned; the zero
    function is the zero series.
    """
    if window < 1:
        raise UsageError("window must be >= 1")
    x = complex(center)
    if f.is_zero():
        return zero_series(x, window - 1)
    valuation = _den_valuation(f, x)
    exact = not valuation and _untrusted(f.den, x)
    den = _taylor_window(f.den, x, valuation, window, exact)
    if exact and not den[0]:
        raise PoleExpansionError(f"{center} is a zero of the denominator "
                                 f"that its root table does not list")
    num = _taylor_window(f.num, x, 0, window,
                         not valuation and _untrusted(f.num, x))
    coeffs = _product(num, _inverse(den), window)
    if f.factor is not None:
        # the factor's valuation is 0 or 1: up to z'^window covers the window
        factor = entire_series(f.factor.kind, complex(f.factor.scale), x,
                               window)
        coeffs = _product(coeffs, factor.coeffs, window)
        valuation -= factor.valuation
    return LaurentSeries(x, -valuation, tuple(coeffs))


def beside_a_pole(f: MeromorphicFunction, center: EvenElement) -> list[str]:
    """Where local_expansion shifts the denominator exactly, a warning
    naming the nearest table root, where a pole typed at center may sit."""
    x = complex(center)
    if f.is_zero() or _den_valuation(f, x) or not _untrusted(f.den, x):
        return []
    loc, m = min(f.den_roots, key=lambda r: abs(r[0] - x))
    return [f"the denominator nearly vanishes at {format_even(x)}, which "
            f"is no root table location; for the pole, pass the nearest, "
            f"{format_even(loc)} (multiplicity {m})"]


# ---------------------------------------------------------------------------
# 1-forms and their classification

class FormClass(enum.Enum):
    NOT_CLOSED = "not_closed"
    CLOSED_ONLY = "closed_only"
    CLOSED_AND_CR = "closed_and_CR"


#: a 1-form's level: lists xs, ys of points to the lists (ks, gs) there
FormLevel = Callable[[list[float], list[float]],
                     tuple[list[float], list[float]]]
Sample = tuple[float, float]


class OneForm(_Frozen, defaults={"level": None}):
    """alpha = k dx + g dy; ``level``, if set, maps lists xs, ys of points
    to the lists (ks, gs) of k and g there, in one call."""

    __slots__ = ("k", "g", "level")

    @staticmethod
    def from_function(f: Callable[[EvenElement], EvenElement]) -> "OneForm":
        """The form w dx with w = f(z): k = u-part, g = -v-part."""
        def level(xs: list[float], ys: list[float]
                  ) -> tuple[list[float], list[float]]:
            ws = [f(even(x, y)) for x, y in zip(xs, ys)]
            return [w.u for w in ws], [-w.v for w in ws]

        return _level_form(level)

    @staticmethod
    def from_expressions(k_text: str, g_text: str) -> "OneForm":
        """Components given as expressions in x and y (real-valued)."""
        run_k, run_g = (ex.compile_expression(ex.parse(text))
                        for text in (k_text, g_text))

        def level(xs: list[float], ys: list[float]
                  ) -> tuple[list[float], list[float]]:
            env = {"x": list(map(complex, xs)), "y": list(map(complex, ys))}
            n = len(xs)
            return ([v.real for v in run_k(env, n)],
                    [v.real for v in run_g(env, n)])

        return _level_form(level)


def _level_form(level: FormLevel) -> OneForm:
    """The form that level evaluates; its k and g run it on one point."""
    return OneForm(lambda x, y: level([x], [y])[0][0],
                   lambda x, y: level([x], [y])[1][0], level)


#: samples whose stencils one level call evaluates: 4 points each
_BLOCK = 256


def _stencil_derivatives(level: FormLevel, samples: Sequence[Sample],
                         step: float) -> list[tuple[float, ...]]:
    """(k_x, k_y, g_x, g_y) at each sample by central differences, from one
    level call on the east, west, north and south points of every
    sample, in that order."""
    xs = [v for x, _ in samples for v in (x + step, x - step, x, x)]
    ys = [v for _, y in samples for v in (y, y, y + step, y - step)]
    ks, gs = level(xs, ys)
    h = 2 * step
    k_x = [(e - w) / h for e, w in zip(ks[0::4], ks[1::4])]
    k_y = [(n - s) / h for n, s in zip(ks[2::4], ks[3::4])]
    g_x = [(e - w) / h for e, w in zip(gs[0::4], gs[1::4])]
    g_y = [(n - s) / h for n, s in zip(gs[2::4], gs[3::4])]
    return list(zip(k_x, k_y, g_x, g_y))


def _sample_derivatives(level: FormLevel, samples: Sequence[Sample],
                        step: float
                        ) -> Iterator[tuple[Sample, tuple[float, ...]]]:
    """Each sample with its (k_x, k_y, g_x, g_y), in order.

    The stencils of a block of up to _BLOCK samples are evaluated in one
    level call.  A block that raises is walked again sample by sample, and
    each sample point by point, so that the error raised is the first one
    met in that order; a zero division there names its sample."""
    def point_by_point(xs, ys):
        pairs = [level([x], [y]) for x, y in zip(xs, ys)]
        return [k for (k,), _ in pairs], [g for _, (g,) in pairs]

    for start in range(0, len(samples), _BLOCK):
        block = samples[start:start + _BLOCK]
        try:
            rows = _stencil_derivatives(level, block, step)
        except Exception:  # any error: the walk below raises the first one
            rows = None
        if rows is not None:
            yield from zip(block, rows)
            continue
        for x, y in block:
            try:
                [row] = _stencil_derivatives(point_by_point, [(x, y)], step)
            except ZeroDivisionError as err:
                raise SingularSampleError(
                    f"sample ({x}, {y}) is too close to a singularity"
                ) from err
            yield (x, y), row


def classify_one_form(form: OneForm, samples: Sequence[Sample],
                      step: float = 1e-6, tol: float = 1e-5) -> FormClass:
    """Test closedness (k_y = g_x) and the extra CR condition (k_x = -g_y).

    Central differences with the given step; each sample must satisfy the
    conditions within tol scaled by the local derivative magnitude, and every
    sample must agree for the stronger verdicts.  The form's level, or its
    k and g point by point, runs on the stencils of many samples per call
    (see _sample_derivatives).  No samples, step <= 0 or tol < 0 raise
    UsageError, as the verdict would be untested.
    """
    if not samples:
        raise UsageError("classification needs at least one sample")
    if not step > 0:
        raise UsageError(f"step must be positive, got {step}")
    if not tol >= 0:
        raise UsageError(f"tol must be non-negative, got {tol}")
    level = form.level or (lambda xs, ys: (list(map(form.k, xs, ys)),
                                           list(map(form.g, xs, ys))))
    closed = True
    cauchy_riemann = True
    for (x, y), derivs in _sample_derivatives(level, samples, step):
        if not all(map(math.isfinite, derivs)):
            raise SingularSampleError(
                f"sample ({x}, {y}) is too close to a singularity")
        k_x, k_y, g_x, g_y = derivs
        local = tol * (1.0 + max(map(abs, derivs)))
        if abs(k_y - g_x) > local:
            closed = False
        if abs(k_x + g_y) > local:
            cauchy_riemann = False
    if not closed:
        return FormClass.NOT_CLOSED
    return FormClass.CLOSED_AND_CR if cauchy_riemann else FormClass.CLOSED_ONLY
