"""Truncated Laurent series (jets) with even-element coefficients, held as
float pairs complex(u, v).

A series is a finite window of coefficients a_n for exponents
valuation <= n <= truncation_order of powers of z' = z - center.  All
arithmetic tracks the window over which the result is reliable; coefficients
beyond it are unknown, coefficients below the valuation are exactly zero.
The valuation is structural: whoever builds a series states it, and no
coefficient is ever dropped for being small.
"""

from __future__ import annotations

import math

from .algebra import (E_ZERO, ENTIRE_KERNELS, EvenElement, _Frozen,
                      complex_cos, complex_exp, complex_int_pow, complex_inv,
                      complex_sin)
from .errors import ComputationError, UsageError

#: a sin/cos argument w != 0 is the zero k*pi (cos: (k + 1/2)*pi) only
#: within this many ulps of it, about the rounding w carries
ZERO_ULPS = 8


class WindowError(ComputationError, ValueError):
    """Requested coefficient lies outside the reliable window."""


class CenterMismatchError(UsageError):
    """Operands are centered at different points."""


class LaurentSeries(_Frozen):
    """Sum of coeffs[k] * z'^(valuation + k) around ``center``.

    coeffs[0] may be zero when the builder's valuation says so, e.g. at a
    zero of a numerator.  The zero series is represented by an empty
    coefficient tuple with valuation = truncation_order + 1.
    """

    __slots__ = ("center", "valuation", "coeffs")

    @property
    def truncation_order(self) -> int:
        return self.valuation + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> EvenElement:
        """The stored a_n; n must lie in [valuation, truncation_order]."""
        if self.is_zero():
            if n > self.truncation_order:
                raise WindowError(f"exponent {n} beyond truncation order "
                                  f"{self.truncation_order}")
            return E_ZERO
        if n < self.valuation or n > self.truncation_order:
            raise WindowError(
                f"exponent {n} outside reliable window "
                f"[{self.valuation}, {self.truncation_order}]")
        c = self.coeffs[n - self.valuation]
        return EvenElement(c.real, c.imag)

    def window(self, lo: int, hi: int) -> "LaurentSeries":
        """The series over exponents lo..hi; exact zeros below valuation."""
        if hi > self.truncation_order:
            raise WindowError(f"exponent {hi} beyond truncation order "
                              f"{self.truncation_order}")
        v = self.valuation
        return LaurentSeries(self.center, lo, tuple(
            self.coeffs[n - v] if n >= v else 0j for n in range(lo, hi + 1)))

    def window_coefficients(self, lo: int, hi: int) -> list[EvenElement]:
        """Coefficients for exponents lo..hi; exact zeros below valuation."""
        return [EvenElement(c.real, c.imag)
                for c in self.window(lo, hi).coeffs]

    def evaluate(self, dz: EvenElement) -> EvenElement:
        """Sum the truncated series at z' = dz (Horner over the window)."""
        if self.is_zero():
            return E_ZERO
        x = complex(dz)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        value = acc * complex_int_pow(x, self.valuation)
        return EvenElement(value.real, value.imag)


def zero_series(center: complex, truncation_order: int) -> LaurentSeries:
    return LaurentSeries(center, truncation_order + 1, ())


def _require_same_center(a: LaurentSeries, b: LaurentSeries) -> None:
    if a.center != b.center:
        raise CenterMismatchError(
            f"series centered at {EvenElement(a.center.real, a.center.imag)} "
            f"and {EvenElement(b.center.real, b.center.imag)} cannot be "
            f"combined")


def _product(xs, ys, length: int) -> list[complex]:
    """Coefficients 0..length-1 of the Cauchy product of the coefficient
    sequences xs and ys, each at least length long."""
    out = []
    for k in range(length):
        acc = 0j
        for x, y in zip(xs[:k + 1], reversed(ys[:k + 1])):
            acc += x * y
        out.append(acc)
    return out


def _inverse(xs) -> list[complex]:
    """As many coefficients of 1 / (the series xs) as xs has; xs[0] != 0."""
    out = [complex_inv(xs[0])]
    for k in range(1, len(xs)):
        acc = 0j
        for x, y in zip(xs[1:k + 1], reversed(out)):
            acc += x * y
        out.append(-(acc * out[0]))
    return out


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product; the window shrinks to where the product is reliable."""
    _require_same_center(a, b)
    trunc = min(a.truncation_order + b.valuation,
                b.truncation_order + a.valuation)
    if a.is_zero() or b.is_zero():
        return zero_series(a.center, trunc)
    lo = a.valuation + b.valuation
    return LaurentSeries(a.center, lo,
                         tuple(_product(a.coeffs, b.coeffs, trunc - lo + 1)))


def series_inv(a: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse: series_mul(a, result) = 1 + O(window)."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    return LaurentSeries(a.center, -a.valuation, tuple(_inverse(a.coeffs)))


def derivative_cycle(kind: str, w0: complex) -> list[complex]:
    """F(w0), F'(w0), ... for F = exp/sin/cos, one period of the cycle."""
    if kind == "exp":
        return [complex_exp(w0)]
    s0, c0 = complex_sin(w0), complex_cos(w0)
    if kind == "sin":
        return [s0, c0, -s0, -c0]
    if kind == "cos":
        return [c0, -s0, -c0, s0]
    raise UsageError(f"unknown entire kind {kind!r}; "
                     f"expected one of {tuple(ENTIRE_KERNELS)}")


def _zero_order(kind: str, w0: complex, cycle: list[complex]) -> int:
    """Order (0 or 1) of the zero of F = exp/sin/cos at w0, where cycle is
    F(w0), F'(w0), ...

    Zeros of sin/cos are simple and exp never vanishes.  sin(0) = 0 is
    decided exactly; next to 0, sin(w0) ~ w0 keeps its full relative
    precision, so no other w0 near 0 is a zero.  Elsewhere w0 is a zero
    only within ZERO_ULPS ulps of the nearest k*pi (of (k + 1/2)*pi for
    cos).  A w0 farther off, with |F(w0)| still within 1e-9 of
    |F'(w0)| + |F(w0)|, is too close to a zero to tell from one, and
    raises ComputationError.
    """
    if kind == "exp":
        return 0
    if kind == "sin" and not w0:
        return 1
    value, slope = cycle[0], cycle[1]
    if not abs(value) <= 1e-9 * (abs(slope) + abs(value)):
        return 0
    half = 0.5 if kind == "cos" else 0.0
    k = round(w0.real / math.pi - half)
    if kind == "sin" and k == 0:
        return 0
    zero = (k + half) * math.pi
    if abs(w0 - zero) <= ZERO_ULPS * math.ulp(zero):
        return 1
    raise ComputationError(
        f"{kind} argument {EvenElement(w0.real, w0.imag)} lies "
        f"{abs(w0 - zero):.3g} from the zero {zero!r}: too close to tell "
        f"whether it is that zero")


def entire_zero_order(kind: str, scale: complex, point: complex) -> int:
    """Order (0 or 1) of the zero of exp/sin/cos(scale*z) at point."""
    if kind == "exp":
        return 0
    w0 = scale * point
    return _zero_order(kind, w0, derivative_cycle(kind, w0))


def entire_series(kind: str, scale: complex, center: complex,
                  order: int) -> LaurentSeries:
    """Taylor series of exp/sin/cos(scale*z) about ``center`` up to z'^order.

    Writing z = center + z', the argument is w0 + scale*z' with
    w0 = scale*center, so the coefficients follow from the derivative cycle
    of the function at w0.  The valuation is the zero order at the center,
    so a sin/cos zero starts the series at z'^1 however the rounded value
    at w0 compares with the rest.
    """
    if order < 0:
        raise UsageError("order must be >= 0")
    w0 = scale * center
    cycle = derivative_cycle(kind, w0)
    valuation = _zero_order(kind, w0, cycle)
    coeffs = []
    power = 1 + 0j  # scale^k / k!
    for k in range(order + 1):
        if k > 0:
            power = power * scale
            # part by part: complex / k could flip the sign of a zero
            power = complex(power.real / k, power.imag / k)
        coeffs.append(cycle[k % len(cycle)] * power)
    return LaurentSeries(center, valuation, tuple(coeffs[valuation:]))
