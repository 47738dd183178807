"""Truncated Laurent series (jets) with even-element coefficients.

A series is a finite window of coefficients a_n for exponents
valuation <= n <= truncation_order of powers of z' = z - center.  All
arithmetic tracks the window over which the result is reliable; coefficients
beyond it are unknown, coefficients below the valuation are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (E_ONE, E_ZERO, EvenElement, even_int_pow, even_inv,
                      even_mul, from_complexes, to_complexes)

#: default number of retained coefficients
DEFAULT_WINDOW = 16

#: leading coefficients smaller than DUST times the largest magnitude in the
#: window are treated as zero when the valuation is determined
DUST = 1e-13


class WindowError(ValueError):
    """Requested coefficient lies outside the reliable window."""


class CenterMismatchError(ValueError):
    """Operands are centered at different points."""


@dataclass(frozen=True)
class LaurentSeries:
    """Sum of coeffs[k] * z'^(valuation + k) around ``center``.

    The zero series is represented by an empty coefficient tuple with
    valuation = truncation_order + 1.
    """

    center: EvenElement
    valuation: int
    coeffs: tuple[EvenElement, ...]

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
        return self.coeffs[n - self.valuation]

    def window_coefficients(self, lo: int, hi: int) -> list[EvenElement]:
        """Coefficients for exponents lo..hi; exact zeros below valuation."""
        if hi > self.truncation_order:
            raise WindowError(f"exponent {hi} beyond truncation order "
                              f"{self.truncation_order}")
        out = []
        for n in range(lo, hi + 1):
            if n < self.valuation:
                out.append(E_ZERO)
            else:
                out.append(self.coeffs[n - self.valuation])
        return out

    def evaluate(self, dz: EvenElement) -> EvenElement:
        """Sum the truncated series at z' = dz (Horner over the window)."""
        if self.is_zero():
            return E_ZERO
        acc = E_ZERO
        for c in reversed(self.coeffs):
            acc = even_mul(acc, dz) + c
        return even_mul(acc, even_int_pow(dz, self.valuation))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_add(self, other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_add(self, other, negate=True)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_mul(self, other)


def make_series(center: EvenElement, valuation: int,
                coeffs: Sequence[EvenElement],
                dust: float = DUST) -> LaurentSeries:
    """Normalize raw coefficients into a LaurentSeries.

    Leading coefficients below dust * (largest magnitude in the window) are
    dropped, raising the valuation; an all-dust window becomes the zero
    series with the same truncation order.
    """
    coeffs = list(coeffs)
    top = max((abs(c) for c in coeffs), default=0.0)
    threshold = dust * top
    lead = 0
    while lead < len(coeffs) and abs(coeffs[lead]) <= threshold:
        lead += 1
    if lead == len(coeffs):
        return LaurentSeries(center, valuation + len(coeffs), ())
    return LaurentSeries(center, valuation + lead, tuple(coeffs[lead:]))


def zero_series(center: EvenElement, truncation_order: int) -> LaurentSeries:
    return LaurentSeries(center, truncation_order + 1, ())


def _require_same_center(a: LaurentSeries, b: LaurentSeries) -> None:
    if a.center != b.center:
        raise CenterMismatchError(
            f"series centered at {a.center} and {b.center} cannot be combined")


def series_add(a: LaurentSeries, b: LaurentSeries,
               negate: bool = False) -> LaurentSeries:
    _require_same_center(a, b)
    trunc = min(a.truncation_order, b.truncation_order)
    lo = min(a.valuation, b.valuation)
    if lo > trunc:
        return zero_series(a.center, trunc)
    out = []
    for n in range(lo, trunc + 1):
        ca = a.coeffs[n - a.valuation] if a.valuation <= n <= a.truncation_order else E_ZERO
        cb = b.coeffs[n - b.valuation] if b.valuation <= n <= b.truncation_order else E_ZERO
        out.append(ca - cb if negate else ca + cb)
    return make_series(a.center, lo, out)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product; the window shrinks to where the product is reliable."""
    _require_same_center(a, b)
    trunc = min(a.truncation_order + b.valuation,
                b.truncation_order + a.valuation)
    if a.is_zero() or b.is_zero():
        return zero_series(a.center, trunc)
    lo = a.valuation + b.valuation
    length = trunc - lo + 1
    xs = to_complexes(a.coeffs[:length])
    ys = to_complexes(b.coeffs[:length])
    out = []
    for k in range(length):
        acc = 0j
        for x, y in zip(xs[:k + 1], reversed(ys[:k + 1])):
            acc += x * y
        out.append(acc)
    # the lead is a product of two nonzero leads: no dust scan, which
    # would measure a_lo against the far larger tail of a wide window
    return LaurentSeries(a.center, lo, from_complexes(out))


def series_inv(a: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse: series_mul(a, result) = 1 + O(window)."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    xs = to_complexes(a.coeffs)
    inv_lead = even_inv(a.coeffs[0])
    out = [complex(inv_lead.u, inv_lead.v)]
    for k in range(1, len(xs)):
        acc = 0j
        for x, y in zip(xs[1:k + 1], reversed(out)):
            acc += x * y
        out.append(-(acc * out[0]))
    # the lead is 1/lead: no dust scan, as in series_mul
    return LaurentSeries(a.center, -a.valuation, from_complexes(out))


ENTIRE_KINDS = ("exp", "sin", "cos")


def entire_series(kind: str, scale: EvenElement, center: EvenElement,
                  order: int) -> LaurentSeries:
    """Taylor series of exp/sin/cos(scale*z) about ``center`` up to z'^order.

    Writing z = center + z', the argument is w0 + scale*z' with
    w0 = scale*center, so the coefficients follow from the derivative cycle
    of the function at w0 evaluated in even-element arithmetic.
    """
    from .algebra import even_cos, even_exp, even_sin
    if order < 0:
        raise ValueError("order must be >= 0")
    w0 = even_mul(scale, center)
    if kind == "exp":
        anchor_cycle = [even_exp(w0)]
    elif kind == "sin":
        s0, c0 = even_sin(w0), even_cos(w0)
        anchor_cycle = [s0, c0, -s0, -c0]
    elif kind == "cos":
        s0, c0 = even_sin(w0), even_cos(w0)
        anchor_cycle = [c0, -s0, -c0, s0]
    else:
        raise ValueError(f"unknown entire kind {kind!r}; "
                         f"expected one of {ENTIRE_KINDS}")
    coeffs = []
    power = E_ONE  # scale^k / k!
    for k in range(order + 1):
        if k > 0:
            power = even_mul(power, scale) / k
        coeffs.append(even_mul(anchor_cycle[k % len(anchor_cycle)], power))
    return make_series(center, 0, coeffs)
