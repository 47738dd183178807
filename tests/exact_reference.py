"""Exact-rational reference arithmetic, kept for the tests.

``ExactEven`` (u + v*dxdy with ``Fraction`` parts) and the derivative-formula
residue route written on it: exact Taylor data, a series product and a
series division.  The package computes the route in plain integers; its
results must equal these bit for bit, as both round the same exact
rational once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from dxdy.algebra import complex_cos, complex_exp, complex_sin, even
from dxdy.functions import _den_valuation
from dxdy.residues import ResidueReport


@dataclass(frozen=True)
class ExactEven:
    """u + v*dxdy with exact rational components."""

    u: Fraction
    v: Fraction

    @staticmethod
    def from_floats(u: float, v: float = 0.0) -> "ExactEven":
        return ExactEven(Fraction(u), Fraction(v))

    def __add__(self, other: "ExactEven") -> "ExactEven":
        return ExactEven(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "ExactEven") -> "ExactEven":
        return ExactEven(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "ExactEven":
        return ExactEven(-self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, ExactEven):
            return ExactEven(self.u * other.u - self.v * other.v,
                             self.u * other.v + self.v * other.u)
        return ExactEven(self.u * other, self.v * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, ExactEven):
            n = other.u * other.u + other.v * other.v
            if n == 0:
                raise ZeroDivisionError("exact division by zero")
            return ExactEven((self.u * other.u + self.v * other.v) / n,
                             (self.v * other.u - self.u * other.v) / n)
        return ExactEven(self.u / other, self.v / other)


EXACT_ZERO = ExactEven(Fraction(0), Fraction(0))
EXACT_ONE = ExactEven(Fraction(1), Fraction(0))


def exact_poly(coeffs_uv: Sequence[tuple[float, float]]) -> list[ExactEven]:
    return [ExactEven.from_floats(u, v) for u, v in coeffs_uv]


def exact_eval(coeffs: Sequence[ExactEven], x: ExactEven) -> ExactEven:
    acc = EXACT_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_deflate(coeffs: Sequence[ExactEven],
                  root: ExactEven) -> list[ExactEven]:
    """Quotient of synthetic division by (z - root); remainder dropped."""
    acc = EXACT_ZERO
    out = [EXACT_ZERO] * max(len(coeffs) - 1, 0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * root + coeffs[k]
        out[k - 1] = acc
    return out


def exact_taylor(coeffs: Sequence[ExactEven], x: ExactEven,
                 count: int) -> list[ExactEven]:
    """t_0 .. t_{count-1} of p(x + h) = sum t_j h^j, zero past the degree:
    t_j is the value at x after j deflations by (z - x)."""
    out = []
    for _ in range(count):
        out.append(exact_eval(coeffs, x))
        coeffs = exact_deflate(coeffs, x)
    return out


def exact_series_quotient(num: Sequence[ExactEven],
                          den: Sequence[ExactEven]) -> list[ExactEven]:
    """The first len(num) coefficients of num / den (long division)."""
    out: list[ExactEven] = []
    for j, n in enumerate(num):
        for i, q in enumerate(out):
            n = n - q * den[j - i]
        out.append(n / den[0])
    return out


def reference_factor_terms(factor, z0: complex, v: int,
                           count: int) -> list[ExactEven]:
    """F^(j)(w0) scale^j / j! for j = v .. v+count-1, around the double
    anchors at w0 = scale*z0."""
    scale = ExactEven.from_floats(factor.scale.u, factor.scale.v)
    w0 = complex(factor.scale) * z0
    if factor.kind == "exp":
        cycle = [complex_exp(w0)]
    else:
        s0, c0 = complex_sin(w0), complex_cos(w0)
        cycle = ([s0, c0, -s0, -c0] if factor.kind == "sin"
                 else [c0, -s0, -c0, s0])
    anchors = [ExactEven.from_floats(c.real, c.imag) for c in cycle]
    out = []
    power = EXACT_ONE  # scale^j / j!
    for j in range(v + count):
        if j:
            power = power * scale / j
        if j >= v:
            out.append(anchors[j % len(anchors)] * power)
    return out


def _rounded(x: ExactEven):
    return even(float(x.u), float(x.v))


def reference_derivative_formula(f, p):
    """residue_by_derivative_formula in Fraction arithmetic: coefficients
    m-1 and 0 of z'^m f = N F / C, each factor from its valuation on."""
    m = p.order
    z0 = ExactEven.from_floats(p.location.u, p.location.v)
    mult = _den_valuation(f, complex(p.location))
    num = exact_taylor(exact_poly([_pair(c) for c in f.num.coeffs]), z0, m)
    cofactor = exact_taylor(exact_poly([_pair(c) for c in f.den.coeffs]), z0,
                            mult + m)[mult:]
    if f.factor is not None:
        # the pole order is the table multiplicity less the zero order
        terms = reference_factor_terms(f.factor, complex(p.location),
                                       mult - m, m)
        num = [sum((num[i] * terms[j - i] for i in range(j + 1)), EXACT_ZERO)
               for j in range(m)]
    quotient = exact_series_quotient(num, cofactor)
    return ResidueReport(pole=p, a_minus_1=_rounded(quotient[m - 1]),
                         leading=_rounded(quotient[0]),
                         method="derivative_formula")


def _pair(x: complex):
    return x.real, x.imag
