"""Exact-rational reference arithmetic, kept for the tests.

``ExactEven`` (u + v*dxdy with ``Fraction`` parts) and the derivative-formula
residue route written on it, as the package computed them before it moved
to plain-integer kernels.  The package's results must equal these bit for
bit: both round the same exact rational once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from dxdy.algebra import complex_cos, complex_exp, complex_sin, even
from dxdy.exactmath import central_stencil
from dxdy.functions import local_expansion
from dxdy.residues import DERIVATIVE_STEP, ResidueReport
from dxdy.series import DEFAULT_WINDOW


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


def fd_weights(order: int, nodes: Sequence[Fraction]) -> list[Fraction]:
    """Exact finite-difference weights at 0 (Fornberg's recurrence)."""
    if len(nodes) <= order:
        raise ValueError("need more nodes than the derivative order")
    n = len(nodes)
    c = [[Fraction(0)] * (order + 1) for _ in range(n)]
    c[0][0] = Fraction(1)
    c1 = Fraction(1)
    c4 = nodes[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = Fraction(1)
        c5 = c4
        c4 = nodes[i]
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [c[i][order] for i in range(n)]


_FACTOR_TAYLOR_TERMS = 18


def reference_factor_values(f, z0, offsets):
    """Entire-factor samples at z0 + offset: 18-term Taylor sums around the
    double anchors at scale*z0."""
    factor = f.factor
    scale = ExactEven.from_floats(factor.scale.u, factor.scale.v)
    w0 = complex(factor.scale) * complex(z0)
    s0 = ExactEven.from_floats(*_pair(complex_sin(w0)))
    c0 = ExactEven.from_floats(*_pair(complex_cos(w0)))
    e0 = ExactEven.from_floats(*_pair(complex_exp(w0)))
    out = []
    for offset in offsets:
        dw = scale * offset
        if factor.kind == "exp":
            term = EXACT_ONE
            total = EXACT_ONE
            for n in range(1, _FACTOR_TAYLOR_TERMS):
                term = term * dw / n
                total = total + term
            out.append(e0 * total)
            continue
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


def _pair(x: complex):
    return x.real, x.imag


def reference_derivative_formula(f, p, step=DERIVATIVE_STEP):
    """residue_by_derivative_formula in Fraction arithmetic."""
    m = p.order
    d = m - 1
    nodes = central_stencil(d)
    h = Fraction(step)
    weights = fd_weights(d, [Fraction(j) for j in nodes])
    z0 = ExactEven.from_floats(p.location.u, p.location.v)
    num = exact_poly([_pair(c) for c in f.num.coeffs])
    cofactor = exact_poly([_pair(c) for c in f.den.coeffs])
    for _ in range(m):
        cofactor = exact_deflate(cofactor, z0)
    offsets = [j * h for j in nodes]
    if f.factor is not None:
        factor_values = reference_factor_values(f, p.location, offsets)
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
    lead = leading.coeffs[0] if not leading.is_zero() else 0j
    lead_coeff = even(lead.real, lead.imag)
    return ResidueReport(pole=p, a_minus_1=value, leading=lead_coeff,
                         method="derivative_formula")
