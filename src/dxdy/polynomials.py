"""Dense polynomials with even-element coefficients.

Used for the rational parts of meromorphic functions.  Coefficients are
stored in ascending order; exact trailing zeros are trimmed so the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (E_ONE, E_ZERO, EvenElement, even_inv, even_mul,
                      from_complexes, to_complexes)


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[EvenElement, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "Polynomial":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def constant(c: EvenElement) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> EvenElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    @cached_property
    def _descending(self) -> tuple[complex, ...]:
        """The coefficients as complex numbers, highest degree first."""
        return tuple(reversed(to_complexes(self.coeffs)))

    def __call__(self, z: EvenElement) -> EvenElement:
        x = complex(z.u, z.v)
        acc = 0j
        for c in self._descending:
            acc = acc * x + c
        return EvenElement(acc.real, acc.imag)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else E_ZERO
            b = other.coeffs[i] if i < len(other.coeffs) else E_ZERO
            out.append(a + b)
        return Polynomial.from_coeffs(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return ZERO_POLY
        ys = to_complexes(other.coeffs)
        out = [0j] * (len(self.coeffs) + len(ys) - 1)
        for i, x in enumerate(to_complexes(self.coeffs)):
            for j, y in enumerate(ys):
                out[i + j] += x * y
        return Polynomial.from_coeffs(from_complexes(out))

    def scale(self, c: EvenElement) -> "Polynomial":
        return Polynomial.from_coeffs([even_mul(c, a) for a in self.coeffs])

    def int_pow(self, m: int) -> "Polynomial":
        if m < 0:
            raise ValueError("negative polynomial power")
        result = ONE_POLY
        base = self
        while m > 0:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            [self.coeffs[k] * float(k) for k in range(1, len(self.coeffs))])

    def monic(self) -> tuple["Polynomial", EvenElement]:
        """Return (self / leading, leading)."""
        lead = self.leading()
        inv = even_inv(lead)
        return self.scale(inv), lead

    def deflate(self, root: EvenElement) -> tuple["Polynomial", EvenElement]:
        """Synthetic division by (z - root): returns (quotient, remainder)."""
        if self.is_zero():
            return ZERO_POLY, E_ZERO
        x = complex(root.u, root.v)
        acc = 0j
        out = []
        for c in self._descending:
            acc = acc * x + c
            out.append(acc)
        remainder = out.pop()
        return (Polynomial.from_coeffs(from_complexes(reversed(out))),
                EvenElement(remainder.real, remainder.imag))

    def taylor_shift(self, center: EvenElement) -> tuple[EvenElement, ...]:
        """Coefficients t_k with p(center + h) = sum t_k h^k (exact degree)."""
        x = complex(center.u, center.v)
        work = self._descending
        out = []
        # each pass divides by (z - center); its remainder is the next t_k
        while work:
            acc = 0j
            quotient = []
            for c in work:
                acc = acc * x + c
                quotient.append(acc)
            out.append(quotient.pop())
            work = quotient
        return from_complexes(out)


ZERO_POLY = Polynomial(())
ONE_POLY = Polynomial((E_ONE,))
Z_POLY = Polynomial((E_ZERO, E_ONE))
