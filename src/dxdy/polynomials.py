"""Dense polynomials with even-element coefficients.

Used for the rational parts of meromorphic functions.  Coefficients are
stored in ascending order; exact trailing zeros are trimmed so the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (E_ONE, E_ZERO, EvenElement, complex_inv,
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

    def at(self, x: complex) -> complex:
        """Horner's value at the float pair x = complex(u, v)."""
        acc = 0j
        for c in self._descending:
            acc = acc * x + c
        return acc

    def __call__(self, z: EvenElement) -> EvenElement:
        acc = self.at(complex(z.u, z.v))
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

    def scale(self, c: complex) -> "Polynomial":
        """c times self, for the float pair c = complex(u, v)."""
        return Polynomial.from_coeffs(
            from_complexes([c * a for a in to_complexes(self.coeffs)]))

    def int_pow(self, m: int) -> "Polynomial":
        if m < 0:
            raise ValueError("negative polynomial power")
        result = ONE_POLY
        base = self
        while True:
            if m & 1:
                result = result * base
            m >>= 1
            if not m:  # the next square would go unused
                return result
            base = base * base

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            [self.coeffs[k] * float(k) for k in range(1, len(self.coeffs))])

    def monic(self) -> tuple["Polynomial", complex]:
        """Return (self / leading, 1 / leading), the inverse as a pair."""
        lead = self.leading()
        inv = complex_inv(complex(lead.u, lead.v))
        return self.scale(inv), inv

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

    def taylor_shift(self, center: EvenElement,
                     terms: int | None = None) -> tuple[EvenElement, ...]:
        """Coefficients t_k with p(center + h) = sum t_k h^k.

        Pass k of repeated synthetic division by (z - center) ends on t_k
        and leaves the quotient for pass k + 1, so the first ``terms``
        coefficients cost ``terms`` passes and are the same bits as the
        head of the full shift.  ``None`` (or more terms than deg + 1)
        gives all deg + 1 of them.
        """
        x = complex(center.u, center.v)
        work = self._descending
        out = []
        for _ in range(len(work) if terms is None else min(terms, len(work))):
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
