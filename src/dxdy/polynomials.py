"""Dense polynomials with even-element coefficients.

Used for the rational parts of meromorphic functions.  Coefficients are
stored in ascending order; exact trailing zeros are trimmed so the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import E_ONE, E_ZERO, EvenElement, even_inv, even_mul


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

    def __call__(self, z: EvenElement) -> EvenElement:
        acc = E_ZERO
        for c in reversed(self.coeffs):
            acc = even_mul(acc, z) + c
        return acc

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
        out = [E_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + even_mul(a, b)
        return Polynomial.from_coeffs(out)

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
        acc = E_ZERO
        out = [E_ZERO] * max(len(self.coeffs) - 1, 0)
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = even_mul(acc, root) + self.coeffs[k]
            if k > 0:
                out[k - 1] = acc
        return Polynomial.from_coeffs(out), acc

    def taylor_shift(self, center: EvenElement) -> tuple[EvenElement, ...]:
        """Coefficients t_k with p(center + h) = sum t_k h^k (exact degree)."""
        if self.is_zero():
            return ()
        work = list(self.coeffs)
        n = len(work)
        out = []
        for _ in range(n):
            acc = E_ZERO
            for k in range(n - 1, -1, -1):
                acc = even_mul(acc, center) + work[k]
                work[k] = acc
            out.append(work[0])
            work = work[1:]
            n -= 1
        return tuple(out)


ZERO_POLY = Polynomial(())
ONE_POLY = Polynomial((E_ONE,))
Z_POLY = Polynomial((E_ZERO, E_ONE))
