"""Dense polynomials with even-element coefficients, held as float pairs.

Used for the rational parts of meromorphic functions.  Coefficients are
stored in ascending order as complex(u, v); exact trailing zeros are trimmed
so the zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .algebra import EvenElement, _Frozen, complex_inv


class Polynomial(_Frozen):
    """p(z) = sum coeffs[k] * z**k, coefficients ascending."""

    __slots__ = ("coeffs",)

    @staticmethod
    def from_coeffs(coeffs) -> "Polynomial":
        """Ascending coefficients, each converted by complex(), so an
        EvenElement, a complex or a float may be given."""
        return _trimmed([complex(c) for c in coeffs])

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_coeff(self) -> float:
        return max(map(abs, self.coeffs), default=0.0)

    def at(self, x: complex) -> complex:
        """Horner's value at the float pair x = complex(u, v)."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, z: EvenElement) -> EvenElement:
        acc = self.at(complex(z))
        return EvenElement(acc.real, acc.imag)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _trimmed([a + b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0j)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return ZERO_POLY
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x:  # its ±0 products would leave every entry as it is
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return _trimmed(out)

    def scale(self, c: complex) -> "Polynomial":
        """c times self, for the float pair c = complex(u, v)."""
        return _trimmed([c * a for a in self.coeffs])

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

    def monic(self) -> tuple["Polynomial", complex]:
        """Return (self / leading, 1 / leading); self must be nonzero."""
        inv = complex_inv(self.coeffs[-1])
        return self.scale(inv), inv

    def deflate(self, root: complex) -> "Polynomial":
        """The quotient of synthetic division by (z - root)."""
        acc = 0j
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        return _trimmed(out[-2::-1])

    def taylor_shift(self, center: complex,
                     terms: int | None = None) -> tuple[complex, ...]:
        """Coefficients t_k with p(center + h) = sum t_k h^k.

        Pass k of repeated synthetic division by (z - center) ends on t_k
        and leaves the quotient for pass k + 1, so the first ``terms``
        coefficients cost ``terms`` passes and are the same bits as the
        head of the full shift.  ``None`` (or more terms than deg + 1)
        gives all deg + 1 of them.  The last pass keeps no quotient, and
        the last two share one sweep: pass k + 1's accumulator dp steps on
        pass k's p one coefficient behind it, the same operations in the
        same order (its extra first step, 0j * center + 0j, is 0j at a
        finite center, and NaN where pass k + 1 turns NaN at once).
        """
        work = self.coeffs[::-1]
        count = len(work) if terms is None else min(terms, len(work))
        out = []
        for _ in range(count - 2):
            acc = 0j
            quotient = []
            for c in work:
                acc = acc * center + c
                quotient.append(acc)
            out.append(quotient.pop())
            work = quotient
        p = dp = 0j
        if count == 1:
            for c in work:
                p = p * center + c
            out.append(p)
        elif count:
            for c in work:
                dp = dp * center + p
                p = p * center + c
            out += (p, dp)
        return tuple(out)


def vanishes_at(coeffs, x: complex, tol: float) -> bool:
    """Whether |p(x)| <= tol times Horner's bound sum |a_k| |x|**k on the
    rounding of p(x) (Higham, Accuracy and Stability, 5.1), for the
    ascending coefficients of p: x is a root as far as the rounded
    coefficients can tell, at any modulus.  A non-finite bound tells
    nothing, so there the answer is no."""
    r = abs(x)
    value = 0j
    bound = 0.0
    for c in reversed(coeffs):
        value = value * x + c
        bound = bound * r + abs(c)
    return abs(value) <= tol * bound < math.inf


def _trimmed(coeffs: list[complex]) -> Polynomial:
    """The polynomial of these ascending coefficients, trailing zeros cut."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return Polynomial(tuple(coeffs))


ZERO_POLY = Polynomial(())
ONE_POLY = Polynomial((1 + 0j,))
Z_POLY = Polynomial((0j, 1 + 0j))
