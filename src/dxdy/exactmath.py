"""Exact arithmetic for the numerically hostile corners.

Every double is m * 2**e, so a polynomial with double coefficients and a
double point are exactly Gaussian integers over one common power of two.
The root finder's kernel works in that form: repeated synthetic division
(homogeneous Horner) over plain Python ``int`` gives the Taylor
coefficients t_j at x, p(x) and p'(x) among them, with no rounding and no
gcd.  Each result converts back through one ``int / int`` true division,
which CPython rounds correctly, so a value or a ratio of two values is the
nearest double to the exact rational, as ``float(Fraction)`` gives it.

Exactness sidesteps the noise floor that plain float arithmetic cannot
beat: evaluating a polynomial near a root of multiplicity m loses all
digits once |z - root| < eps**(1/m), which defeats Newton polishing of
multiple roots and the multiplicity test.

Finite-difference stencils are not dyadic, so the derivative-formula
residue route keeps ``fractions.Fraction`` (``ExactEven``, ``fd_weights``):
central differences of order d amplify evaluation noise by h**(-d), and
exact weights and values remove it.  Only the final conversion rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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

    def norm_sq(self) -> Fraction:
        return self.u * self.u + self.v * self.v


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
    """Quotient of synthetic division by (z - root); the remainder is dropped.

    Dropping the remainder projects the polynomial onto the nearest one with
    an exact root at ``root`` (to first order), which is the structural
    reading of a clustered multiple root.
    """
    acc = EXACT_ZERO
    out = [EXACT_ZERO] * max(len(coeffs) - 1, 0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * root + coeffs[k]
        out[k - 1] = acc
    return out


def fd_weights(order: int, nodes: Sequence[Fraction]) -> list[Fraction]:
    """Exact finite-difference weights for the given derivative order.

    Classic one-point-at-a-time interpolation recurrence evaluated at 0 over
    distinct rational nodes; requires len(nodes) > order.
    """
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


def central_stencil(order: int) -> list[int]:
    """Symmetric integer nodes excluding 0, wide enough for O(h^4) accuracy.

    The center is excluded on purpose: the quantities differenced in this
    package are removable-singularity values that cannot be sampled at the
    expansion point itself.  Exact-rational summation makes the wider
    stencil free of the noise amplification that usually punishes it.
    """
    half = max(2, (order + 2) // 2 + 1)
    return [k for k in range(-half, half + 1) if k != 0]


# ---------------------------------------------------------------------------
# dyadic Gaussian integers: the root finder's kernels

@dataclass(frozen=True)
class Dyadic:
    """The exact value (re + i*im) / 2**exp, with integer re, im and exp."""

    re: int
    im: int
    exp: int

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        """Each component rounded once to the nearest double."""
        scale = 1 << self.exp
        return complex(self.re / scale, self.im / scale)


@dataclass(frozen=True)
class DyadicPoly:
    """Ascending coefficients (re[k] + i*im[k]) / 2**exp, one common exp."""

    re: tuple[int, ...]
    im: tuple[int, ...]
    exp: int


def _dyadic_parts(z: complex) -> tuple[int, int, int]:
    """(re, im, e) with z = (re + i*im) / 2**e exactly and e >= 0."""
    rn, rd = z.real.as_integer_ratio()
    im_n, im_d = z.imag.as_integer_ratio()
    e = max(rd.bit_length(), im_d.bit_length()) - 1
    return (rn << (e + 1 - rd.bit_length()),
            im_n << (e + 1 - im_d.bit_length()), e)


def dyadic_poly(coeffs: Sequence[complex]) -> DyadicPoly:
    """The exact dyadic form of a complex coefficient list (ascending)."""
    parts = [_dyadic_parts(complex(c)) for c in coeffs]
    exp = max((e for _, _, e in parts), default=0)
    return DyadicPoly(tuple(r << (exp - e) for r, _, e in parts),
                      tuple(i << (exp - e) for _, i, e in parts), exp)


def dyadic_taylor_shift(poly: DyadicPoly, center: complex,
                        terms: int) -> list[Dyadic]:
    """Exact t_0 .. t_{terms-1} with p(center + h) = sum t_j h^j.

    t_0 and t_1 are p(center) and p'(center); needs terms <= degree + 1.
    Repeated synthetic division by (h - center), homogeneous in the
    integer X = center * 2**s: with coefficient k held as
    c_k * 2**(exp + s*(n-k)), each Horner step acc*X + c_k stays exact
    without a division, and pass j ends on t_j * 2**(exp + s*(n-j)).
    Pass j leaves its quotient in place, in cr[j+1:] and ci[j+1:].
    """
    n = len(poly.re) - 1
    xr, xi, s = _dyadic_parts(center)
    xsum, xdiff = xr + xi, xi - xr
    cr = [r << s * (n - k) for k, r in enumerate(poly.re)]
    ci = [i << s * (n - k) for k, i in enumerate(poly.im)]
    out = []
    for j in range(terms):
        ar = ai = 0
        for k in range(n, j - 1, -1):
            # (ar + i*ai) * (xr + i*xi) in three products, plus c_k
            k1 = xr * (ar + ai)
            ar, ai = k1 - ai * xsum + cr[k], k1 + ar * xdiff + ci[k]
            cr[k] = ar
            ci[k] = ai
        out.append(Dyadic(ar, ai, poly.exp + s * (n - j)))
    return out


def dyadic_ratio(a: Dyadic, b: Dyadic, scale: int = 1) -> complex:
    """a / (scale * b), each component rounded once; b != 0, scale > 0."""
    num_re = a.re * b.re + a.im * b.im
    num_im = a.im * b.re - a.re * b.im
    den = scale * (b.re * b.re + b.im * b.im)
    if b.exp >= a.exp:
        num_re <<= b.exp - a.exp
        num_im <<= b.exp - a.exp
    else:
        den <<= a.exp - b.exp
    return complex(num_re / den, num_im / den)
