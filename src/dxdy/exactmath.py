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

The derivative-formula residue route uses the same kernel: its sample
points z0 + j*h lie on a real dyadic offset from z0, so each sample is an
integer polynomial in the integer j*(h * 2**e) (``offset_poly``,
``real_horner``).  Central differences of order d amplify evaluation noise
by h**(-d); exact samples and the integer stencil weights of
``stencil_weights`` remove it, and only the final conversion rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def stencil_weights(order: int, nodes: Sequence[int]) -> list[tuple[int, int]]:
    """Finite-difference weights at 0 for distinct integer nodes.

    Weight j is the order-th derivative at 0 of the Lagrange basis
    polynomial of node j, order! * [t^order] prod_{k!=j} (t - x_k) over
    prod_{k!=j} (x_j - x_k), returned as that (numerator, denominator)
    pair of integers; requires len(nodes) > order.
    """
    if len(nodes) <= order:
        raise ValueError("need more nodes than the derivative order")
    # prod_k (t - x_k), ascending
    full = [1]
    for x in nodes:
        full = [0] + full
        for i in range(len(full) - 1):
            full[i] -= x * full[i + 1]
    fact = math.factorial(order)
    out = []
    for xj in nodes:
        # synthetic division of the full product by (t - xj), top down
        q = 0
        for i in range(len(full) - 1, order, -1):
            q = full[i] + xj * q
        den = 1
        for xk in nodes:
            if xk != xj:
                den *= xj - xk
        out.append((fact * q, den))
    return out


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
# dyadic Gaussian integers: root finder and derivative-route kernels

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


def dyadic_taylor_coefficient(poly: DyadicPoly, center: complex,
                              j: int) -> Dyadic:
    """Exact t_j alone: dyadic_taylor_shift(poly, center, j + 1)[j].

    t_j = sum_{i >= j} C(i, j) c_i center**(i - j), one Horner pass over
    i = n .. j in the shift's homogeneous form (coefficient i held as
    C(i, j) c_i * 2**(exp + s*(n-i))), so it ends on the same integers
    over the same power of two.  Needs 0 <= j <= degree.
    """
    n = len(poly.re) - 1
    xr, xi, s = _dyadic_parts(center)
    xsum, xdiff = xr + xi, xi - xr
    binom = math.comb(n, j)
    ar = ai = 0
    for i in range(n, j - 1, -1):
        k1 = xr * (ar + ai)
        shift = s * (n - i)
        ar, ai = (k1 - ai * xsum + (binom * poly.re[i] << shift),
                  k1 + ar * xdiff + (binom * poly.im[i] << shift))
        if i > j:
            binom = binom * (i - j) // i  # C(i - 1, j)
    return Dyadic(ar, ai, poly.exp + s * (n - j))


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


def offset_poly(ts: Sequence[Dyadic], e: int) -> DyadicPoly:
    """sum_k ts[k] * d**k as an integer polynomial in X = d * 2**e.

    The result P satisfies sum_k ts[k] d**k = P(X) / 2**P.exp exactly, so
    at a dyadic offset d every sample is one integer Horner (real_horner).
    """
    exp = max((t.exp + e * k for k, t in enumerate(ts)), default=0)
    return DyadicPoly(
        tuple(t.re << (exp - t.exp - e * k) for k, t in enumerate(ts)),
        tuple(t.im << (exp - t.exp - e * k) for k, t in enumerate(ts)), exp)


def real_horner(poly: DyadicPoly, x: int) -> tuple[int, int]:
    """(re, im) with poly(x) = (re + i*im) / 2**poly.exp, for an integer x."""
    ar = ai = 0
    for r, i in zip(reversed(poly.re), reversed(poly.im)):
        ar = ar * x + r
        ai = ai * x + i
    return ar, ai
