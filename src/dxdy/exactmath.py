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

The derivative-formula residue route divides power series in the same
form: ``dyadic_series_quotient`` reads one Taylor coefficient of a
quotient of two such series with a division-free recurrence and rounds it
once, so no finite difference and no step enter that route.
"""

from __future__ import annotations

import math
from typing import Sequence

from .algebra import _Frozen, _slot_setters


# ---------------------------------------------------------------------------
# dyadic Gaussian integers: root finder and derivative-route kernels

class Dyadic(_Frozen):
    """The exact value (re + i*im) / 2**exp, with integer re, im and exp."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int, im: int, exp: int) -> None:
        _set_re(self, re)
        _set_im(self, im)
        _set_exp(self, exp)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        """Each component rounded once to the nearest double."""
        scale = 1 << self.exp
        return complex(self.re / scale, self.im / scale)


class DyadicPoly(_Frozen):
    """Ascending coefficients (re[k] + i*im[k]) / 2**exp, one common exp."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: tuple[int, ...], im: tuple[int, ...],
                 exp: int) -> None:
        _set_poly_re(self, re)
        _set_poly_im(self, im)
        _set_poly_exp(self, exp)


_set_re, _set_im, _set_exp = _slot_setters(Dyadic)
_set_poly_re, _set_poly_im, _set_poly_exp = _slot_setters(DyadicPoly)


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


def dyadic_series_quotient(num: DyadicPoly, den: DyadicPoly, k: int,
                           scale: int = 1) -> complex:
    """Coefficient k of the power series num / (scale * den), each part
    rounded once; num and den hold at least k + 1 coefficients, den's
    first is nonzero and scale > 0.

    With c = d_0 the quotient's q_j * c**(j+1) is the Gaussian integer
    Q_j = n_j c**j - sum_{i<j} Q_i d_{j-i} c**(j-1-i) over the integer
    coefficients, so the recurrence divides nowhere and q_k = Q_k / c**(k+1)
    is the one rounding, made by dyadic_ratio.
    """
    cr, ci = den.re[0], den.im[0]
    pr, pi = 1, 0  # c**j
    qs: list[tuple[int, int]] = []
    for j in range(k + 1):
        ar = ai = 0  # the sum, by Horner in c
        for i, (qr, qi) in enumerate(qs):
            dr, di = den.re[j - i], den.im[j - i]
            ar, ai = (ar * cr - ai * ci + qr * dr - qi * di,
                      ar * ci + ai * cr + qr * di + qi * dr)
        nr, ni = num.re[j], num.im[j]
        qs.append((nr * pr - ni * pi - ar, nr * pi + ni * pr - ai))
        pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
    return dyadic_ratio(Dyadic(*qs[k], num.exp), Dyadic(pr, pi, den.exp),
                        scale)
