"""Exact arithmetic for the numerically hostile corners.

Every double is m * 2**e, so a polynomial with double coefficients and a
double point are exactly Gaussian integers over one common power of two.
The root finder's kernels work in that form: homogeneous Horner passes
over plain Python ``int`` give the Taylor coefficients t_j at x with no
rounding and no gcd.  Any pair t_j and (j+1)*t_{j+1} comes from one pass
(``dyadic_value_and_slope``; at j = 0 that is Newton's p(x) and p'(x)),
and the full shift from repeated synthetic division.  The single pass
reads the nonzero coefficients only: a run of m zeros is one step by the
exact Gaussian power X**m, so z**n + c costs two steps however large n is.
Exactness makes the skipping free of rounding: every kernel ends on the
shift's integers.  A value converts back through one ``int / int`` true
division, which CPython rounds correctly, so it is the nearest double to
the exact rational, as ``float(Fraction)`` gives it.  A ratio of two
values gives the same double at the cost of its answer, not of its
operands: ``dyadic_ratio`` divides the top SHORT_BITS bits of each
long operand and keeps a part when both ends of its proven error
interval round to the same nonzero double, and takes the full-width
quotient where they do not (Ziv's strategy, ACM TOMS 17, 1991).

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
from bisect import bisect_right
from itertools import compress
from typing import Sequence

from .algebra import _Frozen


# ---------------------------------------------------------------------------
# dyadic Gaussian integers: root finder and derivative-route kernels

class Dyadic(_Frozen):
    """The exact value (re + i*im) / 2**exp, with integer re, im and exp."""

    __slots__ = ("re", "im", "exp")

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        """Each component rounded once to the nearest double."""
        scale = 1 << self.exp
        return complex(self.re / scale, self.im / scale)


class DyadicPoly(_Frozen, uncompared=("reads",), unshown=("reads",),
                 defaults={"reads": None}):
    """Ascending coefficients (re[k] + i*im[k]) / 2**exp, one common exp.

    ``reads``, which ``dyadic_poly`` fills, lists 0 and the exponents of
    the nonzero coefficients in ascending order: the coefficients a Horner
    pass that steps over zero runs reads.  It follows from re and im, so
    eq, hash and repr leave it out.
    """

    __slots__ = ("re", "im", "exp", "reads")


def _dyadic_parts(z: complex) -> tuple[int, int, int]:
    """(re, im, e) with z = (re + i*im) / 2**e exactly and e >= 0."""
    rn, rd = z.real.as_integer_ratio()
    im_n, im_d = z.imag.as_integer_ratio()
    e = max(rd.bit_length(), im_d.bit_length()) - 1
    return (rn << (e + 1 - rd.bit_length()),
            im_n << (e + 1 - im_d.bit_length()), e)


def dyadic_poly(coeffs: Sequence[complex]) -> DyadicPoly:
    """The exact dyadic form of a complex coefficient list (ascending)."""
    parts = [_dyadic_parts(complex(c)) if c else (0, 0, 0) for c in coeffs]
    exp = max((e for _, _, e in parts), default=0)
    return DyadicPoly(tuple(r << (exp - e) for r, _, e in parts),
                      tuple(i << (exp - e) for _, i, e in parts), exp,
                      (0, *compress(range(1, len(coeffs)), coeffs[1:])))


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


def dyadic_value_and_slope(poly: DyadicPoly, x: complex,
                           j: int = 0) -> tuple[Dyadic, Dyadic]:
    """Exact t_j and (j+1)*t_{j+1} at x, integer for integer those of
    dyadic_taylor_shift(poly, x, j + 2), from one homogeneous Horner pass
    over the coefficients ``poly.reads`` lists from c_j up, so poly comes
    from ``dyadic_poly``.  At j = 0 they are p(x) and p'(x).  Needs
    0 <= j <= degree.

    The pass is Horner on g(y) = sum_{i >= j} C(i, j) c_i y**(i - j), with
    g(x) = t_j and g'(x) = (j+1)*t_{j+1}.  It carries P and D, g and g' of
    the coefficients read so far, as in (P, D) <- (P*X + c, D*X + P), each
    product in three as in the shift.  m steps with no coefficient between
    are (P*X**m, D*X**m + m*P*X**(m-1)), one binary powering.  P ends on
    t_j * 2**(exp + s*(n-j)) and D on (j+1)*t_{j+1} * 2**(exp + s*(n-j-1)).
    """
    re, im = poly.re, poly.im
    n = len(re) - 1
    xr, xi, s = _dyadic_parts(x)
    xsum, xdiff = xr + xi, xi - xr
    pr = pi = dr = di = 0
    top = n  # index of the last coefficient read
    # c_j is read even when zero: it ends the last run
    order = reversed(poly.reads)
    if j:  # c_k scaled by C(k, j)
        order = (*reversed(poly.reads[bisect_right(poly.reads, j):]), j)
        re = {k: math.comb(k, j) * re[k] for k in order}
        im = {k: math.comb(k, j) * im[k] for k in order}
    for k in order:
        cr, ci = re[k], im[k]
        if top - k == 1:
            k1 = xr * (dr + di)
            k2 = xr * (pr + pi)
            pr, pi, dr, di = (k2 - pi * xsum, k2 + pr * xdiff,
                              k1 - di * xsum + pr, k1 + dr * xdiff + pi)
        elif top > k:
            # m steps: P*X**m and (D*X + m*P) * X**(m-1)
            m = top - k
            yr, yi = _gaussian_power(xr, xi, m - 1)
            tr, ti = dr * xr - di * xi + m * pr, dr * xi + di * xr + m * pi
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
            pr, pi, dr, di = (pr * yr - pi * yi, pr * yi + pi * yr,
                              tr * yr - ti * yi, tr * yi + ti * yr)
        shift = s * (n - k)
        pr += cr << shift
        pi += ci << shift
        top = k
    return (Dyadic(pr, pi, poly.exp + s * (n - j)),
            Dyadic(dr, di, poly.exp + s * (n - j - 1)))


def _gaussian_power(xr: int, xi: int, m: int) -> tuple[int, int]:
    """(xr + i*xi)**m for m >= 0, by binary powering."""
    rr, ri = 1, 0
    while m:
        if m & 1:
            rr, ri = rr * xr - ri * xi, rr * xi + ri * xr
        m >>= 1
        if m:
            xr, xi = (xr + xi) * (xr - xi), 2 * xr * xi
    return rr, ri


#: bits of each operand that dyadic_ratio's short quotient keeps: twice a
#: double's 53 and some, so the error interval, about 2**-114 of the
#: quotient, rarely straddles a rounding boundary.  Only operands longer
#: than three times this take it: below that, the full products cost less
#: than its four divisions
SHORT_BITS = 120


def dyadic_ratio(a: Dyadic, b: Dyadic, scale: int = 1) -> complex:
    """a / (scale * b), each component rounded once; b != 0, scale > 0.

    When an operand has more than 3 * SHORT_BITS bits, each is first cut
    to its top K = SHORT_BITS bits (Ziv's strategy, ACM TOMS 17, 1991).
    Up to the power of two of the exponents and cuts, a = 2**sa (a' + alpha)
    and b = 2**sb (b' + beta), each part of alpha and beta in [0, 1), so
    |alpha|, |beta| < sqrt(2), and with q = a/b and q' = a'/b'

        |q - q'| |b'|**2 = |a' beta - b' alpha| |b'| / |b' + beta|
                        <= sqrt(2) (|a'| + |b'|) |b'| / |b' + beta|.

    Let nr + i*ni = a' * conj(b') and den = scale * |b'|**2, so that
    nr/den + i*ni/den = q'/scale and S = |nr| + |ni| + den is at least
    |a'| |b'| + |b'|**2.  If sb > 0 then |b'| >= 2**(K-1), the last factor
    is below 2 and |a'| + |b'| <= S / 2**(K-1).  If sb = 0 then beta = 0
    and |a'| >= 2**(K-1), and the bound is sqrt(2) |b'| <= sqrt(2) S /
    2**(K-1).  Either way |q - q'| |b'|**2 <= 2**(2.5-K) S, so each part of
    q/scale lies within err/den of that of q'/scale, for
    err = (S >> (K - 6)) + 1 > 2**(6-K) S.  A part is rounded from the two
    ends (nr -/+ err) / den of its interval, each one correctly rounded
    int / int, and kept when both give the same nonzero double: rounding
    is monotone, so the exact part gives it too.  Else, or when an end
    lies beyond the double range, the part is the full-width quotient.
    """
    re = im = None
    cut = 3 * SHORT_BITS
    if (a.re.bit_length() > cut or a.im.bit_length() > cut
            or b.re.bit_length() > cut or b.im.bit_length() > cut):
        sa = max(a.re.bit_length(), a.im.bit_length(), SHORT_BITS) - SHORT_BITS
        sb = max(b.re.bit_length(), b.im.bit_length(), SHORT_BITS) - SHORT_BITS
        ar, ai, br, bi = a.re >> sa, a.im >> sa, b.re >> sb, b.im >> sb
        nr = ar * br + ai * bi
        ni = ai * br - ar * bi
        den = scale * (br * br + bi * bi)
        err = ((abs(nr) + abs(ni) + den) >> (SHORT_BITS - 6)) + 1
        shift = b.exp - a.exp + sa - sb
        if shift >= 0:
            nr <<= shift
            ni <<= shift
            err <<= shift
        else:
            den <<= -shift
        re = _short_part(nr, err, den)
        im = _short_part(ni, err, den)
        if re is not None and im is not None:
            return complex(re, im)
    # the full width, for each part the short quotient left undecided
    den = scale * (b.re * b.re + b.im * b.im)
    up = b.exp - a.exp
    if up < 0:
        den <<= -up
        up = 0
    if re is None:
        re = ((a.re * b.re + a.im * b.im) << up) / den
    if im is None:
        im = ((a.im * b.re - a.re * b.im) << up) / den
    return complex(re, im)


def _short_part(n: int, err: int, den: int) -> float | None:
    """The double that both (n - err) / den and (n + err) / den round to,
    when it is the same nonzero one; else None, also where an end lies
    beyond the double range.  Two nonzero doubles are == only when their
    bits agree; -0.0 == 0.0 is why zero is refused."""
    try:
        lo = (n - err) / den
        hi = (n + err) / den
    except OverflowError:
        return None
    return lo if lo == hi and lo else None


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
