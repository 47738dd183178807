"""Float-pair kernels on `complex` against the even-element reference loops.

The series, polynomial and Durand-Kerner loops compute on Python `complex`,
whose +, - and * are the even subalgebra's operations bit for bit.  The
references below are the same loops written on `EvenElement`; every result
must agree in the hex digits of both parts.  A last group checks that
`local_expansion` gives the same bits as the wider window it used to build.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy import roots
from dxdy.algebra import E_ZERO, EvenElement, even, even_inv, even_mul
from dxdy.functions import find_poles, local_expansion, meromorphic_from_text
from dxdy.polynomials import ZERO_POLY, Polynomial
from dxdy.series import (LaurentSeries, entire_series, make_series,
                         series_inv, series_mul)


# ---------------------------------------------------------------------------
# reference: the same loops on EvenElement

def reference_series_mul(a, b):
    trunc = min(a.truncation_order + b.valuation,
                b.truncation_order + a.valuation)
    if a.is_zero() or b.is_zero():
        return LaurentSeries(a.center, trunc + 1, ())
    lo = a.valuation + b.valuation
    length = trunc - lo + 1
    out = [E_ZERO] * length
    for i, ca in enumerate(a.coeffs):
        if i >= length:
            break
        for j, cb in enumerate(b.coeffs):
            if i + j >= length:
                break
            out[i + j] = out[i + j] + even_mul(ca, cb)
    return LaurentSeries(a.center, lo, tuple(out))


def reference_series_inv(a):
    n = len(a.coeffs)
    inv_lead = even_inv(a.coeffs[0])
    out = [E_ZERO] * n
    out[0] = inv_lead
    for k in range(1, n):
        acc = E_ZERO
        for i in range(1, k + 1):
            acc = acc + even_mul(a.coeffs[i], out[k - i])
        out[k] = -even_mul(acc, inv_lead)
    return LaurentSeries(a.center, -a.valuation, tuple(out))


def reference_call(p, z):
    acc = E_ZERO
    for c in reversed(p.coeffs):
        acc = even_mul(acc, z) + c
    return acc


def reference_mul(p, q):
    if p.is_zero() or q.is_zero():
        return ZERO_POLY
    out = [E_ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + even_mul(a, b)
    return Polynomial.from_coeffs(out)


def reference_deflate(p, root):
    if p.is_zero():
        return ZERO_POLY, E_ZERO
    acc = E_ZERO
    out = [E_ZERO] * max(len(p.coeffs) - 1, 0)
    for k in range(len(p.coeffs) - 1, -1, -1):
        acc = even_mul(acc, root) + p.coeffs[k]
        if k > 0:
            out[k - 1] = acc
    return Polynomial.from_coeffs(out), acc


def reference_taylor_shift(p, center):
    if p.is_zero():
        return ()
    work = list(p.coeffs)
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


def reference_durand_kerner(coeffs):
    def horner(x):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    n = len(coeffs) - 1
    bound = 1.0 + max(abs(c) for c in coeffs[:-1])
    xs = [0.6 * bound * cmath.exp(1j * (2.0 * math.pi * k / n + 0.3923))
          for k in range(n)]
    plateau = 0
    best = math.inf
    for _ in range(roots._DK_MAX_ITER):
        delta = 0.0
        scale = 1.0
        for i in range(n):
            xi = xs[i]
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= xi - xs[j]
            if den == 0:
                xs[i] = xi + 1e-8 * (1 + abs(xi)) * cmath.exp(1j * (i + 0.5))
                delta = math.inf
                continue
            step = horner(xi) / den
            xs[i] = xi - step
            delta = max(delta, abs(step))
            scale = max(scale, abs(xs[i]))
        if delta <= 5e-15 * scale:
            break
        if delta < best * 0.5:
            best = delta
            plateau = 0
        else:
            plateau += 1
            if plateau >= 25 and delta < 1e-5 * scale:
                break
    return xs


def reference_local_expansion(f, center, window):
    """local_expansion as it was: every product over the padded length."""
    def poly_series(p, length):
        shifted = list(p.taylor_shift(center))
        shifted += [E_ZERO] * (length - len(shifted))
        return make_series(center, 0, shifted[:length])

    if f.is_zero():
        return make_series(center, 0, [])
    length = window + f.den.degree + 2
    result = series_mul(poly_series(f.num, length),
                        series_inv(poly_series(f.den, length)))
    if f.factor is not None:
        result = series_mul(
            result, entire_series(f.factor.kind, f.factor.scale, center,
                                  length - 1))
    if result.is_zero():
        return result
    return make_series(center, result.valuation, result.coeffs[:window])


# ---------------------------------------------------------------------------
# bit-level comparison

def bits(x: EvenElement) -> tuple[str, str]:
    return x.u.hex(), x.v.hex()


def series_bits(s: LaurentSeries):
    return bits(s.center), s.valuation, [bits(c) for c in s.coeffs]


def poly_bits(p: Polynomial):
    return [bits(c) for c in p.coeffs]


def outcome(compute, convert):
    """The result in bits, or the exception it raises."""
    try:
        value = compute()
    except ZeroDivisionError as err:
        return type(err), str(err)
    return convert(value)


# ---------------------------------------------------------------------------
# strategies: signed zeros, subnormals, and magnitudes near 1, 1e-150 and
# 1e150 (whose products reach the ends of the double range)

_exponents = st.one_of(st.integers(-1074, -1022), st.integers(-510, -490),
                       st.integers(-30, 30), st.integers(490, 510))
_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e),
              st.floats(0.5, 1.0, exclude_max=True), _exponents,
              st.booleans()))
_even = st.builds(EvenElement, _parts, _parts)
_coeffs = st.lists(_even, min_size=1, max_size=8)
_series = st.builds(lambda v, cs: LaurentSeries(E_ZERO, v, tuple(cs)),
                    st.integers(-3, 3), _coeffs)
_poly = st.builds(Polynomial.from_coeffs, st.lists(_even, max_size=7))


@settings(max_examples=100, deadline=None)
@given(_series, _series)
def test_series_mul_matches_reference(a, b):
    assert (series_bits(series_mul(a, b))
            == series_bits(reference_series_mul(a, b)))


@settings(max_examples=100, deadline=None)
@given(_series)
def test_series_inv_matches_reference(a):
    assert (outcome(lambda: series_inv(a), series_bits)
            == outcome(lambda: reference_series_inv(a), series_bits))


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_polynomial_call_matches_reference(p, z):
    assert bits(p(z)) == bits(reference_call(p, z))


@settings(max_examples=100, deadline=None)
@given(_poly, _poly)
def test_polynomial_mul_matches_reference(p, q):
    assert poly_bits(p * q) == poly_bits(reference_mul(p, q))


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_deflate_matches_reference(p, root):
    quotient, remainder = p.deflate(root)
    ref_quotient, ref_remainder = reference_deflate(p, root)
    assert poly_bits(quotient) == poly_bits(ref_quotient)
    assert bits(remainder) == bits(ref_remainder)


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_taylor_shift_matches_reference(p, center):
    assert ([bits(t) for t in p.taylor_shift(center)]
            == [bits(t) for t in reference_taylor_shift(p, center)])


def test_cached_coefficients_leave_equality_alone():
    p = Polynomial.from_coeffs([even(1.5, -2.0), even(0.0, 3.0)])
    before = (repr(p), hash(p))
    p(even(0.25, 0.5))
    q = Polynomial(p.coeffs)
    assert (repr(p), hash(p)) == before
    assert p == q and hash(p) == hash(q)


def _dk_bits(xs):
    return [(x.real.hex(), x.imag.hex()) for x in xs]


@pytest.mark.parametrize("m", range(2, 14))
def test_durand_kerner_iterates_on_multiple_roots(m):
    monic = [complex(math.comb(m, k) * (-1) ** (m - k)) for k in range(m + 1)]
    assert (_dk_bits(roots._durand_kerner(monic))
            == _dk_bits(reference_durand_kerner(monic)))


def test_durand_kerner_iterates_on_binomials():
    rng = random.Random(20)
    for n in range(3, 16):
        for _ in range(3):
            c = cmath.rect(rng.uniform(0.5, 1.4), rng.uniform(-math.pi, math.pi))
            monic = [c] + [0j] * (n - 1) + [1 + 0j]
            assert (_dk_bits(roots._durand_kerner(monic))
                    == _dk_bits(reference_durand_kerner(monic)))


# ---------------------------------------------------------------------------
# local_expansion: the sized window gives the padded window's bits

WINDOW_CASES = [
    *(f"(z+2)/((z-0.5)^{m}*(z^2+3))" for m in range(1, 8)),
    "1/(z^15+0.7-0.2*I)",
    "z^3/(z-1)",
    "(z^41+2*z^3+1)/(z-0.25)^2",
    "z^45/(z-1)",
    "exp(2*z)/(z-1)^3",
    "exp(I*z)/(z^2+1)",
    "sin(z)/z^4",
    "sin(0*z)/(z-1)",
    "cos(I*z)/(z^2+4)^2",
]


@pytest.mark.parametrize("text", WINDOW_CASES)
def test_sized_window_matches_padded_window(text):
    f = meromorphic_from_text(text)
    centers = [even(0.0), even(0.3, -0.7), even(1.0, 1.0)]
    centers += [p.location for p in find_poles(f)]
    for center in centers:
        for window in (1, 16, 40):
            got = local_expansion(f, center, window)
            want = reference_local_expansion(f, center, window)
            assert series_bits(got) == series_bits(want), (center, window)
