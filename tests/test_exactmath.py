"""Dyadic Gaussian-integer kernels against exact-Fraction references."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy.exactmath import (Dyadic, dyadic_poly, dyadic_ratio,
                            dyadic_series_quotient, dyadic_taylor_coefficient,
                            dyadic_taylor_shift, dyadic_value_and_slope)

from exact_reference import EXACT_ZERO, ExactEven, exact_series_quotient


# ---------------------------------------------------------------------------
# reference: the same quantities in Fraction arithmetic

def reference_eval_with_derivative(coeffs, x):
    p = EXACT_ZERO
    dp = EXACT_ZERO
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def reference_taylor_shift(coeffs, center):
    """Exact t_k with p(center + h) = sum t_k h^k, via repeated division."""
    work = list(coeffs)
    out = []
    for _ in range(len(work)):
        acc = EXACT_ZERO
        for k in range(len(work) - 1, -1, -1):
            acc = acc * center + work[k]
            work[k] = acc
        out.append(work[0])
        work = work[1:]
    return out


def exact(z: complex) -> ExactEven:
    return ExactEven.from_floats(z.real, z.imag)


def rounded(e: ExactEven) -> complex:
    return complex(float(e.u), float(e.v))


def is_zero(e: ExactEven) -> bool:
    return e.u == 0 and e.v == 0


def outcome(convert):
    """The rounded result bit for bit, or the exception it raises."""
    try:
        z = convert()
    except OverflowError as err:
        return type(err), str(err)
    return z.real.hex(), z.imag.hex()


def exact_value(d) -> ExactEven:
    return ExactEven(Fraction(d.re, 1 << d.exp), Fraction(d.im, 1 << d.exp))


# ---------------------------------------------------------------------------
# strategies: magnitudes near 1e-300, near 1 and near 1e300, and parts of
# one number with unrelated binary exponents

_exponents = st.one_of(st.integers(-1000, -990), st.integers(-60, 60),
                       st.integers(990, 1000))
_parts = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e),
              st.floats(0.5, 1.0, exclude_max=True), _exponents,
              st.booleans()))
_complex = st.builds(complex, _parts, _parts)
_coeffs = st.lists(_complex, min_size=1, max_size=7)

# sparse polynomials up to degree 20: each coefficient zero (of either
# sign) about half the time, with leading and trailing zero runs
_zero = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                         complex(-0.0, -0.0)])
_sparse = st.builds(
    lambda lead, body, trail: ([0j] * lead + body + [0j] * trail)[:21],
    st.integers(0, 4), st.lists(st.one_of(_zero, _complex), max_size=21),
    st.integers(0, 4)).filter(lambda cs: len(cs) >= 2)
# centres at 0, on either axis and anywhere
_center = st.one_of(st.just(0j), st.builds(complex, _parts),
                    st.builds(lambda v: complex(0.0, v), _parts), _complex)


@settings(max_examples=100, deadline=None)
@given(_coeffs.filter(lambda cs: len(cs) >= 2), _complex)
def test_value_and_derivative_match_reference(coeffs, x):
    ref_p, ref_dp = reference_eval_with_derivative(
        [exact(c) for c in coeffs], exact(x))
    p, dp = dyadic_taylor_shift(dyadic_poly(coeffs), x, 2)
    assert exact_value(p) == ref_p
    assert exact_value(dp) == ref_dp
    assert outcome(p.to_complex) == outcome(lambda: rounded(ref_p))
    assert outcome(dp.to_complex) == outcome(lambda: rounded(ref_dp))
    if not is_zero(ref_dp):
        assert (outcome(lambda: dyadic_ratio(p, dp))
                == outcome(lambda: rounded(ref_p / ref_dp)))


@settings(max_examples=200, deadline=None)
@given(_sparse, _center)
def test_one_pass_value_and_slope_on_sparse_polynomials(coeffs, x):
    poly = dyadic_poly(coeffs)
    got = dyadic_value_and_slope(poly, x)
    assert got == tuple(dyadic_taylor_shift(poly, x, 2))
    ref = reference_eval_with_derivative([exact(c) for c in coeffs],
                                         exact(x))
    assert [exact_value(d) for d in got] == list(ref)


@settings(max_examples=100, deadline=None)
@given(_sparse, _center)
def test_single_taylor_coefficient_on_sparse_polynomials(coeffs, center):
    poly = dyadic_poly(coeffs)
    assert ([dyadic_taylor_coefficient(poly, center, j)
             for j in range(len(coeffs))]
            == dyadic_taylor_shift(poly, center, len(coeffs)))


def test_one_pass_steps_over_a_zero_coefficient_run():
    # z^9 + c at a root of it and at 0, where the run of eight zeros ends
    # the pass
    poly = dyadic_poly([0.7 - 0.2j] + [0j] * 8 + [1 + 0j])
    for x in (0.8706 + 0.2894j, 0j, -1.5, 2.25j):
        assert (dyadic_value_and_slope(poly, x)
                == tuple(dyadic_taylor_shift(poly, x, 2)))
    # p = 0 with p' != 0 before a run: z^2 - z at 1 is a simple zero
    poly = dyadic_poly([0j, 0j, -1, 1, 0j, 0j])
    assert (dyadic_value_and_slope(poly, 1.0)
            == tuple(dyadic_taylor_shift(poly, 1.0, 2)))


def test_signed_zero_coefficients_are_exact_zeros():
    poly = dyadic_poly([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-0.0, -0.0), 0.75 - 0.5j])
    assert poly.re == (0, 0, 0, 0, 0, 3)
    assert poly.im == (0, 0, 0, 0, 0, -2)
    assert poly.exp == 2
    assert dyadic_poly([-0.0, 0.0]) == dyadic_poly([0j, 0j])
    assert dyadic_value_and_slope(poly, 2.0) == (Dyadic(96, -64, 2),
                                                 Dyadic(240, -160, 2))


@settings(max_examples=100, deadline=None)
@given(_coeffs, _complex)
def test_taylor_shift_matches_reference(coeffs, center):
    ref = reference_taylor_shift([exact(c) for c in coeffs], exact(center))
    got = dyadic_taylor_shift(dyadic_poly(coeffs), center, len(coeffs))
    assert [exact_value(t) for t in got] == ref
    for t, r in zip(got, ref):
        assert outcome(t.to_complex) == outcome(lambda: rounded(r))
    # the multiplicity test's Newton correction t_{k-1} / (k t_k)
    for k in range(1, len(ref)):
        if not is_zero(ref[k]):
            assert (outcome(lambda: dyadic_ratio(got[k - 1], got[k], k))
                    == outcome(lambda: rounded(ref[k - 1] / (ref[k] * k))))


@settings(max_examples=100, deadline=None)
@given(_coeffs, _complex)
def test_single_taylor_coefficient_matches_the_shift(coeffs, center):
    poly = dyadic_poly(coeffs)
    full = dyadic_taylor_shift(poly, center, len(coeffs))
    assert [dyadic_taylor_coefficient(poly, center, j)
            for j in range(len(coeffs))] == full


def test_truncated_taylor_shift_is_a_prefix():
    poly = dyadic_poly([0.3 - 1j, 2.5, -1e-3j, 1.0])
    full = dyadic_taylor_shift(poly, 0.7 + 0.1j, 4)
    assert dyadic_taylor_shift(poly, 0.7 + 0.1j, 2) == full[:2]


def test_overflow_raises_like_fraction():
    coeffs = [1e300, 1e300 + 1e300j]
    p, dp = dyadic_taylor_shift(dyadic_poly(coeffs), 1e300 + 0j, 2)
    with pytest.raises(OverflowError) as got:
        p.to_complex()
    ref_p, _ = reference_eval_with_derivative([exact(c) for c in coeffs],
                                              exact(1e300 + 0j))
    with pytest.raises(OverflowError) as want:
        rounded(ref_p)
    assert str(got.value) == str(want.value)
    assert dp.to_complex() == 1e300 + 1e300j


def test_subnormal_results_round_once():
    # 1e-300 * 1e-300 lies far below the smallest subnormal: rounds to 0
    p = dyadic_taylor_shift(dyadic_poly([0.0, 1e-300]), 1e-300, 1)[0]
    assert outcome(p.to_complex) == (0.0.hex(), 0.0.hex())
    tiny = math.ldexp(1.0, -1074)
    p, _ = dyadic_taylor_shift(dyadic_poly([tiny, tiny]), 0.5 + 0j, 2)
    # 1.5 * 2**-1074 is a tie between 2**-1074 and 2**-1073: to even
    assert p.to_complex() == complex(math.ldexp(1.0, -1073), 0.0)


@settings(max_examples=100, deadline=None)
@given(_coeffs, _coeffs.filter(lambda cs: cs[0] != 0),
       st.integers(1, 10 ** 6))
def test_series_quotient_matches_long_division(num, den, scale):
    count = min(len(num), len(den))
    ref = exact_series_quotient([exact(c) for c in num[:count]],
                                [exact(c) for c in den[:count]])
    for k in range(count):
        assert (outcome(lambda: dyadic_series_quotient(
                    dyadic_poly(num), dyadic_poly(den), k, scale))
                == outcome(lambda: rounded(ref[k] / scale)))


def test_series_quotient_of_a_squared_geometric_series():
    # 1 / (3 (1 - z)^2) = sum (k+1)/3 z^k, each the nearest double
    one = dyadic_poly([1.0] + [0.0] * 29)
    den = dyadic_poly([1.0, -2.0, 1.0] + [0.0] * 27)
    assert ([dyadic_series_quotient(one, den, k, 3) for k in range(30)]
            == [complex((k + 1) / 3) for k in range(30)])
