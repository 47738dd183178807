"""Dyadic Gaussian-integer kernels against exact-Fraction references."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy.exactmath import (dyadic_poly, dyadic_ratio,
                            dyadic_series_quotient, dyadic_taylor_coefficient,
                            dyadic_taylor_shift)

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
