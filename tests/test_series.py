"""Truncated Laurent arithmetic: products, inverses, entire catalog."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy.algebra import even, even_mul
from dxdy.errors import ComputationError, UsageError
from dxdy.series import (ZERO_ULPS, CenterMismatchError, LaurentSeries,
                         WindowError, entire_series, entire_zero_order,
                         series_inv, series_mul, zero_series)

from helpers import even_close

ORIGIN = 0j


def series_of(vals, valuation=0, center=ORIGIN):
    return LaurentSeries(center, valuation,
                         tuple(complex(*v) if isinstance(v, tuple)
                               else complex(v) for v in vals))


def test_monomials_cancel():
    z = series_of([1] + [0] * 7, valuation=1)
    z_inv = series_of([1] + [0] * 7, valuation=-1)
    product = series_mul(z, z_inv)
    assert product.valuation == 0
    assert product.coefficient(0) == even(1)
    assert all(c == 0j for c in product.coeffs[1:])


def test_binomial_product():
    a = series_of([1, 1, 0, 0, 0, 0])
    b = series_of([1, -1, 0, 0, 0, 0])
    product = series_mul(a, b)
    got = product.window_coefficients(0, 3)
    assert got[0] == even(1)
    assert got[1] == even(0)
    assert got[2] == even(-1)
    assert got[3] == even(0)


def test_shifted_sine_product():
    sine = entire_series("sin", 1 + 0j, ORIGIN, 9)
    shifted = series_mul(sine, series_of([1] + [0] * 9, valuation=-3))
    assert shifted.valuation == -2
    assert even_close(shifted.coefficient(-2), even(1), rel=1e-15)
    assert shifted.coefficient(-1) == even(0)
    assert even_close(shifted.coefficient(0), even(-1 / 6), rel=1e-15)
    assert even_close(shifted.coefficient(2), even(1 / 120), rel=1e-15)


def test_mismatched_centers_rejected():
    a = series_of([1, 2])
    b = series_of([1, 2], center=1 + 0j)
    with pytest.raises(CenterMismatchError) as err:
        series_mul(a, b)
    assert str(err.value) == ("series centered at EvenElement(u=0.0, v=0.0) "
                              "and EvenElement(u=1.0, v=0.0) cannot be "
                              "combined")


def test_geometric_inverse():
    a = series_of([1, -1, 0, 0, 0, 0, 0, 0])
    inv = series_inv(a)
    assert all(c == 1 + 0j for c in inv.coeffs)


def test_pure_power_inverse():
    sq = series_of([1] + [0] * 5, valuation=2)
    inv = series_inv(sq)
    assert inv.valuation == -2
    assert inv.coefficient(-2) == even(1)


def test_inverse_of_quadratic_at_upper_pole():
    # z^2 + 1 about (0, 1): 2 dxdy z' + z'^2, at its structural valuation 1
    center = 1j
    a = series_of([(0, 2), 1, 0, 0, 0, 0], valuation=1, center=center)
    inv = series_inv(a)
    assert inv.valuation == -1
    assert even_close(inv.coefficient(-1), even(0, -0.5), rel=1e-15)
    product = series_mul(a, inv)
    assert even_close(product.coefficient(0), even(1), rel=1e-14)
    for n in range(1, len(product.coeffs)):
        assert abs(product.coefficient(n)) <= 1e-12


def test_zero_series_conventions():
    z = zero_series(ORIGIN, 5)
    assert z.is_zero()
    assert z.valuation == z.truncation_order + 1


def test_the_zero_series_multiplies_reads_and_evaluates_to_zero():
    z = zero_series(ORIGIN, 5)
    a = LaurentSeries(ORIGIN, -2, (1 + 0j, 2 + 0j, 3 + 0j))
    # the product is reliable up to min(5 + (-2), 0 + 6) = 3, both ways
    for product in (series_mul(z, a), series_mul(a, z)):
        assert product.is_zero()
        assert product.truncation_order == 3
    with pytest.raises(ZeroDivisionError, match="inverse of the zero"):
        series_inv(z)
    assert z.coefficient(-7) == even(0) and z.coefficient(5) == even(0)
    with pytest.raises(WindowError, match="exponent 6 beyond truncation"):
        z.coefficient(6)
    assert z.evaluate(even(0.5, 0.25)) == even(0)


def test_entire_series_exp():
    e = entire_series("exp", 1 + 0j, ORIGIN, 3)
    assert [c.real for c in e.coeffs] == [1.0, 1.0, 0.5, pytest.approx(1 / 6)]


def test_entire_series_sin():
    s = entire_series("sin", 1 + 0j, ORIGIN, 5)
    assert s.valuation == 1
    got = s.window_coefficients(0, 5)
    want = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    for g, w in zip(got, want):
        assert even_close(g, even(w), rel=1e-15, abs_tol=1e-300)


def test_entire_series_off_axis_anchor():
    # exp with dxdy scale t at center (0, 1): leading value e^-t
    for t in (0.5, 1.0, 2.0):
        e = entire_series("exp", complex(0, t), 1j, 4)
        assert even_close(e.coefficient(0), even(math.exp(-t)), rel=1e-15)


def test_entire_zero_order_decides_zeros_by_ulps():
    pi = math.pi
    # sin(0) exactly; beside 0, sin(w) ~ w is no zero at any size
    assert entire_zero_order("sin", 1 + 0j, -0.0 + 0j) == 1
    for w in (1e-10, -1e-300, 5e-324, 1e-10j):
        assert entire_zero_order("sin", 1 + 0j, complex(w)) == 0
    # k*pi and (k + 1/2)*pi as the scale's product lands on them
    assert entire_zero_order("sin", complex(pi), 3 + 0j) == 1
    assert entire_zero_order("sin", complex(pi), -7 + 0j) == 1
    assert entire_zero_order("cos", complex(pi), 0.5 + 0j) == 1
    assert entire_zero_order("cos", complex(pi), -2.5 + 0j) == 1
    assert entire_zero_order("cos", 1 + 0j, 0j) == 0
    assert entire_zero_order("exp", 1 + 0j, 0j) == 0
    # within ZERO_ULPS ulps of pi a zero, a little farther off undecided
    near = pi + ZERO_ULPS * math.ulp(pi)
    assert entire_zero_order("sin", 1 + 0j, complex(near)) == 1
    for w in (pi + 2 * ZERO_ULPS * math.ulp(pi), 3.1415926535,
              complex(pi, 1e-12)):
        with pytest.raises(ComputationError, match="too close to tell"):
            entire_zero_order("sin", 1 + 0j, complex(w))
    # beyond the 1e-9 band no zero, however few ulps
    assert entire_zero_order("sin", 1 + 0j, 3.14159 + 0j) == 0


def test_entire_series_rejects_unknown_kind():
    with pytest.raises(ValueError):
        entire_series("tan", 1 + 0j, ORIGIN, 4)


def test_entire_series_rejects_a_negative_order():
    with pytest.raises(UsageError, match="order must be >= 0"):
        entire_series("exp", 1j, 0j, -1)


def test_coefficient_window_errors():
    s = series_of([1, 2, 3], valuation=-1)
    assert s.coefficient(-1) == even(1)
    with pytest.raises(WindowError):
        s.coefficient(2)
    with pytest.raises(WindowError):
        s.coefficient(-2)
    assert s.coefficient(0) == even(2)


def test_window_coefficients_pad_below_valuation():
    s = series_of([5], valuation=2)
    padded = s.window_coefficients(0, 2)
    assert padded == [even(0), even(0), even(5)]
    assert s.window(0, 2) == series_of([0, 0, 5])
    assert s.window(1, 1) == series_of([0], valuation=1)


def test_window_keeps_the_coefficients_and_their_signed_zeros():
    s = series_of([(-0.0, 1.0), (2.0, -0.0), 3.0], valuation=-1)
    w = s.window(-2, 0)
    assert (w.center, w.valuation) == (s.center, -2)
    assert [(c.real.hex(), c.imag.hex()) for c in w.coeffs] == [
        (x.hex(), y.hex()) for x, y in ((0.0, 0.0), (-0.0, 1.0), (2.0, -0.0))]
    assert s.window(0, 0) == series_of([(2.0, -0.0)])
    with pytest.raises(WindowError):
        s.window(-1, 2)


coeff_strategy = st.tuples(
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False))


@st.composite
def series_strategy(draw, length=9):
    vals = draw(st.lists(coeff_strategy, min_size=length, max_size=length))
    valuation = draw(st.integers(min_value=-3, max_value=3))
    return series_of(vals, valuation)


@st.composite
def dominant_lead_series(draw, length=9):
    # inverse coefficients grow like (max|a|/|a0|)^n, so the window bound
    # of the inverse identity presumes a dominant leading coefficient
    tail = st.tuples(st.floats(min_value=-1, max_value=1, allow_nan=False),
                     st.floats(min_value=-1, max_value=1, allow_nan=False))
    vals = draw(st.lists(tail, min_size=length - 1, max_size=length - 1))
    angle = draw(st.floats(min_value=0.0, max_value=6.28))
    radius = draw(st.floats(min_value=1.0, max_value=2.0))
    lead = complex(radius * math.cos(angle), radius * math.sin(angle))
    valuation = draw(st.integers(min_value=-3, max_value=3))
    return LaurentSeries(ORIGIN, valuation,
                         (lead,) + tuple(complex(*v) for v in vals))


def plus(a, b):
    """a + b over the window both reach, with exact zeros below each
    valuation: a reference sum for the distributive law."""
    lo = min(a.valuation, b.valuation)
    hi = min(a.truncation_order, b.truncation_order)
    if lo > hi:
        return zero_series(a.center, hi)
    return LaurentSeries(a.center, lo, tuple(
        x + y for x, y in zip(a.window(lo, hi).coeffs,
                              b.window(lo, hi).coeffs)))


@settings(max_examples=120, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    left = series_mul(series_mul(a, b), c)
    right = series_mul(a, series_mul(b, c))
    lo = max(left.valuation, right.valuation)
    hi = min(left.truncation_order, right.truncation_order)
    scale = max([abs(x) for x in left.coeffs + right.coeffs], default=0.0)
    for n in range(lo, hi + 1):
        delta = abs(left.coefficient(n) - right.coefficient(n))
        assert delta <= 1e-12 * max(1.0, scale)
    dist_left = series_mul(a, plus(b, c))
    dist_right = plus(series_mul(a, b), series_mul(a, c))
    lo = max(dist_left.valuation, dist_right.valuation)
    hi = min(dist_left.truncation_order, dist_right.truncation_order)
    scale = max([abs(x) for x in dist_left.coeffs + dist_right.coeffs],
                default=0.0)
    for n in range(lo, hi + 1):
        delta = abs(dist_left.coefficient(n) - dist_right.coefficient(n))
        assert delta <= 1e-12 * max(1.0, scale)


@settings(max_examples=100, deadline=None)
@given(dominant_lead_series())
def test_inverse_multiplies_to_one(a):
    product = series_mul(a, series_inv(a))
    assert even_close(product.coefficient(0), even(1), rel=1e-12)
    for n in range(1, product.truncation_order + 1):
        assert abs(product.coefficient(n)) <= 1e-12


def test_series_evaluation_matches_horner():
    rng = random.Random(10)
    for _ in range(40):
        coeffs = [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(6)]
        s = LaurentSeries(ORIGIN, -2, tuple(map(complex, coeffs)))
        dz = even(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        direct = even(0, 0)
        from dxdy.algebra import even_int_pow
        for k, c in enumerate(coeffs):
            direct = direct + even_mul(c, even_int_pow(dz, s.valuation + k))
        assert even_close(s.evaluate(dz), direct, rel=1e-10, abs_tol=1e-12)


def test_finite_difference_derivative_correspondence():
    # coefficient(n) of an expansion at a known order-m pole matches the
    # x-derivatives of z'^m f = num/q, with q the co-factor of the planted
    # pole; sampling num/q directly keeps the differences off the noise
    # floor that the expanded denominator would hit next to the root.
    from dxdy.functions import local_expansion, meromorphic_from_text
    f = meromorphic_from_text("(z+2)/((z-1)^3*(z+3))")
    center = even(1, 0)
    expansion = local_expansion(f, center, 8)
    m = -expansion.valuation
    assert m == 3
    h = 1e-5

    def g(x: float) -> float:
        z = center.u + x
        return (z + 2.0) / (z + 3.0)

    # k-th derivative at 0 via central differences excluding the center
    samples = {j: g(j * h) for j in (-2, -1, 1, 2)}
    d0 = (samples[-1] + samples[1]) / 2.0
    d1 = (samples[-2] - 8 * samples[-1] + 8 * samples[1] - samples[2]) / (12 * h)
    d2 = (samples[-2] - samples[-1] - samples[1] + samples[2]) / (3 * h ** 2)
    for k, fd in ((0, d0), (1, d1), (2, d2)):
        want = expansion.coefficient(k - m).u * math.factorial(k)
        assert abs(fd - want) <= 1e-4 * max(1.0, abs(want))
