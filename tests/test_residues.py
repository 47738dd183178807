"""Residue routes, order reduction, special formulas, Laurent windows."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dxdy.algebra import even
from dxdy.contours import CircleContour, integrate_closed
from dxdy.functions import MeromorphicFunction, Pole, find_poles, meromorphic_from_text
from dxdy.polynomials import Polynomial
from dxdy.residues import (MAX_LAURENT_WINDOW, PoleExpansionError,
                           cauchy_derivative, cauchy_evaluate,
                           cauchy_integral_value, is_two_form, laurent_expand,
                           residue, residue_by_derivative_formula,
                           residue_by_order_reduction)
from dxdy.roots import find_roots
from dxdy.series import WindowError

from exact_reference import reference_derivative_formula
from helpers import (even_close, gaussian_monic_denominators,
                     random_planted_rational)


def upper_pole(f):
    return [p for p in find_poles(f) if p.location.v > 0][0]


def test_residue_reference_values():
    f = meromorphic_from_text("1/(z^2+1)^2")
    assert even_close(residue(f, upper_pole(f)), even(0, -0.25), rel=1e-15)
    g = meromorphic_from_text("1/z")
    assert residue(g, find_poles(g)[0]) == even(1, 0)
    h = meromorphic_from_text("exp(I*z)/(z^2+1)")
    assert even_close(residue(h, upper_pole(h)),
                      even(0, -0.5 * math.exp(-1)), rel=1e-14)
    # each a_{-1} below is tiny next to the far end of its Laurent window,
    # or follows coefficients that are pure rounding; the order comes from
    # the pole, so neither hides it
    for text, want in [
            ("exp(I*z)/(z^2+1e-4)", even(0, -50 * math.exp(-0.01))),
            ("z^6/(z-(-0.3+1.2*I))^7", even(1.0)),
            ("cos(40*z)/(z-1)", even(math.cos(40))),
            ("cos(200*z)/(z-1)", even(math.cos(200))),
            ("sin(1000*z)/(z-1)^2", even(1000 * math.cos(1000)))]:
        f = meromorphic_from_text(text)
        top = max(find_poles(f), key=lambda p: p.location.v)
        got = residue(f, top)
        assert even_close(got, want, rel=1e-12), text
        assert residue_by_order_reduction(f, top).a_minus_1 == got, text


@pytest.mark.parametrize("n", [16, 17, 18, 45, 60])
def test_high_degree_residues_are_not_dropped_as_dust(n):
    # a_{-1} of 1/(z^n+c) is tiny next to the top of its Laurent window;
    # it is the residue -w/(n c) at every root w, not zero
    rng = random.Random(n)
    for _ in range(3):
        c = complex(*(rng.uniform(-1.0, 1.0) for _ in range(2)))
        c *= rng.uniform(0.5, 1.4) / abs(c)
        f = meromorphic_from_text(f"1/(z^{n}+({c.real!r}+({c.imag!r})*I))")
        poles = find_poles(f)
        assert len(poles) == n
        for p in poles:
            w = complex(p.location.u, p.location.v)
            want = -w / (n * c)
            r = residue(f, p)
            assert abs(complex(r.u, r.v) - want) <= 1e-8 * abs(want)


def test_order_reduction_walkthrough():
    f = meromorphic_from_text("1/(z^2+1)^2")
    report = residue_by_order_reduction(f, upper_pole(f))
    assert report.method == "order_reduction"
    # first extraction: the order-2 coefficient
    order, coeff = report.extracted[0]
    assert order == 2 and even_close(coeff, even(-0.25, 0), rel=1e-15)
    # after subtracting it the remainder is a simple pole with the residue
    order, coeff = report.extracted[1]
    assert order == 1 and even_close(coeff, even(0, -0.25), rel=1e-15)
    assert even_close(report.a_minus_1, even(0, -0.25), rel=1e-15)
    assert even_close(report.leading, even(-0.25, 0), rel=1e-15)


def test_order_reduction_remainder_values_match_reference_form():
    # with one order peeled off, z' times the remainder equals
    # (z+3i)/(4(z+i)^2); its value at the pole is the residue
    f = meromorphic_from_text("1/(z^2+1)^2")
    reference = meromorphic_from_text("(z+3*I)/(4*(z+I)^2)")
    pole = upper_pole(f)
    report = residue_by_order_reduction(f, pole)
    assert even_close(reference(pole.location), report.a_minus_1, rel=1e-12)
    # and the same value comes out of the reduced series coefficient
    assert even_close(reference(pole.location), even(0, -0.25), rel=1e-15)


def test_order_reduction_without_residue_term():
    f = meromorphic_from_text("1/z^2")
    report = residue_by_order_reduction(f, find_poles(f)[0])
    assert report.a_minus_1 == even(0, 0)
    assert report.extracted == ((2, even(1, 0)),)


def test_order_reduction_requires_a_pole():
    f = meromorphic_from_text("z+1")
    with pytest.raises(PoleExpansionError):
        residue_by_order_reduction(f, Pole(even(0, 0), 1))


def test_derivative_formula_exactness_on_simple_cases():
    f = meromorphic_from_text("1/(z^2+1)^2")
    report = residue_by_derivative_formula(f, upper_pole(f))
    assert report.method == "derivative_formula"
    assert even_close(report.a_minus_1, even(0, -0.25), rel=1e-8)


def test_method_agreement_on_planted_rationals():
    rng = random.Random(404)
    for _ in range(30):
        f, poles = random_planted_rational(rng)
        p = poles[0]
        a_series = residue(f, p)
        a_reduction = residue_by_order_reduction(f, p).a_minus_1
        a_derivative = residue_by_derivative_formula(f, p).a_minus_1
        assert even_close(a_reduction, a_series, rel=1e-9)
        assert even_close(a_derivative, a_series, rel=1e-6)


def test_method_agreement_with_entire_factor():
    f = meromorphic_from_text("exp(I*z)/(z^2+1)^2")
    p = upper_pole(f)
    a_series = residue(f, p)
    a_fd = residue_by_derivative_formula(f, p).a_minus_1
    assert even_close(a_fd, a_series, rel=1e-7)
    g = meromorphic_from_text("sin(z)/(z-1)^3")
    p = find_poles(g)[0]
    assert even_close(residue_by_derivative_formula(g, p).a_minus_1,
                      residue(g, p), rel=1e-7)


@pytest.mark.parametrize("m", range(1, 31))
def test_order_ladder_closed_form(m):
    # z^(m-1)/(z-1)^m = sum_k C(m-1, k) (z-1)^(k-m): residue 1 for every m
    binomial = [complex(math.comb(m, k) * (-1) ** (m - k))
                for k in range(m + 1)]
    assert find_roots(binomial) == [(1 + 0j, m)]
    f = meromorphic_from_text(f"z^{m - 1}/(z-1)^{m}")
    (p,) = find_poles(f)
    assert p == Pole(even(1.0), m)
    assert residue(f, p) == even(1.0)
    assert residue_by_order_reduction(f, p).a_minus_1 == even(1.0)
    assert residue_by_derivative_formula(f, p).a_minus_1 == even(1.0)
    result = integrate_closed(f, CircleContour(even(1.0), 0.5))
    assert result.real_value == 0.0
    assert result.imaginary_defect == 2.0 * math.pi


#: a dyadic rational in [-2, 2], k / 2^e with e <= 10
_dyadic = st.integers(0, 10).flatmap(
    lambda e: st.integers(-2 << e, 2 << e).map(lambda k: k / (1 << e)))


@settings(max_examples=150, deadline=None)
@example(0.0, -0.125, 11)  # z^10 at the pole is 1e-9-small: not cancelled
@example(-1.140625, -1.796875, 11)  # a rounded fold: a cloud about a
@given(_dyadic, _dyadic, st.integers(1, 12))
def test_order_ladder_at_dyadic_gaussian_poles(u, v, m):
    # z^(m-1)/(z-a)^m: one pole at a of order m, residue 1, by every
    # route; at a = 0 the function is 1/z
    a = even(u, v)
    f = meromorphic_from_text(f"z^{m - 1}/(z-({u!r}+{v!r}*I))^{m}")
    (p,) = find_poles(f)
    assert even_close(p.location, a, abs_tol=1e-9)
    assert p.order == (m if (u, v) != (0, 0) else 1)
    for got in (residue(f, p), residue_by_order_reduction(f, p).a_minus_1,
                residue_by_derivative_formula(f, p).a_minus_1):
        assert even_close(got, even(1.0), abs_tol=1e-9)


DERIVATIVE_CORPUS = [
    *(f"1/(z^{n}+(0.7-0.2*I))" for n in range(1, 16)),
    *(f"z^{m - 1}/(z-1)^{m}" for m in range(1, 21)),
    "exp(I*z)/(z^2+1)^2",
    "exp(2*z)/(z-1)^3",
    "exp(-0.5*I*z)/(z-0.25)^5",
    "sin(z)/(z-1)^3",
    "sin(3*z)/(z^2+1)^3",
    "cos(I*z)/(z^2+4)^2",
    "cos(0.3*z)/((z-0.5)^4*(z+2))",
    "z^6/(z-(-0.3+1.2*I))^7",
]


#: poles whose order a sin/cos zero lowers below the table multiplicity
REDUCED_POLES = [
    "sin(z)/z^3",
    "cos(pi/2*z)/(z-1)^2",
    "sin(pi*z)/(z-1)^3",
    "sin(2*z)/(z^2*(z-1))",
]


@pytest.mark.parametrize("text", DERIVATIVE_CORPUS + REDUCED_POLES)
def test_derivative_formula_matches_fraction_reference(text):
    f = meromorphic_from_text(text)
    for p in find_poles(f):
        assert (repr(residue_by_derivative_formula(f, p))
                == repr(reference_derivative_formula(f, p)))


def test_derivative_formula_requires_the_pole_order():
    # coefficient m-1 of z'^m f is a_{-1} only at the order the table and
    # the factor's zero give
    with pytest.raises(PoleExpansionError):
        residue_by_derivative_formula(meromorphic_from_text("z+1"),
                                      Pole(even(0, 0), 1))
    with pytest.raises(PoleExpansionError):
        residue_by_derivative_formula(meromorphic_from_text("sin(z)/z^3"),
                                      Pole(even(0, 0), 3))


def test_derivative_formula_refuses_a_zero_cofactor_lead():
    # a root table that undercounts an exact triple root leaves C(1) = 0
    cube = Polynomial.from_coeffs([even(-1.0), even(3.0), even(-3.0),
                                   even(1.0)])
    f = MeromorphicFunction(Polynomial.from_coeffs([even(1.0)]), cube,
                            den_roots=((1 + 0j, 2),))
    with pytest.raises(ZeroDivisionError):
        residue_by_derivative_formula(f, Pole(even(1.0), 2))


@pytest.mark.parametrize("text,want", [
    ("sin(1000*z)/(z-1)^2", 1000 * math.cos(1000)),
    ("cos(40*z)/(z-1)", math.cos(40)),
])
def test_derivative_formula_closed_forms(text, want):
    # high frequencies: exact division leaves no truncation error to grow
    f = meromorphic_from_text(text)
    (p,) = find_poles(f)
    assert even_close(residue_by_derivative_formula(f, p).a_minus_1,
                      even(want), rel=1e-12)


def test_derivative_formula_reads_poles_a_zero_reduces():
    # sin(pi z) vanishes at 1: an order-2 pole whose residue is 0, up to
    # the anchor sin(pi) = 1.2e-16 that the rounded pi leaves
    f = meromorphic_from_text("sin(pi*z)/(z-1)^3")
    (p,) = find_poles(f)
    assert p.order == 2
    assert abs(residue_by_derivative_formula(f, p).a_minus_1) <= 1e-15
    g = meromorphic_from_text("sin(2*z)/(z^2*(z-1))")
    at_zero = next(p for p in find_poles(g) if p.location == even(0.0))
    assert at_zero.order == 1
    assert residue_by_derivative_formula(g, at_zero).a_minus_1 == even(-2.0)


def test_entire_factor_zeros_are_decided_exactly():
    # sin(1e-10) is no zero: the pole at 1e-10 stays, residue 1e10 sin(1e-10)
    f = meromorphic_from_text("1e10*sin(z)/(z-1e-10)")
    (p,) = find_poles(f)
    assert p == Pole(even(1e-10), 1)
    want = even(1e10 * math.sin(1e-10))
    for got in (residue(f, p), residue_by_order_reduction(f, p).a_minus_1,
                residue_by_derivative_formula(f, p).a_minus_1):
        assert even_close(got, want, rel=1e-12)
    for text in ("sin(z)/z", "sin(pi*z)/(z-3)", "cos(pi*z)/(z-0.5)"):
        assert find_poles(meromorphic_from_text(text)) == (), text


def test_cancellation_is_measured_against_horners_bound():
    # |1e10*z - 1| = 1 at the root 0 is no shared root, though it is small
    # next to the numerator's largest coefficient
    f = meromorphic_from_text("(1e10*z-1)/(z*(z-1))")
    at_zero, at_one = find_poles(f)
    assert (at_zero, at_one) == (Pole(even(0.0), 1), Pole(even(1.0), 1))
    assert residue(f, at_zero) == even(1.0)
    assert residue(f, at_one) == even(1e10 - 1)
    result = integrate_closed(f, CircleContour(even(0.0), 0.5))
    assert even_close(even(result.imaginary_defect), even(2 * math.pi),
                      rel=1e-12)


def test_cancellation_judges_the_folded_coefficients():
    # (z+0.1)^2 - 0.01 folds to z^2 + 0.2z + a0 with a0 = 1.7e-18 of
    # rounding, not 0.  At the root 0 Horner's bound is |a0| itself, so
    # the cancellation sees the polynomial a typed a0 gives: a simple pole
    # at 0 with residue a0, the same as the literal and the contour say
    f = meromorphic_from_text("((z+0.1)^2-0.01)/z")
    a0 = f.num.coeffs[0]
    assert 1e-18 < a0.real < 1e-17 and a0.imag == 0
    literal = meromorphic_from_text(f"(z^2+0.2*z+{a0.real!r})/z")
    assert literal.num == f.num
    for g in (f, literal):
        (p,) = find_poles(g)
        assert p == Pole(even(0.0), 1)
        for got in (residue(g, p), residue_by_order_reduction(g, p).a_minus_1,
                    residue_by_derivative_formula(g, p).a_minus_1):
            assert got == even(a0.real)
    result = integrate_closed(f, CircleContour(even(0.0), 0.5))
    assert math.isclose(result.imaginary_defect, 2 * math.pi * a0.real,
                        rel_tol=1e-9)


def test_simple_pole_residue_shifts_at_most_two_terms(monkeypatch):
    f = meromorphic_from_text("1/(z^60+0.7-0.2*I)")
    poles = find_poles(f)
    requested = []
    shift = Polynomial.taylor_shift

    def counted(self, center, terms=None):
        requested.append(terms)
        return shift(self, center, terms)

    monkeypatch.setattr(Polynomial, "taylor_shift", counted)
    for p in poles:
        residue(f, p)
    assert len(poles) == 60 and len(requested) == 120
    # a_{-1} at a simple pole reads t_1 of den and t_0 of num alone
    assert all(terms is not None and terms <= 2 for terms in requested)


def test_residue_linearity():
    rng = random.Random(77)
    for _ in range(20):
        f, poles = random_planted_rational(rng, max_poles=1)
        p = poles[0]
        alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
        g = MeromorphicFunction(
            Polynomial.from_coeffs(
                [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(max(1, f.den.degree))]),
            f.den)
        combined = MeromorphicFunction(
            Polynomial.from_coeffs(
                [a * alpha for a in f.num.coeffs]) +
            Polynomial.from_coeffs([b * beta for b in g.num.coeffs]),
            f.den)
        want = residue(f, p) * alpha + residue(g, p) * beta
        got = residue(combined, p)
        assert even_close(got, want, rel=1e-10, abs_tol=1e-12)


def test_two_form_detection():
    assert is_two_form(even(0, -0.5))
    assert is_two_form(even(1e-320, 2.0))
    assert not is_two_form(even(1e-3, 2.0))


def test_cauchy_evaluate_cases():
    f = meromorphic_from_text("1/(z+I)")
    value, applicable = cauchy_evaluate(f, even(0, 1))
    assert applicable and even_close(value, even(0, -0.5), rel=1e-15)

    g = meromorphic_from_text("1/(z-pi)")
    value, applicable = cauchy_evaluate(g, even(0, 0))
    assert not applicable
    assert even_close(value, even(-1 / math.pi, 0), rel=1e-15)

    h = meromorphic_from_text("exp(I*z)/(z+I)")
    value, applicable = cauchy_evaluate(h, even(0, 1))
    assert applicable
    assert even_close(value, even(0, -0.5 * math.exp(-1)), rel=1e-14)


def test_cauchy_evaluate_rejects_poles():
    f = meromorphic_from_text("1/(z+I)")
    with pytest.raises(PoleExpansionError):
        cauchy_evaluate(f, even(0, -1))


def test_cauchy_derivative_cases():
    f = meromorphic_from_text("1/(z+I)^2")
    d = cauchy_derivative(f, even(0, 1), 1)
    assert even_close(d, even(0, -0.25), rel=1e-14)
    value, _, applicable = cauchy_integral_value(f, even(0, 1), 1)
    assert applicable and abs(value - math.pi / 2) <= 1e-12

    constant = meromorphic_from_text("5")
    assert cauchy_derivative(constant, even(0.3, -0.2), 1) == even(0, 0)

    square = meromorphic_from_text("z^2")
    assert even_close(cauchy_derivative(square, even(1, 0), 2), even(2, 0),
                      rel=1e-14)

    # a pole at 0.1: a_1 = -100 sits far below a_15 = -1e16 in the window
    near = meromorphic_from_text("1/(z-0.1)")
    assert even_close(cauchy_derivative(near, even(0, 0), 1), even(-100, 0),
                      rel=1e-14)


@pytest.mark.parametrize("offset", [1e-8, 1e-7])
def test_cauchy_derivative_rejects_points_the_root_table_calls_a_pole(offset):
    # the pole's expansion would be read there: derivative 0, not -1/offset^2
    f = meromorphic_from_text("1/(z-1)")
    with pytest.raises(PoleExpansionError):
        cauchy_derivative(f, even(1 + offset, 0), 1)


@pytest.mark.parametrize("offset", [1e-8, 1e-7])
def test_cauchy_evaluate_rejects_points_the_root_table_calls_a_pole(offset):
    # the table places the pole there, as for the derivative: no 1/offset
    f = meromorphic_from_text("1/(z-1)")
    with pytest.raises(PoleExpansionError, match="root table"):
        cauchy_evaluate(f, even(1 + offset, 0))


def test_cauchy_evaluate_just_outside_the_clustering_distance():
    f = meromorphic_from_text("1/(z-1)")
    value, _ = cauchy_evaluate(f, even(1 + 1e-5, 0))
    assert even_close(value, even(1e5, 0), rel=1e-6)


def test_cauchy_derivative_just_outside_the_clustering_distance():
    f = meromorphic_from_text("1/(z-1)")
    assert even_close(cauchy_derivative(f, even(1 + 1e-5, 0), 1),
                      even(-1e10, 0), rel=1e-6)


def test_laurent_expand_windows():
    f = meromorphic_from_text("sin(z)/z^3")
    window = laurent_expand(f, even(0, 0), -3, 2)
    got = window.window_coefficients(-3, 2)
    want = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    assert all(abs(g - even(w)) <= 1e-14 for g, w in zip(got, want))

    f = meromorphic_from_text("1/(z^2+1)^2")
    got = laurent_expand(f, even(0, 1), -2, -1).window_coefficients(-2, -1)
    assert even_close(got[0], even(-0.25, 0), rel=1e-15)
    assert even_close(got[1], even(0, -0.25), rel=1e-15)

    geometric = laurent_expand(meromorphic_from_text("1/(1-z)"),
                               even(0, 0), 0, 3)
    assert all(c == even(1, 0) for c in geometric.window_coefficients(0, 3))

    # 1/(z-0.1) = -sum 10^(n+1) z^n: a_0 = -10 is tiny next to a_20
    steep = laurent_expand(meromorphic_from_text("1/(z-0.1)"),
                           even(0, 0), 0, 20)
    for n, c in enumerate(steep.window_coefficients(0, 20)):
        assert even_close(c, even(-10.0 ** (n + 1)), rel=1e-13)


def test_laurent_expand_refuses_points_beside_a_pole():
    # within CLUSTER_TOL of the root 1 the table would hand back the pole's
    # window (a_-1 = 1), though the point is regular
    f = meromorphic_from_text("1/(z-1)")
    for center in (1 + 1e-8, 1 + 1e-7):
        with pytest.raises(PoleExpansionError):
            laurent_expand(f, even(center, 0), -1, 1)
    on_pole = laurent_expand(f, even(1, 0), -1, 1).window_coefficients(-1, 1)
    assert on_pole == [even(1, 0), even(0, 0), even(0, 0)]
    # 1/(z-1) = 1/d - (z-z0)/d^2 + ... about z0 = 1 + d
    d = 1e-5
    beside = laurent_expand(f, even(1 + d, 0), -1, 1).window_coefficients(-1, 1)
    assert beside[0] == even(0, 0)
    assert even_close(beside[1], even(1 / d, 0), rel=1e-9)
    assert even_close(beside[2], even(-1 / d ** 2, 0), rel=1e-9)


def test_laurent_expand_reads_every_pole_find_poles_returns():
    # roots outside the unit disk: a residual bound on the coefficients
    # alone refused one pole in each of 23 of these denominators
    for den in gaussian_monic_denominators():
        f = MeromorphicFunction(Polynomial.from_coeffs([1]), den)
        for p in find_poles(f):
            window = laurent_expand(f, p.location, -1, 1)
            assert window.coefficient(-1) == residue(f, p)


def test_laurent_expand_window_limits():
    f = meromorphic_from_text("1/z")
    with pytest.raises(ValueError):
        laurent_expand(f, even(0, 0), 3, 1)
    with pytest.raises(WindowError):
        laurent_expand(f, even(0, 0), 0, MAX_LAURENT_WINDOW + 1)


def test_index_bookkeeping_against_shifted_analytic_part():
    # b_n of the analytic product z'^m f matches a_{n-m} as stored
    f = meromorphic_from_text("(z+2)/((z-1)^3*(z+3))")
    center = even(1, 0)
    m = 3
    window = laurent_expand(f, center, -m, 4)
    shifted = meromorphic_from_text("(z+2)/(z+3)")
    taylor = laurent_expand(shifted, center, 0, 4 + m)
    for n in range(0, 4 + m):
        assert even_close(taylor.coefficient(n),
                          window.window_coefficients(n - m, n - m)[0],
                          rel=1e-10, abs_tol=1e-12)


def test_report_method_labels():
    f = meromorphic_from_text("1/(z^2+1)")
    p = upper_pole(f)
    assert residue_by_order_reduction(f, p).method == "order_reduction"
    assert residue_by_derivative_formula(f, p).method == "derivative_formula"
    for a_minus_1 in (residue(f, p), residue_by_order_reduction(f, p).a_minus_1,
                      residue_by_derivative_formula(f, p).a_minus_1):
        assert even_close(a_minus_1, even(0, -0.5), rel=1e-9)
