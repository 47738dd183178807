"""Quadrature oracle: circle rule, real-line rule, differential checks."""

import dataclasses
import math
import random

import pytest

import dxdy.oracle
from dxdy.algebra import even
from dxdy.contours import CircleContour, integrate_closed
from dxdy.functions import meromorphic_from_text
from dxdy.oracle import (QuadratureError, QuadratureSpec, circle_quadrature,
                         differential_check, dual_form_components,
                         quad_circle, quad_real_line, real_line_quadrature,
                         real_line_spec, real_line_tail_bound)

from helpers import random_planted_rational

UNIT = CircleContour(even(0, 0), 1.0)
TIGHT = QuadratureSpec(tol=1e-11)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_points=8)
    with pytest.raises(ValueError):
        QuadratureSpec(n_points=33)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_cutoff=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)


def test_angular_form_full_turn():
    got = quad_circle(lambda x, y: -y / (x * x + y * y),
                      lambda x, y: x / (x * x + y * y), UNIT, TIGHT)
    assert abs(got - 2 * math.pi) <= 1e-10


def test_exact_one_form_integrates_to_zero():
    got = quad_circle(lambda x, y: 1.0, lambda x, y: 0.0,
                      CircleContour(even(0.4, -0.3), 1.9), TIGHT)
    assert abs(got) <= 1e-12


def test_exact_differentials_vanish():
    # d of random polynomials in x, y: k = dP/dx, g = dP/dy
    rng = random.Random(8)
    for _ in range(10):
        coeffs = {(i, j): rng.uniform(-2, 2)
                  for i in range(4) for j in range(4)}

        def k(x, y, c=coeffs):
            return sum(i * w * x ** (i - 1) * y ** j
                       for (i, j), w in c.items() if i > 0)

        def g(x, y, c=coeffs):
            return sum(j * w * x ** i * y ** (j - 1)
                       for (i, j), w in c.items() if j > 0)

        got = quad_circle(k, g, CircleContour(even(0.2, 0.1), 1.3), TIGHT)
        assert abs(got) <= 1e-12


def test_quarter_pole_circle_quadrature():
    f = meromorphic_from_text("1/(z^2+1)^2")
    got = circle_quadrature(f, CircleContour(even(0, 1), 0.5), TIGHT)
    assert abs(got - math.pi / 2) <= 1e-10


def test_doubling_refines_analytic_integrands():
    # fixed-n periodic trapezoid estimates, written out here, must approach
    # the converged oracle value monotonically as points double
    f = meromorphic_from_text("(z+1)/(z^2+2*z+5)")
    contour = CircleContour(even(-1, 2), 0.7)
    reference = circle_quadrature(f, contour, QuadratureSpec(tol=1e-13))

    def trapezoid(n):
        total = 0.0
        for i in range(n):
            t = 2 * math.pi * i / n
            x = contour.center.u + contour.radius * math.cos(t)
            y = contour.center.v + contour.radius * math.sin(t)
            w = f(even(x, y))
            total += (-w.u * contour.radius * math.sin(t)
                      - w.v * contour.radius * math.cos(t) * -1.0)
        return total * 2 * math.pi / n

    previous_error = None
    for n in (16, 32, 64, 128, 256):
        error = abs(trapezoid(n) - reference)
        if previous_error is not None:
            assert error <= previous_error + 1e-13
        previous_error = error
    assert previous_error <= 1e-10


def test_singular_samples_rejected():
    # the t=0 node of this contour hits the pole of 1/(z-2) exactly
    f = meromorphic_from_text("1/(z-2)")
    with pytest.raises(QuadratureError, match="singular|non-finite"):
        circle_quadrature(f, CircleContour(even(1, 0), 1.0), TIGHT)


def test_noisy_integrand_hits_the_point_cap():
    noise = lambda x, y: math.sin(3.7e7 * x * y)  # noqa: E731
    with pytest.raises(QuadratureError, match="did not converge"):
        quad_circle(noise, noise, UNIT, QuadratureSpec(tol=1e-12))


def test_circle_self_consistency_across_radii():
    rng = random.Random(91)
    for _ in range(6):
        f, poles = random_planted_rational(rng, max_poles=2)
        lone = poles[0]
        others = [p.location for p in poles[1:]]
        nearest = min([abs(lone.location - o) for o in others], default=2.0)
        spec = QuadratureSpec(tol=1e-11)
        a = circle_quadrature(f, CircleContour(lone.location, 0.2 * nearest),
                              spec)
        b = circle_quadrature(f, CircleContour(lone.location, 0.4 * nearest),
                              spec)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_real_line_reference_values():
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    assert abs(real_line_quadrature(f, tol=1e-8) - math.pi) <= 1e-8
    f = meromorphic_from_text("cos(x)/(x^2+1)", real_line=True)
    got = real_line_quadrature(f, tol=1e-8)
    assert abs(got - math.pi / math.e) <= 1e-8


def test_real_line_odd_integrand_vanishes():
    f = meromorphic_from_text("x/(x^4+1)", real_line=True)
    assert abs(real_line_quadrature(f, tol=1e-10)) <= 1e-10


def test_tail_bound_grows_with_small_cutoff():
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    assert real_line_tail_bound(f, 1e6) < real_line_tail_bound(f, 1e3)
    spec = QuadratureSpec(tail_cutoff=100.0, tol=1e-10)
    with pytest.raises(QuadratureError, match="tail bound"):
        quad_real_line(lambda x: 1.0 / (x * x + 1), spec,
                       real_line_tail_bound(f, 100.0))


def test_real_line_spec_covers_tolerance():
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    spec = real_line_spec(f, 1e-8)
    assert real_line_tail_bound(f, spec.tail_cutoff) <= 0.5 * spec.tol


def test_differential_check_canonical_pole():
    f = meromorphic_from_text("1/z")
    report = differential_check(f, UNIT)
    assert report.passed
    assert abs(report.symbolic) <= 1e-12
    assert abs(report.defect_symbolic - 2 * math.pi) <= 1e-12
    assert abs(report.defect_quadrature - 2 * math.pi) <= 1e-8


def test_differential_check_fails_on_a_defect_mismatch(monkeypatch):
    # the real values agree, the defects differ by 2 pi: not a pass
    f = meromorphic_from_text("1/z")
    true_result = integrate_closed(f, UNIT)
    monkeypatch.setattr(
        dxdy.oracle, "integrate_closed",
        lambda *args: dataclasses.replace(
            true_result,
            imaginary_defect=true_result.imaginary_defect - 2 * math.pi))
    report = differential_check(f, UNIT)
    assert report.difference <= 1e-8
    assert abs(report.defect_difference - 2 * math.pi) <= 1e-8
    assert not report.passed


def test_differential_check_reference_case():
    f = meromorphic_from_text("1/(z^2+1)^2")
    report = differential_check(f, CircleContour(even(0, 1), 0.5), tol=1e-8)
    assert report.passed
    assert report.difference <= 1e-8 * (1 + abs(report.symbolic))


def test_differential_check_random_rationals():
    # fifty random rationals of degree <= 6 on random circles, all PASS
    rng = random.Random(55)
    for _ in range(50):
        f, poles = random_planted_rational(rng, max_poles=2, max_order=3)
        assert f.den.degree <= 6
        center = poles[0].location
        others = [p.location for p in poles[1:]]
        nearest = min([abs(center - o) for o in others], default=2.0)
        contour = CircleContour(center, rng.uniform(0.2, 0.45) * nearest)
        report = differential_check(f, contour, tol=1e-7)
        assert report.passed, report


def test_point_evaluation_matches_circle_quadrature():
    # when f(z0) is a 2-form, the quadrature of f/(z - z0) dx around z0
    # equals -2 pi times its v-part
    from dxdy.polynomials import Polynomial, Z_POLY
    from dxdy.functions import MeromorphicFunction
    from dxdy.residues import cauchy_evaluate
    cases = ["1/(z+I)", "exp(I*z)/(z+I)", "(z-I)/(z^2+4)*I"]
    z0 = even(0, 1)
    for text in cases:
        f = meromorphic_from_text(text)
        value, applicable = cauchy_evaluate(f, z0)
        assert applicable, text
        shifted_den = f.den * (Z_POLY - Polynomial.constant(z0))
        g = MeromorphicFunction(f.num, shifted_den, f.factor)
        quad = circle_quadrature(g, CircleContour(z0, 0.5),
                                 QuadratureSpec(tol=1e-11))
        want = -2.0 * math.pi * value.v
        assert abs(quad - want) <= 1e-8 * (1 + abs(want))


def test_dual_form_matches_defect():
    f = meromorphic_from_text("1/(z*(z-pi))")
    result = integrate_closed(f, UNIT)
    got = quad_circle(*dual_form_components(f), UNIT, TIGHT)
    assert abs(got - result.imaginary_defect) <= 1e-9
