"""Contour assembly: enclosure, orientation, real-line closure rules."""

import math
import random

import pytest

from dxdy.algebra import (DY, complex_inv, dot_one_forms, even, even_mul,
                          mv_product, one_form)
from dxdy.contours import (AxisPoleError, CircleContour, DecayError,
                           PoleOnContourError, closure_half_plane,
                           enclosed_poles, integrate_closed,
                           integrate_real_line)
from dxdy.errors import UsageError
from dxdy.functions import Pole, meromorphic_from_text

from helpers import random_planted_rational

UNIT = CircleContour(even(0, 0), 1.0)


def test_enclosure_distance_filter():
    poles = (Pole(even(0, 1), 2), Pole(even(0, -1), 2))
    inside = enclosed_poles(CircleContour(even(0, 1), 0.5), poles)
    assert inside == (Pole(even(0, 1), 2),)


def test_enclosure_of_origin_only():
    poles = (Pole(even(0, 0), 1), Pole(even(math.pi, 0), 1))
    assert enclosed_poles(UNIT, poles) == (Pole(even(0, 0), 1),)


def test_pole_on_contour_raises():
    poles = (Pole(even(1, 0), 1),)
    with pytest.raises(PoleOnContourError):
        enclosed_poles(UNIT, poles)
    f = meromorphic_from_text("1/(z-1)")
    with pytest.raises(PoleOnContourError):
        integrate_closed(f, UNIT)


@pytest.mark.parametrize("clearance", [0.0, -1.0, math.nan])
def test_clearance_must_be_positive(clearance):
    # a band of zero or less (or NaN) would let a pole on the circle pass
    # as outside it, and the integral come out 0 with no error
    with pytest.raises(ValueError, match="clearance"):
        CircleContour(even(0, 0), 1.0, clearance=clearance)
    assert CircleContour(even(0, 0), 1.0, clearance=1e-3).band == 1e-3


def test_quarter_pole_circle_value():
    f = meromorphic_from_text("1/(z^2+1)^2")
    result = integrate_closed(f, CircleContour(even(0, 1), 0.5))
    assert abs(result.real_value - math.pi / 2) <= 1e-12
    assert result.warnings == ()


def test_imaginary_only_integral_surfaces_defect():
    f = meromorphic_from_text("1/(z*(z-pi))")
    result = integrate_closed(f, UNIT)
    assert abs(result.real_value) <= 1e-12
    assert abs(result.imaginary_defect - (-2.0)) <= 1e-10
    assert len(result.warnings) == 1


def test_zero_residue_pole():
    result = integrate_closed(meromorphic_from_text("1/z^2"), UNIT)
    assert result.real_value == 0.0
    assert result.imaginary_defect == 0.0


def test_orientation_antisymmetry_exact():
    f = meromorphic_from_text("(z+2)/(z^2+1)^2")
    ccw = integrate_closed(f, CircleContour(even(0, 1), 0.5))
    cw = integrate_closed(f, CircleContour(even(0, 1), 0.5, "clockwise"))
    assert cw.real_value == -ccw.real_value
    assert cw.imaginary_defect == -ccw.imaginary_defect


def test_contour_radius_invariance_and_additivity():
    rng = random.Random(2024)
    for _ in range(10):
        f, poles = random_planted_rational(rng, max_poles=2)
        lone = poles[0]
        others = [p.location for p in poles[1:]]
        nearest = min([abs(lone.location - o) for o in others], default=2.0)
        r1 = 0.25 * nearest
        r2 = 0.45 * nearest
        one = integrate_closed(f, CircleContour(lone.location, r1))
        two = integrate_closed(f, CircleContour(lone.location, r2))
        assert abs(one.real_value - two.real_value) <= 1e-10 * (
            1 + abs(one.real_value))
        if others:
            # a big circle around everything equals the sum of small ones
            big_center = even(0, 0)
            radius = max(abs(p.location) for p in poles) + 2.0
            total = integrate_closed(f, CircleContour(big_center, radius))
            parts = 0.0
            for p in poles:
                sep = min([abs(p.location - q.location)
                           for q in poles if q != p])
                parts += integrate_closed(
                    f, CircleContour(p.location, 0.35 * sep)).real_value
            assert abs(total.real_value - parts) <= 1e-10 * (1 + abs(parts))


def test_angular_coefficient_identity():
    # the polar coefficient of w dx computed through the algebra equals
    # minus the v-part of w*z at every sample point
    rng = random.Random(12)
    for _ in range(200):
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        rho_sq = x * x + y * y
        if rho_sq < 0.01:
            continue
        coeffs = [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(5)]
        z = even(x, y)
        w = even(0, 0)
        for c in reversed(coeffs):
            w = even_mul(w, z) + c
        alpha = one_form(w.u, -w.v)
        dphi = one_form(-y / rho_sq, x / rho_sq)
        j = rho_sq * dot_one_forms(alpha, dphi)
        want = -even_mul(w, z).v
        assert abs(j - want) <= 1e-12 * max(1.0, abs(want))


def test_angular_form_via_product_embedding():
    # w dx * (1/z) dy reproduces the angular coefficient through the
    # full geometric product as well
    rng = random.Random(13)
    for _ in range(50):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if x * x + y * y < 0.05:
            continue
        w = even(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = even(x, y)
        alpha = mv_product(w.to_multivector(), one_form(1.0, 0.0))
        inv = complex_inv(complex(z))
        dphi = mv_product(even(inv.real, inv.imag).to_multivector(), DY)
        j = (x * x + y * y) * dot_one_forms(alpha, dphi)
        assert abs(j - (-even_mul(w, z).v)) <= 1e-12 * max(1.0, abs(j))


# ---------------------------------------------------------------------------
# real line

def test_real_line_reference_values():
    assert abs(integrate_real_line(
        meromorphic_from_text("1/(x^2+1)", real_line=True)).real_value
        - math.pi) <= 1e-12
    assert abs(integrate_real_line(
        meromorphic_from_text("1/(x^2+1)^2", real_line=True)).real_value
        - math.pi / 2) <= 1e-12
    got = integrate_real_line(meromorphic_from_text(
        "exp(I*t*x)/(x^2+1)", {"t": 1.0}, real_line=True)).real_value
    assert abs(got - math.pi / math.e) <= 1e-12
    # poles 1e-2 and 1e-6 off the axis, whose windows grow like (1/2v)^k;
    # rounding 49.0001 moves the pole at 7+0.01i by about 3e-11 of its v
    for text, want, rel in [
            ("1/(x^2+1e-4)", 100 * math.pi, 1e-12),
            ("1/((x-7)^2+1e-4)", 100 * math.pi, 1e-10),
            ("exp(I*x)/(x^2+1e-12)", 1e6 * math.pi * math.exp(-1e-6), 1e-12)]:
        got = integrate_real_line(
            meromorphic_from_text(text, real_line=True)).real_value
        assert abs(got - want) <= rel * want, text


def test_lower_half_plane_closure():
    f = meromorphic_from_text("exp(I*t*x)/(x^2+1)", {"t": -1.0},
                              real_line=True)
    assert closure_half_plane(f) == "lower"
    got = integrate_real_line(f).real_value
    assert abs(got - math.pi / math.e) <= 1e-12


def test_rational_closes_either_way():
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    upper = integrate_real_line(f, "upper").real_value
    lower = integrate_real_line(f, "lower").real_value
    assert abs(upper - lower) <= 1e-12


def test_decay_violations():
    with pytest.raises(DecayError):
        integrate_real_line(meromorphic_from_text("1/(x+I)", real_line=True))
    with pytest.raises(DecayError):
        integrate_real_line(
            meromorphic_from_text("x/(x^2+2*x+2)", real_line=True))
    # gap of one is fine once an oscillatory factor is present
    f = meromorphic_from_text("exp(I*x)*x/(x^2+2*x+2)", real_line=True)
    result = integrate_real_line(f)
    assert math.isfinite(result.real_value)


def test_oscillatory_factor_forces_half_plane():
    f = meromorphic_from_text("exp(I*x)/(x^2+1)", real_line=True)
    with pytest.raises(DecayError):
        integrate_real_line(f, "lower")


@pytest.mark.parametrize("half_plane, chosen", [
    ("auto", "upper"), ("upper", "upper"), ("lower", "lower")])
def test_a_zero_integrand_keeps_the_half_plane_asked_for(half_plane, chosen):
    result = integrate_real_line(meromorphic_from_text("0", real_line=True),
                                 half_plane)
    assert result.real_value == 0.0 and result.half_plane == chosen


def test_a_zero_scale_exp_falls_through_to_the_rational_rule():
    f = meromorphic_from_text("exp(0*x)/(x^2+1)", real_line=True)
    assert f.factor is not None and f.factor.scale == even(0.0)
    assert abs(integrate_real_line(f).real_value - math.pi) <= 1e-12
    with pytest.raises(DecayError, match=r"gap is 1\)"):
        integrate_real_line(
            meromorphic_from_text("exp(0*x)/(x+2)", real_line=True))


def test_an_oscillatory_integrand_needs_a_gap_of_one():
    f = meromorphic_from_text("x^2*exp(I*x)/(x^2+1)", real_line=True)
    with pytest.raises(DecayError, match=r"gap is 0\)"):
        integrate_real_line(f)


def test_an_unknown_half_plane_is_a_usage_error():
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    with pytest.raises(UsageError, match="unknown half plane 'left'"):
        integrate_real_line(f, "left")


def test_sin_cos_factors_rejected_with_guidance():
    f = meromorphic_from_text("sin(x)/(x^2+1)^2", real_line=True)
    for mode in ("auto", "upper"):
        with pytest.raises(DecayError, match="decompose"):
            integrate_real_line(f, mode)


def test_axis_pole_rejected():
    f = meromorphic_from_text("1/(x^2-1)", real_line=True)
    with pytest.raises(AxisPoleError):
        integrate_real_line(f)


def test_real_exp_scale_rejected():
    f = meromorphic_from_text("exp(z)/(z^2+1)")
    with pytest.raises(DecayError):
        integrate_real_line(f)
