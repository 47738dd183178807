"""Quadrature oracle: circle rule, real-line rule, differential checks."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

import dxdy.oracle
from dxdy.algebra import even
from dxdy.contours import (CLOCKWISE, COUNTERCLOCKWISE, CircleContour,
                           IntegralResult, integrate_closed,
                           integrate_real_line)
from dxdy.functions import EntireFactor, MeromorphicFunction, meromorphic_from_text
from dxdy.oracle import (QuadratureError, QuadratureSpec, _limit,
                         circle_quadrature, differential_check,
                         dual_form_components, one_form_components,
                         quad_circle, real_line_quadrature)
from dxdy.polynomials import Polynomial

from exact_reference import ExactEven, exact_eval, exact_poly
from helpers import poly_from_roots, random_even, random_planted_rational

UNIT = CircleContour(even(0, 0), 1.0)
TIGHT = QuadratureSpec(tol=1e-11)


def test_spec_validation():
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


@pytest.mark.parametrize("bad, worse, message", [
    (math.inf, ZeroDivisionError, "non-finite"),
    (ZeroDivisionError, complex(math.nan, 0.0), "singular"),
    (OverflowError, ValueError, "singular"),
])
def test_a_bad_level_names_its_first_bad_node(bad, worse, message):
    # a level is sampled in one pass; a bad one is walked again in node
    # order, so the error names the first bad node, whatever comes later
    def value(v):
        if isinstance(v, type):
            raise v
        return v

    def level(ts):
        return [value(worse) if t > 4.0 else value(bad) if t > 2.0 else 1.0
                for t in ts]

    step = 2.0 * math.pi / dxdy.oracle.MIN_POINTS
    first = min(i * step for i in range(dxdy.oracle.MIN_POINTS)
                if i * step > 2.0)
    with pytest.raises(QuadratureError,
                       match=f"^{message} integrand sample at "
                             f"t={first:.6g}$") as err:
        dxdy.oracle._periodic_trapezoid(level, 2.0 * math.pi, 0.0, 1e-9)
    assert (err.value.__cause__ is None) == (message == "non-finite")


def test_finite_samples_whose_sum_overflows_are_refused():
    # every sample is finite, but MIN_POINTS of them sum past the doubles
    with pytest.raises(QuadratureError,
                       match="^integrand samples sum beyond the double "
                             "range$"):
        dxdy.oracle._periodic_trapezoid(lambda ts: [1e308] * len(ts), 1.0,
                                        0.0, 1e-9)


def test_noisy_integrand_hits_the_point_cap():
    # every level runs, and each node is sampled once: MAX_POINTS in all
    noise = lambda x, y: math.sin(3.7e7 * x * y)  # noqa: E731
    samples = 0

    def counted(x, y):
        nonlocal samples
        samples += 1
        return noise(x, y)

    with pytest.raises(QuadratureError,
                       match=f"within {2 ** 21} points did not converge"):
        quad_circle(counted, noise, UNIT, QuadratureSpec(tol=1e-12))
    assert dxdy.oracle.MAX_POINTS == 2 ** 21
    assert samples == 2 ** 21


def _first_estimates(monkeypatch, levels, run):
    """The first ``levels`` estimates of the doubling rule inside run()."""
    seen = []

    def first_levels(estimates, tol, what):
        for estimate in estimates:
            seen.append(estimate)
            if len(seen) == levels:
                return estimate

    monkeypatch.setattr(dxdy.oracle, "_limit", first_levels)
    run()
    return seen


def _fixed_trapezoid(level, period, origin, n):
    """The n-point periodic trapezoid rule with nodes origin + i*period/n,
    all sampled by one call of level and summed exactly rounded, and the
    largest |sample|."""
    step = period / n
    values = level([origin + i * step for i in range(n)])
    return math.fsum(values) * step, max(abs(v) for v in values)


def _assert_nested_matches_fixed(estimates, level, period, origin):
    n = dxdy.oracle.MIN_POINTS
    for estimate in estimates:
        want, peak = _fixed_trapezoid(level, period, origin, n)
        step = period / n
        assert abs(estimate - want) <= (
            8 * sys.float_info.epsilon * n * peak * step), (n, estimate, want)
        n *= 2


NESTED_LEVELS = 8  # 32 .. 4096 nodes


def test_nested_circle_estimates_match_the_fixed_rule(monkeypatch):
    rng = random.Random(707)
    for _ in range(4):
        f, poles = random_planted_rational(rng, max_poles=2, max_order=3)
        center = poles[0].location
        others = [p.location for p in poles[1:]]
        nearest = min([abs(center - o) for o in others], default=2.0)
        contour = CircleContour(center, rng.uniform(0.2, 0.45) * nearest)
        estimates = _first_estimates(
            monkeypatch, NESTED_LEVELS,
            lambda: circle_quadrature(f, contour, TIGHT))
        # f at center + w, evaluated in the circle's own coordinate w
        F = dxdy.oracle._complex_evaluator(f, complex(center))
        r = contour.radius

        def level(ts):
            ws = [cmath.rect(r, t) for t in ts]
            return [(v * complex(-w.imag, w.real)).real
                    for v, w in zip(F(ws), ws)]

        _assert_nested_matches_fixed(estimates, level, 2 * math.pi, 0.0)


def test_nested_axis_estimates_match_the_fixed_rule(monkeypatch):
    # the axis origin is fixed at -pi/2 + (1/3) * pi/MIN_POINTS; an origin
    # that moved with the step would sample other nodes from 64 on, which
    # the slowly converging, not even, 1/((x-0.3)^2+0.01) tells apart
    rng = random.Random(708)
    start, period = -0.5 * math.pi, math.pi
    origin = start + (1.0 / 3.0) * period / dxdy.oracle.MIN_POINTS
    cases = [meromorphic_from_text("1/((x-0.3)^2+0.01)", real_line=True)]
    for _ in range(4):
        g = _random_axis_integrand(rng)
        cases.append(MeromorphicFunction(g.num, g.den))
    for f in cases:
        estimates = _first_estimates(
            monkeypatch, NESTED_LEVELS,
            lambda: real_line_quadrature(f, tol=REAL_LINE_TOL))
        H = dxdy.oracle.axis_evaluator(f)

        def level(thetas):
            return [h / math.cos(theta) ** 2 for h, theta
                    in zip(H([math.tan(theta) for theta in thetas]), thetas)]

        _assert_nested_matches_fixed(estimates, level, period, origin)
        if f is cases[0]:
            n = 2 * dxdy.oracle.MIN_POINTS
            drifted, _ = _fixed_trapezoid(
                level, period, start + (1.0 / 3.0) * period / n, n)
            assert abs(drifted - estimates[1]) > 1e-8


def _count_levels(monkeypatch):
    """Patch _limit to record how many estimates each part's run reads."""
    levels = []
    limit = dxdy.oracle._limit

    def counting_limit(estimates, tol, what):
        levels.append(0)
        index = len(levels) - 1

        def seen():
            for estimate in estimates:
                levels[index] += 1
                yield estimate
        return limit(seen(), tol, what)

    monkeypatch.setattr(dxdy.oracle, "_limit", counting_limit)
    return levels


def _count_nodes(monkeypatch):
    """Patch _complex_evaluator so its level functions count the nodes
    they are given, in [0], and their calls, in [1]."""
    nodes = [0, 0]
    make = dxdy.oracle._complex_evaluator

    def counting(f, *center):
        F = make(f, *center)

        def counted(ws):
            nodes[0] += len(ws)
            nodes[1] += 1
            return F(ws)
        return counted

    monkeypatch.setattr(dxdy.oracle, "_complex_evaluator", counting)
    return nodes


def test_circle_sample_budget(monkeypatch):
    # f is evaluated once per node, in one call per level, and every level
    # only adds the midpoints of the one before: the final level's nodes in
    # all
    levels = _count_levels(monkeypatch)
    nodes = _count_nodes(monkeypatch)
    f = meromorphic_from_text("1/(z^2+1)^2")
    got = circle_quadrature(f, CircleContour(even(0, 1), 0.5), TIGHT)
    assert abs(got - math.pi / 2) <= 1e-10
    assert len(levels) == 1 and levels[0] >= 3
    assert nodes == [dxdy.oracle.MIN_POINTS << (levels[0] - 1), levels[0]]


@pytest.mark.parametrize("text", ["1/(z-0.9)", "I/(z-0.9)",
                                  "exp(2*I*z)/(z-0.5)^3"])
def test_differential_check_evaluates_f_once_per_node(text, monkeypatch):
    # the form and the dual form share each evaluation of f; the part that
    # stops later sets the nodes
    levels = _count_levels(monkeypatch)
    nodes = _count_nodes(monkeypatch)
    report = differential_check(meromorphic_from_text(text), UNIT)
    assert report.passed, report
    assert len(levels) == 2
    assert nodes[0] == dxdy.oracle.MIN_POINTS << (max(levels) - 1)


def _reference_quad_circle(k, g, contour, tol):
    """The circle rule on one 1-form k dx + g dy alone, as written before
    the form and the dual form shared a run: each level's new nodes summed
    by fsum onto one running total, stopped by _limit."""
    cx, cy, r = contour.center.u, contour.center.v, contour.radius

    def sample(t):
        w = cmath.rect(r, t)
        x, y = cx + w.real, cy + w.imag
        return -k(x, y) * w.imag + g(x, y) * w.real

    def estimates():
        n = dxdy.oracle.MIN_POINTS
        step = 2 * math.pi / n
        total = math.fsum(sample(i * step) for i in range(n))
        yield total * step
        while n < dxdy.oracle.MAX_POINTS:
            total += math.fsum(sample((i + 0.5) * step) for i in range(n))
            n, step = 2 * n, 0.5 * step
            yield total * step

    value = _limit(estimates(), tol, "reference")
    return value if contour.orientation == COUNTERCLOCKWISE else -value


def _separate_runs(f, contour, tol):
    """The form and the dual form, each run alone by the reference rule, as
    float.hex; quad_circle must give the same bits.  Both are forms of
    F(w) = f(center + w), evaluated in the circle's own coordinate as
    differential_check evaluates f, so they run on the same circle about
    the origin, where x + i*y is w itself."""
    quad_tol = dxdy.oracle.differential_quad_tol(tol)
    F = dxdy.oracle._complex_evaluator(f, complex(contour.center))
    own = CircleContour(even(0, 0), contour.radius, contour.orientation)
    form = (lambda x, y: F([complex(x, y)])[0].real,
            lambda x, y: -F([complex(x, y)])[0].imag)
    dual = (lambda x, y: F([complex(x, y)])[0].imag,
            lambda x, y: F([complex(x, y)])[0].real)
    runs = []
    for k, g in (form, dual):
        want = _reference_quad_circle(k, g, own, quad_tol).hex()
        got = quad_circle(k, g, own, QuadratureSpec(tol=quad_tol)).hex()
        assert got == want
        runs.append(want)
    return tuple(runs)


def _bit_identity_cases():
    rng = random.Random(1010)
    for _ in range(12):
        f, poles = random_planted_rational(rng, max_poles=2, max_order=3)
        center = poles[0].location
        others = [p.location for p in poles[1:]]
        nearest = min([abs(center - o) for o in others], default=2.0)
        yield f, CircleContour(center, rng.uniform(0.2, 0.45) * nearest,
                               rng.choice([COUNTERCLOCKWISE, CLOCKWISE]))
    for m in range(1, 9):
        yield (meromorphic_from_text(f"z^{m - 1}/(z-1)^{m}"),
               CircleContour(even(1, 0), 0.5))
    for text in ["exp((0.7-1.3*I)*z)/(z^2+1)", "sin(2.5*z)/(z-1)^2",
                 "z*cos(0.4*I*z)/(z^3-1)", "1/(z-0.9)", "I/(z-0.9)"]:
        for orientation in [COUNTERCLOCKWISE, CLOCKWISE]:
            yield meromorphic_from_text(text), CircleContour(
                even(0.1, -0.2), 1.3 if "z^3" in text else 0.95, orientation)


def test_joint_run_is_bit_identical_to_separate_runs(monkeypatch):
    levels = _count_levels(monkeypatch)
    stops = set()
    orientations = set()
    for f, contour in _bit_identity_cases():
        report = differential_check(f, contour)
        stops.add(levels[0] == levels[1])
        got = (report.quadrature.hex(), report.defect_quadrature.hex())
        assert got == _separate_runs(f, contour, report.tol), (f, contour)
        orientations.add(contour.orientation)
        levels.clear()
    # some cases stop the two parts at different levels
    assert stops == {True, False}
    assert orientations == {COUNTERCLOCKWISE, CLOCKWISE}


def test_axis_nodes_stay_off_the_image_of_infinity(monkeypatch):
    # theta = +-pi/2 is x = inf; with MAX_POINTS patched down, a noise
    # integrand runs every level, and no node comes within a third of the
    # finest step of either end (up to the rounding of tan and atan)
    monkeypatch.setattr(dxdy.oracle, "MAX_POINTS", 4096)
    xs = []

    def noisy(f):
        def H(level):
            xs.extend(level)
            return [math.sin(3.7e7 * x) for x in level]
        return H

    monkeypatch.setattr(dxdy.oracle, "axis_evaluator", noisy)
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    with pytest.raises(QuadratureError, match="within 4096 points"):
        real_line_quadrature(f, tol=REAL_LINE_TOL)
    assert len(xs) == 4096
    finest = math.pi / 4096
    nearest_end = min(math.atan2(1.0, abs(x)) for x in xs)
    assert nearest_end >= finest / 3 * (1 - 1e-9)


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


REAL_LINE_TOL = 1e-9


@pytest.mark.parametrize("text, a, t, want", [
    ("1/(x^2+a^2)", 0.6, 0.0, lambda a, t: math.pi / a),
    ("1/(x^2+a^2)", 1.7, 0.0, lambda a, t: math.pi / a),
    ("1/(x^2+a^2)^2", 0.8, 0.0, lambda a, t: math.pi / (2 * a ** 3)),
    ("1/(x^2+a^2)^2", 1.9, 0.0, lambda a, t: math.pi / (2 * a ** 3)),
    ("1/(x^4+a^4)", 0.7, 0.0, lambda a, t: math.pi / (math.sqrt(2) * a ** 3)),
    ("1/(x^4+a^4)", 1.6, 0.0, lambda a, t: math.pi / (math.sqrt(2) * a ** 3)),
    ("exp(I*t*x)/(x^2+a^2)", 0.5, 1.25,
     lambda a, t: math.pi * math.exp(-abs(t) * a) / a),
    ("exp(I*t*x)/(x^2+a^2)", 1.8, -0.3,
     lambda a, t: math.pi * math.exp(-abs(t) * a) / a),
    ("exp(I*t*x)/(x^2+a^2)", 1.0, 7.0,
     lambda a, t: math.pi * math.exp(-abs(t) * a) / a),
    ("cos(x)/(x^2+1)", 1.0, 0.0, lambda a, t: math.pi / math.e),
    ("x*sin(x)/(x^2+1)", 1.0, 0.0, lambda a, t: math.pi / math.e),
])
def test_real_line_closed_forms(text, a, t, want):
    f = meromorphic_from_text(text, {"a": a, "t": t}, real_line=True)
    got = real_line_quadrature(f, tol=REAL_LINE_TOL)
    assert abs(got - want(a, t)) <= 10 * REAL_LINE_TOL


def test_real_line_odd_integrand_vanishes():
    f = meromorphic_from_text("x/(x^4+1)", real_line=True)
    assert abs(real_line_quadrature(f, tol=1e-10)) <= 1e-10


def test_real_line_sample_budget(monkeypatch):
    # the tan map turns 1/(x^2+1) into a constant: a few doublings suffice
    samples = 0
    make = dxdy.oracle.axis_evaluator

    def counting(f):
        H = make(f)

        def sample(xs):
            nonlocal samples
            samples += len(xs)
            return H(xs)
        return sample

    monkeypatch.setattr(dxdy.oracle, "axis_evaluator", counting)
    f = meromorphic_from_text("1/(x^2+1)", real_line=True)
    got = real_line_quadrature(f, tol=REAL_LINE_TOL)
    assert abs(got - math.pi) <= 10 * REAL_LINE_TOL
    assert 0 < samples <= 4096


@pytest.mark.parametrize("text", [
    "1/(x^2-1)", "1/(x^2-2)", "1/((x-0.7)*(x^2+1))^2", "exp(I*x)/(x^2-2)",
    "x/(x^2+1)", "exp(x)/(x^2+1)",
    # no pole at 0, but each exp part of sin has one there
    "sin(x)/(x*(x^2+1))",
])
def test_real_line_rejects_axis_poles_and_slow_decay(text):
    f = meromorphic_from_text(text, real_line=True)
    with pytest.raises(QuadratureError):
        real_line_quadrature(f, tol=REAL_LINE_TOL)


def test_real_line_refuses_a_factor_that_grows_along_the_axis():
    # cos(I*x) = cosh(x): no half-plane closes it
    f = meromorphic_from_text("cos(I*x)/(x^2+1)", real_line=True)
    with pytest.raises(QuadratureError,
                       match="cos factor grows along the axis"):
        real_line_quadrature(f, tol=REAL_LINE_TOL)


def test_axis_root_error_names_the_root_as_an_even_element():
    f = meromorphic_from_text("sin(x)/(x*(x^2+1))", real_line=True)
    with pytest.raises(QuadratureError) as err:
        real_line_quadrature(f, tol=REAL_LINE_TOL)
    assert str(err.value) == ("denominator root at EvenElement(u=0.0, v=0.0) "
                              "lies on the axis")


@pytest.mark.parametrize("text", ["1/(x^2+1)", "exp(I*x)/(x^2+1)"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_real_line_rejects_a_tolerance_that_is_not_positive(text, tol,
                                                            monkeypatch):
    def no_sampling(f):
        raise AssertionError("sampled before the tolerance was checked")

    monkeypatch.setattr(dxdy.oracle, "axis_evaluator", no_sampling)
    f = meromorphic_from_text(text, real_line=True)
    with pytest.raises(ValueError, match="tol must be positive"):
        real_line_quadrature(f, tol=tol)


def test_oscillatory_sum_starts_past_the_last_pole():
    # poles far out at u +- i: the rays must start past them, or the
    # value comes out near 0 instead of pi/e*cos(u)
    for u in (100.0, 1e4):
        f = meromorphic_from_text(f"exp(I*x)/((x-{u:g})^2+1)",
                                  real_line=True)
        got = real_line_quadrature(f, tol=REAL_LINE_TOL)
        want = math.pi / math.e * math.cos(u)
        assert abs(got - want) <= 10 * REAL_LINE_TOL, u


@pytest.mark.parametrize("text", [
    # peaks of width 0.01; the residue route sees the same rounded
    # coefficients, which move the closed form by about 2e-7
    "exp(I*x)/((x-70)^2+1e-4)", "exp(I*0.05*x)/((x-7.3)^2+1e-4)",
    # far out on the rays x^20 overflows where exp(I*x) has underflowed
    "exp(I*x)/(x^20+1)",
])
def test_oscillatory_hard_cases_match_the_residue_route(text):
    f = meromorphic_from_text(text, real_line=True)
    want = integrate_real_line(f).real_value
    got = real_line_quadrature(f, tol=REAL_LINE_TOL)
    assert abs(got - want) <= 10 * REAL_LINE_TOL


def test_oscillatory_sum_stops_at_the_sample_cap(monkeypatch):
    # two levels of 32 and 64 points give no third estimate to agree with
    monkeypatch.setattr(dxdy.oracle, "MAX_POINTS", 64)
    f = meromorphic_from_text("exp(I*x)/(x^2+1)", real_line=True)
    with pytest.raises(QuadratureError, match="within 64 points"):
        real_line_quadrature(f, tol=REAL_LINE_TOL)


def _reference_ray(R, c, a, start, sense, tol):
    """One exp-sinh ray run alone, node by node, as the oracle ran each ray
    of an exp part before the two shared a run: the real part of the
    integral of c R(x) exp(a x) from start to sense * infinity."""
    omega = complex(sense, math.copysign(1.0, a.imag)) / math.sqrt(2.0)
    weight = sense * omega * c * (0.5 * math.pi)

    def sample(s):
        r = math.exp(0.5 * math.pi * math.sinh(s))
        z = start + r * omega
        e = cmath.exp(a * z)
        if not e:
            return 0.0
        return (R([z])[0] * e * weight * (r * math.cosh(s))).real

    window = dxdy.oracle.WINDOW
    return dxdy.oracle._periodic_trapezoid(
        lambda ss: [sample(s) for s in ss], 2.0 * window, -window, tol)[0]


@pytest.mark.parametrize("text, rays, tol", [
    # at these tolerances the two rays of each exp part stop at different
    # levels, and the one that stops first has not settled to its last bit,
    # so a paired run that stopped it with the other would change its bits
    ("exp(I*0.3*x)/(((x-5)^2+0.25)*((x+1)^2+9))", 2, 3e-7),
    # two exp parts, so two paired runs
    ("cos(x)/((x-0.5)^2+1)", 4, 1e-5),
])
def test_paired_rays_are_bit_identical_to_separate_runs(text, rays, tol,
                                                         monkeypatch):
    levels = _count_levels(monkeypatch)
    paired = dxdy.oracle._exp_sinh_rays
    runs = []

    def recorded(*args):
        before = len(levels)
        values = paired(*args)
        runs.append((args, values, levels[before:]))
        return values

    monkeypatch.setattr(dxdy.oracle, "_exp_sinh_rays", recorded)
    real_line_quadrature(meromorphic_from_text(text, real_line=True), tol)
    assert 2 * len(runs) == rays
    for (R, c, a, first, last, run_tol), values, stops in runs:
        want = [_reference_ray(R, c, a, last, 1.0, run_tol),
                _reference_ray(R, c, a, first, -1.0, run_tol)]
        assert [v.hex() for v in values] == [v.hex() for v in want]
        assert len(stops) == 2 and stops[0] != stops[1]


def _random_axis_integrand(rng):
    """Planted poles at least 0.2 off the axis, degree gap >= 2, and an
    exp(I*t*x) factor half of the time."""
    while True:
        locations = []
        for _ in range(rng.randint(1, 3)):
            loc = random_even(rng)
            if abs(loc.v) >= 0.2 and all(abs(loc - o) > 0.5
                                         for o in locations):
                locations.append(loc)
        den = poly_from_roots([(loc, rng.randint(1, 2)) for loc in locations])
        if den.degree >= 2:
            break
    num = Polynomial.from_coeffs(
        [random_even(rng) for _ in range(den.degree - 1)])
    factor = None
    if rng.random() < 0.5:
        t = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
        factor = EntireFactor("exp", even(0, t))
    return MeromorphicFunction(num, den, factor)


def test_real_line_matches_residue_route_on_random_rationals():
    rng = random.Random(2024)
    for _ in range(20):
        f = _random_axis_integrand(rng)
        want = integrate_real_line(f).real_value
        got = real_line_quadrature(f, tol=REAL_LINE_TOL)
        assert abs(got - want) <= 1e-7 * (1 + abs(want)), f


#: sin(kz) and cos(kz) as sums of c * exp(a z), with c and a as even
#: elements (dxdy the imaginary unit)
SIN_COS_PARTS = {
    "cos": lambda k: [(even(0.5, 0), even(0, k)),
                      (even(0.5, 0), even(0, -k))],
    "sin": lambda k: [(even(0, -0.5), even(0, k)),
                      (even(0, 0.5), even(0, -k))],
}


def test_real_line_sin_cos_match_their_exp_parts():
    # the reference closes each exp part in its own half-plane
    rng = random.Random(611)
    for case in range(60):
        f = _random_axis_integrand(rng)
        gap = rng.randint(1, 2)
        num = Polynomial.from_coeffs(
            [random_even(rng) for _ in range(f.den.degree + 1 - gap)])
        kind = ("sin", "cos")[case % 2]
        k = (-1) ** (case // 2) * rng.uniform(0.5, 2.0)
        g = MeromorphicFunction(num, f.den, EntireFactor(kind, even(k, 0)))
        want = sum(integrate_real_line(MeromorphicFunction(
            Polynomial.constant(c) * num, f.den, EntireFactor("exp", a))
        ).real_value for c, a in SIN_COS_PARTS[kind](k))
        got = real_line_quadrature(g, tol=REAL_LINE_TOL)
        assert abs(got - want) <= 1e-7 * (1 + abs(want)), (g, got, want)


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
    r = integrate_closed(f, UNIT)
    shifted = IntegralResult(r.real_value, r.imaginary_defect - 2 * math.pi,
                             r.enclosed, r.residues, r.warnings, r.half_plane)
    monkeypatch.setattr(dxdy.oracle, "integrate_closed",
                        lambda *args: shifted)
    report = differential_check(f, UNIT)
    assert report.difference <= 1e-8
    assert abs(report.defect_difference - 2 * math.pi) <= 1e-8
    assert not report.passed


@pytest.mark.parametrize("m", range(1, 9))
def test_differential_check_order_ladder(m):
    # z^(m-1)/(z-1)^m: value 0 and defect 2 pi around |z-1| = 0.5
    f = meromorphic_from_text(f"z^{m - 1}/(z-1)^{m}")
    report = differential_check(f, CircleContour(even(1, 0), 0.5))
    assert report.passed, report
    assert abs(report.defect_quadrature - 2 * math.pi) <= 1e-8


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


@pytest.mark.parametrize("text, d", [
    ("1/((z-1)^2*(z-1-d))", 1e-5),
    ("1/((z-1)^2*(z-1-d))", 1e-4),
    ("(z-0.3*I)/((z-1)^2*(z-1-d)^2)", 1e-5),
    ("(z-0.3*I)/((z-1)^2*(z-1-d)^2)", 1e-4),
    ("1/((z-1)*(z-1-d*I)*(z+1))", 1e-6),
    ("1/((z-1)*(z-1-d*I)*(z+1))", 1e-5),
])
def test_differential_check_near_pole_clusters(text, d):
    # poles d apart inside |z-1| = 0.5: their residues are large and cancel,
    # so a root table that splits or merges them wrongly shows here
    f = meromorphic_from_text(text, {"d": d})
    report = differential_check(f, CircleContour(even(1, 0), 0.5), tol=1e-8)
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


@pytest.mark.parametrize("text", [
    "1/(z-0.3)", "(z+2)/((z-0.2*I)*(z+0.5))^2", "exp(z)/(z-0.1)",
    "sin(2*z)/z^2"])
def test_one_form_components_match_circle_quadrature_about_zero(text):
    # about 0 both sample the same unshifted points; off center they differ
    f = meromorphic_from_text(text)
    got = quad_circle(*one_form_components(f), UNIT, TIGHT)
    assert got.hex() == circle_quadrature(f, UNIT, TIGHT).hex()


def test_real_line_quadrature_of_zero_is_zero():
    assert real_line_quadrature(
        meromorphic_from_text("0", real_line=True)) == 0.0


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("text", [
    "(z^3-2*z+I)/(z^4+3*z^2-z+2)",
    "(2*z-1)/((z-0.3)^3*(z+1+I))",
    "exp((0.7-1.3*I)*z)/(z^2+1)",
    "sin(2.5*z)/(z-1)^2",
    "z*cos(0.4*I*z)/(z^3-1)",
])
def test_complex_evaluator_matches_meromorphic_call(text):
    # one call on 200 points gives, bit for bit, what 200 calls on one
    # point give, and each agrees with f's own evaluation
    f = meromorphic_from_text(text)
    F = dxdy.oracle._complex_evaluator(f)
    rng = random.Random(text)
    zs = [random_even(rng, 3.0) for _ in range(200)]
    values = F([complex(z.u, z.v) for z in zs])
    assert len(values) == len(zs)
    for z, got in zip(zs, values):
        assert _hex(got) == _hex(F([complex(z.u, z.v)])[0])
        w = f(z)
        want = complex(w.u, w.v)
        assert abs(got - want) <= 1e-13 * abs(want), z


def test_overflowing_samples_raise_quadrature_error():
    # cosh(1000 * 0.9) overflows inside sin at the top of the circle
    f = meromorphic_from_text("sin(1000*z)/(z-1)")
    contour = CircleContour(even(1, 0), 0.9)
    with pytest.raises(QuadratureError, match="singular"):
        circle_quadrature(f, contour)
    with pytest.raises(QuadratureError, match="singular"):
        differential_check(f, contour)
    # e^709 is finite, but 2^10 times it is not
    f = meromorphic_from_text("exp(709*z)/(z-0.5)^10")
    contour = CircleContour(even(0.5, 0), 0.5)
    with pytest.raises(QuadratureError, match="non-finite"):
        circle_quadrature(f, contour)
    with pytest.raises(QuadratureError, match="non-finite"):
        differential_check(f, contour)


def test_order_ladder_converges_at_128_evaluations(monkeypatch):
    # sampled about the center 1, z^(m-1)/(z-1)^m is (1+w)^(m-1)/w^m with
    # exact coefficients, so Horner carries no noise from the expanded
    # (z-1)^m: the geometric convergence of the rule alone sets the nodes
    nodes = _count_nodes(monkeypatch)
    contour = CircleContour(even(1, 0), 0.5)
    for m in range(1, 14):
        nodes[0] = 0
        report = differential_check(
            meromorphic_from_text(f"z^{m - 1}/(z-1)^{m}"), contour)
        assert report.passed, (m, report)
        assert nodes[0] <= 128, (m, nodes[0])


def test_shifted_evaluator_agrees_with_f_at_the_shifted_point():
    # F(w) against the exact f(center + w), the point itself unrounded
    rng = random.Random(2701)
    for _ in range(40):
        f, poles = random_planted_rational(rng, max_poles=3, max_order=3)
        center = complex(random_even(rng))
        F = dxdy.oracle._complex_evaluator(f, center)
        num = exact_poly([(c.real, c.imag) for c in f.num.coeffs])
        den = exact_poly([(c.real, c.imag) for c in f.den.coeffs])
        ws, zs = [], []
        while len(ws) < 5:
            w = cmath.rect(rng.uniform(0.1, 1.0),
                           rng.uniform(-math.pi, math.pi))
            z = ExactEven(Fraction(center.real) + Fraction(w.real),
                          Fraction(center.imag) + Fraction(w.imag))
            if min(abs(complex(float(z.u), float(z.v)) - complex(p.location))
                   for p in poles) < 0.5:
                continue
            ws.append(w)
            zs.append(z)
        for w, z, got in zip(ws, zs, F(ws)):
            value = exact_eval(num, z) / exact_eval(den, z)
            want = complex(float(value.u), float(value.v))
            assert abs(got - want) <= 1e-12 * abs(want), (f, center, w)


def test_a_shift_beyond_the_double_range_raises_quadrature_error():
    # the exact t_0 = 1e310 of 1e300*z^2 about 1e5 has no double, as its
    # samples have none
    f = meromorphic_from_text("1e300*z^2")
    contour = CircleContour(even(1e5, 0), 1.0)
    with pytest.raises(QuadratureError, match="leave the double range") as err:
        circle_quadrature(f, contour)
    assert err.value.__cause__ is None
