"""The benchmark's own checks: each accepts the truth and rejects a
perturbed value; the closed forms agree with independent numerics; the
inputs are seeded and never repeat within a run.

    python3 -m pytest perfbench/test_truth.py
"""

import cmath
import math

import pytest

import inputs
import truth

EPS = 1e-6  # a perturbation far above every check's tolerance


def _degree_poles(n, c):
    return [(w, 1, -w / (n * c)) for w in truth.nth_roots_of_minus(c, n)]


def test_degree_residues_accept_truth_and_reject_perturbations():
    n, c = 7, complex(0.7, -1.1)
    poles = _degree_poles(n, c)
    for w, _, _ in poles:
        assert abs(w ** n + c) < 1e-12
    assert truth.check_degree_residues(n, c, poles) is None
    loc, order, res = poles[3]
    for bad in ((loc, order, res * (1 + EPS)), (loc + EPS, order, res),
                (loc, 2, res)):
        assert truth.check_degree_residues(
            n, c, poles[:3] + [bad] + poles[4:]) is not None
    assert truth.check_degree_residues(n, c, poles[:-1]) is not None


def test_order_ladder_accepts_truth_and_rejects_perturbations():
    good = [(1.0, 5, (1.0, 1.0, 1.0))]
    assert truth.check_order_ladder(5, 0.0, truth.TWO_PI, good) is None
    # the silent failure of m = 9 and 12: defect 0 instead of 2 pi
    assert truth.check_order_ladder(5, 0.0, 0.0, good) is not None
    assert truth.check_order_ladder(5, EPS, truth.TWO_PI, good) is not None
    for route in range(3):
        routes = [1.0, 1.0, 1.0]
        routes[route] = 1.0 + EPS
        assert truth.check_order_ladder(
            5, 0.0, truth.TWO_PI, [(1.0, 5, tuple(routes))]) is not None
    assert truth.check_order_ladder(5, 0.0, truth.TWO_PI,
                                    [(1.0, 4, (1.0,) * 3)]) is not None
    split = [(1.0, 4, (1.0,) * 3), (1.0, 1, (0.0,) * 3)]
    assert truth.check_order_ladder(5, 0.0, truth.TWO_PI, split) is not None


def test_contour_value_and_defect_are_both_compared():
    want = truth.contour_integral([complex(0.25, -0.5), complex(0.5, 0.0)])
    assert want == pytest.approx(complex(math.pi, 1.5 * math.pi))
    assert truth.check_contour(want, want.real, want.imag) is None
    assert truth.check_contour(want, want.real + EPS, want.imag) is not None
    assert truth.check_contour(want, want.real, want.imag - EPS) is not None


def test_differential_check_compares_both_routes_and_the_defect():
    want = complex(-1.5, 2.0)
    args = [want.real, want.real, want.imag, want.imag]
    assert truth.check_differential(want, *args, tol=1e-8) is None
    for i in range(4):
        bad = list(args)
        bad[i] += EPS
        assert truth.check_differential(want, *bad, tol=1e-8) is not None


def _tan_midpoint(f, n=4000):
    """Integral of f over the real line via x = tan(theta).

    For these rational f the new integrand is smooth and pi-periodic in
    theta, so the midpoint rule converges spectrally.
    """
    h = math.pi / n
    total = 0.0
    for i in range(n):
        theta = -math.pi / 2 + (i + 0.5) * h
        total += f(math.tan(theta)) / math.cos(theta) ** 2
    return total * h


@pytest.mark.parametrize("family, f", [
    ("gap2", lambda x, a: 1 / (x * x + a * a)),
    ("gap4", lambda x, a: 1 / (x * x + a * a) ** 2),
    ("quartic", lambda x, a: 1 / (x ** 4 + a ** 4)),
])
def test_real_line_closed_forms_match_numerics(family, f):
    a = 1.3
    assert truth.real_line_value(family, a) == pytest.approx(
        _tan_midpoint(lambda x: f(x, a)), rel=1e-10)


def test_real_line_special_values():
    assert truth.real_line_value("quartic", 1.0) == pytest.approx(
        math.pi / math.sqrt(2))
    for t in (-2.0, 0.5):
        assert truth.real_line_value("osc", 1.0, t) == pytest.approx(
            math.pi * math.exp(-abs(t)))


def test_real_line_check_rejects_each_perturbation():
    want = truth.real_line_value("osc", 0.8, 1.5)
    assert truth.check_real_line(want, want, 0.0, want + 1e-8, 1e-7) is None
    assert truth.check_real_line(want, want + EPS, 0.0) is not None
    assert truth.check_real_line(want, want, EPS) is not None
    assert truth.check_real_line(want, want, 0.0, want + 2e-6, 1e-7) \
        is not None


def test_laurent_coefficients_of_sin_over_cube():
    c = 1.7
    want = {-3: 0.0, -2: c, -1: 0.0, 0: -c ** 3 / 6, 1: 0.0,
            2: c ** 5 / 120, 4: -c ** 7 / 5040}
    for n, value in want.items():
        assert truth.laurent_sin_coefficient(c, n) == pytest.approx(value)
    coefficients = [(n, complex(truth.laurent_sin_coefficient(c, n)))
                    for n in range(-3, 7)]
    assert truth.check_laurent(c, coefficients) is None
    coefficients[4] = (1, complex(0.0, EPS))
    assert truth.check_laurent(c, coefficients) is not None


def _cauchy_numeric(f, z0, n, r=0.3, points=256):
    """f^(n)(z0) = n!/(2 pi i) * contour integral of f/(z-z0)^(n+1)."""
    total = 0j
    for k in range(points):
        w = cmath.rect(r, 2 * math.pi * k / points)
        total += f(z0 + w) / w ** n
    return math.factorial(n) * total / points


@pytest.mark.parametrize("family, make", [
    ("pole2", lambda p: (lambda z: 1 / (z - p) ** 2)),
    ("exp", lambda p: (lambda z: cmath.exp(p * z))),
])
def test_cauchy_closed_form_matches_contour_integral(family, make):
    p, z0 = complex(0.3, -0.4), complex(-0.6, 0.5)
    for n in range(5):
        want = truth.cauchy_derivative(family, p, z0, n)
        assert abs(want - _cauchy_numeric(make(p), z0, n)) < 1e-9 * abs(want)
        assert truth.check_cauchy(want, want) is None
        assert truth.check_cauchy(want, want * (1 + EPS)) is not None


def test_classification_and_regression_checks():
    assert truth.check_classification("closed_only", "closed_only") is None
    assert truth.check_classification("closed_only", "closed_and_CR") \
        is not None
    assert truth.check_regression([("a", True), ("b", True)]) is None
    assert truth.check_regression([("a", True), ("b", False)]) is not None
    assert truth.check_regression([]) is not None


def _fingerprint(op):
    return op.kind, repr(sorted(op.params.items()))


@pytest.mark.parametrize("workload", ["poles", "verify", "session"])
def test_inputs_are_seeded_and_never_repeat(workload):
    first = inputs.make_rounds(workload, 5, 3)
    assert first == inputs.make_rounds(workload, 5, 3)
    assert first != inputs.make_rounds(workload, 6, 3)
    assert first != inputs.make_rounds(workload, 5, 3, "reference")
    fixed = {"order", "verify_order", "check"}
    seen = [_fingerprint(op) for ops in first for op in ops
            if op.kind not in fixed]
    assert len(seen) == len(set(seen))


def test_planted_circles_enclose_one_pole_well_clear_of_the_rest():
    for ops in inputs.make_rounds("verify", 9, 20):
        for op in ops:
            if op.kind != "planted":
                continue
            p = op.params
            dists = [abs(pole - p["center"]) for pole, _ in p["terms"]]
            assert dists[0] == 0.0
            assert all(d >= 2 * p["radius"] for d in dists[1:])
