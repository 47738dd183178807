"""Meromorphic model: conversion, cancellation, poles, expansions,
classification."""

import math
import random

import pytest

import dxdy.functions
from dxdy.algebra import EvenElement, even, even_mul
from dxdy.expressions import parse
from dxdy.functions import (FormClass, MeromorphicFunction, OneForm,
                            UnsupportedExpressionError, classify_one_form,
                            find_poles, local_expansion, meromorphic_from_text,
                            to_meromorphic)
from dxdy.polynomials import ONE_POLY, Polynomial
from dxdy.residues import laurent_expand, residue
from dxdy.roots import RootFindingError, find_roots

from helpers import (even_close, gaussian_monic_denominators,
                     random_planted_rational)


def test_simple_rational_shape():
    f = meromorphic_from_text("1/(z^2+1)")
    assert f.factor is None
    assert [c.real for c in f.den.coeffs] == [1.0, 0.0, 1.0]
    assert [c.real for c in f.num.coeffs] == [1.0]


def test_cancellation_matches_direct_evaluation():
    f = meromorphic_from_text("(z^2-1)/(z-1)")
    assert f.den.degree == 0
    node = parse("(z^2-1)/(z-1)")
    rng = random.Random(5)
    from dxdy.expressions import evaluate
    for _ in range(10):
        z = even(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z - even(1, 0)) < 0.3:
            continue
        assert even_close(f(z), evaluate(node, {"z": z}), rel=1e-12)


def test_sine_over_cubic_shape():
    f = meromorphic_from_text("sin(z)/z^3")
    assert f.factor is not None and f.factor.kind == "sin"
    assert f.factor.scale == even(1, 0)
    assert f.den.degree == 3


def test_unsupported_structures_rejected():
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("1/sin(z)"))
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("sin(z)+exp(z)"))
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("sin(z)*exp(z)"))
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("exp(z+1)"))
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("sin(z)^2"))
    with pytest.raises(UnsupportedExpressionError):
        to_meromorphic(parse("x+z"))


def test_same_factor_sums_combine():
    f = meromorphic_from_text("sin(z)/z + sin(z)/z^2")
    assert f.factor is not None and f.factor.kind == "sin"
    want = meromorphic_from_text("sin(z)*(z+1)/z^2")
    z = even(0.7, 0.4)
    assert even_close(f(z), want(z), rel=1e-12)


def test_find_poles_orders():
    f = meromorphic_from_text("1/(z^2+1)^2")
    poles = find_poles(f)
    assert [(p.location.u, p.location.v, p.order) for p in poles] == [
        (0.0, -1.0, 2), (0.0, 1.0, 2)]


def test_find_poles_pi_pair():
    f = meromorphic_from_text("1/(z*(z-pi))")
    poles = find_poles(f)
    assert len(poles) == 2
    assert poles[0].location == even(0, 0) and poles[0].order == 1
    assert abs(poles[1].location - even(math.pi, 0)) < 1e-12
    assert poles[1].order == 1


def test_factor_zero_cancels_pole():
    assert find_poles(meromorphic_from_text("sin(z)/z")) == ()
    p = find_poles(meromorphic_from_text("sin(z)/z^2"))
    assert len(p) == 1 and p[0].order == 1
    # a sine zero away from any denominator root does not create structure
    f = meromorphic_from_text("sin(z)/(z-1)")
    poles = find_poles(f)
    assert len(poles) == 1 and poles[0].order == 1


def _count_find_roots(monkeypatch) -> list:
    calls = []

    def counting(coeffs):
        calls.append(list(coeffs))
        return find_roots(coeffs)

    monkeypatch.setattr(dxdy.functions, "find_roots", counting)
    return calls


def test_find_poles_reuses_the_normalizing_roots(monkeypatch):
    calls = _count_find_roots(monkeypatch)
    f = meromorphic_from_text("1/(z^5+1)")
    poles = find_poles(f)
    assert len(calls) == 1
    assert [p.order for p in poles] == [1] * 5
    # rooting the denominator afresh gives the same poles, bit for bit
    fresh = find_poles(MeromorphicFunction(f.num, f.den, f.factor))
    assert len(calls) == 2
    assert repr(fresh) == repr(poles)


def test_cancelled_denominator_is_rooted_once(monkeypatch):
    calls = _count_find_roots(monkeypatch)
    f = meromorphic_from_text("(z-1)/((z-1)*(z+2))")
    assert f.den.degree == 1
    poles = find_poles(f)
    assert len(calls) == 1          # the cancellation drops z = 1 from it
    assert len(poles) == 1 and poles[0].order == 1
    assert abs(poles[0].location - even(-2.0)) <= 1e-12


@pytest.mark.parametrize("text,want", [
    ("1/(z-1)+1/(z-1)", [(even(1.0), 1, even(2.0))]),
    ("(z^2-1)/(z-1)^3", [(even(1.0), 2, even(1.0))]),
    ("z/(z^2+1)-1/(z+I)",            # I/(z^2+1)
     [(even(0.0, -1.0), 1, even(-0.5)), (even(0.0, 1.0), 1, even(0.5))]),
])
def test_cancellation_lowers_the_multiplicity_in_the_table(
        text, want, monkeypatch):
    calls = _count_find_roots(monkeypatch)
    f = meromorphic_from_text(text)
    poles = find_poles(f)
    assert len(calls) == 1
    assert [p.order for p in poles] == [order for _, order, _ in want]
    for p, (location, _, value) in zip(poles, want):
        assert abs(p.location - location) <= 1e-12
        assert abs(residue(f, p) - value) <= 1e-12


def test_local_expansion_reference_values():
    f = meromorphic_from_text("1/(z^2+1)^2")
    s = local_expansion(f, even(0, 1), 8)
    assert s.valuation == -2
    assert even_close(s.coefficient(-2), even(-0.25, 0), rel=1e-15)
    assert even_close(s.coefficient(-1), even(0, -0.25), rel=1e-15)
    s = local_expansion(meromorphic_from_text("1/z"), even(0, 0), 4)
    assert s.valuation == -1 and s.coefficient(-1) == even(1, 0)
    f = meromorphic_from_text("exp(I*z)/(z^2+1)")
    s = local_expansion(f, even(0, 1), 8)
    assert even_close(s.coefficient(-1), even(0, -0.5 * math.exp(-1)),
                      rel=1e-14)


def test_local_expansion_rejects_empty_window():
    f = meromorphic_from_text("1/z")
    with pytest.raises(ValueError):
        local_expansion(f, even(0, 0), 0)


def test_pole_residual_invariant():
    rng = random.Random(11)
    for _ in range(25):
        f, _ = random_planted_rational(rng)
        scale = f.den.max_coeff()
        for p in find_poles(f):
            assert abs(f.den(p.location)) <= 1e-9 * scale


def test_expansion_agrees_with_direct_evaluation():
    rng = random.Random(23)
    trials = 0
    while trials < 100:
        f, poles = random_planted_rational(rng)
        # a regular point close to a pole, inside the series radius
        anchor = poles[0].location
        others = [p.location for p in poles[1:]]
        nearest = min([abs(anchor - o) for o in others], default=2.0)
        radius = 0.1 * min(nearest, 2.0)
        angle = rng.uniform(0, 2 * math.pi)
        dz = even(radius * math.cos(angle), radius * math.sin(angle))
        z = anchor + dz
        expansion = local_expansion(f, anchor, 48)
        direct = f(z)
        via_series = expansion.evaluate(dz)
        assert even_close(via_series, direct, rel=1e-8), \
            f"series evaluation drifted: {via_series} vs {direct}"
        trials += 1


def test_laurent_window_of_integer_power_series():
    # polynomial in z and 1/z: expansion must reproduce the coefficients
    f = meromorphic_from_text("(2*z^4 - z^2 + 3)/z^2")
    window = laurent_expand(f, even(0, 0), -3, 3)
    got = window.window_coefficients(-3, 3)
    want = [0.0, 3.0, 0.0, -1.0, 0.0, 2.0, 0.0]
    assert all(even_close(g, even(w), abs_tol=1e-14) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# 1-form classification

def ring_samples(n=12, radius=1.3, offset=(0.15, -0.1)):
    return [(radius * math.cos(a) + offset[0], radius * math.sin(a) + offset[1])
            for a in [2 * math.pi * k / n for k in range(n)]]


def test_angular_form_is_closed_and_cr():
    form = OneForm(lambda x, y: -y / (x * x + y * y),
                   lambda x, y: x / (x * x + y * y))
    assert classify_one_form(form, ring_samples()) is FormClass.CLOSED_AND_CR


def test_conjugate_position_form_is_closed_only():
    form = OneForm(lambda x, y: x, lambda x, y: y)
    assert classify_one_form(form, ring_samples()) is FormClass.CLOSED_ONLY


def test_shear_form_is_not_closed():
    form = OneForm(lambda x, y: y, lambda x, y: 0.0)
    assert classify_one_form(form, ring_samples()) is FormClass.NOT_CLOSED


def test_classification_builds_no_even_element_per_sample(monkeypatch):
    # w dx for w = a*z^2 + b*z, a = 0.7-1.3i, b = 0.4+1.1i, written as the
    # benchmark's classify calls write it; the compiled trees run on pairs
    a_r, a_i, b_r, b_i = "0.7", "(-1.3)", "0.4", "1.1"
    form = OneForm.from_expressions(
        f"{a_r}*(x^2-y^2)-2*{a_i}*x*y+{b_r}*x-{b_i}*y",
        f"0-({a_i}*(x^2-y^2)+2*{a_r}*x*y+{b_i}*x+{b_r}*y)")
    built = []
    init = EvenElement.__init__

    def counting(self, u, v):
        built.append((u, v))
        init(self, u, v)

    monkeypatch.setattr(EvenElement, "__init__", counting)
    samples = ring_samples(n=24, radius=1.5)
    assert classify_one_form(form, samples) is FormClass.CLOSED_AND_CR
    assert built == []


def test_poles_and_residues_build_even_elements_only_at_the_edges(
        monkeypatch):
    # inside, coefficients and root locations are complex pairs; an
    # EvenElement is built per Pole.location and per residue handed out,
    # and at most once per literal while folding
    built = []
    init = EvenElement.__init__

    def counting(self, u, v):
        built.append((u, v))
        init(self, u, v)

    monkeypatch.setattr(EvenElement, "__init__", counting)
    f = meromorphic_from_text("1/(z^20+0.7-0.2*I)")
    poles = find_poles(f)
    for p in poles:
        residue(f, p)
    literals = 3  # 1, 0.7 and 0.2
    assert len(poles) == 20
    assert len(built) <= 2 * len(poles) + literals


def test_root_residual_error_names_the_root_as_an_even_element():
    den = Polynomial.from_coeffs([-1.0, 1.0])  # z - 1
    f = MeromorphicFunction(ONE_POLY, den, den_roots=((2 + 0j, 1),))
    with pytest.raises(RootFindingError) as err:
        find_poles(f)
    assert str(err.value) == ("root residual too large at EvenElement(u=2.0, "
                              "v=0.0); denominator is ill-conditioned")


def test_root_residual_is_measured_against_horners_bound():
    # roots outside the unit disk: |den| there scales with |loc|**k, so a
    # bound on the coefficients alone refused 23 of these genuine roots
    for den in gaussian_monic_denominators():
        f = MeromorphicFunction(ONE_POLY, den)
        assert sum(p.order for p in find_poles(f)) == den.degree
    # a table location 1e-3 off a root is still refused
    den = Polynomial.from_coeffs([1.0, 0.0, 1.0])  # z^2 + 1
    f = MeromorphicFunction(ONE_POLY, den,
                            den_roots=((1j + 1e-3, 1), (-1j, 1)))
    with pytest.raises(RootFindingError, match="root residual too large"):
        find_poles(f)


def test_integer_power_series_forms_classify_cr():
    rng = random.Random(31)
    for _ in range(10):
        coeffs = {n: even(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for n in range(-3, 5)}

        def w(z, coeffs=coeffs):
            from dxdy.algebra import even_int_pow
            total = even(0, 0)
            for n, c in coeffs.items():
                total = total + even_mul(c, even_int_pow(z, n))
            return total

        form = OneForm.from_function(w)
        assert classify_one_form(form, ring_samples()) is FormClass.CLOSED_AND_CR


def test_from_function_evaluates_once_per_point():
    points = []

    def w(z):
        points.append((z.u, z.v))
        return z * z * z + 2 * z

    samples = ring_samples(n=24)
    form = OneForm.from_function(w)
    assert classify_one_form(form, samples) is FormClass.CLOSED_AND_CR
    assert len(points) == 4 * len(samples) == len(set(points))
    assert form.k(0.5, 2.0) == w(even(0.5, 2.0)).u
    assert form.g(0.5, 2.0) == -w(even(0.5, 2.0)).v


def test_expression_components():
    form = OneForm.from_expressions("0-y/(x^2+y^2)", "x/(x^2+y^2)")
    assert classify_one_form(form, ring_samples()) is FormClass.CLOSED_AND_CR


@pytest.mark.parametrize("samples, options", [
    ([], {}),
    (ring_samples(), {"step": 0.0}),
    (ring_samples(), {"step": -1e-6}),
    (ring_samples(), {"step": math.nan}),
    (ring_samples(), {"tol": -1.0}),
])
def test_classify_rejects_what_it_cannot_test(samples, options):
    # y dx is not closed; with no samples or a bad step or tol a verdict
    # would come back all the same
    shear = OneForm.from_expressions("y", "0")
    with pytest.raises(ValueError):
        classify_one_form(shear, samples, **options)
    assert classify_one_form(shear, ring_samples()) is FormClass.NOT_CLOSED
