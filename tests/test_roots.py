"""Root finder: planted multiplicities, clustering, edge cases."""

import cmath
import math
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy import roots
from dxdy.roots import CLUSTER_TOL, find_roots


def expand(roots_mults):
    coeffs = [1 + 0j]
    for root, mult in roots_mults:
        for _ in range(mult):
            longer = [0j] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                longer[i + 1] += c
                longer[i] -= root * c
            coeffs = longer
    return coeffs


def recovered(got, planted):
    got = sorted(got, key=lambda rm: (rm[0].real, rm[0].imag))
    planted = sorted(planted, key=lambda rm: (rm[0].real, rm[0].imag))
    if len(got) != len(planted):
        return False
    return all(gm == pm and abs(gl - pl) <= CLUSTER_TOL * (1 + abs(pl))
               for (gl, gm), (pl, pm) in zip(got, planted))


def test_simple_real_roots():
    assert recovered(find_roots([-6, 11, -6, 1]),
                     [(1 + 0j, 1), (2 + 0j, 1), (3 + 0j, 1)])


def test_double_pair_on_axis():
    assert recovered(find_roots([1, 0, 2, 0, 1]), [(1j, 2), (-1j, 2)])


def test_triple_and_simple():
    assert recovered(find_roots([-2, 5, -3, -1, 1]),
                     [(1 + 0j, 3), (-2 + 0j, 1)])


def test_sextuple_root():
    coeffs = [complex(comb(6, k) * (-1) ** (6 - k)) for k in range(7)]
    assert recovered(find_roots(coeffs), [(1 + 0j, 6)])


def test_non_dyadic_quadruple():
    planted = [(0.3 + 0j, 4), (-1.7 + 0j, 1)]
    assert recovered(find_roots(expand(planted)), planted)


def test_close_but_distinct_roots_stay_apart():
    planted = [(0.5 + 0j, 1), (0.52 + 0j, 1), (-1 + 0j, 1)]
    assert recovered(find_roots(expand(planted)), planted)


def test_leading_zero_coefficients_are_trimmed():
    got = find_roots([2, -3, 1, 0, 0])
    assert recovered(got, [(1 + 0j, 1), (2 + 0j, 1)])


def test_degree_below_one_rejected():
    with pytest.raises(ValueError):
        find_roots([3.0])
    with pytest.raises(ValueError):
        find_roots([])


def test_planted_structures_randomized():
    rng = random.Random(1729)
    for _ in range(60):
        count = rng.randint(1, 3)
        locations = []
        while len(locations) < count:
            cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(cand - o) > 0.9 for o in locations):
                locations.append(cand)
        planted = [(loc, rng.randint(1, 4)) for loc in locations]
        got = find_roots(expand(planted))
        assert recovered(got, planted), f"failed for {planted}: {got}"


def test_residuals_are_small():
    rng = random.Random(60)
    for _ in range(30):
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(rng.randint(3, 9))]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] += 1.0
        scale = max(abs(c) for c in coeffs)
        for loc, mult in find_roots(coeffs):
            value = 0j
            for c in reversed(coeffs):
                value = value * loc + c
            assert abs(value) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# grouping: the linkage pass against its cubic reference

def reference_single_linkage(points, degree):
    """The linkage pass as it was: every group mean for every pair."""
    def mean(group):
        return sum(group) / len(group)

    def link_radius(magnitude):
        return (1.0 + magnitude) * max(roots.CLUSTER_TOL,
                                       roots.KAPPA ** (1.0 / degree))

    groups = [[p] for p in points]
    while len(groups) > 1:
        best = None
        best_d = math.inf
        for i in range(len(groups)):
            ci = mean(groups[i])
            for j in range(i + 1, len(groups)):
                d = abs(ci - mean(groups[j]))
                mag = abs(mean(groups[i] + groups[j]))
                if d <= link_radius(mag) and d < best_d:
                    best_d = d
                    best = (i, j)
        if best is None:
            break
        i, j = best
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


@st.composite
def _clouds(draw):
    """Planted clusters of 1..5 points, scattered 1e-12..0.3 about their
    centers, in a random order, with a degree for the radius law."""
    coord = st.floats(-2.0, 2.0)
    unit = st.floats(-1.0, 1.0)
    points = []
    for _ in range(draw(st.integers(1, 5))):
        center = complex(draw(coord), draw(coord))
        spread = 10.0 ** draw(st.floats(-12.0, -0.5))
        for _ in range(draw(st.integers(1, 5))):
            points.append(center + spread * complex(draw(unit), draw(unit)))
    return draw(st.permutations(points)), draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_linkage_matches_cubic_reference(cloud):
    points, degree = cloud
    assert (roots._single_linkage(points, degree)
            == reference_single_linkage(points, degree))


@pytest.mark.parametrize("c", [0.7 - 0.2j, 0.5 + 0.3j, 1.2, 0.9j])
def test_linkage_matches_reference_at_the_n15_spacing(c):
    # the degree-15 radius, about 0.43, exceeds the root spacing there
    raw = roots._durand_kerner([c] + [0j] * 14 + [1 + 0j])
    jittered = [x * cmath.exp(1e-3j * k) for k, x in enumerate(raw)]
    for points in (raw, jittered):
        assert (roots._single_linkage(points, 15)
                == reference_single_linkage(points, 15))


# ---------------------------------------------------------------------------
# cost guard: exact Horner passes, counted

def test_failing_double_root_hypothesis_costs_at_most_17_passes(monkeypatch):
    passes = [0]
    tried = []
    coefficient = roots.dyadic_taylor_coefficient
    shift = roots.dyadic_taylor_shift
    refine = roots._refine_and_verify

    def one_pass(poly, center, j):
        passes[0] += 1
        return coefficient(poly, center, j)

    def many_passes(poly, center, terms):
        passes[0] += terms
        return shift(poly, center, terms)

    def counted(coeffs, exact, seed, k):
        passes[0] = 0
        center = refine(coeffs, exact, seed, k)
        tried.append((k, center, passes[0]))
        return center

    monkeypatch.setattr(roots, "dyadic_taylor_coefficient", one_pass)
    monkeypatch.setattr(roots, "dyadic_taylor_shift", many_passes)
    monkeypatch.setattr(roots, "_refine_and_verify", counted)
    # z^15 + c: the linkage joins neighbouring simple roots, so each
    # call rejects several double-root hypotheses (8 steps of t_1 and
    # t_2, then t_0 fails; 27 passes while every step shifted t_0..t_2)
    found = find_roots([0.7 - 0.2j] + [0j] * 14 + [1 + 0j])
    assert [m for _, m in found] == [1] * 15
    failed = [count for k, center, count in tried if center is None]
    assert failed and all(k == 2 for k, _, _ in tried)
    assert max(failed) <= 17
