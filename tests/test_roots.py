"""Root finder: planted multiplicities, clustering, edge cases."""

import cmath
import math
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy import roots
from dxdy.cli import main
from dxdy.functions import MeromorphicFunction
from dxdy.polynomials import ONE_POLY, Polynomial
from dxdy.roots import find_roots
from helpers import ILL_CONDITIONED, sweep_module

#: how far a recovered root may lie from its planted location, times
#: 1 + its modulus
LOCATION_TOL = 1e-7


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
    return all(gm == pm and abs(gl - pl) <= LOCATION_TOL * (1 + abs(pl))
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


def test_tables_the_residual_check_refuses_are_loud(capsys):
    # find_roots returns a full table; building a function on it refuses
    # the table, so every verb refuses it alike
    for coeffs in ILL_CONDITIONED:
        assert sum(m for _, m in find_roots(coeffs)) == len(coeffs) - 1
        with pytest.raises(roots.RootFindingError,
                           match="root residual too large"):
            MeromorphicFunction(ONE_POLY, Polynomial(tuple(coeffs)))
    for argv in (["residues", "1/(z^2+1e-300)"],
                 ["laurent", "1/(z^2+1e-300)", "--center", "1,0",
                  "--from", "0", "--to", "0"],
                 ["cauchy", "1/(z^2+1e-300)", "--at", "1,0"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert "root residual too large" in captured.err


def test_exact_values_beyond_the_double_range_are_typed(monkeypatch):
    # rounding an exact t_j or Newton step of the clustering stage can
    # overflow; find_roots raises its own error for it.  (z-1)^3 fails
    # the certificate's float gate, so its first exact pass is a
    # multiplicity hypothesis
    def overflows(*args):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(roots, "dyadic_value_and_slope", overflows)
    with pytest.raises(roots.RootFindingError,
                       match="beyond the double range") as got:
        find_roots([-1 + 0j, 3 + 0j, -3 + 0j, 1 + 0j])
    assert isinstance(got.value.__cause__, OverflowError)


@pytest.mark.parametrize("start", [
    [0j, 0j],  # p'(0) = 0 for z^2 + 1: a critical point
    [1 + 0j, 1 + 0j],  # coincident iterates
])
def test_aberth_nudges_a_step_it_cannot_take(monkeypatch, start):
    # Newton's quotient or the pull of the other iterate divides by zero:
    # the iterate moves a little and the sweeps go on
    monkeypatch.setattr(roots, "_centroid_start", lambda coeffs: start)
    assert find_roots([1 + 0j, 0j, 1 + 0j]) == [(-1j, 1), (1j, 1)]


def test_raw_roots_that_are_not_finite_are_refused(monkeypatch):
    monkeypatch.setattr(roots, "_aberth",
                        lambda coeffs: [complex(math.nan, 0.0)] * 2)
    with pytest.raises(roots.RootFindingError,
                       match="left the double range at degree 2"):
        find_roots([1 + 0j, 0j, 1 + 0j])


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

def reference_single_linkage(points):
    """The linkage pass by its definition: k* counted at every point for
    every k, and every group mean for every pair."""
    def scatter(k):
        return roots.KAPPA ** (1.0 / k)

    def crowded(x, k):
        reach = 2.0 * (1.0 + abs(x)) * scatter(k)
        return sum(abs(x - y) <= reach for y in points) >= k

    k_star = max((k for k in range(1, len(points) + 1) for x in points
                  if crowded(x, k)), default=1)

    def mean(group):
        return sum(group) / len(group)

    def link_radius(magnitude):
        return (1.0 + magnitude) * scatter(k_star)

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
    centers, in a random order."""
    coord = st.floats(-2.0, 2.0)
    unit = st.floats(-1.0, 1.0)
    points = []
    for _ in range(draw(st.integers(1, 5))):
        center = complex(draw(coord), draw(coord))
        spread = 10.0 ** draw(st.floats(-12.0, -0.5))
        for _ in range(draw(st.integers(1, 5))):
            points.append(center + spread * complex(draw(unit), draw(unit)))
    return draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_linkage_matches_cubic_reference(points):
    assert (roots._single_linkage(points)
            == reference_single_linkage(points))


@pytest.mark.parametrize("c", [0.7 - 0.2j, 0.5 + 0.3j, 1.2, 0.9j])
def test_linkage_matches_reference_at_the_n15_spacing(c):
    # the root spacing, about 0.42, is far wider than the scatter of any
    # cluster the ring can hold (k* = 1), though the degree-15 radius,
    # about 0.43, exceeds it: every root stays a singleton
    raw = roots._aberth([c] + [0j] * 14 + [1 + 0j])
    jittered = [x * cmath.exp(1e-3j * k) for k, x in enumerate(raw)]
    for points in (raw, jittered):
        singletons = [[p] for p in points]
        assert roots._single_linkage(points) == singletons
        assert reference_single_linkage(points) == singletons


# ---------------------------------------------------------------------------
# cost guards: multiplicity hypotheses and exact Horner passes, counted

def test_failing_double_root_hypothesis_costs_at_most_9_passes(monkeypatch):
    # a double root tried between two neighbouring roots of z^15 + c:
    # 8 Newton steps on p', each one pass for t_1 and 2 t_2, then the pass
    # for t_0 and t_1 fails (17 passes with one per t_j, 27 while every
    # step shifted t_0..t_2)
    monic = [0.7 - 0.2j] + [0j] * 14 + [1 + 0j]
    found = [x for x, _ in find_roots(monic)]
    near = min(found[1:], key=lambda x: abs(x - found[0]))
    passes = [0]
    value_and_slope = roots.dyadic_value_and_slope

    def one_pass(*args):
        passes[0] += 1
        return value_and_slope(*args)

    monkeypatch.setattr(roots, "dyadic_value_and_slope", one_pass)
    center = roots._refine_and_verify([abs(c) for c in monic],
                                      roots.dyadic_poly(monic),
                                      (found[0] + near) / 2, 2)
    assert center is None
    assert 0 < passes[0] <= 9


def _counted_newton_passes(monkeypatch) -> list[complex]:
    """The points of every dyadic_value_and_slope call find_roots makes."""
    points = []
    value_and_slope = roots.dyadic_value_and_slope

    def counted(poly, x, *j):
        points.append(x)
        return value_and_slope(poly, x, *j)

    monkeypatch.setattr(roots, "dyadic_value_and_slope", counted)
    return points


def test_binomial_roots_take_one_exact_pass_each(monkeypatch):
    # the degree ladder 1/(z^n + c), n = 3..15, |c| in [0.5, 2], any
    # phase: Aberth's roots are polished by the first Newton step
    rng = random.Random(24)
    points = _counted_newton_passes(monkeypatch)
    for n in range(3, 16):
        for _ in range(15):
            c = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
            points.clear()
            found = find_roots([c] + [0j] * (n - 1) + [1 + 0j])
            assert [m for _, m in found] == [1] * n
            assert len(points) == n


def test_newton_stops_once_the_iterate_no_longer_moves(monkeypatch):
    # at the root near -16.7+67.3i, x - step rounds back to x while |step|
    # is above 1e-16 * (1 + |x|): the second pass repeats the first step
    coeffs = [-646701.0609233306 - 36186.01895417756j,
              -9615.781538731793 - 19466.964108416032j,
              133.35048161431143 - 213.2951346045234j, 1 + 0j]
    points = _counted_newton_passes(monkeypatch)
    found = find_roots(coeffs)
    stuck = -16.687438619546217 + 67.2553863187335j
    assert (stuck, 1) in found
    assert 0 < points.count(stuck) <= 2
    assert len(points) <= 6


@pytest.mark.parametrize("m", range(2, 31))
def test_multiple_root_reads_two_taylor_coefficients_per_pass(monkeypatch, m):
    # (z-1)^m: one Newton step on p^(m-1) lands on 1, then t_0 .. t_m are
    # read two per pass: 8 passes at m = 13, where one per t_j took 16
    points = _counted_newton_passes(monkeypatch)
    binomial = [complex(comb(m, k) * (-1) ** (m - k)) for k in range(m + 1)]
    assert find_roots(binomial) == [(1 + 0j, m)]
    assert len(points) == 1 + (m + 2) // 2


@pytest.mark.parametrize("n", [*range(15, 34), 40, 60, 100])
def test_rings_of_simple_roots_try_no_multiplicity(monkeypatch, n):
    # the certificate proves every root of the ring simple, so nothing is
    # linked and no hypothesis runs.  Up to n = 32 the linkage would link
    # nothing either (k* = 1); from n = 33 on it would link the whole ring
    # and try dozens of multiplicities that all fail
    tried = []
    linkage = roots._single_linkage
    refine = roots._refine_and_verify
    value_and_slope = roots.dyadic_value_and_slope

    def counted_linkage(*args):
        tried.append("linkage")
        return linkage(*args)

    def counted_refine(*args):
        tried.append("refine")
        return refine(*args)

    def counted_pass(poly, x, j=0):
        if j:
            tried.append("t_j")
        return value_and_slope(poly, x, j)

    monkeypatch.setattr(roots, "_single_linkage", counted_linkage)
    monkeypatch.setattr(roots, "_refine_and_verify", counted_refine)
    monkeypatch.setattr(roots, "dyadic_value_and_slope", counted_pass)
    for c in (0.7 - 0.2j, 1.2, 0.5 + 0.3j):
        found = find_roots([c] + [0j] * (n - 1) + [1 + 0j])
        assert [m for _, m in found] == [1] * n
    assert tried == []


# ---------------------------------------------------------------------------
# the simple-root certificate

def _certificate_cases():
    """Random monic polynomials, near pairs, planted multiple roots and the
    denominators of random_sweep.py's first 200 contour cases at seed 1."""
    rng = random.Random(31)
    for _ in range(60):
        yield [complex(rng.gauss(0, 1), rng.gauss(0, 1))
               for _ in range(rng.randint(1, 20))] + [1 + 0j]
    for d in (1e-4, 1e-6):
        yield expand([(1 + 0j, 1), (1 + d + 0j, 1)])
    for _ in range(40):
        planted = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        yield expand(planted)
    for _, den, _, _ in sweep_module().contour_cases(1, 200):
        yield list(den.coeffs)


def _table(coeffs) -> str:
    """find_roots's table, or its error, in every bit."""
    try:
        return repr(find_roots(coeffs))
    except roots.RootFindingError as err:
        return f"RootFindingError: {err}"


def test_certified_tables_keep_the_bits_of_the_clustering_stage(monkeypatch):
    cases = list(_certificate_cases())
    certify = roots._certify
    verdicts = []

    def spied(exact, raw):
        firsts = certify(exact, raw)
        verdicts.append(firsts is not None)
        return firsts

    monkeypatch.setattr(roots, "_certify", spied)
    tables = [_table(coeffs) for coeffs in cases]
    monkeypatch.setattr(roots, "_certify", lambda exact, raw: None)
    for coeffs, table in zip(cases, tables):
        assert _table(coeffs) == table, coeffs
    # both outcomes of the certificate are covered
    assert 0 < sum(verdicts) < len(verdicts)


def test_certificate_refuses_two_disks_about_a_double_root():
    # (z-1)^2: the step at x is (x - 1)/2, exactly, so the Newton disk
    # about x has radius 2 |x - 1|/2 and holds the double root 1 on its
    # rim.  The two points lie nearly in line with 1, so their rounded
    # radii sum to 2 ulps less than their rounded distance: dropping the
    # widening for rounding, or the factor n, would certify two simple roots
    exact = roots.dyadic_poly([1 + 0j, -2 + 0j, 1 + 0j])
    raw = [1.022766274335173 + 0.25752213457201j,
           0.9944826816556722 - 0.06240949117218894j]
    steps = [roots._newton_pass(exact, x)[1] for x in raw]
    assert steps == [complex((x.real - 1) / 2, x.imag / 2) for x in raw]
    assert 2 * (abs(steps[0]) + abs(steps[1])) < abs(raw[0] - raw[1])
    assert roots._certify(exact, raw) is None
    assert find_roots([1 + 0j, -2 + 0j, 1 + 0j]) == [(1 + 0j, 2)]


def test_certificate_takes_no_exact_pass_when_the_gate_fails(monkeypatch):
    # (z-1)(z-1-1e-6): the raw pair lies within CERTIFY_GAP, so the
    # clustering stage takes the table before any exact pass is spent
    monic = expand([(1 + 0j, 1), (1 + 1e-6 + 0j, 1)])
    raw = roots._aberth(monic)
    points = _counted_newton_passes(monkeypatch)
    assert roots._certify(roots.dyadic_poly(monic), raw) is None
    assert points == []


def test_certificate_refuses_a_point_where_the_slope_vanishes():
    # z^2 - 1: the points lie 5 apart, clear of the gate, and p'(0) = 0
    # where p(0) = -1 is not.  The step at 0 reads 0, so without the
    # refusal 0 would get a disk of radius 0, as if it were a root
    exact = roots.dyadic_poly([-1 + 0j, 0j, 1 + 0j])
    dp, step = roots._newton_pass(exact, 0j)
    assert dp.is_zero() and step == 0j
    assert roots._certify(exact, [0j, 5 + 0j]) is None


@pytest.mark.parametrize("planted, double", [
    ([0.1, 0.10001], 0.10000500000000001),
    ([2.0 ** -10, 2.0 ** -10 + 2.0 ** -20], 2.0 ** -10 + 2.0 ** -21),
])
def test_the_gate_keeps_a_near_pair_by_the_origin_one_double_root(
        monkeypatch, planted, double):
    # the Newton disks about the raw pair are disjoint, and at the polished
    # roots |p'| lies above the VERIFY_TOL floor, relative to coefficients
    # that shrink with |x|: the certificate alone would prove two simple
    # roots.  The gate, relative to 1 + |x|, sends the pair to the
    # clustering stage, which links it and accepts one double root
    monic = expand([(complex(x), 1) for x in planted])
    raw = roots._aberth(monic)
    assert find_roots(monic) == [(complex(double), 2)]
    monkeypatch.setattr(roots, "CERTIFY_GAP", 0.0)
    assert roots._certify(roots.dyadic_poly(monic), raw) is not None
    assert len(find_roots(monic)) == 2


@pytest.mark.parametrize("text, planted", [
    ("1/((z-0.3)^8*(z-0.35))", [(0.3, 8), (0.35, 1)]),
    ("1/((z-0.31)^6*(z-0.33))", [(0.31, 6), (0.33, 1)]),
    ("1/((z-0.3)^5*(z-0.31)*(z+1))", [(-1.0, 1), (0.3, 5), (0.31, 1)]),
])
def test_group_accepts_a_multiple_root_and_links_the_rest_again(
        monkeypatch, text, planted):
    # one group holds the m-fold root's ring and the simple root beside
    # it: the m-fold hypothesis is accepted for part of the group, and
    # the leftover points are linked and resolved again
    from dxdy.functions import meromorphic_from_text
    coeffs = list(meromorphic_from_text(text).den.coeffs)
    resolve = roots._resolve_group
    accepted = []

    def spied(mags, exact, group):
        out = resolve(mags, exact, group)
        accepted.append((len(group), out[0][1]))
        return out

    monkeypatch.setattr(roots, "_resolve_group", spied)
    table = find_roots(coeffs)
    assert any(1 < k < size for size, k in accepted)
    assert [m for _, m in table] == [m for _, m in planted]
    # the rounded coefficients move the simple root by up to about 2e-8
    assert all(abs(x - a) <= 1e-6 * (1 + abs(a))
               for (x, _), (a, _) in zip(table, planted))


@pytest.mark.parametrize("seed", [0, 2, 10])
def test_every_multiple_root_passes_the_multiplicity_test(seed):
    # the denominators of random_sweep.py --count 200: an entry of order
    # m >= 2 is one the multiplicity test accepts at its own location,
    # never two polished roots glued by their distance
    checked = 0
    for _, den, _, _ in sweep_module().contour_cases(seed, 200):
        try:
            table = find_roots(den.coeffs)
        except roots.RootFindingError:
            continue
        monic = [c / den.coeffs[-1] for c in den.coeffs]
        exact = roots.dyadic_poly(monic)
        mags = [abs(c) for c in monic]
        for loc, m in table:
            if m >= 2:
                checked += 1
                assert roots._refine_and_verify(mags, exact, loc, m), (loc, m)
    assert checked


@pytest.mark.parametrize("seed, case", [(0, 4), (2, 169)])
def test_a_table_that_lists_a_location_twice_is_refused(seed, case):
    # two raw points of a cluster that no hypothesis accepts polish to the
    # same bits; listed twice at order 1, that location's multiplicity
    # would never have been tested
    *_, (_, den, _, _) = sweep_module().contour_cases(seed, case + 1)
    with pytest.raises(roots.RootFindingError,
                       match=r"the root table lists EvenElement\(.*\) twice"):
        find_roots(den.coeffs)


def test_a_deeper_root_fails_the_hypothesis_at_a_zero_slope():
    # z^3 at 0 under the double-root hypothesis: the Newton step on p'
    # has slope 2 t_2 = 0 and stays put, and t_2 = 0 fails at j = k
    monic = [0j, 0j, 0j, 1 + 0j]
    exact = roots.dyadic_poly(monic)
    mags = [abs(c) for c in monic]
    assert roots._refine_and_verify(mags, exact, 0j, 2) is None
    assert roots._refine_and_verify(mags, exact, 0j, 3) == 0j
