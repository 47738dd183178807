"""Simultaneous polynomial root finding with multiplicity recovery.

Aberth iteration produces raw approximations for every root at once.
Approximations belonging to a multiple root scatter on a ring of radius
roughly eps**(1/m) (both iteration noise and coefficient rounding split a
multiplicity-m root by that much), so raw distances alone cannot decide
multiplicities.  The pipeline is therefore:

1. raw Aberth roots, swept from Bini's Newton-polygon start (Numer.
   Algorithms 13, 1996) about the root centroid c = -a_{n-1}/n (Aberth,
   Math. Comp. 27, 1973): Bini's points of p(c + w) moved back by c, when
   |p(c)| < |p(0)| and the shifted coefficients are finite, else Bini's
   points of p.  (z - a)**m shifts to w**m, so its points start on the
   root.  The sweeps stop once the steps converge, or once every |p(x)|
   entering a sweep is within DK_FLOOR times Horner's rounding bound,
   the noise floor where a multiple root's cloud sits (the stopping rule
   of Bini and Fiorentino, Numer. Algorithms 23, 2000); iterating past
   it only spreads the cloud, so a start already there gets no sweep.
   Each sweep's Horner pass takes one step per run of zero coefficients,
   and one step per coefficient where there is no zero; the runs come
   from ``polynomials.zero_runs`` once, and the start's floor test reads
   the same list through ``runs_vanish_at``, as ``vanishes_at`` does;
2. a certificate that every root is simple: n pairwise disjoint Newton
   disks, of radius n |p(x)/p'(x)| about each raw x, hold one simple root
   each.  A float gate on the separation of the raw roots (CERTIFY_GAP)
   comes before the exact passes, and each pass's step is the first step
   of that root's Newton polish.  A certified table is polished and
   returned, unless a polished root has |p'| within VERIFY_TOL of its
   scale: the multiplicity test could merge that root, so such a table
   goes on to steps 3 and 4 with those the certificate refuses;
3. single-linkage grouping with the radius KAPPA**(1/k*) (1 + |x|), the
   eps**(1/k) scatter law for k = k*, the most raw roots a cluster
   obeying that law can hold: the largest k such that some raw root has
   k raw roots, itself included, within twice the law's radius for k.  A
   ring of n simple roots about |x| = 1 keeps k* = 1 for n <= 32; from
   n = 33 on, 4 * KAPPA**(1/n) >= 2 spans the ring, so it would be linked
   as one group and step 4 would split it, but step 2 certifies such
   rings;
4. per group, a structural hypothesis test on the exact Taylor
   coefficients t_j at the refined center: the group of k approximations is
   accepted as one multiplicity-k root iff the polynomial is,
   coefficient-relatively, close to one with an exact multiplicity-k root
   there.  The test is lazy: it reads t_j and its scale for
   j = 0, 1, .. k in order, t_j and t_{j+1} from one exact pass, and stops
   at the first that fails.  Failed groups are split and retried with
   tighter radii.  This test is the one place a multiplicity above 1 is
   decided: two polished roots, however close, stay two entries.

Centers of accepted groups start from the group mean (first-order scatter
cancels around a multiple root) and are refined by Newton on p^(k-1),
so reported locations do not inherit the scatter; simple roots get
plain Newton steps, each from p and p' of one exact pass, until the step
is below 1e-16 * (1 + |x|) or x no longer moves (far from 0, half an ulp
can exceed that bound, and further steps would repeat the last one).  A
polish whose steps have not settled after _NEWTON_MAX_ITER passes raises
RootFindingError, and so does a simple root whose |p'| is below the
rounding of the coefficients, since it may as well be multiple (a
multiple root that no hypothesis accepted shows up so).  The monic coefficients and every
iterate are doubles, hence dyadic: each exact pass of ``exactmath``'s
``dyadic_value_and_slope`` gives a pair t_j, (j+1)*t_{j+1} (p and p' at
j = 0) from Gaussian integer Horner steps over the nonzero coefficients,
and each step or test value is rounded once from the exact rational
(a step by ``dyadic_ratio``'s short quotient, or its full-width fallback).
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import compress
from operator import attrgetter

from .algebra import EvenElement, complex_int_pow
from .errors import ComputationError, UsageError
from .exactmath import (Dyadic, DyadicPoly, dyadic_poly, dyadic_ratio,
                        dyadic_value_and_slope)
from .polynomials import Polynomial, runs_vanish_at, zero_runs

#: coefficient-relative distance to the nearest polynomial carrying the
#: hypothesised multiple root; clusters failing this are split
VERIFY_TOL = 1e-5

#: the eps**(1/k) scatter law's eps: a k-fold root's raw roots scatter
#: within KAPPA**(1/k) times 1 + |x| of it; raw roots are linked at the
#: radius for k*, the largest k such that some raw root has k raw roots
#: within twice that radius
KAPPA = 1e-10

#: raw roots are offered to the simple-root certificate only when every
#: pair lies farther apart than this, times 1 + the largest modulus:
#: twice the scatter of a 4-fold root.  Closer pairs may form a cluster
#: that the multiplicity test would accept as one root, so their tables
#: keep the clustering stage.  The gate decides tables near the origin,
#: where the polish's VERIFY_TOL floor, relative to the coefficients,
#: passes pairs that the linkage radius, relative to 1 + |x|, merges:
#: (z - 0.1)(z - 0.10001) is one double root because of it
CERTIFY_GAP = 2.0 * KAPPA ** 0.25

#: Aberth stops once every |p(x)| entering a sweep is within this many
#: Horner rounding bounds (the name, and the JSON key root_dk_floor, date
#: from the Durand-Kerner iteration that Aberth replaced)
DK_FLOOR = 8.0

_MAX_SWEEPS = 600
_NEWTON_MAX_ITER = 24

#: widens a sum of two Newton disk radii for the roundings of the step,
#: its modulus, the radii, their sum and the distance it is compared with
_ROUNDING = 1.0 + 8.0 * sys.float_info.epsilon

#: start-angle offset on every circle, irrational to dodge symmetry traps
_PHASE = 0.3923


class RootFindingError(ComputationError, RuntimeError):
    """The iteration did not converge to a consistent root structure."""


def _start_points(coeffs: list[complex]) -> list[complex]:
    """Bini's starting points for a monic polynomial (ascending coeffs).

    Each edge of the upper convex hull of the points (k, log|a_k|), from
    k1 to k2, puts k2 - k1 points on a circle of radius
    (|a_k1|/|a_k2|)**(1/(k2 - k1)): the root moduli cluster about these
    radii (Bini, Numer. Algorithms 13, 1996).  The roots that zero low
    coefficients put at 0 start there exactly: p(0) = 0 holds them, and
    the multiplicity test at center 0 is exact.
    """
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        point = (k, math.log(abs(c)))
        while len(hull) >= 2 and _under_chord(hull[-2], hull[-1], point):
            hull.pop()
        hull.append(point)
    circles = [(math.exp((log1 - log2) / (k2 - k1)), k2 - k1)
               for (k1, log1), (k2, log2) in zip(hull, hull[1:])]
    points = [0j] * hull[0][0]
    n = len(coeffs) - 1
    for edge, (radius, count) in enumerate(circles):
        # each circle turned by 2*pi/n more, so lone points do not line up
        points += _circle(radius, count, 2.0 * math.pi * edge / n)
    return points


def _centroid_start(coeffs: list[complex]) -> list[complex]:
    """Aberth's start about the root centroid c = -a_{n-1}/n (Math. Comp.
    27, 1973): Bini's points of p(c + w), moved back by c, when
    |p(c)| < |p(0)| (the product of the root distances is smaller about
    c) and every shifted coefficient is finite; else Bini's points of p.
    With p(0) = 0 the start never moves, so zero roots start at 0.
    """
    n = len(coeffs) - 1
    c = -coeffs[-2] / n
    if c:
        shifted = Polynomial(tuple(coeffs)).taylor_shift(c)
        if (abs(shifted[0]) < abs(coeffs[0])
                and all(map(cmath.isfinite, shifted))):
            return [c + w for w in _start_points(list(shifted))]
    return _start_points(coeffs)


def _under_chord(a: tuple[int, float], b: tuple[int, float],
                 c: tuple[int, float]) -> bool:
    """Whether b lies on or below the chord from a to c."""
    return (b[0] - a[0]) * (c[1] - a[1]) >= (b[1] - a[1]) * (c[0] - a[0])


def _circle(radius: float, count: int, turn: float) -> list[complex]:
    """count equispaced points on |x| = radius, the first at turn + _PHASE."""
    return [radius * cmath.exp(1j * (2.0 * math.pi * j / count + turn
                                     + _PHASE))
            for j in range(count)]


def _aberth(coeffs: list[complex]) -> list[complex]:
    """Raw simultaneous roots of a monic polynomial (ascending coeffs).

    Gauss-Seidel Aberth sweeps from the centroid start: each x_i
    moves by N/(1 - N*sum_{j != i} 1/(x_i - x_j)) with N = p/p', and one
    Horner pass gives p, p' and Higham's rounding bound sum |a_k| |x|^k
    (Accuracy and Stability, 5.1).  The pass reads the nonzero
    coefficients and c_0 only: a run of g coefficients, all zero but the
    last one c, is one step p x^g + c, (p' x + g p) x^(g-1) and
    bound |x|^g + |c|, with x^(g-1) by binary powering.  The runs are
    built once (``zero_runs``) and shared with the start's floor test,
    the check ``vanishes_at`` makes at one point.  A run of one is
    the plain Horner step, so dense coefficients give the iterates of one
    step per coefficient, bit for bit.  The sweeps stop once the steps
    converge, or once every |p(x)| entering a sweep is within DK_FLOOR
    times (n+1)*eps times that bound: the noise floor where a multiple
    root's cloud sits (Bini and Fiorentino, Numer. Algorithms 23, 2000).
    A start already at that floor is returned as it is: there the steps
    follow rounding noise, and one sweep scatters the centroid ring of a
    rounded (z - a)**m past the linkage radius.
    """
    n = len(coeffs) - 1
    xs = _centroid_start(coeffs)
    slack = DK_FLOOR * (n + 1) * sys.float_info.epsilon
    zeros = zero_runs(coeffs)
    if all(runs_vanish_at(zeros, x, slack) for x in xs):
        return xs
    lead, runs = zeros
    lead_mag = abs(lead)
    for _ in range(_MAX_SWEEPS):
        delta = 0.0
        scale = 1.0
        at_floor = True
        for i in range(n):
            xi = xs[i]
            r = abs(xi)
            p = lead
            dp = 0j
            bound = lead_mag
            for g, c, mag in runs:
                if g == 1:
                    dp = dp * xi + p
                    p = p * xi + c
                    bound = bound * r + mag
                    continue
                # CPython's complex ** is binary powering up to 100 only
                xg = (xi ** (g - 1) if g <= 101
                      else complex_int_pow(xi, g - 1))
                dp = (dp * xi + g * p) * xg
                p = p * (xg * xi) + c
                bound = bound * r ** g + mag
            if not bound < math.inf:
                raise _out_of_range(n)
            if abs(p) > slack * bound:
                at_floor = False
            if not p:
                continue
            try:
                pull = 0j
                for x in xs[:i]:
                    pull += 1.0 / (xi - x)
                for x in xs[i + 1:]:
                    pull += 1.0 / (xi - x)
                newton = p / dp
                step = newton / (1.0 - newton * pull)
            except ZeroDivisionError:
                # coincident iterates or a critical point: nudge, re-sweep
                xs[i] = xi + 1e-8 * (1 + r) * cmath.exp(1j * (i + 0.5))
                delta = math.inf
                continue
            xi -= step
            xs[i] = xi
            if abs(step) > delta:
                delta = abs(step)
            if abs(xi) > scale:
                scale = abs(xi)
        if delta <= 5e-15 * scale or at_floor:
            break
    return xs


def _out_of_range(degree: int) -> RootFindingError:
    return RootFindingError(f"Aberth iterates left the double range at "
                            f"degree {degree}")


def _single_linkage(points: list[complex]) -> list[list[complex]]:
    """Repeatedly merge the closest pair of groups within the linkage radius.

    The radius for a pair is (1 + |merged mean|) * _link_factor(points),
    the scatter of a k*-fold root, k* the most points a cluster obeying
    the scatter law can hold here.  A ring of n >= 33 simple roots about
    |x| = 1 has all n within 4 * KAPPA**(1/n) >= 2 of each, so k* = n and
    the ring is linked.  Each group's mean is kept until the group
    changes, and a scan stops at a pair 0 apart, since no later pair is
    strictly closer.
    """
    groups = [[p] for p in points]
    if len(groups) < 2:
        return groups
    factor = _link_factor(points)
    means = [_mean(g) for g in groups]  # kept until the group changes
    while len(groups) > 1:
        best = None
        best_d = math.inf
        for i, ci in enumerate(means):
            if not best_d:  # no pair is closer than 0
                break
            for j in range(i + 1, len(groups)):
                d = abs(ci - means[j])
                if d >= best_d:  # no merged mean needed for a losing pair
                    continue
                if d <= (1.0 + abs(_mean(groups[i] + groups[j]))) * factor:
                    best_d = d
                    best = (i, j)
                    if not d:
                        break
        if best is None:
            break
        i, j = best
        groups[i] = groups[i] + groups[j]
        means[i] = _mean(groups[i])
        del groups[j], means[j]
    return groups


def _link_factor(points: list[complex]) -> float:
    """KAPPA**(1/k*), for k* the largest k such that some point x has k
    points, itself included, within 2 * (1 + |x|) * KAPPA**(1/k).

    A k-fold root scatters its k approximations within KAPPA**(1/k) times
    1 + its modulus (the eps**(1/k) law), so each of them has all k within
    twice that: k* is the most points a cluster obeying the law can hold
    here.
    """
    scatter = [KAPPA ** (1.0 / k) for k in range(1, len(points) + 1)]
    best = 1
    for x in points:
        gaps = sorted(abs(x - y) for y in points)
        reach = 2.0 * (1.0 + abs(x))
        for k in range(len(gaps), best, -1):
            if gaps[k - 1] <= reach * scatter[k - 1]:
                best = k
                break
    return scatter[best - 1]


def _mean(points: list[complex]) -> complex:
    return sum(points) / len(points)


def _certify(exact: DyadicPoly,
             raw: list[complex]) -> list[tuple[Dyadic, complex]] | None:
    """Each raw root's _newton_pass when they prove every root simple,
    else None.

    The float gate first: every pair of raw roots must lie farther apart
    than CERTIFY_GAP * (1 + max |x|).  Then the exact passes.  Since
    p'/p(x) = sum_j 1/(x - z_j), a root lies within n |p(x)/p'(x)| =
    n |step| of each raw x, so n pairwise disjoint such disks hold one
    simple root each.  They are disjoint when the two largest radii,
    widened by _ROUNDING, sum below the closest distance between raw
    roots.  A disk of radius 0 is x itself, a root; p'(x) = 0 refuses.
    """
    n = len(raw)
    gap = CERTIFY_GAP * (1.0 + max(map(abs, raw)))
    # the closest pair by a sweep in the real part: a pair whose real
    # parts differ by at least the closest distance so far is no closer
    by_real = sorted(raw, key=attrgetter("real"))
    closest = math.inf
    for i, x in enumerate(by_real):
        xr = x.real
        for y in by_real[i + 1:]:
            if y.real - xr >= closest:
                break
            d = abs(y - x)
            if d < closest:
                closest = d
        if not closest > gap:
            return None
    firsts = [_newton_pass(exact, x) for x in raw]
    if any(dp.is_zero() for dp, _ in firsts):
        return None
    radii = sorted(abs(step) for _, step in firsts)[-2:]
    if not n * sum(radii) * _ROUNDING < closest:
        return None
    return firsts


def _newton_pass(exact: DyadicPoly, x: complex,
                 j: int = 0) -> tuple[Dyadic, complex]:
    """Exact (j+1)*t_{j+1} at x, and the Newton step of p^(j) there,
    t_j / ((j+1)*t_{j+1}), rounded once from the same pass; the step is 0
    where either vanishes.  At j = 0 they are p'(x) and p(x)/p'(x)."""
    p, dp = dyadic_value_and_slope(exact, x, j)
    if p.is_zero() or dp.is_zero():
        return dp, 0j
    return dp, dyadic_ratio(p, dp)


def _newton_polish(mags: list[float], exact: DyadicPoly, x0: complex,
                   first: tuple[Dyadic, complex] | None = None,
                   floor: float = sys.float_info.epsilon) -> complex:
    """Plain Newton with exact evaluation; quadratic for simple roots.

    Each step takes p and p' from one exact pass; first, when given, is
    _newton_pass at x0, taken already.  It stops once the step is below
    1e-16 * (1 + |x|), or once x - step rounds back to x: then every
    further step would be the same one.  Raises RootFindingError if
    _NEWTON_MAX_ITER passes end before that, or if |p'(x)| is at most
    floor times its scale sum k |a_k| |x|**(k-1): at eps a change of the
    coefficients below their rounding then makes x a double root, so x
    may as well be multiple; at VERIFY_TOL the multiplicity test could
    merge x with its neighbours.
    """
    x = x0
    dp, step = first or _newton_pass(exact, x)
    for left in range(_NEWTON_MAX_ITER - 1, -1, -1):
        x, last = x - step, x
        if x == last or abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
        if not left:
            raise RootFindingError(
                f"no simple root near {EvenElement(x0.real, x0.imag)}: "
                f"Newton's steps did not settle in {_NEWTON_MAX_ITER} passes")
        dp, step = _newton_pass(exact, x)
    if abs(dp.to_complex()) <= floor * _coefficient_scale(mags, abs(x), 1):
        raise RootFindingError(
            f"no simple root at {EvenElement(x.real, x.imag)}: |p'| there is "
            f"below the coefficients' rounding, so the root may be multiple")
    return x


def _coefficient_scale(mags: list[float], ac: float, j: int) -> float:
    """Magnitude scale sum_i C(i, j) |c_i| ac**(i - j) of the shifted
    Taylor coefficient t_j at a center of modulus ac.

    With a zero among the magnitudes the sum reads the nonzero ones only
    (_sparse_scale_sum).  With none, or where that sum saturates, it is
    taken over every i, one step per index, so a zero term past an
    overflowed power is NaN, as 0 * inf makes it, and the scale max(mags).
    """
    s = math.inf if all(mags) else _sparse_scale_sum(mags, ac, j)
    if not s < math.inf:
        s = 0.0
        binom = 1.0
        power = 1.0
        for i in range(j, len(mags)):
            if i > j:
                binom = binom * i / (i - j)
                power *= ac
            s += binom * mags[i] * power
    return s if s > 0.0 else max(mags)


def _sparse_scale_sum(mags: list[float], ac: float, j: int) -> float:
    """sum_i C(i, j) |c_i| ac**(i - j) over the nonzero |c_i|, i >= j:
    consecutive ones take the recurrence C(i, j) = C(i-1, j) i / (i-j)
    and one more factor ac, and one after a run of zeros takes C(i, j)
    and ac**g whole; inf where a power overflows."""
    s = 0.0
    binom = 1.0
    power = 1.0
    top = j
    try:
        for i in compress(range(j, len(mags)), mags[j:]):
            if i == top + 1:
                binom = binom * i / (i - j)
                power *= ac
            elif i > top:
                binom = float(math.comb(i, j))
                power *= ac ** (i - top)
            top = i
            s += binom * mags[i] * power
    except OverflowError:
        return math.inf
    return s


def _refine_and_verify(mags: list[float], exact: DyadicPoly,
                       seed: complex, k: int) -> complex | None:
    """Refine a multiplicity-k root near seed; None if the hypothesis fails.

    The center update is Newton on p^(k-1), one exact pass each: it zeroes
    t_{k-1}, the first-order condition for the nearest polynomial with an
    exact multiplicity-k root at c.  Acceptance requires t_0 .. t_{k-1} to
    be coefficient-relatively negligible and t_k not (a deeper root than
    the group accounts for).  One pass gives t_j and (j+1)*t_{j+1}, so the
    test reads them two per pass and stops at the first that fails.
    """
    c = seed
    for _ in range(8):
        _, correction = _newton_pass(exact, c, k - 1)
        c = c - correction
        if abs(correction) <= 1e-16 * (1.0 + abs(c)):
            break
    ac = abs(c)
    for j in range(k + 1):
        if j % 2 == 0:
            t_j, slope = dyadic_value_and_slope(exact, c, j)
        else:  # (j*t_j) / j, exact
            t_j = Dyadic(slope.re // j, slope.im // j, slope.exp)
        small = (abs(t_j.to_complex())
                 <= VERIFY_TOL * _coefficient_scale(mags, ac, j))
        if small != (j < k):
            return None
    return c


def _resolve_group(mags: list[float], exact: DyadicPoly,
                   group: list[complex]) -> list[tuple[complex, int]]:
    """Descend multiplicity hypotheses k = |group| .. 2, else singletons."""
    if len(group) == 1:
        return [(_newton_polish(mags, exact, group[0]), 1)]
    center0 = _mean(group)
    for k in range(len(group), 1, -1):
        nearest = sorted(group, key=lambda p: abs(p - center0))[:k]
        center = _refine_and_verify(mags, exact, _mean(nearest), k)
        if center is None:
            continue
        rest = sorted(group, key=lambda p: abs(p - center))[k:]
        out = [(center, k)]
        for sub in _single_linkage(rest):
            out.extend(_resolve_group(mags, exact, sub))
        return out
    return [(_newton_polish(mags, exact, p), 1) for p in group]


def _table(roots: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """roots by location; a location listed twice, its multiplicity never
    tested, raises RootFindingError."""
    table = sorted(roots, key=lambda found: (found[0].real, found[0].imag))
    for (x, _), (y, _) in zip(table, table[1:]):
        if x == y:
            raise RootFindingError(
                f"the root table lists {EvenElement(x.real, x.imag)} twice")
    return table


def find_roots(coeffs: list[complex]) -> list[tuple[complex, int]]:
    """All roots with multiplicities of sum(coeffs[k] z^k), lead nonzero.

    Returns (location, multiplicity) pairs; multiplicities sum to the
    degree.  Raises RootFindingError when no consistent structure emerges.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        raise UsageError("root finding needs degree >= 1")
    lead = cs[-1]
    monic = [c / lead for c in cs]
    degree = len(monic) - 1
    try:
        raw = _aberth(monic)
    except OverflowError as err:  # a modulus beyond the double range
        raise _out_of_range(degree) from err
    if not all(map(cmath.isfinite, raw)):
        raise _out_of_range(degree)
    exact = dyadic_poly(monic)
    mags = [abs(c) for c in monic]
    try:
        firsts = _certify(exact, raw)
        roots = None
        if firsts is not None:
            try:
                roots = [(_newton_polish(mags, exact, x, first, VERIFY_TOL), 1)
                         for x, first in zip(raw, firsts)]
            except RootFindingError:
                pass  # a root the multiplicity test could merge, or unsettled
        if roots is None:
            roots = [root for group in _single_linkage(raw)
                     for root in _resolve_group(mags, exact, group)]
    except OverflowError as err:  # rounding an exact t_j or step
        raise RootFindingError(
            f"an exact Taylor coefficient of the degree-{degree} "
            f"polynomial at a root lies beyond the double range") from err
    return _table(roots)

