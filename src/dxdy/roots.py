"""Simultaneous polynomial root finding with multiplicity recovery.

Durand-Kerner iteration produces raw approximations for every root at once.
Approximations belonging to a multiple root scatter on a ring of radius
roughly eps**(1/m) (both iteration noise and coefficient rounding split a
multiplicity-m root by that much), so raw distances alone cannot decide
multiplicities.  The pipeline is therefore:

1. raw Durand-Kerner roots;
2. single-linkage grouping with a multiplicity-aware radius that follows the
   eps**(1/k) scatter law;
3. per group, a structural hypothesis test on the exact Taylor
   coefficients t_j at the refined center: the group of k approximations is
   accepted as one multiplicity-k root iff the polynomial is,
   coefficient-relatively, close to one with an exact multiplicity-k root
   there.  Failed groups are split and retried with tighter radii.

Centers of accepted groups start from the group mean (first-order scatter
cancels around a multiple root) and are refined with a Newton step on
t_{k-1}, so reported locations do not inherit the scatter; simple roots get
plain Newton steps.  The monic coefficients and every iterate are doubles,
hence dyadic: p, p' and the t_j come exact from ``exactmath``'s Gaussian
integer Taylor shift, and each step or test value is rounded once from the
exact rational.
"""

from __future__ import annotations

import cmath
import math

from .exactmath import (DyadicPoly, dyadic_poly, dyadic_ratio,
                        dyadic_taylor_shift)

#: two polished roots closer than this (times 1 + |root|) are the same root
CLUSTER_TOL = 1e-7

#: coefficient-relative distance to the nearest polynomial carrying the
#: hypothesised multiple root; clusters failing this are split
VERIFY_TOL = 1e-5

#: linkage radius for a k-group is max(CLUSTER_TOL, KAPPA**(1/k))
KAPPA = 1e-10

_DK_MAX_ITER = 600
_NEWTON_MAX_ITER = 24


class RootFindingError(RuntimeError):
    """The iteration did not converge to a consistent root structure."""


def _durand_kerner(coeffs: list[complex]) -> list[complex]:
    """Raw simultaneous roots of a monic polynomial (ascending coeffs)."""
    n = len(coeffs) - 1
    bound = 1.0 + max(abs(c) for c in coeffs[:-1])
    # circle start with an irrational phase offset to dodge symmetry traps
    xs = [0.6 * bound * cmath.exp(1j * (2.0 * math.pi * k / n + 0.3923))
          for k in range(n)]
    descending = coeffs[::-1]
    plateau = 0
    best = math.inf
    for _ in range(_DK_MAX_ITER):
        delta = 0.0
        scale = 1.0
        for i in range(n):
            xi = xs[i]
            den = 1.0 + 0j
            for x in xs[:i]:
                den *= xi - x
            for x in xs[i + 1:]:
                den *= xi - x
            if den == 0:
                xs[i] = xi + 1e-8 * (1 + abs(xi)) * cmath.exp(1j * (i + 0.5))
                delta = math.inf
                continue
            value = 0j
            for c in descending:
                value = value * xi + c
            step = value / den
            xi -= step
            xs[i] = xi
            if abs(step) > delta:
                delta = abs(step)
            if abs(xi) > scale:
                scale = abs(xi)
        if delta <= 5e-15 * scale:
            break
        # multiple roots stall at their noise floor; hand over to clustering
        if delta < best * 0.5:
            best = delta
            plateau = 0
        else:
            plateau += 1
            if plateau >= 25 and delta < 1e-5 * scale:
                break
    return xs


def _link_radius(degree: int, magnitude: float) -> float:
    # the widest a multiplicity cluster can scatter is the degree-m law
    return (1.0 + magnitude) * max(CLUSTER_TOL, KAPPA ** (1.0 / degree))


def _single_linkage(points: list[complex], degree: int) -> list[list[complex]]:
    """Repeatedly merge the closest pair of groups within the linkage radius."""
    groups = [[p] for p in points]
    while len(groups) > 1:
        best = None
        best_d = math.inf
        for i in range(len(groups)):
            ci = _mean(groups[i])
            for j in range(i + 1, len(groups)):
                d = abs(ci - _mean(groups[j]))
                mag = abs(_mean(groups[i] + groups[j]))
                if d <= _link_radius(degree, mag) and d < best_d:
                    best_d = d
                    best = (i, j)
        if best is None:
            break
        i, j = best
        groups[i] = groups[i] + groups[j]
        del groups[j]
    return groups


def _mean(points: list[complex]) -> complex:
    return sum(points) / len(points)


def _newton_polish(exact: DyadicPoly, x0: complex) -> complex:
    """Plain Newton with exact evaluation; quadratic for simple roots."""
    x = x0
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = dyadic_taylor_shift(exact, x, 2)
        if p.is_zero():
            return x
        if dp.is_zero():
            return x
        step = dyadic_ratio(p, dp)
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def _coefficient_scales(coeffs: list[complex], c: complex) -> list[float]:
    """Magnitude scale of each shifted Taylor coefficient at c."""
    n = len(coeffs)
    mags = [abs(ci) for ci in coeffs]
    ac = abs(c)
    scales = []
    for j in range(n):
        s = 0.0
        binom = 1.0
        power = 1.0
        for i in range(j, n):
            if i > j:
                binom = binom * i / (i - j)
                power *= ac
            s += binom * mags[i] * power
        scales.append(s)
    top = max(mags)
    return [s if s > 0.0 else top for s in scales]


def _refine_and_verify(coeffs: list[complex], exact: DyadicPoly,
                       seed: complex, k: int) -> complex | None:
    """Refine a multiplicity-k root near seed; None if the hypothesis fails.

    The center update zeroes the Taylor coefficient t_{k-1}, which is the
    first-order condition for the nearest polynomial with an exact
    multiplicity-k root at c; acceptance requires every t_j below the
    hypothesised order to be coefficient-relatively negligible.
    """
    c = seed
    for _ in range(8):
        t = dyadic_taylor_shift(exact, c, k + 1)
        if t[k].is_zero():
            return None
        correction = dyadic_ratio(t[k - 1], t[k], k)
        if not (math.isfinite(correction.real) and math.isfinite(correction.imag)):
            return None
        c = c - correction
        if abs(correction) <= 1e-16 * (1.0 + abs(c)):
            break
    t = dyadic_taylor_shift(exact, c, k + 1)
    scales = _coefficient_scales(coeffs, c)
    for j in range(k):
        if abs(t[j].to_complex()) > VERIFY_TOL * scales[j]:
            return None
    if abs(t[k].to_complex()) <= VERIFY_TOL * scales[k]:
        # would be a deeper multiple root than the group accounts for
        return None
    return c


def _resolve_group(coeffs: list[complex], exact: DyadicPoly,
                   group: list[complex]) -> list[tuple[complex, int]]:
    """Descend multiplicity hypotheses k = |group| .. 2, else singletons."""
    if len(group) == 1:
        return [(_newton_polish(exact, group[0]), 1)]
    center0 = _mean(group)
    for k in range(len(group), 1, -1):
        nearest = sorted(group, key=lambda p: abs(p - center0))[:k]
        center = _refine_and_verify(coeffs, exact, _mean(nearest), k)
        if center is None:
            continue
        rest = sorted(group, key=lambda p: abs(p - center))[k:]
        out = [(center, k)]
        degree = len(coeffs) - 1
        for sub in _single_linkage(rest, degree):
            out.extend(_resolve_group(coeffs, exact, sub))
        return out
    return [(_newton_polish(exact, p), 1) for p in group]


def find_roots(coeffs: list[complex]) -> list[tuple[complex, int]]:
    """All roots with multiplicities of sum(coeffs[k] z^k), lead nonzero.

    Returns (location, multiplicity) pairs; multiplicities sum to the
    degree.  Raises RootFindingError when no consistent structure emerges.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        raise ValueError("root finding needs degree >= 1")
    lead = cs[-1]
    monic = [c / lead for c in cs]
    degree = len(monic) - 1
    raw = _durand_kerner(monic)
    exact = dyadic_poly(monic)
    found: list[tuple[complex, int]] = []
    for group in _single_linkage(raw, degree):
        found.extend(_resolve_group(monic, exact, group))
    # authoritative merge of polished locations
    merged: list[tuple[complex, int]] = []
    for loc, mult in sorted(found, key=lambda rm: (rm[0].real, rm[0].imag)):
        for idx, (mloc, mmult) in enumerate(merged):
            if abs(loc - mloc) <= CLUSTER_TOL * (1.0 + abs(mloc)):
                total = mmult + mult
                merged[idx] = ((mloc * mmult + loc * mult) / total, total)
                break
        else:
            merged.append((loc, mult))
    if sum(m for _, m in merged) != degree:
        raise RootFindingError(
            f"recovered multiplicities sum to "
            f"{sum(m for _, m in merged)}, expected {degree}")
    return merged
