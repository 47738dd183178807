#!/usr/bin/env python3
"""Differential sweep: random rational integrands vs direct quadrature.

Generates random rational functions with planted pole structure, integrates
them around circles through the residue route, and checks every value
against the independent trapezoid oracle.  Each case also draws one
real-line integrand (poles at least 0.2 off the axis, degree gap 2, an
exp(I*t*x) factor half of the time) and checks its half-plane closure
against the real-line oracle.  Prints a summary and the worst observed
discrepancies.  A failing contour case whose poles come back with other
orders than the planted ones prints both, e.g. "planted orders [3, 4×2],
found [3, 1×8]".

    python scripts/random_sweep.py --count 200 --seed 7 --tol 1e-7
"""

import argparse
import math
import random
import sys

from dxdy.algebra import even
from dxdy.contours import CircleContour, integrate_real_line
from dxdy.functions import EntireFactor, MeromorphicFunction, Pole, find_poles
from dxdy.oracle import (QuadratureError, differential_check,
                         real_line_quadrature)
from dxdy.polynomials import ONE_POLY, Polynomial, Z_POLY
from dxdy.roots import RootFindingError


def planted_rational(rng: random.Random, max_poles: int, max_order: int):
    while True:
        count = rng.randint(1, max_poles)
        locations = []
        while len(locations) < count:
            cand = even(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(cand - o) > 0.9 for o in locations):
                locations.append(cand)
        den = ONE_POLY
        orders = []
        for loc in locations:
            order = rng.randint(1, max_order)
            orders.append(order)
            factor = Z_POLY - Polynomial.constant(loc)
            for _ in range(order):
                den = den * factor
        num = Polynomial.from_coeffs(
            [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(max(1, den.degree))])
        if num.is_zero():
            continue
        if any(abs(num(loc)) < 1e-2 * num.max_coeff() for loc in locations):
            continue
        poles = [Pole(loc, order) for loc, order in zip(locations, orders)]
        return MeromorphicFunction(num, den), poles


def planted_axis_integrand(rng: random.Random, max_poles: int,
                           max_order: int) -> MeromorphicFunction:
    while True:
        den = ONE_POLY
        locations = []
        for _ in range(rng.randint(1, max_poles)):
            cand = even(rng.uniform(-2, 2),
                        rng.choice((-1, 1)) * rng.uniform(0.2, 2))
            if all(abs(cand - o) > 0.9 for o in locations):
                locations.append(cand)
                linear = Z_POLY - Polynomial.constant(cand)
                for _ in range(rng.randint(1, max_order)):
                    den = den * linear
        if den.degree < 2:
            continue
        num = Polynomial.from_coeffs(
            [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(den.degree - 1)])
        if num.is_zero():
            continue
        factor = None
        if rng.random() < 0.5:
            t = rng.choice((-1, 1)) * rng.uniform(0.5, 2)
            factor = EntireFactor("exp", even(0, t))
        return MeromorphicFunction(num, den, factor)


def order_structure(poles) -> str:
    """Pole orders in location order, a run of equal orders as order×count."""
    runs: list[list[int]] = []
    for p in sorted(poles, key=lambda p: (p.location.u, p.location.v)):
        if runs and runs[-1][0] == p.order:
            runs[-1][1] += 1
        else:
            runs.append([p.order, 1])
    return "[" + ", ".join(f"{order}×{count}" if count > 1 else f"{order}"
                           for order, count in runs) + "]"


def check_real_line(f: MeromorphicFunction, tol: float) -> float:
    """Scaled gap between the half-plane closure and the axis oracle."""
    symbolic = integrate_real_line(f).real_value
    oracle = real_line_quadrature(f, tol=1e-2 * tol)
    return abs(symbolic - oracle) / (1.0 + abs(symbolic))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-7)
    parser.add_argument("--max-poles", type=int, default=3)
    parser.add_argument("--max-order", type=int, default=4)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    axis_rng = random.Random(f"{args.seed}/axis")
    failures = 0
    worst = 0.0
    worst_case = None
    line_failures = 0
    line_worst = 0.0
    for index in range(args.count):
        f, poles = planted_rational(rng, args.max_poles, args.max_order)
        pole = poles[rng.randrange(len(poles))]
        others = [p.location for p in poles if p is not pole]
        nearest = min([abs(pole.location - o) for o in others], default=2.0)
        contour = CircleContour(pole.location, 0.4 * min(nearest, 2.0))
        report = differential_check(f, contour, tol=args.tol)
        spread = report.difference / (1.0 + abs(report.symbolic))
        if spread > worst:
            worst = spread
            worst_case = (index, report)
        if not report.passed:
            failures += 1
            print(f"FAIL case {index}: residue route {report.symbolic!r}, "
                  f"oracle {report.quadrature!r}, diff {report.difference:g}")
            found = find_poles(f)
            if sorted(p.order for p in found) != sorted(p.order for p in poles):
                print(f"    planted orders {order_structure(poles)}, "
                      f"found {order_structure(found)}")
        g = planted_axis_integrand(axis_rng, args.max_poles, args.max_order)
        try:
            spread = check_real_line(g, args.tol)
        except (QuadratureError, RootFindingError) as err:
            spread, reason = math.inf, f"{type(err).__name__}: {err}"
        else:
            reason = f"scaled diff {spread:g}"
        line_worst = max(line_worst, spread)
        if not spread <= args.tol:
            line_failures += 1
            print(f"FAIL real-line case {index}: {reason}")
    print(f"{args.count - failures}/{args.count} cases within "
          f"{args.tol:g} (scaled)")
    print(f"{args.count - line_failures}/{args.count} real-line cases within "
          f"{args.tol:g} (scaled); worst {line_worst:.3e}")
    if worst_case is not None:
        index, report = worst_case
        print(f"worst case {index}: diff {report.difference:.3e} on value "
              f"{report.symbolic:.6g} (defect diff "
              f"{report.defect_difference:.3e})")
    print(f"worst scaled discrepancy: {worst:.3e}")
    return 0 if failures == 0 and line_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
