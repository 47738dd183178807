"""Shared test utilities: even-element comparison, random meromorphic
function generation with planted pole structure, and a plain tree walk as
the reference for compiled expressions."""

from __future__ import annotations

import math
import random

from dxdy import expressions as ex
from dxdy.algebra import (E_DXDY, EvenElement, even, even_cos, even_exp,
                          even_int_pow, even_sin)
from dxdy.functions import MeromorphicFunction, Pole
from dxdy.polynomials import ONE_POLY, Polynomial, Z_POLY


def even_close(a: EvenElement, b: EvenElement, rel: float = 0.0,
               abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def poly_from_roots(pairs: list[tuple[EvenElement, int]]) -> Polynomial:
    """Monic polynomial with the given (root, multiplicity) structure."""
    p = ONE_POLY
    for root, mult in pairs:
        factor = Z_POLY - Polynomial.constant(root)
        for _ in range(mult):
            p = p * factor
    return p


def random_even(rng: random.Random, span: float = 2.0) -> EvenElement:
    return even(rng.uniform(-span, span), rng.uniform(-span, span))


def random_planted_rational(rng: random.Random,
                            max_poles: int = 2,
                            max_order: int = 4,
                            min_separation: float = 0.9,
                            span: float = 2.0,
                            min_axis_distance: float = 0.0,
                            min_residue_v: float = 0.0,
                            ) -> tuple[MeromorphicFunction, list[Pole]]:
    """Random rational function n/d with well-separated planted poles.

    The numerator is resampled until it is comfortably nonzero at every
    pole and the residues are not accidentally tiny, so relative
    comparisons across residue routes stay meaningful; ``min_residue_v``
    additionally floors the dxdy-component when a test compares against a
    contour value proportional to it.
    """
    from dxdy.residues import residue

    while True:
        n_poles = rng.randint(1, max_poles)
        locations: list[EvenElement] = []
        attempts = 0
        while len(locations) < n_poles and attempts < 200:
            attempts += 1
            cand = random_even(rng, span)
            if abs(cand.v) < min_axis_distance:
                continue
            if all(abs(cand - o) > min_separation for o in locations):
                locations.append(cand)
        if len(locations) < n_poles:
            continue
        orders = [rng.randint(1, max_order) for _ in locations]
        den = poly_from_roots(list(zip(locations, orders)))
        num = Polynomial.from_coeffs(
            [random_even(rng) for _ in range(max(1, den.degree))])
        if num.is_zero():
            continue
        scale = num.max_coeff()
        if any(abs(num(loc)) < 1e-2 * scale for loc in locations):
            continue
        f = MeromorphicFunction(num, den)
        poles = [Pole(loc, order) for loc, order in zip(locations, orders)]
        residues = [residue(f, p) for p in poles]
        if any(abs(r) < 1e-3 for r in residues):
            continue
        if min_residue_v and any(abs(r.v) < min_residue_v for r in residues):
            continue
        return f, sorted(poles, key=lambda p: (p.location.u, p.location.v))


_REFERENCE_CALLS = {"exp": even_exp, "sin": even_sin, "cos": even_cos}


def reference_evaluate(e: ex.Expr, env: dict[str, EvenElement]) -> EvenElement:
    """Evaluate an expression tree node by node, on every call.

    The walk ``expressions.evaluate`` did before it compiled trees: the
    compiled closures must give the same bits and raise at the same inputs.
    """
    if isinstance(e, ex.Num):
        return even(e.value)
    if isinstance(e, ex.Sym):
        if e.name == "I":
            return E_DXDY
        if e.name == "pi":
            return even(math.pi)
        if e.name in env:
            return env[e.name]
        raise ex.ParseError(f"unbound symbol {e.name!r}")
    if isinstance(e, ex.Neg):
        return -reference_evaluate(e.operand, env)
    if isinstance(e, ex.BinOp):
        a = reference_evaluate(e.left, env)
        b = reference_evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, ex.Pow):
        return even_int_pow(reference_evaluate(e.base, env), e.exponent)
    if isinstance(e, ex.Call):
        return _REFERENCE_CALLS[e.func](reference_evaluate(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")
