"""Shared test utilities: even-element comparison, random meromorphic
function generation with planted pole structure, and independent
references: the inverse, integer power and entire kernels written on
EvenElement, and a plain tree walk over them for compiled expressions."""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

from dxdy import expressions as ex
from dxdy.algebra import EvenElement, even, even_mul, format_even
from dxdy.errors import RangeError
from dxdy.functions import MeromorphicFunction, Pole
from dxdy.polynomials import ONE_POLY, Polynomial, Z_POLY

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SWEEP_SCRIPT = SCRIPTS / "random_sweep.py"


def script_module(name: str):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_module():
    """scripts/random_sweep.py, imported as a module."""
    return script_module(SWEEP_SCRIPT.stem)


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


def gaussian_monic_denominators(seed: int = 11, count: int = 200):
    """Monic polynomials of degree 2-30 with standard Gaussian complex
    coefficients; many have roots outside the unit disk."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 30)
        yield Polynomial.from_coeffs(
            [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
            + [1])


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


def reference_inv(x: EvenElement) -> EvenElement:
    """conj(x)/|x|^2 on EvenElement: the reference for ``complex_inv``."""
    n = x.norm_sq()
    if ((n == 0.0 or n == math.inf)
            and math.isfinite(x.u) and math.isfinite(x.v)):
        if x.is_zero():
            raise ZeroDivisionError("inverse of the zero even element")
        # |x|^2 left the double range; a power-of-two scale brings it back
        s = 2.0 ** (600 if n == 0.0 else -600)
        return reference_inv(x * s) * s
    return EvenElement(x.u / n, -x.v / n)


def reference_int_pow(x: EvenElement, m: int) -> EvenElement:
    """x**m by binary powering on EvenElement, m < 0 inverting first: the
    reference for ``complex_int_pow``."""
    if m < 0:
        return reference_int_pow(reference_inv(x), -m)
    result = even(1.0)
    base = x
    while True:
        if m & 1:
            result = even_mul(result, base)
        m >>= 1
        if not m:  # the next square would go unused
            return result
        base = even_mul(base, base)


def _reference_entire(name, parts):
    def kernel(x: EvenElement) -> EvenElement:
        try:
            return EvenElement(*parts(x.u, x.v))
        except (OverflowError, ValueError):
            raise RangeError(f"{name}({format_even(complex(x))}) lies "
                             f"beyond the double range") from None
    return kernel


#: exp, sin and cos of u + v*dxdy on EvenElement
REFERENCE_CALLS = {
    "exp": _reference_entire("exp", lambda u, v: (
        math.exp(u) * math.cos(v), math.exp(u) * math.sin(v))),
    "sin": _reference_entire("sin", lambda u, v: (
        math.sin(u) * math.cosh(v), math.cos(u) * math.sinh(v))),
    "cos": _reference_entire("cos", lambda u, v: (
        math.cos(u) * math.cosh(v), -math.sin(u) * math.sinh(v))),
}


def reference_evaluate(e: ex.Expr, env: dict[str, EvenElement]) -> EvenElement:
    """Evaluate an expression tree node by node on EvenElement, every call.

    The reference for compiled trees, which run on float pairs: they must
    give the same bits and raise at the same inputs.
    """
    if isinstance(e, ex.Num):
        return even(e.value)
    if isinstance(e, ex.Sym):
        if e.name == "I":
            return even(0.0, 1.0)
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
        return even_mul(a, reference_inv(b))
    if isinstance(e, ex.Pow):
        return reference_int_pow(reference_evaluate(e.base, env), e.exponent)
    if isinstance(e, ex.Call):
        return REFERENCE_CALLS[e.func](reference_evaluate(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


#: tables whose roots find_poles' residual check refuses: z^2 + 1e-300,
#: whose roots are polished near +-1e-150i but not onto them; roots near
#: +-4.7e-18 beside one near 4.7e36; and coefficients from 1e-54 to 1e38,
#: whose table holds a root at 0 where p(0) is 3.7e-44
ILL_CONDITIONED = (
    [1e-300 + 0j, 0j, 1 + 0j],
    [103.22843768735174 - 4.095392554173994j,
     -7.83437627339637e-34 - 1.010697633486764e-33j,
     1.44057372466962e+36 - 4.443394519571875e+36j, 1 + 0j],
    [3.0677751310322324e-44 + 2.0895160488768345e-44j,
     5.601302054165971e+37 - 9.930526026349237e+37j,
     5.587837006293008e-54 - 1.25250425022231e-54j,
     -6.19914631615057e+36 + 3.510259984944766e+36j,
     -3.495313525892368e+35 - 2.4326436561467153e+35j, 1 + 0j])
