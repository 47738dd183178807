"""Independent truth for every benchmark operation.

Nothing here imports dxdy.  Each expected value comes from a closed form or
from plain ``cmath`` arithmetic on the generated parameters, so a check can
only pass when the program agrees with mathematics, not with a saved copy
of its own earlier output.

Every ``check_*`` function returns ``None`` when the output is right and a
short description of the first disagreement otherwise.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi

#: relative agreement asked of residues, derivatives and contour values
REL_TOL = 1e-8

#: a real-line quadrature at tolerance ``tol`` must land within
#: ``QUAD_SLACK * tol`` of the closed form
QUAD_SLACK = 10.0


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


def _first_miss(pairs, what: str, tol: float = REL_TOL) -> str | None:
    for label, got, want in pairs:
        if not _close(got, want, tol):
            return f"{what} {label}: got {got!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------------
# poles: degree ladder 1/(z^n + c)

def nth_roots_of_minus(c: complex, n: int) -> list[complex]:
    """The n roots w of w^n = -c."""
    r = abs(c) ** (1.0 / n)
    phase = cmath.phase(-c)
    return [cmath.rect(r, (phase + TWO_PI * k) / n) for k in range(n)]


def check_degree_residues(n: int, c: complex,
                          poles: list[tuple[complex, int, complex]]
                          ) -> str | None:
    """Poles of 1/(z^n + c) are the n roots w, each simple, residue -w/(n c)."""
    if len(poles) != n:
        return f"expected {n} poles, got {len(poles)}"
    unmatched = nth_roots_of_minus(c, n)
    pairs = []
    for loc, order, res in poles:
        if order != 1:
            return f"pole at {loc!r} has order {order}, want 1"
        w = min(unmatched, key=lambda root: abs(root - loc))
        unmatched.remove(w)
        pairs.append((f"location near {w!r}", loc, w))
        pairs.append((f"residue at {w!r}", res, -w / (n * c)))
    return _first_miss(pairs, "degree ladder")


# ---------------------------------------------------------------------------
# order ladder z^(m-1)/(z-1)^m around |z-1| = 0.5

def check_order_ladder(m: int, value: float, defect: float,
                       poles: list[tuple[complex, int, tuple[complex, ...]]]
                       ) -> str | None:
    """One pole at 1 of order m; residue 1 on every route; value 0, defect 2pi.

    ``poles`` holds (location, order, (series, reduction, derivative)).
    """
    if len(poles) != 1:
        return f"expected one pole of order {m}, got orders " \
               f"{[order for _, order, _ in poles]}"
    loc, order, routes = poles[0]
    if order != m:
        return f"pole order {order}, want {m}"
    pairs = [("location", loc, 1.0), ("value", value, 0.0),
             ("defect", defect, TWO_PI)]
    pairs += [(f"residue route {i}", r, 1.0) for i, r in enumerate(routes)]
    return _first_miss(pairs, f"order ladder m={m}")


# ---------------------------------------------------------------------------
# contour integrals of planted partial fractions

def contour_integral(residues_inside: list[complex]) -> complex:
    """Classical integral of f dz: 2 pi i times the enclosed residue sum."""
    return 2j * math.pi * sum(residues_inside, 0j)


def check_contour(want: complex, value: float, defect: float,
                  what: str = "contour") -> str | None:
    """The real value is Re(2 pi i sum), the imaginary defect Im(...)."""
    return _first_miss([("value", value, want.real),
                        ("defect", defect, want.imag)], what)


def check_differential(want: complex, symbolic: float, quadrature: float,
                       defect_symbolic: float, defect_quadrature: float,
                       tol: float) -> str | None:
    """Both routes of a differential check, value and defect, against truth."""
    return _first_miss([("symbolic value", symbolic, want.real),
                        ("quadrature value", quadrature, want.real),
                        ("symbolic defect", defect_symbolic, want.imag),
                        ("quadrature defect", defect_quadrature, want.imag)],
                       "differential check", tol)


# ---------------------------------------------------------------------------
# real-line families

def real_line_value(family: str, a: float, t: float = 0.0) -> float:
    """Closed forms of the four real-line families."""
    if family == "gap2":        # 1/(x^2+a^2)
        return math.pi / a
    if family == "gap4":        # 1/(x^2+a^2)^2
        return math.pi / (2.0 * a ** 3)
    if family == "quartic":     # 1/(x^4+a^4); pi/sqrt(2) at a = 1
        return math.pi / (math.sqrt(2.0) * a ** 3)
    if family == "osc":         # exp(I*t*x)/(x^2+a^2); pi e^-|t| at a = 1
        return math.pi * math.exp(-abs(t) * a) / a
    raise ValueError(f"unknown real-line family {family!r}")


def check_real_line(want: float, symbolic: float, defect: float,
                    quadrature: float | None = None,
                    quad_tol: float = 0.0) -> str | None:
    """Symbolic value and zero defect; the quadrature to its own tolerance."""
    miss = _first_miss([("symbolic value", symbolic, want),
                        ("defect", defect, 0.0)], "real line")
    if miss is None and quadrature is not None:
        if abs(quadrature - want) > QUAD_SLACK * quad_tol:
            miss = (f"real line quadrature: got {quadrature!r}, want "
                    f"{want!r} within {QUAD_SLACK * quad_tol:g}")
    return miss


# ---------------------------------------------------------------------------
# session verbs

def laurent_sin_coefficient(c: float, n: int) -> float:
    """a_n of sin(c z)/z^3 about 0: (-1)^k c^(2k+1)/(2k+1)! at n = 2k-2."""
    if n < -2 or n % 2:
        return 0.0
    k = (n + 2) // 2
    return (-1) ** k * c ** (2 * k + 1) / math.factorial(2 * k + 1)


def check_laurent(c: float, coefficients: list[tuple[int, complex]]
                  ) -> str | None:
    return _first_miss(
        [(f"a_{n}", got, laurent_sin_coefficient(c, n))
         for n, got in coefficients], f"laurent sin({c!r} z)/z^3")


def cauchy_derivative(family: str, p: complex, z0: complex, n: int
                      ) -> complex:
    """n-th derivative at z0 of 1/(z-p)^2 ("pole2") or exp(p z) ("exp")."""
    if family == "pole2":
        return (-1) ** n * math.factorial(n + 1) / (z0 - p) ** (n + 2)
    if family == "exp":
        return p ** n * cmath.exp(p * z0)
    raise ValueError(f"unknown cauchy family {family!r}")


def check_cauchy(want: complex, got: complex) -> str | None:
    return _first_miss([("derivative", got, want)], "cauchy")


def check_classification(want: str, got: str) -> str | None:
    return None if got == want else f"classify: got {got!r}, want {want!r}"


def check_regression(results: list[tuple[str, bool]]) -> str | None:
    failed = [name for name, passed in results if not passed]
    if not results:
        return "check: no results"
    return f"check: failed {failed}" if failed else None
