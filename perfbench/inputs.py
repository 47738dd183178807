"""Seeded inputs for the three workloads.

A workload is a fixed list of operation *slots* (one round).  Every slot
draws fresh parameters from the run's generator each round, so no
operation sees an input the run has already used; the order-ladder slots
are the one exception, since the ladder is centred at z = 1 by definition.
The same seed always yields the same inputs.  Nothing here imports dxdy.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import NamedTuple

#: degree-ladder rungs 1/(z^n + c); 16 is left out, see README.  n = 1, 2
#: root nothing worth timing and would pull the run's median latency down
#: onto the step between the n = 8 and n = 9 rungs
DEGREE_RUNGS = tuple(range(3, 16))
#: fresh c per degree rung and round; three draws of similar cost per rung
#: keep the run's median latency inside one rung's group instead of on the
#: step between two rungs, where it would jump from run to run
DEGREE_DRAWS = 3
#: order-ladder rungs z^(m-1)/(z-1)^m
ORDER_RUNGS = tuple(range(1, 14))
#: order-ladder rungs under differential_check (m = 8 takes seconds)
VERIFY_ORDER_RUNGS = tuple(range(1, 8))
#: pole orders of the planted rationals of a verify round, one per slot
PLANTED_ORDERS = ((1,), (3,), (1, 2), (2, 3), (1, 1, 1), (3, 2, 1))
#: real-line families, each drawn twice per verify round
REAL_LINE_FAMILIES = ("gap2", "gap4", "quartic", "osc")
REAL_LINE_DRAWS = 2


class Op(NamedTuple):
    kind: str
    params: dict


def _fmt(x: float) -> str:
    """A float as an expression literal; repr keeps every digit."""
    return repr(x) if x >= 0 else f"({x!r})"


def _fmt_complex(c: complex) -> str:
    return f"({c.real!r}+({c.imag!r})*I)"


def _point(c: complex) -> str:
    return f"{c.real!r},{c.imag!r}"


def _unit_disc_c(rng: random.Random) -> complex:
    """|c| in [0.5, 2], any phase."""
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))


def _scattered(rng: random.Random, count: int, half: float,
               gap: float) -> list[complex]:
    """count points in the square [-half, half]^2, pairwise >= gap apart."""
    points: list[complex] = []
    while len(points) < count:
        cand = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        if all(abs(cand - q) >= gap for q in points):
            points.append(cand)
    return points


def _away_from_zero(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# poles

def degree_text(n: int, c: complex) -> str:
    return f"1/(z^{n}+{_fmt_complex(c)})"


def order_text(m: int) -> str:
    return f"z^{m - 1}/(z-1)^{m}"


def poles_round(rng: random.Random) -> list[Op]:
    ops = [Op("degree", {"n": n, "c": _unit_disc_c(rng)})
           for _ in range(DEGREE_DRAWS) for n in DEGREE_RUNGS]
    ops += [Op("order", {"m": m}) for m in ORDER_RUNGS]
    return ops


def poles_warmup() -> list[Op]:
    return [Op("degree", {"n": n, "c": complex(0.9, 0.3)}) for n in (3, 4)] \
        + [Op("order", {"m": m}) for m in (1, 2, 3)]


# ---------------------------------------------------------------------------
# verify

def planted_rational(rng: random.Random, orders: tuple[int, ...]) -> dict:
    """Partial fractions sum_j sum_k a_jk/(z-p_j)^k and a circle around p_1.

    Poles p_j of the given orders lie pairwise >= 0.9 apart; the leading
    coefficients have |a_j,m_j| >= 0.3, so every order is exact.  The circle
    is centred at p_1 with radius half the distance to the nearest other
    pole (0.6 for a lone pole), so every other pole sits one radius outside
    the contour and the quadrature converges at the same rate every draw.
    """
    poles = _scattered(rng, len(orders), 1.5, 0.9)
    terms = []
    for p, order in zip(poles, orders):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(order - 1)]
        coeffs.append(cmath.rect(rng.uniform(0.3, 2.0),
                                 rng.uniform(-math.pi, math.pi)))
        terms.append((p, coeffs))          # coeffs[k-1] multiplies (z-p)^-k
    radius = 0.5 * min((abs(q - poles[0]) for q in poles[1:]), default=1.2)
    return {"terms": terms, "center": poles[0], "radius": radius}


def real_line_params(rng: random.Random, family: str) -> dict:
    """a in [0.5, 2]; for the oscillatory family |t| in [0.8, 1.25], either
    sign.  The oracle walks about 7000*sqrt(|t|) panels whatever a is, so
    the narrow |t| band keeps its cost within about 12 % of one draw."""
    a = rng.uniform(0.5, 2.0)
    t = _away_from_zero(rng, 0.8, 1.25) if family == "osc" else 0.0
    return {"family": family, "a": a, "t": t}


def real_line_text(params: dict) -> str:
    family, a = params["family"], _fmt(params["a"])
    if family == "gap2":
        return f"1/(x^2+{a}^2)"
    if family == "gap4":
        return f"1/(x^2+{a}^2)^2"
    if family == "quartic":
        return f"1/(x^4+{a}^4)"
    return f"exp(I*t*x)/(x^2+{a}^2)"


def verify_round(rng: random.Random) -> list[Op]:
    ops = [Op("verify_order", {"m": m}) for m in VERIFY_ORDER_RUNGS]
    ops += [Op("planted", planted_rational(rng, orders))
            for orders in PLANTED_ORDERS]
    ops += [Op("real_line", real_line_params(rng, family))
            for _ in range(REAL_LINE_DRAWS) for family in REAL_LINE_FAMILIES]
    return ops


def verify_warmup() -> list[Op]:
    rng = random.Random("verify-warmup")
    return [Op("verify_order", {"m": 1}),
            Op("planted", planted_rational(rng, (1, 2))),
            Op("real_line", {"family": "gap4", "a": 1.25, "t": 0.0})]


# ---------------------------------------------------------------------------
# session (CLI argument vectors)

def _residues(rng):
    c = _unit_disc_c(rng)
    return {"argv": ["residues", degree_text(3, c)], "c": c}


def _laurent(rng):
    c = _away_from_zero(rng, 0.3, 2.0)
    return {"argv": ["laurent", f"sin({_fmt(c)}*z)/z^3", "--center=0,0",
                     "--from=-3", "--to=6"], "c": c}


def _contour(rng):
    p, q = _scattered(rng, 2, 1.5, 0.8)
    around_p = rng.random() < 0.5
    center = p if around_p else q
    residue = 1 / (p - q) ** 2 if around_p else -1 / (q - p) ** 2
    text = f"1/((z-{_fmt_complex(p)})*(z-{_fmt_complex(q)})^2)"
    return {"argv": ["integrate-contour", text, f"--center={_point(center)}",
                     f"--radius={abs(p - q) / 2!r}"],
            "residues": [residue]}


def _line(rng, family):
    params = real_line_params(rng, family)
    argv = ["integrate-line", real_line_text(params)]
    if family == "osc":
        argv.append(f"--t={params['t']!r}")
    return {"argv": argv, **params}


def _cauchy(rng, family):
    n = rng.randint(0, 4)
    if family == "pole2":
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z0 = p + cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        text = f"1/(z-{_fmt_complex(p)})^2"
    else:
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        text = f"exp({_fmt_complex(p)}*z)"
    return {"argv": ["cauchy", text, f"--at={_point(z0)}", f"--n={n}"],
            "family": family, "p": p, "z0": z0, "n": n}


def _classify(rng, verdict):
    if verdict == "closed_and_CR":
        # w dx for w = alpha z^2 + beta z: k = Re w, g = -Im w
        ar, ai, br, bi = (rng.uniform(-2, 2) for _ in range(4))
        k = (f"{_fmt(ar)}*(x^2-y^2)-2*{_fmt(ai)}*x*y"
             f"+{_fmt(br)}*x-{_fmt(bi)}*y")
        g = (f"0-({_fmt(ai)}*(x^2-y^2)+2*{_fmt(ar)}*x*y"
             f"+{_fmt(bi)}*x+{_fmt(br)}*y)")
    elif verdict == "closed_only":
        # gradient of a x^2 + b y^2 + c x y with a + b >= 1, so never CR
        a, b, c = rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(-2, 2)
        k = f"2*{_fmt(a)}*x+{_fmt(c)}*y"
        g = f"{_fmt(c)}*x+2*{_fmt(b)}*y"
    else:
        # k_y - g_x = -2b with |b| >= 0.5
        a, b, d = rng.uniform(-2, 2), _away_from_zero(rng, 0.5, 2), rng.uniform(-2, 2)
        k = f"{_fmt(a)}*x-{_fmt(b)}*y"
        g = f"{_fmt(b)}*x+{_fmt(d)}*y"
    return {"argv": ["classify", f"--k={k}", f"--g={g}"], "verdict": verdict}


SESSION_SLOTS = (
    ("residues", _residues),
    ("laurent", _laurent),
    ("integrate-contour", _contour),
    ("integrate-line", lambda rng: _line(rng, "gap2")),
    ("integrate-line", lambda rng: _line(rng, "gap4")),
    ("integrate-line", lambda rng: _line(rng, "osc")),
    ("cauchy", lambda rng: _cauchy(rng, "pole2")),
    ("cauchy", lambda rng: _cauchy(rng, "exp")),
    ("classify", lambda rng: _classify(rng, "closed_and_CR")),
    ("classify", lambda rng: _classify(rng, "closed_only")),
    ("classify", lambda rng: _classify(rng, "not_closed")),
    ("check", lambda rng: {"argv": ["check"]}),
)


def session_round(rng: random.Random) -> list[Op]:
    return [Op(verb, make(rng)) for verb, make in SESSION_SLOTS]


def session_warmup() -> list[Op]:
    return session_round(random.Random("session-warmup"))


ROUNDS = {"poles": poles_round, "verify": verify_round,
          "session": session_round}
WARMUPS = {"poles": poles_warmup, "verify": verify_warmup,
           "session": session_warmup}


def make_rounds(workload: str, seed: int, count: int,
                stream: str = "main") -> list[list[Op]]:
    """``count`` rounds of a workload; ``stream`` separates independent
    input sets drawn from the same seed."""
    rng = random.Random(f"{workload}/{seed}/{stream}")
    return [ROUNDS[workload](rng) for _ in range(count)]
