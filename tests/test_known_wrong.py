"""The ledger of answers known to be wrong.

Each entry names the ROADMAP item meant to fix it.  The sweep cases must
fail exactly as listed, and each CLI case is a strict xfail against its
closed form, so a fix has to remove its entry and a new wrong answer
fails the suite.  The tolerance is the sweep's own, 1e-7 scaled.  Cases
that exit 1 instead of giving their closed form come last, each pinned
to its error.
"""

import json
import math
import re

import pytest

from dxdy.cli import main

from helpers import sweep_module

#: random_sweep.py --count 200 contour cases that fail, by (seed, case): in
#: each the planted multiple roots come back as clusters of simple roots,
#: or as an error
SWEEP_LEDGER = {
    (0, 4): "items 1 and 2: planted [3, 4×2], found [3, 1×8]",
    (1, 11): "items 1 and 2: planted [3×3], found [3×2, 1×3]",
    (3, 41): "items 1 and 2: planted [4×3], found [4×2, 1×4]",
    (10, 71): "item 1: planted [4, 3, 4]; a cloud point's Newton polish "
              "does not settle (RootFindingError)",
    (13, 66): "items 1 and 2: planted [4×3], found [1×12]",
    (13, 127): "items 1 and 2: planted [3, 2, 4], found [1×3, 2, 4]",
}

TOL = 1e-7


@pytest.mark.parametrize("seed", sorted({seed for seed, _ in SWEEP_LEDGER}))
def test_sweep_fails_exactly_the_ledger(seed, capsys):
    sweep_module().main(["--count", "200", "--seed", str(seed)])
    out = capsys.readouterr().out
    failed = {int(n) for n in re.findall(r"^FAIL case (\d+):", out, re.M)}
    assert failed == {case for s, case in SWEEP_LEDGER if s == seed}
    assert "FAIL real-line" not in out


def known_wrong(reason):
    """A strict xfail that only a failed check against the truth meets."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _run(capsys, *argv):
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _close(value, truth):
    return abs(value - truth) <= TOL * (1.0 + abs(truth))


def _pole_pair(capsys, text, d, orders):
    """Poles at 1 and 1 + d with the given orders and residues -+1/d**k,
    k the order of the pole at 1."""
    poles = sorted(_run(capsys, "residues", text)["poles"],
                   key=lambda p: p["location"])
    truth = 1.0 / d ** orders[0]
    assert [p["order"] for p in poles] == orders
    assert all(_close(p["location"][0], x) and p["location"][1] == 0.0
               for p, x in zip(poles, (1.0, 1.0 + d)))
    assert all(_close(p["residue"][0], r) and _close(p["residue"][1], 0.0)
               for p, r in zip(poles, (-truth, truth)))


@known_wrong("item 1: the triple roots split as [1, 1, 1] per half-plane; "
             "gives 2.855e7")
def test_integrate_line_of_a_triple_pair(capsys):
    doc = _run(capsys, "integrate-line", "1/((x-3)^2+0.01)^3")
    assert _close(doc["value"], 3 * math.pi / (8 * 0.1 ** 5))


@known_wrong("item 1: one order-2 pole at 1.0000005 with residue 0")
def test_residues_of_a_near_simple_pair(capsys):
    _pole_pair(capsys, "1/((z-1)*(z-1.000001))", 1.000001 - 1.0, [1, 1])


@known_wrong("item 1: one order-3 pole with residue 0")
def test_residues_of_a_double_pole_beside_a_simple_one(capsys):
    _pole_pair(capsys, "1/((z-1)^2*(z-1.0001))", 1.0001 - 1.0, [2, 1])


@known_wrong("item 6: normalize_rational cancels the root within "
             "CANCEL_TOL; a_{-3} comes out 0")
def test_laurent_keeps_a_near_cancelled_root(capsys):
    doc = _run(capsys, "laurent", "(z-1-1e-10)/(z-1)^3", "--center", "1,0",
               "--from", "-3", "--to", "-1")
    # the numerator's root as parsed: 1 + 1e-10 rounded to a double
    eps = (1.0 + 1e-10) - 1.0
    a_minus_3 = doc["coefficients"][0]
    assert a_minus_3["exponent"] == -3
    assert abs(a_minus_3["coefficient"][0] + eps) <= TOL * eps
    assert a_minus_3["coefficient"][1] == 0.0


@known_wrong("items 1 and 6: the float fold leaves 1.7e-18 in the "
             "numerator, so 0 is listed as a simple pole")
def test_residues_of_a_removable_point(capsys):
    assert _run(capsys, "residues", "((z+0.1)^2-0.01)/z")["poles"] == []


@pytest.mark.parametrize("text", ["1/((z-0.3)^8*(z-0.32))",
                                  "1/((z-1.3)^10*(z-1.4))"])
def test_a_simple_pole_beside_a_high_order_pole_is_refused(capsys, text):
    # item 1: the group's leftover raw point is a point of the multiple
    # root's cloud; its polish runs all 24 passes without settling, and
    # exits 1 rather than list a wrong simple pole
    assert main(["residues", text]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "Newton's steps did not settle in 24 passes" in captured.err
