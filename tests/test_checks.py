"""The ``check`` verb's algebra row fails on every planted fault it claims to
catch: each single sign flip of ``mv_product`` and of ``even_mul``, a wrong
conjugate or norm, a wrong integer power, a power off by one ulp and a polar
angle of the wrong sign.  A row that raises fails alone."""

import ast
import cmath
import inspect
import json
import math
import textwrap

import pytest

import dxdy.checks
import dxdy.cli
from dxdy import algebra
from dxdy.algebra import EvenElement, PolarForm, even, even_int_pow, to_polar
from dxdy.errors import ComputationError


def _flip(tree: ast.Module, index: int) -> bool:
    """Flip the sign of product term ``index`` in the call that the parsed
    function returns; False once index runs past the end."""
    call = tree.body[0].body[-1].value
    for component in call.args:
        chain = component
        terms = []  # (the +/- node above the term or None, the term)
        while isinstance(chain, ast.BinOp) and isinstance(
                chain.op, (ast.Add, ast.Sub)):
            terms.append((chain, chain.right))
            chain = chain.left
        terms.append((None, chain))
        for parent, term in reversed(terms):
            if index == 0:
                if parent is None:  # the first term: negate it
                    terms[-2][0].left = ast.UnaryOp(ast.USub(), term)
                else:
                    parent.op = (ast.Sub() if isinstance(parent.op, ast.Add)
                                 else ast.Add())
                return True
            index -= 1
    return False


def _sign_flip_mutants(function):
    source = textwrap.dedent(inspect.getsource(function))
    mutants = []
    while True:
        tree = ast.parse(source)
        if not _flip(tree, len(mutants)):
            return mutants
        namespace = dict(vars(algebra))
        exec(compile(ast.fix_missing_locations(tree), "<mutant>", "exec"),
             namespace)
        mutants.append((ast.unparse(tree.body[0].body[-1].value),
                        namespace[function.__name__]))


MUTANTS = _sign_flip_mutants(algebra.mv_product)
EVEN_MUL_MUTANTS = _sign_flip_mutants(algebra.even_mul)


def test_there_is_one_mutant_per_product_term():
    assert len(MUTANTS) == 16
    assert len({text for text, _ in MUTANTS}) == 16


@pytest.mark.parametrize("text, mutant", MUTANTS,
                         ids=[f"flip{i}" for i in range(len(MUTANTS))])
def test_every_sign_flip_of_mv_product_fails(monkeypatch, text, mutant):
    monkeypatch.setattr(dxdy.checks, "mv_product", mutant)
    result = dxdy.checks.check_algebra_relations()
    assert not result.passed, text
    assert "basis False" in result.detail


def test_power_wrong_only_for_negative_exponents_fails(monkeypatch):
    def wrong_pow(x, m):
        return even_int_pow(x, m) if m >= 0 else even_int_pow(x.conj(), m)

    monkeypatch.setattr(dxdy.checks, "even_int_pow", wrong_pow)
    result = dxdy.checks.check_algebra_relations()
    assert not result.passed
    assert result.detail == ("basis True, commutation True, conj True, "
                             "powers False")


def test_polar_angle_of_the_wrong_sign_fails(monkeypatch):
    def flipped_polar(x):
        polar = to_polar(x)
        return PolarForm(polar.rho, -polar.phi)

    monkeypatch.setattr(dxdy.checks, "to_polar", flipped_polar)
    result = dxdy.checks.check_algebra_relations()
    assert not result.passed
    assert result.detail == ("basis True, commutation True, conj True, "
                             "powers False")


def test_a_failing_algebra_row_fails_the_check_verb(monkeypatch, capsys):
    monkeypatch.setattr(dxdy.checks, "mv_product", MUTANTS[0][1])
    assert dxdy.cli.main(["check"]) == 1
    assert "FAIL  algebra" in capsys.readouterr().out


def _algebra_detail(monkeypatch, target, name, replacement):
    monkeypatch.setattr(target, name, replacement)
    result = dxdy.checks.check_algebra_relations()
    assert not result.passed
    return result.detail


CONJ_FALSE = "basis True, commutation True, conj False, powers True"
POWERS_FALSE = "basis True, commutation True, conj True, powers False"


def test_there_is_one_even_mul_mutant_per_product_term():
    assert len(EVEN_MUL_MUTANTS) == 4
    assert len({text for text, _ in EVEN_MUL_MUTANTS}) == 4


@pytest.mark.parametrize("text, mutant", EVEN_MUL_MUTANTS,
                         ids=[f"flip{i}" for i in range(4)])
def test_every_sign_flip_of_even_mul_fails_conj(monkeypatch, text, mutant):
    assert _algebra_detail(monkeypatch, dxdy.checks, "even_mul",
                           mutant) == CONJ_FALSE, text


def test_conj_returning_its_argument_fails_conj(monkeypatch):
    assert _algebra_detail(monkeypatch, EvenElement, "conj",
                           lambda x: x) == CONJ_FALSE


def test_norm_sq_as_difference_of_squares_fails_conj(monkeypatch):
    assert _algebra_detail(monkeypatch, EvenElement, "norm_sq",
                           lambda x: x.u * x.u - x.v * x.v) == CONJ_FALSE


def test_power_off_by_one_in_the_exponent_fails(monkeypatch):
    assert _algebra_detail(monkeypatch, dxdy.checks, "even_int_pow",
                           lambda x, m: even_int_pow(x, m + 1)) == POWERS_FALSE


def test_power_through_exp_and_log_fails(monkeypatch):
    """exp(m log x) agrees with the polar form to about 1e-15, so only the
    bit-exact comparison with the Gaussian-integer power catches it."""
    def exp_log_pow(x, m):
        z = cmath.exp(m * cmath.log(complex(x)))
        return EvenElement(z.real, z.imag)

    assert _algebra_detail(monkeypatch, dxdy.checks, "even_int_pow",
                           exp_log_pow) == POWERS_FALSE


def test_power_one_ulp_off_at_one_point_fails(monkeypatch):
    def nudged_pow(x, m):
        power = even_int_pow(x, m)
        if x == even(-1.0, 1.0) and m == -3:
            return EvenElement(math.nextafter(power.u, math.inf), power.v)
        return power

    assert _algebra_detail(monkeypatch, dxdy.checks, "even_int_pow",
                           nudged_pow) == POWERS_FALSE


def _raise_computation_error(*args):
    raise ComputationError("planted")


@pytest.mark.parametrize("name, replacement, row, detail", [
    ("find_poles", lambda f: (), 1, "IndexError: list index out of range"),
    ("laurent_expand", _raise_computation_error, 5,
     "ComputationError: planted"),
], ids=["index_error", "computation_error"])
def test_a_raising_row_fails_alone(monkeypatch, capsys, name, replacement,
                                   row, detail):
    monkeypatch.setattr(dxdy.checks, name, replacement)
    assert dxdy.cli.main(["check", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    rows = doc["checks"]
    assert len(rows) == 6
    assert rows[row]["name"] == dxdy.checks.ALL_CHECKS[row].row_name
    assert (rows[row]["passed"], rows[row]["detail"]) == (False, detail)
    assert all(r["passed"] for i, r in enumerate(rows) if i != row)
