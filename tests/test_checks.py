"""The ``check`` verb's algebra row fails on every planted fault it claims to
catch: each single sign flip of ``mv_product``, a wrong integer power and a
polar angle of the wrong sign."""

import ast
import inspect
import textwrap

import pytest

import dxdy.checks
import dxdy.cli
from dxdy import algebra
from dxdy.algebra import PolarForm, even_int_pow, to_polar


def _flip(tree: ast.Module, index: int) -> bool:
    """Flip the sign of product term ``index`` in the ``Multivector(...)``
    call that ``mv_product`` returns; False once index runs past the end."""
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


def _sign_flip_mutants():
    source = textwrap.dedent(inspect.getsource(algebra.mv_product))
    mutants = []
    while True:
        tree = ast.parse(source)
        if not _flip(tree, len(mutants)):
            return mutants
        namespace = dict(vars(algebra))
        exec(compile(ast.fix_missing_locations(tree), "<mutant>", "exec"),
             namespace)
        mutants.append((ast.unparse(tree.body[0].body[-1].value),
                        namespace["mv_product"]))


MUTANTS = _sign_flip_mutants()


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
