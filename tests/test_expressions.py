"""Parser front end: grammar, precedence, rejections, bindings."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dxdy.algebra import even
from dxdy.expressions import (CALLS, BinOp, Call, Neg, Num, ParseError, Pow,
                              Sym, compile_expression, evaluate, parse,
                              rewrite_x_to_z, substitute)

from helpers import reference_evaluate


def test_parses_nested_power():
    node = parse("1/(z^2+1)^2")
    assert isinstance(node, BinOp) and node.op == "/"
    outer = node.right
    assert isinstance(outer, Pow) and outer.exponent == 2
    inner = outer.base
    assert isinstance(inner, BinOp) and inner.op == "+"
    assert isinstance(inner.left, Pow) and inner.left.exponent == 2
    assert inner.left.base == Sym("z")
    assert inner.right == Num(1.0)


def test_usual_precedence():
    node = parse("1+2*z^3")
    assert isinstance(node, BinOp) and node.op == "+"
    product = node.right
    assert isinstance(product, BinOp) and product.op == "*"
    assert isinstance(product.right, Pow) and product.right.exponent == 3


def test_unary_minus_and_negative_exponent():
    node = parse("-z^-2")
    # unary minus binds looser than the power
    from dxdy.expressions import Neg
    assert isinstance(node, Neg)
    assert isinstance(node.operand, Pow)
    assert node.operand.exponent == -2


def test_call_with_scaled_argument():
    node = parse("exp(I*t*z)/(z^2+1)")
    assert isinstance(node.left, Call) and node.left.func == "exp"
    assert substitute(node, {"t": 1}) == parse("exp(I*1.0*z)/(z^2+1)")


def test_fractional_power_rejected_with_periodicity_message():
    with pytest.raises(ParseError, match="not periodic over a circle"):
        parse("z^(1/2)")
    with pytest.raises(ParseError, match="not periodic"):
        parse("z^0.5")


def test_symbolic_exponent_rejected():
    with pytest.raises(ParseError, match="integer constant"):
        parse("z^t")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse("1/(z^2+1")
    assert info.value.position is not None
    with pytest.raises(ParseError, match="position"):
        parse("2*%3")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="trailing"):
        parse("z z")
    with pytest.raises(ParseError, match="unknown function"):
        parse("tan(z)")


def test_x_rewrites_only_on_request():
    node = parse("1/(x^2+1)")
    assert rewrite_x_to_z(node) == parse("1/(z^2+1)")
    assert node == BinOp("/", Num(1.0), parse("x^2+1"))


def test_pi_and_scientific_literals():
    assert evaluate(parse("pi"), {}) == even(math.pi)
    assert evaluate(parse("2.5e-3"), {}).u == 2.5e-3
    assert evaluate(parse("1e4+2"), {}).u == 10002.0


def test_evaluate_even_arithmetic():
    env = {"z": even(1, 2)}
    assert evaluate(parse("z*z"), env) == even(-3, 4)
    assert evaluate(parse("I*I"), {}) == even(-1, 0)
    got = evaluate(parse("exp(I*pi)"), {})
    assert abs(got - even(-1, 0)) < 1e-15
    with pytest.raises(ParseError, match="unbound"):
        evaluate(parse("q+1"), {})


def test_unbound_symbol_raises_when_the_compiled_tree_runs():
    run = compile_expression(parse("q+1"))
    assert run({"q": even(1, 2)}) == even(2, 2)
    with pytest.raises(ParseError, match="unbound symbol 'q'"):
        run({})


# ---------------------------------------------------------------------------
# compiled trees against the plain walk

_LEAVES = st.one_of(st.sampled_from([Sym(n) for n in ("x", "y", "z", "I",
                                                     "pi")]),
                    st.sampled_from([0.0, 1.0, -2.5]).map(Num),
                    st.floats(-8.0, 8.0).map(Num))


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-3, 5)),
        st.builds(Call, st.sampled_from(CALLS), children))


_TREES = st.recursive(_LEAVES, _extend, max_leaves=16)
_PARTS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
_POINTS = st.builds(even, _PARTS, _PARTS)


def _outcome(run, env):
    """The bits of the value, or the type of the exception raised."""
    try:
        value = run(env)
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        return type(err)
    return value.u.hex(), value.v.hex()


@settings(max_examples=200, deadline=None)
@example(parse("1/(x-x)"), even(1.5), even(0.0), even(0.0))
@example(parse("y^-3 + exp(z)*I"), even(0.0), even(0.0), even(0.5, -0.5))
@given(_TREES, _POINTS, _POINTS, _POINTS)
def test_compiled_tree_matches_the_plain_walk_bit_for_bit(tree, x, y, z):
    env = {"x": x, "y": y, "z": z}
    expected = _outcome(lambda e: reference_evaluate(tree, e), env)
    assert _outcome(compile_expression(tree), env) == expected
    assert _outcome(lambda e: evaluate(tree, e), env) == expected
