"""Parser front end: grammar, precedence, rejections, bindings."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dxdy.algebra import even
from dxdy.errors import RangeError
from dxdy.expressions import (CALLS, BinOp, Call, Neg, Num, ParseError, Pow,
                              Sym, compile_expression, evaluate, parse,
                              parse_point)
from dxdy.functions import (UnsupportedExpressionError,
                            meromorphic_from_text)

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
    bound = meromorphic_from_text("exp(I*t*z)/(z^2+1)", {"t": 1})
    assert bound == meromorphic_from_text("exp(I*1.0*z)/(z^2+1)")


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


@pytest.mark.parametrize("text, message", [
    ("1.2.3", "bad number '1.2.3' (at position 0)"),
    (")", "unexpected ')' (at position 0)"),
])
def test_malformed_atoms_name_their_position(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_a_negative_power_folds_like_its_reciprocal():
    assert (meromorphic_from_text("(z-1)^-2")
            == meromorphic_from_text("1/(z-1)^2"))


@pytest.mark.parametrize("text, message", [
    ("exp(sin(z))", "entire factors cannot be composed"),
    ("exp(z^2)", "must be a constant multiple of z"),
])
def test_entire_factor_arguments_stay_linear(text, message):
    with pytest.raises(UnsupportedExpressionError, match=message):
        meromorphic_from_text(text)


def test_x_rewrites_only_on_request():
    assert (meromorphic_from_text("1/(x^2+1)", real_line=True)
            == meromorphic_from_text("1/(z^2+1)"))
    with pytest.raises(UnsupportedExpressionError, match="real-line"):
        meromorphic_from_text("1/(x^2+1)")


def test_points_are_finite_constants():
    assert parse_point("0.5,-2") == even(0.5, -2.0)
    assert parse_point("1+2*I") == even(1.0, 2.0)
    for text in ("nan,0", "0,inf", "1/0", "exp(1000)", "z", "1,q", "(1"):
        with pytest.raises(ParseError):
            parse_point(text)


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
    got = run({"q": [complex(1.0, 2.0), complex(-0.5, -0.0)]}, 2)
    assert list(map(_bits, got)) == [_bits(complex(2.0, 2.0)),
                                     _bits(complex(0.5, 0.0))]
    with pytest.raises(ParseError, match="unbound symbol 'q'"):
        run({}, 1)


def test_a_level_of_no_points_evaluates_nothing():
    # the names are not looked up either, so an unbound one does not raise
    assert compile_expression(parse("q+1"))({}, 0) == []


def test_a_level_without_names_has_the_size_it_is_asked_for():
    run = compile_expression(parse("-pi^2 + I"))
    [value] = run({}, 1)
    assert run({}, 3) == [value] * 3
    assert run({}, 0) == []


@pytest.mark.parametrize("text, error", [
    ("x + 1/(1-1)", ZeroDivisionError),
    ("x * (1-1)^-2", ZeroDivisionError),
    ("exp(1000) - x", RangeError),
])
def test_a_constant_part_that_fails_raises_when_the_level_runs(text, error):
    run = compile_expression(parse(text))
    with pytest.raises(error):
        run({"x": [complex(1.0, 0.0)]}, 1)
    assert run({"x": []}, 0) == []


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


def _bits(value):
    """The hex digits of both parts of a complex pair or an EvenElement."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.u.hex(), value.v.hex()


def _outcome(run, env):
    """The bits of the value, or the type of the exception raised."""
    try:
        value = run(env)
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        return type(err)
    return _bits(value)


_TRIPLES = st.tuples(_POINTS, _POINTS, _POINTS)


@settings(max_examples=200, deadline=None)
@example(parse("1/(x-x)"), [(even(1.5), even(0.0), even(0.0))])
@example(parse("y^-3 + exp(z)*I"), [(even(0.0), even(0.0), even(0.5, -0.5))])
@example(parse("1/y + x^-2"), [(even(1.0), even(2.0), even(0.0)),
                               (even(0.0), even(-1.0), even(0.0))])
@given(_TREES, st.lists(_TRIPLES, min_size=1, max_size=4))
def test_compiled_tree_matches_the_plain_walk_bit_for_bit(tree, points):
    # the compiled tree runs on lists of complex pairs, evaluate converts a
    # one-point level at the edges; a level of several points gives each
    # the bits it gets alone, and raises exactly when some point does
    run = compile_expression(tree)
    alone = []
    for x, y, z in points:
        env = {"x": x, "y": y, "z": z}
        pairs = {name: [complex(p.u, p.v)] for name, p in env.items()}
        expected = _outcome(lambda e: reference_evaluate(tree, e), env)
        assert _outcome(lambda e: run(e, 1)[0], pairs) == expected
        assert _outcome(lambda e: evaluate(tree, e), env) == expected
        alone.append(expected)
    level = {name: [complex(p.u, p.v) for p in column]
             for name, column in zip("xyz", zip(*points))}
    try:
        values = run(level, len(points))
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        assert type(err) in alone
    else:
        assert list(map(_bits, values)) == alone
