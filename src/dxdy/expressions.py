"""Expression front end.

Grammar (usual precedence, ^ binds tightest and right-associates):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are case-sensitive: ``z`` is the position form, ``I`` denotes dxdy,
``pi`` is bound to its numeric value, and ``exp``/``sin``/``cos`` are the
entire calls.  ``x`` is accepted only where a caller binds it to z
(real-line integrands) or evaluates over the plane (1-form classification).
Exponents must fold to integer constants; anything fractional is rejected
because fractional powers are not single-valued around a circle.
"""

from __future__ import annotations

import math
from typing import Callable, Union

from .algebra import (EvenElement, _Frozen, _slot_setters, complex_cos,
                      complex_exp, complex_int_pow, complex_inv, complex_sin,
                      even)
from .errors import UsageError


class ParseError(UsageError):
    """Syntax or grammar violation, with the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Num(_Frozen):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        _set_num_value(self, value)


class Sym(_Frozen):
    """A name: z, x, I, pi or a caller's binding."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_sym_name(self, name)


class Neg(_Frozen):
    """Unary minus."""

    __slots__ = ("operand",)

    def __init__(self, operand: "Expr") -> None:
        _set_neg_operand(self, operand)


class BinOp(_Frozen):
    """A binary operation: op is '+', '-', '*' or '/'."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        _set_binop_op(self, op)
        _set_binop_left(self, left)
        _set_binop_right(self, right)


class Pow(_Frozen):
    """base ^ exponent, the exponent folded to an integer."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: "Expr", exponent: int) -> None:
        _set_pow_base(self, base)
        _set_pow_exponent(self, exponent)


class Call(_Frozen):
    """An entire call: func is 'exp', 'sin' or 'cos'."""

    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: "Expr") -> None:
        _set_call_func(self, func)
        _set_call_arg(self, arg)


_set_num_value, = _slot_setters(Num)
_set_sym_name, = _slot_setters(Sym)
_set_neg_operand, = _slot_setters(Neg)
_set_binop_op, _set_binop_left, _set_binop_right = _slot_setters(BinOp)
_set_pow_base, _set_pow_exponent = _slot_setters(Pow)
_set_call_func, _set_call_arg = _slot_setters(Call)

Expr = Union[Num, Sym, Neg, BinOp, Pow, Call]

CALLS = ("exp", "sin", "cos")


class _Token(_Frozen):
    """A lexeme: kind is 'num', 'name', 'op' or 'end'."""

    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int,
                 value: float = 0.0) -> None:
        _set_token_kind(self, kind)
        _set_token_text(self, text)
        _set_token_pos(self, pos)
        _set_token_value(self, value)


_set_token_kind, _set_token_text, _set_token_pos, _set_token_value = (
    _slot_setters(_Token))


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and (source[i].isdigit() or source[i] == "."):
                i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            text = source[start:i]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", start) from None
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} lies beyond the double "
                                 f"range", start)
            tokens.append(_Token("num", text, start, value))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.pos)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.advance()
            exponent_expr = self.parse_unary()
            return Pow(base, _integer_exponent(exponent_expr, tok.pos))
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in CALLS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            return Sym(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


_FOLD = {"+": float.__add__, "-": float.__sub__, "*": float.__mul__,
         "/": float.__truediv__}


def _fold_constant(e: Expr) -> float | None:
    """Fold pure numeric subtrees (pi included) to a float, else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Sym):
        return math.pi if e.name == "pi" else None
    if isinstance(e, Neg):
        v = _fold_constant(e.operand)
        return None if v is None else -v
    if isinstance(e, BinOp):
        a = _fold_constant(e.left)
        b = _fold_constant(e.right)
        return None if a is None or b is None else _FOLD[e.op](a, b)
    if isinstance(e, Pow):
        v = _fold_constant(e.base)
        return None if v is None else v ** e.exponent
    return None


def _integer_exponent(e: Expr, pos: int) -> int:
    try:
        value = _fold_constant(e)
    except ZeroDivisionError:
        raise ParseError("exponent divides by zero", pos) from None
    except OverflowError:
        value = math.inf
    if value is None:
        raise ParseError("exponent must be an integer constant", pos)
    # a NaN comes only from intermediates that overflowed, as inf - inf
    if not math.isfinite(value):
        raise ParseError("exponent lies beyond the double range", pos)
    if value != int(value):
        raise ParseError(
            f"fractional power ^{value:g} rejected: fractional powers are "
            f"not periodic over a circle", pos)
    return int(value)


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with the offending position."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
    return node


_CALL_EVAL = {"exp": complex_exp, "sin": complex_sin, "cos": complex_cos}

_CONSTANTS = {"I": complex(0.0, 1.0), "pi": complex(math.pi, 0.0)}
# closure factories: complex +, - and * are the even-element operations
_BINARY = {
    "+": lambda left, right: lambda env: left(env) + right(env),
    "-": lambda left, right: lambda env: left(env) - right(env),
    "*": lambda left, right: lambda env: left(env) * right(env),
    "/": lambda left, right: lambda env: left(env) * complex_inv(right(env)),
}


def compile_expression(e: Expr) -> Callable[[dict[str, complex]], complex]:
    """Walk the tree once into closures that evaluate it pointwise.

    The closures compute on float pairs: each value u + v*dxdy is
    complex(u, v), a number c is complex(c, 0.0), and the environment
    binds names to such pairs.  They run the even-element operations of a
    tree walk in the same order, so the values are the same bits as that
    walk's.  ``I`` and ``pi`` are predefined; an unbound name raises
    ParseError when the closure runs.
    """
    if isinstance(e, Num):
        value = complex(e.value, 0.0)
        return lambda env: value
    if isinstance(e, Sym) and e.name in _CONSTANTS:
        value = _CONSTANTS[e.name]
        return lambda env: value
    if isinstance(e, Sym):
        def symbol(env, name=e.name):
            try:
                return env[name]
            except KeyError:
                raise ParseError(f"unbound symbol {name!r}") from None
        return symbol
    if isinstance(e, Neg):
        operand = compile_expression(e.operand)
        return lambda env: -operand(env)
    if isinstance(e, BinOp):
        return _BINARY[e.op](compile_expression(e.left),
                             compile_expression(e.right))
    if isinstance(e, Pow):
        base = compile_expression(e.base)
        exponent = e.exponent
        return lambda env: complex_int_pow(base(env), exponent)
    if isinstance(e, Call):
        func = _CALL_EVAL[e.func]
        arg = compile_expression(e.arg)
        return lambda env: func(arg(env))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, env: dict[str, EvenElement]) -> EvenElement:
    """Evaluate once; the pairs are converted only on the way in and out
    (see compile_expression)."""
    z = compile_expression(e)({name: complex(x) for name, x in env.items()})
    return EvenElement(z.real, z.imag)


def parse_point(text: str) -> EvenElement:
    """A finite point, written 'u,v' or as a constant expression in I and
    pi; anything else, a division by zero included, raises ParseError."""
    parts = text.split(",")
    try:
        value = (even(float(parts[0]), float(parts[1])) if len(parts) == 2
                 else evaluate(parse(text), {}))
    except (ValueError, ArithmeticError) as err:  # ParseError is a ValueError
        raise ParseError(f"expected 'u,v' or a constant (only I and pi are "
                         f"predefined), got {text!r}: {err}") from None
    if not (math.isfinite(value.u) and math.isfinite(value.v)):
        raise ParseError(f"point {text!r} is not finite")
    return value
