"""Expression front end.

Grammar (usual precedence, ^ binds tightest and right-associates):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names are case-sensitive: ``z`` is the position form, ``I`` denotes dxdy,
``pi`` is bound to its numeric value, and ``exp``/``sin``/``cos`` are the
entire calls.  ``x`` is accepted only where a caller rewrites it to z
(real-line integrands) or evaluates over the plane (1-form classification).
Exponents must fold to integer constants; anything fractional is rejected
because fractional powers are not single-valued around a circle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

from .algebra import (E_DXDY, EvenElement, even, even_cos, even_exp,
                      even_int_pow, even_sin)


class ParseError(ValueError):
    """Syntax or grammar violation, with the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # 'exp', 'sin', 'cos'
    arg: "Expr"


Expr = Union[Num, Sym, Neg, BinOp, Pow, Call]

CALLS = ("exp", "sin", "cos")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    pos: int
    value: float = 0.0


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
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        v = _fold_constant(e.base)
        return None if v is None else v ** e.exponent
    return None


def _integer_exponent(e: Expr, pos: int) -> int:
    value = _fold_constant(e)
    if value is None:
        raise ParseError("exponent must be an integer constant", pos)
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


def _replace(e: Expr, table: dict[str, Expr]) -> Expr:
    """e with every name in table replaced by its entry."""
    if isinstance(e, Sym):
        return table.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(_replace(e.operand, table))
    if isinstance(e, BinOp):
        return BinOp(e.op, _replace(e.left, table), _replace(e.right, table))
    if isinstance(e, Pow):
        return Pow(_replace(e.base, table), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, _replace(e.arg, table))
    return e


def substitute(e: Expr, bindings: dict[str, float]) -> Expr:
    """Replace bound names (e.g. a CLI-supplied t) by numeric literals."""
    return _replace(e, {name: Num(float(v)) for name, v in bindings.items()})


def rewrite_x_to_z(e: Expr) -> Expr:
    """Real-line mode: the integration variable x becomes the position form z."""
    return _replace(e, {"x": Sym("z")})


_CALL_EVAL = {"exp": even_exp, "sin": even_sin, "cos": even_cos}

_CONSTANTS = {"I": E_DXDY, "pi": even(math.pi)}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def compile_expression(
        e: Expr) -> Callable[[dict[str, EvenElement]], EvenElement]:
    """Walk the tree once into closures that evaluate it pointwise.

    The closures run the even-element operations of a tree walk in the same
    order, so the values are the same bit for bit.  ``I`` and ``pi`` are
    predefined; an unbound name raises ParseError when the closure runs.
    """
    if isinstance(e, Num):
        value = even(e.value)
        return lambda env: value
    if isinstance(e, Sym) and e.name in _CONSTANTS:
        value = _CONSTANTS[e.name]
        return lambda env: value
    if isinstance(e, Sym):
        def symbol(env, name=e.name):
            if name in env:
                return env[name]
            raise ParseError(f"unbound symbol {name!r}")
        return symbol
    if isinstance(e, Neg):
        operand = compile_expression(e.operand)
        return lambda env: -operand(env)
    if isinstance(e, BinOp):
        op = _BINARY[e.op]
        left = compile_expression(e.left)
        right = compile_expression(e.right)
        return lambda env: op(left(env), right(env))
    if isinstance(e, Pow):
        base = compile_expression(e.base)
        exponent = e.exponent
        return lambda env: even_int_pow(base(env), exponent)
    if isinstance(e, Call):
        func = _CALL_EVAL[e.func]
        arg = compile_expression(e.arg)
        return lambda env: func(arg(env))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, env: dict[str, EvenElement]) -> EvenElement:
    """Evaluate once in even-element arithmetic (see compile_expression)."""
    return compile_expression(e)(env)
