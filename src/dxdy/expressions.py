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

A parsed tree is evaluated at a whole list of points (a level) by one
recursive walk per call: each node runs once and returns the list of its
values, one per point, each the bits that point would get alone; a
number is repeated once per point, so a subtree that names no point is
computed at every point too.  ``evaluate`` runs a level of one point.
1-form classification runs the e/w/n/s stencils of up to 256 samples as
one level; a level that raises is walked again sample by sample, and each
sample point by point, so the error is the first one that order meets
(see functions.classify_one_form).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Union

from .algebra import ENTIRE_KERNELS, EvenElement, _Frozen, complex_inv, even
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


class Sym(_Frozen):
    """A name: z, x, I, pi or a caller's binding."""

    __slots__ = ("name",)


class Neg(_Frozen):
    """Unary minus."""

    __slots__ = ("operand",)


class BinOp(_Frozen):
    """A binary operation: op is '+', '-', '*' or '/'."""

    __slots__ = ("op", "left", "right")


class Pow(_Frozen):
    """base ^ exponent, the exponent folded to an integer."""

    __slots__ = ("base", "exponent")


class Call(_Frozen):
    """An entire call: func is 'exp', 'sin' or 'cos'."""

    __slots__ = ("func", "arg")


Expr = Union[Num, Sym, Neg, BinOp, Pow, Call]


class _Token(_Frozen, defaults={"value": 0.0}):
    """A lexeme: kind is 'num', 'name', 'op' or 'end'."""

    __slots__ = ("kind", "text", "pos", "value")


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
                if tok.text not in ENTIRE_KERNELS:
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
    """Fold pure numeric subtrees (pi included) to a float, else None;
    exponents fold here, not in the level walk's complex arithmetic, which
    would accept ``z^(I*I)`` and ``z^exp(0)`` and change error messages."""
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


_CONSTANTS = {"I": complex(0.0, 1.0), "pi": complex(math.pi, 0.0)}

Level = Callable[[dict[str, list[complex]], int], list[complex]]

# complex +, - and * are the even-element operations; a / b is
# a * complex_inv(b), and _level inverts b before it multiplies
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.mul}


def compile_expression(e: Expr) -> Level:
    """The level function of the tree: given an environment that binds
    each name to a list of n points and the count n, it returns the list
    of the n values from one walk of the tree, ``_level``.

    The points and values are float pairs: each value u + v*dxdy is
    complex(u, v) and a number c is complex(c, 0.0).  Each node runs once
    per call, over the whole list, and gives each point the even-element
    operations of a tree walk at that point alone, in the same order, so
    the values are the same bits as that walk's.  Nodes run one after
    another, so when several points fail, the error raised need not be the
    one a point-by-point walk meets first.  ``I`` and ``pi`` are
    predefined; an unbound name raises ParseError when the level runs.  A
    level of no points evaluates nothing.
    """
    return lambda env, n: _level(e, env, n) if n else []


def _level(e: Expr, env: dict[str, list[complex]], n: int) -> list[complex]:
    """The list of the n values of a subtree; a number is n copies."""
    if isinstance(e, Num):
        return [complex(e.value, 0.0)] * n
    if isinstance(e, Sym):
        if e.name in _CONSTANTS:
            return [_CONSTANTS[e.name]] * n
        try:
            return env[e.name]
        except KeyError:
            raise ParseError(f"unbound symbol {e.name!r}") from None
    if isinstance(e, BinOp):
        a = _level(e.left, env, n)
        b = _level(e.right, env, n)
        if e.op == "/":
            b = list(map(complex_inv, b))
        return list(map(_BINARY[e.op], a, b))
    if isinstance(e, Neg):
        return list(map(operator.neg, _level(e.operand, env, n)))
    if isinstance(e, Pow):
        return _power(_level(e.base, env, n), e.exponent, n)
    if isinstance(e, Call):
        return list(map(ENTIRE_KERNELS[e.func], _level(e.arg, env, n)))
    raise TypeError(f"not an expression node: {e!r}")


def _power(base: list[complex], m: int, n: int) -> list[complex]:
    """``complex_int_pow``'s binary powering, run over a list of n
    values."""
    if m < 0:
        base, m = list(map(complex_inv, base)), -m
    result = [1 + 0j] * n
    while True:
        if m & 1:
            result = list(map(operator.mul, result, base))
        m >>= 1
        if not m:  # the next square would go unused
            return result
        base = [b * b for b in base]


def evaluate(e: Expr, env: dict[str, EvenElement]) -> EvenElement:
    """Evaluate once, as a level of one point; the pairs are converted
    only on the way in and out (see compile_expression)."""
    [z] = compile_expression(e)({name: [complex(x)]
                                 for name, x in env.items()}, 1)
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
