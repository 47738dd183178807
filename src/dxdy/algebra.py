"""Clifford algebra of differential forms on the real plane.

The algebra is generated by the basis 1-forms dx, dy with

    dx*dx = dy*dy = 1,      dx*dy = -dy*dx,      (dxdy)*(dxdy) = -1,

so a general element (a Multivector) is s + a*dx + b*dy + p*dxdy.  The even
elements u + v*dxdy form a commutative subalgebra in which dxdy behaves like
the imaginary unit; the position form z = x + y*dxdy is the stand-in for a
complex variable throughout the package.

Scalars are IEEE doubles.  Products whose structure constants are only 0/±1
(basis products, conjugation swaps) are bit-exact; everything else carries
ordinary floating-point rounding.

Inside the package an even element is the float pair complex(u, v);
``EvenElement`` is what the public API takes and hands out, and
``complex(x)`` converts it.  CPython's complex +, - and * compute this
subalgebra's +, - and ``even_mul`` bit for bit.  Complex division does not
(it is scaled), nor does complex times float (the float becomes
complex(x, 0.0), which can flip the sign of a zero), so the kernels use
neither: inverses go through ``complex_inv`` and real scalings scale each
part.
"""

from __future__ import annotations

import math
from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType

from .errors import RangeError, UsageError


class GradeError(UsageError):
    """Raised when an operation requires a pure grade-1 input."""


class _Frozen:
    """Immutable slotted value with a frozen dataclass's eq, hash and repr.

    A subclass names its fields in ``__slots__``, in constructor order, and
    gets an ``__init__`` built from them, from one compiled template per
    field count (``_slot_filler``); the class keyword ``defaults`` maps
    trailing fields to their defaults.  A class that checks its arguments
    writes its own ``__init__``, which ends by calling the built one as
    ``self._fill_slots``.  Class keywords leave fields out: ``uncompared``
    of eq and hash, ``unshown`` of repr.  Copy and pickle rebuild from
    every field.  Assignment and deletion raise
    dataclasses.FrozenInstanceError, imported where it is raised:
    dataclasses loads inspect, so importing it at the top would add both
    to every CLI call's start.
    """

    __slots__ = ()

    def __init_subclass__(cls, uncompared=(), unshown=(), defaults=None):
        super().__init_subclass__()
        name = "_fill_slots" if "__init__" in vars(cls) else "__init__"
        setattr(cls, name, _slot_filler(cls, name, defaults))
        compared = [f for f in cls.__slots__ if f not in uncompared]
        # eq and hash read the compared fields as one tuple
        cls._key = staticmethod(
            attrgetter(*compared) if len(compared) > 1
            else lambda self, get=attrgetter(*compared): (get(self),))
        cls._shown = tuple(f for f in cls.__slots__ if f not in unshown)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"


@cache
def _filler_code(n: int) -> CodeType:
    """``__init__(self, a0, ..)`` calling ``set0(self, a0)``, ..: compiled
    once per field count, since a compile costs about 0.1 ms of import."""
    params = ", ".join(f"a{i}" for i in range(n))
    body = "".join(f"\n    set{i}(self, a{i})" for i in range(n))
    namespace = {}
    exec(f"def __init__(self, {params}):{body}", namespace)
    return namespace["__init__"].__code__


def _slot_filler(cls, name: str, defaults) -> FunctionType:
    """An ``__init__`` whose parameters are cls's slots, in order, and which
    sets each through its slot descriptor's bound setter: far cheaper than
    a frozen dataclass's ``object.__setattr__``.  It is the template for
    its field count with the fields' names, reading the setters as
    globals, so its bytecode is that of the hand-written ``__init__``."""
    fields = cls.__slots__
    fill = FunctionType(
        _filler_code(len(fields)).replace(co_varnames=("self", *fields)),
        {f"set{i}": getattr(cls, f).__set__ for i, f in enumerate(fields)},
        name)
    fill.__qualname__ = f"{cls.__qualname__}.{name}"
    if defaults:
        fill.__defaults__ = tuple(defaults[f] for f in fields[-len(defaults):])
    return fill


class Multivector(_Frozen,
                  defaults={"s": 0.0, "a": 0.0, "b": 0.0, "p": 0.0}):
    """Element s + a*dx + b*dy + p*dxdy of the full plane algebra."""

    __slots__ = ("s", "a", "b", "p")

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.s + other.s, self.a + other.a,
                           self.b + other.b, self.p + other.p)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.s - other.s, self.a - other.a,
                           self.b - other.b, self.p - other.p)

    def __neg__(self) -> "Multivector":
        return Multivector(-self.s, -self.a, -self.b, -self.p)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_product(self, other)
        return Multivector(self.s * other, self.a * other,
                           self.b * other, self.p * other)

    def __rmul__(self, other):
        return Multivector(other * self.s, other * self.a,
                           other * self.b, other * self.p)


DX = Multivector(a=1.0)
DY = Multivector(b=1.0)
DXDY = Multivector(p=1.0)


def mv_product(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product of two multivectors."""
    return Multivector(x.s * y.s + x.a * y.a + x.b * y.b - x.p * y.p,
                       x.s * y.a + x.a * y.s - x.b * y.p + x.p * y.b,
                       x.s * y.b + x.b * y.s + x.a * y.p - x.p * y.a,
                       x.s * y.p + x.p * y.s + x.a * y.b - x.b * y.a)


def one_form(k: float, g: float) -> Multivector:
    """The 1-form k*dx + g*dy."""
    return Multivector(a=k, b=g)


def dot_one_forms(x: Multivector, y: Multivector) -> float:
    """Symmetric product (xy + yx)/2 of two 1-forms, as a real number.

    Equals the metric inner product of the coefficient pairs.  Inputs with a
    scalar or dxdy component are rejected.
    """
    if x.s != 0.0 or x.p != 0.0 or y.s != 0.0 or y.p != 0.0:
        raise GradeError("dot_one_forms requires pure grade-1 arguments")
    return x.a * y.a + x.b * y.b


class EvenElement(_Frozen):
    """Element u + v*dxdy of the commutative even subalgebra."""

    __slots__ = ("u", "v")

    def __add__(self, other: "EvenElement") -> "EvenElement":
        return EvenElement(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "EvenElement") -> "EvenElement":
        return EvenElement(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "EvenElement":
        return EvenElement(-self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, EvenElement):
            return even_mul(self, other)
        return EvenElement(self.u * other, self.v * other)

    def __rmul__(self, other):
        return EvenElement(other * self.u, other * self.v)

    def __truediv__(self, other):
        if isinstance(other, EvenElement):
            inv = complex_inv(complex(other.u, other.v))
            z = complex(self.u, self.v) * inv
            return EvenElement(z.real, z.imag)
        return EvenElement(self.u / other, self.v / other)

    def __abs__(self) -> float:
        return math.hypot(self.u, self.v)

    def __complex__(self) -> complex:
        return complex(self.u, self.v)

    def conj(self) -> "EvenElement":
        return EvenElement(self.u, -self.v)

    def norm_sq(self) -> float:
        return self.u * self.u + self.v * self.v

    def is_zero(self) -> bool:
        return self.u == 0.0 and self.v == 0.0

    def to_multivector(self) -> Multivector:
        return Multivector(s=self.u, p=self.v)


E_ZERO = EvenElement(0.0, 0.0)


def even(u: float, v: float = 0.0) -> EvenElement:
    return EvenElement(float(u), float(v))


def even_mul(x: EvenElement, y: EvenElement) -> EvenElement:
    return EvenElement(x.u * y.u - x.v * y.v, x.u * y.v + x.v * y.u)


def complex_inv(x: complex) -> complex:
    """Multiplicative inverse conj(x)/|x|^2 of the float pair x."""
    u = x.real
    v = x.imag
    n = u * u + v * v
    if 0.0 < n < math.inf or not (math.isfinite(u) and math.isfinite(v)):
        return complex(u / n, -v / n)
    if u == 0.0 and v == 0.0:
        raise ZeroDivisionError("inverse of the zero even element")
    # |x|^2 left the double range; a power-of-two scale brings it back
    s = 2.0 ** (600 if n == 0.0 else -600)
    r = complex_inv(complex(u * s, v * s))
    return complex(r.real * s, r.imag * s)


def complex_int_pow(x: complex, m: int) -> complex:
    """x**m for integer m by binary powering; m < 0 inverts first."""
    if m < 0:
        return complex_int_pow(complex_inv(x), -m)
    result = 1 + 0j
    base = x
    while True:
        if m & 1:
            result = result * base
        m >>= 1
        if not m:  # the next square would go unused
            return result
        base = base * base


def even_int_pow(x: EvenElement, m: int) -> EvenElement:
    """x**m for integer m (see ``complex_int_pow``)."""
    z = complex_int_pow(complex(x.u, x.v), m)
    return EvenElement(z.real, z.imag)


class PolarForm(_Frozen):
    """Polar pair (rho, phi) with rho >= 0 and phi in (-pi, pi]."""

    __slots__ = ("rho", "phi")


def to_polar(x: EvenElement) -> PolarForm:
    rho = abs(x)
    if rho == 0.0:
        raise ZeroDivisionError("the zero element has no polar form")
    phi = math.atan2(x.v, x.u)
    if phi == -math.pi:
        phi = math.pi
    return PolarForm(rho, phi)


def from_polar(p: PolarForm) -> EvenElement:
    return EvenElement(p.rho * math.cos(p.phi), p.rho * math.sin(p.phi))


def complex_exp(x: complex) -> complex:
    """exp(u + v*dxdy) = e^u (cos v + dxdy sin v)."""
    try:
        e = math.exp(x.real)
        return complex(e * math.cos(x.imag), e * math.sin(x.imag))
    except (OverflowError, ValueError):  # e^u overflows, or v is infinite
        raise _beyond_range("exp", x) from None


def complex_sin(x: complex) -> complex:
    try:
        return complex(math.sin(x.real) * math.cosh(x.imag),
                       math.cos(x.real) * math.sinh(x.imag))
    except (OverflowError, ValueError):
        raise _beyond_range("sin", x) from None


def complex_cos(x: complex) -> complex:
    try:
        return complex(math.cos(x.real) * math.cosh(x.imag),
                       -math.sin(x.real) * math.sinh(x.imag))
    except (OverflowError, ValueError):
        raise _beyond_range("cos", x) from None


#: the entire calls of the expression grammar, by name
ENTIRE_KERNELS = {"exp": complex_exp, "sin": complex_sin, "cos": complex_cos}


def _beyond_range(name: str, x: complex) -> RangeError:
    return RangeError(f"{name}({format_even(x)}) lies beyond the double "
                      f"range")


def format_even(x: complex) -> str:
    """Render the pair complex(u, v) as u + v*dxdy in the package's text
    notation, full precision."""
    sign = "+" if (x.imag >= 0.0 or math.isnan(x.imag)) else "-"
    return f"{x.real!r} {sign} {abs(x.imag)!r}·dxdy"
