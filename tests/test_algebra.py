"""Algebra kernel: basis relations, even arithmetic, polar decomposition."""

import copy
import inspect
import itertools
import math
import os
import pickle
import pkgutil
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dxdy
from dxdy.algebra import (DX, DXDY, DY, E_ZERO, EvenElement, GradeError,
                          Multivector, PolarForm, complex_cos, complex_exp,
                          complex_inv, complex_sin, dot_one_forms, even,
                          even_int_pow, even_mul, from_polar, mv_product,
                          one_form, to_polar)
from dxdy.checks import CheckResult
from dxdy.contours import (CLOCKWISE, COUNTERCLOCKWISE, CircleContour,
                           IntegralResult)
from dxdy.errors import RangeError, UsageError
from dxdy.exactmath import Dyadic, DyadicPoly
from dxdy.expressions import BinOp, Call, Neg, Num, Pow, Sym, _Token
from dxdy.functions import (EntireFactor, MeromorphicFunction, OneForm, Pole,
                            _Rational)
from dxdy.oracle import DifferentialReport, QuadratureSpec
from dxdy.polynomials import Polynomial
from dxdy.residues import ResidueReport
from dxdy.series import LaurentSeries

from helpers import reference_inv

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-3)


def test_basis_squares_are_exact():
    assert mv_product(DX, DX) == Multivector(s=1.0)
    assert mv_product(DY, DY) == Multivector(s=1.0)
    assert mv_product(DXDY, DXDY) == Multivector(s=-1.0)


def test_basis_antisymmetry_is_exact():
    assert mv_product(DX, DY) == Multivector(p=1.0)
    assert mv_product(DY, DX) == Multivector(p=-1.0)
    assert mv_product(DX, DY) == -mv_product(DY, DX)


def test_even_commutation_through_one_form():
    # (2 + 3 dxdy) dx = dx (2 - 3 dxdy)
    e = Multivector(s=2.0, p=3.0)
    assert mv_product(e, DX) == mv_product(DX, Multivector(s=2.0, p=-3.0))


@given(finite, finite, finite, finite)
def test_commutation_is_bit_exact(u, v, a, b):
    e = Multivector(s=u, p=v)
    conj = Multivector(s=u, p=-v)
    alpha = Multivector(a=a, b=b)
    assert mv_product(e, alpha) == mv_product(alpha, conj)


@settings(max_examples=300)
@given(*(finite,) * 12)
def test_mv_product_associative(s1, a1, b1, p1, s2, a2, b2, p2, s3, a3, b3, p3):
    x = Multivector(s1, a1, b1, p1)
    y = Multivector(s2, a2, b2, p2)
    z = Multivector(s3, a3, b3, p3)
    left = mv_product(mv_product(x, y), z)
    right = mv_product(x, mv_product(y, z))
    scale = max(abs(c) for mv in (left, right)
                for c in (mv.s, mv.a, mv.b, mv.p))
    for got, want in zip((left.s, left.a, left.b, left.p),
                         (right.s, right.a, right.b, right.p)):
        assert abs(got - want) <= 1e-13 * max(1.0, scale)


def test_associativity_thousand_random_triples():
    rng = random.Random(1201)
    for _ in range(1000):
        x, y, z = (Multivector(*(rng.uniform(-5, 5) for _ in range(4)))
                   for _ in range(3))
        left = mv_product(mv_product(x, y), z)
        right = mv_product(x, mv_product(y, z))
        scale = max(1.0, *(abs(c) for mv in (left, right)
                           for c in (mv.s, mv.a, mv.b, mv.p)))
        assert abs(left.s - right.s) <= 1e-13 * scale
        assert abs(left.a - right.a) <= 1e-13 * scale
        assert abs(left.b - right.b) <= 1e-13 * scale
        assert abs(left.p - right.p) <= 1e-13 * scale


def test_dot_one_forms_orthogonality_and_norms():
    assert dot_one_forms(DX, DY) == 0.0
    assert dot_one_forms(DX, DX) == 1.0
    v = one_form(3.0, 4.0)
    # independent route: expand through the geometric product, scalar grade
    expansion = mv_product(v, v)
    assert expansion.a == expansion.b == expansion.p == 0.0
    assert dot_one_forms(v, v) == expansion.s == 25.0


def test_dot_one_forms_rejects_mixed_grades():
    with pytest.raises(GradeError):
        dot_one_forms(Multivector(s=1.0, a=1.0), DX)
    with pytest.raises(GradeError):
        dot_one_forms(DX, DXDY)


def test_even_mul_examples():
    assert even_mul(even(0, 1), even(0, 1)) == even(-1, 0)
    assert even_mul(even(1, 1), even(1, 1)) == even(0, 2)
    assert even_mul(even(3, 4), even(3, -4)) == even(25, 0)


@given(finite, finite, finite, finite)
def test_even_mul_matches_multivector_embedding(u1, v1, u2, v2):
    a, b = even(u1, v1), even(u2, v2)
    embedded = mv_product(a.to_multivector(), b.to_multivector())
    product = even_mul(a, b)
    assert embedded.a == 0.0 and embedded.b == 0.0
    assert embedded.s == product.u and embedded.p == product.v


@settings(max_examples=200)
@given(nonzero, nonzero, nonzero, nonzero, nonzero, nonzero)
def test_even_mul_commutative_associative(u1, v1, u2, v2, u3, v3):
    a, b, c = even(u1, v1), even(u2, v2), even(u3, v3)
    assert even_mul(a, b) == even_mul(b, a)
    left = even_mul(even_mul(a, b), c)
    right = even_mul(a, even_mul(b, c))
    assert abs(left - right) <= 1e-14 * max(abs(left), abs(right))


def test_even_inv_examples():
    assert complex_inv(complex(1, 0)) == complex(1, 0)
    assert complex_inv(complex(0, 1)) == complex(0, -1)
    inv = complex_inv(complex(3, 4))
    assert abs(inv - complex(0.12, -0.16)) < 1e-15
    assert abs(complex(3, 4) * inv - complex(1, 0)) <= 1e-14


def test_even_inv_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        complex_inv(complex(0, 0))
    with pytest.raises(ZeroDivisionError):
        even_int_pow(even(0, 0), -2)


def test_multivector_operators():
    x = Multivector(1.0, 2.0, -3.0, 0.5)
    y = Multivector(-0.25, 4.0, 1.5, 2.0)
    assert x + y == Multivector(0.75, 6.0, -1.5, 2.5)
    assert x - y == Multivector(1.25, -2.0, -4.5, -1.5)
    assert 2.0 * x == x * 2.0 == Multivector(2.0, 4.0, -6.0, 1.0)
    assert x * y == mv_product(x, y)
    assert (DX + DY) * (DX - DY) == mv_product(DX + DY, DX - DY)
    assert (DX + DY) * (DX - DY) == -2.0 * DXDY


@given(finite, finite, nonzero, nonzero)
def test_even_division_multiplies_by_the_inverse(u1, v1, u2, v2):
    x, y = even(u1, v1), even(u2, v2)
    want = complex(x) * complex_inv(complex(y))
    got = x / y
    assert (got.u.hex(), got.v.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("x", [
    even(1e-170), even(3e-163, -4e-163), even(0.0, 5e-300), even(1e200),
    even(1e308, 1e308), even(-1e300, 1e-300)])
def test_even_inv_rescales_when_the_squared_norm_leaves_the_range(x):
    # conj(x)/|x|^2 would divide by 0.0 or by inf here
    inv = complex_inv(complex(x))
    assert abs(complex(x) * inv - complex(1, 0)) <= 1e-15


def test_even_inv_keeps_non_finite_and_subnormal_limits():
    assert complex_inv(complex(1e-320, 0.0)) == complex(math.inf, -0.0)
    inv = complex_inv(complex(math.inf, 0.0))
    assert math.isnan(inv.real) and inv.imag == 0.0


@pytest.mark.parametrize("kernel,x", [
    (complex_exp, even(710.0)), (complex_exp, even(0.0, math.inf)),
    (complex_sin, even(0.0, 711.0)), (complex_sin, even(math.inf)),
    (complex_cos, even(1.0, -711.0)), (complex_cos, even(-math.inf, 1.0))])
def test_entire_kernels_raise_range_error_beyond_the_double_range(kernel, x):
    with pytest.raises(RangeError, match="double range"):
        kernel(complex(x))
    assert issubclass(RangeError, OverflowError)


@given(nonzero, nonzero)
def test_even_inv_roundtrip(u, v):
    x = complex(u, v)
    assert abs(x * complex_inv(x) - complex(1, 0)) <= 1e-14


def test_even_int_pow_examples():
    assert even_int_pow(even(0, 1), 2) == even(-1, 0)
    assert abs(even_int_pow(even(1, 1), 4) - even(-4, 0)) <= 1e-14 * 4
    assert even_int_pow(even(2, 0), -1) == even(0.5, 0)


def test_even_int_pow_matches_repeated_multiplication():
    rng = random.Random(44)
    for _ in range(50):
        x = even(rng.uniform(-2, 2), rng.uniform(-2, 2))
        acc = even(1, 0)
        for m in range(1, 7):
            acc = even_mul(acc, x)
            got = even_int_pow(x, m)
            assert abs(got - acc) <= 1e-13 * max(1.0, abs(acc))


def test_power_polar_identity():
    rng = random.Random(7)
    for _ in range(300):
        x = even(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(x) < 1e-2:
            continue
        polar = to_polar(x)
        for m in range(-8, 9):
            want = even(polar.rho ** m * math.cos(m * polar.phi),
                        polar.rho ** m * math.sin(m * polar.phi))
            got = even_int_pow(x, m)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def test_polar_roundtrip_wide_range():
    rng = random.Random(9)
    for _ in range(400):
        rho = 10.0 ** rng.uniform(-6, 6)
        phi = rng.uniform(-math.pi, math.pi)
        x = from_polar(PolarForm(rho, phi))
        back = from_polar(to_polar(x))
        assert abs(back - x) <= 1e-14 * abs(x)


def test_polar_rejects_zero_and_normalizes_pi():
    with pytest.raises(ZeroDivisionError):
        to_polar(even(0, 0))
    assert to_polar(even(-1.0, 0.0)).phi == math.pi
    assert to_polar(even(-1.0, -0.0)).phi == math.pi


def test_reciprocal_position_form_gives_angular_form():
    # (1/z) dy must equal the angular 1-form (x dy - y dx) / rho^2
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        rho_sq = x * x + y * y
        if rho_sq < 1e-4:
            continue
        inv = complex_inv(complex(x, y))
        inv_z = even(inv.real, inv.imag)
        produced = mv_product(inv_z.to_multivector(), DY)
        assert abs(produced.a - (-y / rho_sq)) <= 1e-14 * max(1.0, 1.0 / rho_sq)
        assert abs(produced.b - (x / rho_sq)) <= 1e-14 * max(1.0, 1.0 / rho_sq)
        assert produced.s == 0.0 and produced.p == 0.0


_POLE = Pole(EvenElement(0.0, 1.0), 2)
_ONE, _Z = Polynomial((1 + 0j,)), Polynomial((0j, 1 + 0j))
_Z2_PLUS_1 = Polynomial((1 + 0j, 0j, 1 + 0j))

# (value, its repr, its compared fields) for each immutable value type; the
# reprs are those the frozen dataclasses printed, and the compared fields,
# passed positionally, rebuild the value
VALUE_TYPES = [
    (EvenElement(1.0, 2.0), "EvenElement(u=1.0, v=2.0)", (1.0, 2.0)),
    (Multivector(1.0, -0.0, 3.5, -4.0),
     "Multivector(s=1.0, a=-0.0, b=3.5, p=-4.0)", (1.0, -0.0, 3.5, -4.0)),
    (PolarForm(2.0, 0.5), "PolarForm(rho=2.0, phi=0.5)", (2.0, 0.5)),
    (Num(2.5), "Num(value=2.5)", (2.5,)),
    (Sym("z"), "Sym(name='z')", ("z",)),
    (Neg(Sym("z")), "Neg(operand=Sym(name='z'))", (Sym("z"),)),
    (BinOp("+", Num(1.0), Sym("z")),
     "BinOp(op='+', left=Num(value=1.0), right=Sym(name='z'))",
     ("+", Num(1.0), Sym("z"))),
    (Pow(Sym("z"), 3), "Pow(base=Sym(name='z'), exponent=3)", (Sym("z"), 3)),
    (Call("exp", Sym("z")), "Call(func='exp', arg=Sym(name='z'))",
     ("exp", Sym("z"))),
    (_Token("num", "2.5", 4, 2.5),
     "_Token(kind='num', text='2.5', pos=4, value=2.5)",
     ("num", "2.5", 4, 2.5)),
    (Dyadic(3, -1, 2), "Dyadic(re=3, im=-1, exp=2)", (3, -1, 2)),
    (DyadicPoly((1, 2), (0, -1), 3),
     "DyadicPoly(re=(1, 2), im=(0, -1), exp=3)", ((1, 2), (0, -1), 3)),
    (_Z, "Polynomial(coeffs=(0j, (1+0j)))", ((0j, 1 + 0j),)),
    (LaurentSeries(1 + 0j, -2, (1j, 0j, 3 + 0j)),
     "LaurentSeries(center=(1+0j), valuation=-2, coeffs=(1j, 0j, (3+0j)))",
     (1 + 0j, -2, (1j, 0j, 3 + 0j))),
    (EntireFactor("sin", EvenElement(2.0, -0.0)),
     "EntireFactor(kind='sin', scale=EvenElement(u=2.0, v=-0.0))",
     ("sin", EvenElement(2.0, -0.0))),
    (_POLE, "Pole(location=EvenElement(u=0.0, v=1.0), order=2)",
     (EvenElement(0.0, 1.0), 2)),
    (MeromorphicFunction(_ONE, _Z2_PLUS_1),
     "MeromorphicFunction(num=Polynomial(coeffs=((1+0j),)), "
     "den=Polynomial(coeffs=((1+0j), 0j, (1+0j))), factor=None)",
     (_ONE, _Z2_PLUS_1, None)),
    (_Rational(_ONE, _Z, None),
     "_Rational(num=Polynomial(coeffs=((1+0j),)), "
     "den=Polynomial(coeffs=(0j, (1+0j))), factor=None)", (_ONE, _Z, None)),
    (OneForm(math.hypot, math.atan2),
     "OneForm(k=<built-in function hypot>, g=<built-in function atan2>, "
     "level=None)", (math.hypot, math.atan2, None)),
    (CircleContour(EvenElement(0.5, 0.0), 1.5),
     "CircleContour(center=EvenElement(u=0.5, v=0.0), radius=1.5, "
     "orientation='counterclockwise', clearance=None)",
     (EvenElement(0.5, 0.0), 1.5, "counterclockwise", None)),
    (IntegralResult(-6.25, 0.125, (_POLE,), (EvenElement(0.0, 1.0),), ("w",),
                    "upper"),
     "IntegralResult(real_value=-6.25, imaginary_defect=0.125, "
     "enclosed=(Pole(location=EvenElement(u=0.0, v=1.0), order=2),), "
     "residues=(EvenElement(u=0.0, v=1.0),), warnings=('w',))",
     (-6.25, 0.125, (_POLE,), (EvenElement(0.0, 1.0),), ("w",), "upper")),
    (QuadratureSpec(1e-8), "QuadratureSpec(tol=1e-08)", (1e-8,)),
    (DifferentialReport(True, 1.0, 1.5, 0.5, 0.0, -0.0, 0.0, 1e-8),
     "DifferentialReport(passed=True, symbolic=1.0, quadrature=1.5, "
     "difference=0.5, defect_symbolic=0.0, defect_quadrature=-0.0, "
     "defect_difference=0.0, tol=1e-08)",
     (True, 1.0, 1.5, 0.5, 0.0, -0.0, 0.0, 1e-8)),
    (ResidueReport(_POLE, EvenElement(0.0, -0.5), EvenElement(1.0, 0.0),
                   "order_reduction", ((-2, EvenElement(1.0, 0.0)),)),
     "ResidueReport(pole=Pole(location=EvenElement(u=0.0, v=1.0), order=2), "
     "a_minus_1=EvenElement(u=0.0, v=-0.5), "
     "leading=EvenElement(u=1.0, v=0.0), method='order_reduction', "
     "extracted=((-2, EvenElement(u=1.0, v=0.0)),))",
     (_POLE, EvenElement(0.0, -0.5), EvenElement(1.0, 0.0),
      "order_reduction", ((-2, EvenElement(1.0, 0.0)),))),
    (CheckResult("name", True, "detail"),
     "CheckResult(name='name', passed=True, detail='detail')",
     ("name", True, "detail")),
]
each_value_type = pytest.mark.parametrize(
    "value, text, fields", VALUE_TYPES,
    ids=[type(value).__name__ for value, _, _ in VALUE_TYPES])

# constructors that check their arguments or root a denominator
_VALIDATING = (CircleContour, QuadratureSpec, MeromorphicFunction)

# the defaults each constructor declares, which
# test_value_types_keep_their_defaults relies on
_DEFAULTS = {
    Multivector: {"s": 0.0, "a": 0.0, "b": 0.0, "p": 0.0},
    _Token: {"value": 0.0},
    MeromorphicFunction: {"factor": None, "den_roots": None},
    OneForm: {"level": None},
    CircleContour: {"orientation": COUNTERCLOCKWISE, "clearance": None},
    IntegralResult: {"residues": (), "warnings": (), "half_plane": None},
    QuadratureSpec: {"tol": 1e-10},
    ResidueReport: {"extracted": ()},
}


@each_value_type
def test_value_types_repr_eq_and_hash(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    assert value != type(value)(*fields[:-1], 7.0)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    for other, _, other_fields in VALUE_TYPES:
        if type(other) is type(value):
            continue
        assert value != other
        if len(other_fields) == len(fields) and type(other) not in _VALIDATING:
            assert value != type(other)(*fields)


@each_value_type
def test_value_types_are_frozen_and_slotted(value, text, fields):
    name = type(value).__slots__[0]
    with pytest.raises(FrozenInstanceError):
        setattr(value, name, 9.0)
    with pytest.raises(FrozenInstanceError):
        delattr(value, name)
    with pytest.raises(FrozenInstanceError):
        value.extra = 1.0
    assert repr(value) == text
    assert not hasattr(value, "__dict__")


@each_value_type
def test_value_types_copy_and_pickle(value, text, fields):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == text


@each_value_type
def test_value_types_take_their_fields_as_keywords(value, text, fields):
    names = type(value).__slots__[:len(fields)]
    assert type(value)(**dict(zip(names, fields))) == value
    defaults = _DEFAULTS.get(type(value), {})
    assert [(p.name, p.default) for p in
            inspect.signature(type(value)).parameters.values()] == [
        (f, defaults.get(f, inspect.Parameter.empty))
        for f in type(value).__slots__]


def test_multivector_keeps_its_defaults_and_keywords():
    assert Multivector() == Multivector(0.0, 0.0, 0.0, 0.0)
    assert repr(Multivector(p=2.0, a=1.0)) == (
        "Multivector(s=0.0, a=1.0, b=0.0, p=2.0)")


def test_value_types_keep_their_defaults():
    assert _Token("end", "", 3) == _Token("end", "", 3, 0.0)
    assert MeromorphicFunction(num=_ONE, den=_Z).factor is None
    assert OneForm(k=math.hypot, g=math.atan2).level is None
    contour = CircleContour(center=EvenElement(0.0, 0.0), radius=1.0)
    assert (contour.orientation, contour.clearance) == (COUNTERCLOCKWISE,
                                                         None)
    result = IntegralResult(real_value=0.0, imaginary_defect=0.0, enclosed=())
    assert (result.residues, result.warnings, result.half_plane) == (
        (), (), None)
    assert repr(result) == ("IntegralResult(real_value=0.0, "
                            "imaginary_defect=0.0, enclosed=(), residues=(), "
                            "warnings=())")
    assert QuadratureSpec() == QuadratureSpec(tol=1e-10)
    report = ResidueReport(_POLE, E_ZERO, E_ZERO, "derivative_formula")
    assert report.extracted == ()


def test_den_roots_stay_out_of_eq_hash_and_repr():
    f = MeromorphicFunction(_ONE, _Z2_PLUS_1)
    assert f.den_roots == ((-1j, 1), (1j, 1))
    given = MeromorphicFunction(_ONE, _Z2_PLUS_1, None, ((5j, 2),))
    assert given.den_roots == ((5j, 2),)  # taken as given, not found
    assert given == f and hash(given) == hash(f) and repr(given) == repr(f)
    for twin in (copy.copy(given), pickle.loads(pickle.dumps(given))):
        assert twin.den_roots == ((5j, 2),)
    assert MeromorphicFunction(_ONE, _Z) != _Rational(_ONE, _Z, None)


def test_half_plane_is_compared_but_not_shown():
    upper, lower = (IntegralResult(1.0, 0.0, (), half_plane=side)
                    for side in ("upper", "lower"))
    assert upper != lower and repr(upper) == repr(lower)
    assert hash(upper) == hash((1.0, 0.0, (), (), (), "upper"))


@pytest.mark.parametrize("build, message", [
    (lambda: CircleContour(E_ZERO, 0.0), "radius must be positive"),
    (lambda: CircleContour(E_ZERO, -1.0), "radius must be positive"),
    (lambda: CircleContour(E_ZERO, math.nan), "radius must be positive"),
    (lambda: CircleContour(E_ZERO, 1.0, "sideways"),
     "unknown orientation 'sideways'"),
    (lambda: CircleContour(E_ZERO, 1.0, clearance=0.0),
     "clearance must be positive"),
    (lambda: CircleContour(E_ZERO, 1.0, CLOCKWISE, math.nan),
     "clearance must be positive"),
    (lambda: QuadratureSpec(0.0), "tol must be positive"),
    (lambda: QuadratureSpec(tol=-1e-8), "tol must be positive"),
    (lambda: QuadratureSpec(math.nan), "tol must be positive"),
])
def test_contour_and_spec_constructors_check_their_arguments(build, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        build()


def test_importing_the_package_builds_no_dataclass():
    # each frozen dataclass costs about 1 ms of import time, which every
    # CLI call pays; the value classes are slotted on algebra._Frozen
    modules = ", ".join(f"dxdy.{m.name}"
                        for m in pkgutil.iter_modules(dxdy.__path__)
                        if m.name != "__main__")
    code = ("import dataclasses\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('dataclass built at import')\n"
            "dataclasses.dataclass = refuse\n"
            f"import dxdy, {modules}\n")
    src = os.path.dirname(os.path.dirname(dxdy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    # together they cost about 15 ms of every CLI call's start; the frozen
    # classes import FrozenInstanceError only when they raise it
    code = ("import sys, dxdy.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(dxdy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _binary_power(x, m):
    """Plain binary powering, squaring once more after the top bit too."""
    if m < 0:
        return _binary_power(reference_inv(x), -m)
    result = even(1, 0)
    base = x
    while m > 0:
        if m & 1:
            result = even_mul(result, base)
        base = even_mul(base, base)
        m >>= 1
    return result


def _bits(power, x, m):
    try:
        y = power(x, m)
    except ArithmeticError as err:
        return type(err)
    return float.hex(y.u), float.hex(y.v)


def test_even_int_pow_matches_the_plain_binary_loop_bit_for_bit():
    parts = (0.0, -0.0, 1.0, -1.5, 0.7, math.inf, -math.inf, math.nan,
             5e-324, -2.2e-308, 1e154, -3e307)
    for u, v in itertools.product(parts, repeat=2):
        x = even(u, v)
        for m in range(-9, 10):
            assert _bits(even_int_pow, x, m) == _bits(_binary_power, x, m), \
                (u, v, m)
    assert _bits(even_int_pow, even(-0.0, 0.0), -3) is ZeroDivisionError
