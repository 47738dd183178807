"""Algebra kernel: basis relations, even arithmetic, polar decomposition."""

import copy
import itertools
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxdy.algebra import (DX, DXDY, DY, EvenElement, GradeError, Multivector,
                          PolarForm, complex_cos, complex_exp, complex_inv,
                          complex_sin, dot_one_forms, even, even_int_pow,
                          even_mul, from_polar, mv_product, one_form, to_polar)
from dxdy.errors import RangeError

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


# (value, its repr, its field tuple) for each immutable value type
VALUE_TYPES = [
    (EvenElement(1.0, 2.0), "EvenElement(u=1.0, v=2.0)", (1.0, 2.0)),
    (Multivector(1.0, -0.0, 3.5, -4.0),
     "Multivector(s=1.0, a=-0.0, b=3.5, p=-4.0)", (1.0, -0.0, 3.5, -4.0)),
    (PolarForm(2.0, 0.5), "PolarForm(rho=2.0, phi=0.5)", (2.0, 0.5)),
]
each_value_type = pytest.mark.parametrize(
    "value, text, fields", VALUE_TYPES,
    ids=[type(value).__name__ for value, _, _ in VALUE_TYPES])


@each_value_type
def test_value_types_repr_eq_and_hash(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    assert value != type(value)(*fields[:-1], 7.0)
    assert value.__eq__(fields) is NotImplemented
    assert value != fields
    for other, _, other_fields in VALUE_TYPES:
        if type(other) is not type(value) and len(other_fields) == len(fields):
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


def test_multivector_keeps_its_defaults_and_keywords():
    assert Multivector() == Multivector(0.0, 0.0, 0.0, 0.0)
    assert repr(Multivector(p=2.0, a=1.0)) == (
        "Multivector(s=0.0, a=1.0, b=0.0, p=2.0)")


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
