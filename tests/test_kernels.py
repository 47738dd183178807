"""Float-pair kernels on `complex` against the even-element reference loops.

Polynomials and Laurent series hold `complex` coefficients, and the series,
polynomial and Aberth loops compute on them; Python's complex +, - and *
are the even subalgebra's operations bit for bit.  The references below
are the same loops written on `EvenElement`; every result must agree in
the hex digits of both parts.  The inverse, integer power and exp/sin/cos
kernels, the entire series, and the value f(z) of a meromorphic function
are checked against the EvenElement bodies in ``helpers``.  The Aberth
iteration is checked against a plainly written one (the centroid rule and
its guard, Bini's start by gift wrapping, one Horner step per run of zero
coefficients, a loop over j != i), and on coefficients with no zero
against the same loop with one step per coefficient; it must also stop
at the rounding floor of a multiple root, and not before convergence
anywhere else.  `taylor_shift` and `Polynomial.__mul__` are also checked
against their plain complex loops (every synthetic-division pass kept
whole, every product added) on signed zeros, subnormals, inf and NaN.
A last group checks that `local_expansion`, which runs the series loops
on coefficient tuples, gives the bits of `series_mul` and `series_inv` on
the wider padded window it used to build, at table roots, at regular
points, and beside multiple poles, where it shifts exactly.
"""

import cmath
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dxdy import roots
from dxdy.algebra import (E_ZERO, ENTIRE_KERNELS, EvenElement,
                          complex_int_pow, complex_inv, even, even_int_pow,
                          even_mul)
from dxdy.errors import ComputationError
from dxdy.exactmath import dyadic_poly, dyadic_taylor_shift
from dxdy.functions import (EntireFactor, MeromorphicFunction, _untrusted,
                            find_poles, local_expansion,
                            meromorphic_from_text)
from dxdy.polynomials import ZERO_POLY, Polynomial
from dxdy.series import (ZERO_ULPS, LaurentSeries, entire_series,
                         series_inv, series_mul)

from helpers import REFERENCE_CALLS, reference_int_pow, reference_inv


# ---------------------------------------------------------------------------
# reference: the same loops on EvenElement, converted once each way

def evens(coeffs):
    return [EvenElement(c.real, c.imag) for c in coeffs]


def reference_series_mul(a, b):
    trunc = min(a.truncation_order + b.valuation,
                b.truncation_order + a.valuation)
    if a.is_zero() or b.is_zero():
        return LaurentSeries(a.center, trunc + 1, ())
    lo = a.valuation + b.valuation
    length = trunc - lo + 1
    out = [E_ZERO] * length
    for i, ca in enumerate(evens(a.coeffs)):
        if i >= length:
            break
        for j, cb in enumerate(evens(b.coeffs)):
            if i + j >= length:
                break
            out[i + j] = out[i + j] + even_mul(ca, cb)
    return LaurentSeries(a.center, lo, tuple(map(complex, out)))


def reference_series_inv(a):
    coeffs = evens(a.coeffs)
    n = len(coeffs)
    inv_lead = reference_inv(coeffs[0])
    out = [E_ZERO] * n
    out[0] = inv_lead
    for k in range(1, n):
        acc = E_ZERO
        for i in range(1, k + 1):
            acc = acc + even_mul(coeffs[i], out[k - i])
        out[k] = -even_mul(acc, inv_lead)
    return LaurentSeries(a.center, -a.valuation, tuple(map(complex, out)))


def reference_series_evaluate(s, dz):
    if s.is_zero():
        return E_ZERO
    acc = E_ZERO
    for c in reversed(evens(s.coeffs)):
        acc = even_mul(acc, dz) + c
    return even_mul(acc, reference_int_pow(dz, s.valuation))


def reference_call(p, z):
    acc = E_ZERO
    for c in reversed(evens(p.coeffs)):
        acc = even_mul(acc, z) + c
    return acc


def reference_add(p, q, negate=False):
    """p + q, or p - q as p + (-q), each zero-padded to the longer."""
    a = evens(p.coeffs)
    b = [-c for c in evens(q.coeffs)] if negate else evens(q.coeffs)
    n = max(len(a), len(b))
    a += [E_ZERO] * (n - len(a))
    b += [E_ZERO] * (n - len(b))
    return Polynomial.from_coeffs([x + y for x, y in zip(a, b)])


def reference_mul(p, q):
    if p.is_zero() or q.is_zero():
        return ZERO_POLY
    out = [E_ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(evens(p.coeffs)):
        for j, b in enumerate(evens(q.coeffs)):
            out[i + j] = out[i + j] + even_mul(a, b)
    return Polynomial.from_coeffs(out)


def reference_deflate(p, root):
    if p.is_zero():
        return ZERO_POLY, E_ZERO
    coeffs = evens(p.coeffs)
    acc = E_ZERO
    out = [E_ZERO] * max(len(coeffs) - 1, 0)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = even_mul(acc, root) + coeffs[k]
        if k > 0:
            out[k - 1] = acc
    return Polynomial.from_coeffs(out), acc


def reference_taylor_shift(p, center):
    if p.is_zero():
        return ()
    work = evens(p.coeffs)
    n = len(work)
    out = []
    for _ in range(n):
        acc = E_ZERO
        for k in range(n - 1, -1, -1):
            acc = even_mul(acc, center) + work[k]
            work[k] = acc
        out.append(work[0])
        work = work[1:]
        n -= 1
    return tuple(out)


def reference_meromorphic_call(f, z):
    value = even_mul(reference_call(f.num, z),
                     reference_inv(reference_call(f.den, z)))
    if f.factor is not None:
        value = even_mul(value, REFERENCE_CALLS[f.factor.kind](
            even_mul(f.factor.scale, z)))
    return value


def reference_zero_order(kind, w0, value, slope):
    """sin(0) is a zero; otherwise a zero needs |F(w0)| within 1e-9 of
    |F'(w0)| + |F(w0)| and w0 within ZERO_ULPS ulps of the nearest zero
    k*pi of sin, k != 0, or (k + 1/2)*pi of cos.  Inside the 1e-9 band
    but farther from the zero, the call raises ComputationError."""
    if kind == "sin" and w0.u == 0 and w0.v == 0:
        return 1
    if abs(value) > 1e-9 * (abs(slope) + abs(value)):
        return 0
    half = 0.5 if kind == "cos" else 0.0
    k = round(w0.u / math.pi - half)
    if kind == "sin" and k == 0:
        return 0
    zero = (k + half) * math.pi
    if math.hypot(w0.u - zero, w0.v) <= ZERO_ULPS * math.ulp(zero):
        return 1
    raise ComputationError(
        f"{kind} argument {w0} lies {math.hypot(w0.u - zero, w0.v):.3g} "
        f"from the zero {zero!r}: too close to tell whether it is that zero")


def reference_entire_series(kind, scale, center, order):
    """entire_series on EvenElement: the derivative cycle of the helpers'
    exp/sin/cos at scale*center, times scale^k / k!."""
    w0 = even_mul(scale, center)
    if kind == "exp":
        cycle = [REFERENCE_CALLS["exp"](w0)]
        valuation = 0
    else:
        s0, c0 = REFERENCE_CALLS["sin"](w0), REFERENCE_CALLS["cos"](w0)
        cycle = [s0, c0, -s0, -c0] if kind == "sin" else [c0, -s0, -c0, s0]
        valuation = reference_zero_order(kind, w0, cycle[0], cycle[1])
    coeffs = []
    power = even(1.0)
    for k in range(order + 1):
        if k > 0:
            power = even_mul(power, scale) / k
        coeffs.append(even_mul(cycle[k % len(cycle)], power))
    return LaurentSeries(complex(center), valuation,
                         tuple(map(complex, coeffs[valuation:])))


def reference_start(coeffs):
    """Bini's start by gift wrapping: from each hull vertex k1 the next is
    the k2 > k1 of steepest slope of log|a_k| (the farthest on a tie)."""
    n = len(coeffs) - 1
    logs = {k: math.log(abs(c)) for k, c in enumerate(coeffs) if c}
    k1 = min(logs)
    circles = []
    while k1 < n:
        slopes = {k: (logs[k] - logs[k1]) / (k - k1) for k in logs if k > k1}
        steepest = max(slopes.values())
        k2 = max(k for k, slope in slopes.items() if slope == steepest)
        circles.append((math.exp((logs[k1] - logs[k2]) / (k2 - k1)), k2 - k1))
        k1 = k2
    xs = [0j] * min(logs)
    for edge, (radius, count) in enumerate(circles):
        xs += [radius * cmath.exp(1j * (2.0 * math.pi * j / count
                                        + 2.0 * math.pi * edge / n
                                        + roots._PHASE))
               for j in range(count)]
    return xs


def reference_centroid_start(coeffs):
    """Aberth's centroid c = -a_{n-1}/n: when c != 0, |p(c)| < |p(0)| and
    the Taylor shift of p to c is finite, Bini's start of the shifted
    polynomial moved back by c; otherwise Bini's start of p."""
    n = len(coeffs) - 1
    c = -coeffs[n - 1] / n
    if c == 0:
        return reference_start(coeffs)
    p = Polynomial.from_coeffs(coeffs)
    at_c = complex(reference_call(p, EvenElement(c.real, c.imag)))
    shifted = list(map(complex, reference_taylor_shift(
        p, EvenElement(c.real, c.imag))))
    if abs(at_c) < abs(coeffs[0]) and all(map(cmath.isfinite, shifted)):
        return [c + w for w in reference_start(shifted)]
    return reference_start(coeffs)


def dense_horner(coeffs):
    """p, p' and Higham's rounding bound sum |a_k| |x|^k at x, one Horner
    step per coefficient: what _aberth must reproduce, bit for bit, on
    coefficients with no zero."""
    def horner(x):
        p = dp = 0j
        bound = 0.0
        for c in reversed(coeffs):
            dp = dp * x + p
            p = p * x + c
            bound = bound * abs(x) + abs(c)
        return p, dp, bound
    return horner


def zero_run_horner(coeffs):
    """The same three values, one step per run of g coefficients that are
    all zero but the last one c (c_0 always ends a run): p x^g + c,
    (p' x + g p) x^(g-1) and bound |x|^g + |c|, with x^(g-1) by binary
    powering.  A run of one is the dense step."""
    n = len(coeffs) - 1
    stops = [k for k in range(n - 1, -1, -1) if coeffs[k] != 0 or k == 0]

    def horner(x):
        p, dp, bound = coeffs[n], 0j, abs(coeffs[n])
        top = n
        for k in stops:
            g, c = top - k, coeffs[k]
            if g == 1:
                dp = dp * x + p
                p = p * x + c
            else:
                power = complex_int_pow(x, g - 1)
                dp = (dp * x + g * p) * power
                p = p * (power * x) + c
            bound = bound * abs(x) ** g + abs(c)
            top = k
        return p, dp, bound
    return horner


def reference_aberth(coeffs, make_horner=zero_run_horner):
    """_aberth written plainly: p, p' and the rounding bound from
    ``make_horner(coeffs)``, the pull a loop over j != i."""
    horner = make_horner(coeffs)
    n = len(coeffs) - 1
    slack = roots.DK_FLOOR * (n + 1) * sys.float_info.epsilon

    def at_floor_start(x):
        # vanishes_at's dense Horner, as in _aberth
        p, _, bound = dense_horner(coeffs)(x)
        return abs(p) <= slack * bound and math.isfinite(bound)

    xs = reference_centroid_start(coeffs)
    if all(map(at_floor_start, xs)):
        return xs  # a start at the rounding floor gets no sweep
    for _ in range(roots._MAX_SWEEPS):
        delta = 0.0
        scale = 1.0
        at_floor = True
        for i in range(n):
            xi = xs[i]
            p, dp, bound = horner(xi)
            if not math.isfinite(bound):
                raise roots.RootFindingError("left the double range")
            if abs(p) > slack * bound:
                at_floor = False
            if p == 0:
                continue
            # no nudge for coincident iterates: these inputs never meet one
            pull = 0j
            for j in range(n):
                if j != i:
                    pull += 1.0 / (xi - xs[j])
            newton = p / dp
            step = newton / (1.0 - newton * pull)
            xs[i] = xi - step
            delta = max(delta, abs(step))
            scale = max(scale, abs(xs[i]))
        if delta <= 5e-15 * scale or at_floor:
            break
    return xs


def reference_local_expansion(f, center, window):
    """local_expansion from the public series functions, every product
    over the padded length, each factor shifted in full.

    The valuations are the structural ones: the denominator starts at the
    multiplicity of the table root located at center, the numerator at 0.
    At a regular point whose float t_0 the trust test rejects, as beside
    a multiple pole, a polynomial is shifted exactly.
    """
    x = complex(center)
    at = [mult for loc, mult in f.den_roots if loc == x]

    def poly_series(p, valuation, length):
        if not at and _untrusted(p, x):
            shifted = [t.to_complex() for t in dyadic_taylor_shift(
                dyadic_poly(p.coeffs), x, len(p.coeffs))]
        else:
            shifted = list(p.taylor_shift(x))
        shifted = shifted[valuation:] + [0j] * length
        return LaurentSeries(x, valuation, tuple(shifted[:length]))

    if f.is_zero():
        return LaurentSeries(x, 0, ())
    length = window + f.den.degree + 2
    result = series_mul(poly_series(f.num, 0, length),
                        series_inv(poly_series(f.den, sum(at), length)))
    if f.factor is not None:
        result = series_mul(
            result, entire_series(f.factor.kind, complex(f.factor.scale), x,
                                  length - 1))
    return LaurentSeries(x, result.valuation, result.coeffs[:window])


# ---------------------------------------------------------------------------
# bit-level comparison

def bits(x) -> tuple[str, str]:
    """Both parts in hex, of an EvenElement or a complex."""
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def series_bits(s: LaurentSeries):
    return bits(s.center), s.valuation, [bits(c) for c in s.coeffs]


def poly_bits(p: Polynomial):
    return [bits(c) for c in p.coeffs]


def outcome(compute, convert):
    """The result in bits, or the exception it raises."""
    try:
        value = compute()
    except (ZeroDivisionError, ComputationError) as err:
        return type(err), str(err)
    return convert(value)


# ---------------------------------------------------------------------------
# strategies: signed zeros, subnormals, and magnitudes near 1, 1e-150 and
# 1e150 (whose products reach the ends of the double range)

_exponents = st.one_of(st.integers(-1074, -1022), st.integers(-510, -490),
                       st.integers(-30, 30), st.integers(490, 510))
_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e),
              st.floats(0.5, 1.0, exclude_max=True), _exponents,
              st.booleans()))
_even = st.builds(EvenElement, _parts, _parts)
_coeffs = st.lists(st.builds(complex, _parts, _parts), min_size=1, max_size=8)
_series = st.builds(lambda v, cs: LaurentSeries(0j, v, tuple(cs)),
                    st.integers(-3, 3), _coeffs)
_poly = st.builds(Polynomial.from_coeffs, st.lists(_even, max_size=7))


@settings(max_examples=100, deadline=None)
@given(_series, _series)
def test_series_mul_matches_reference(a, b):
    assert (series_bits(series_mul(a, b))
            == series_bits(reference_series_mul(a, b)))


@settings(max_examples=100, deadline=None)
@given(_series)
def test_series_inv_matches_reference(a):
    assert (outcome(lambda: series_inv(a), series_bits)
            == outcome(lambda: reference_series_inv(a), series_bits))


@settings(max_examples=100, deadline=None)
@given(_series, _even)
def test_series_evaluate_matches_reference(s, dz):
    assert (outcome(lambda: s.evaluate(dz), bits)
            == outcome(lambda: reference_series_evaluate(s, dz), bits))


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_polynomial_call_matches_reference(p, z):
    assert bits(p(z)) == bits(reference_call(p, z))


# the inverse and power kernels: both 2^+-600 rescalings (|x|^2 underflows
# to 0 below about 2^-537 and overflows to inf above 2^512), non-finite parts
_kernel_exponents = st.one_of(
    st.integers(-1074, -1000), st.integers(-560, -500), st.integers(-30, 30),
    st.integers(500, 560), st.integers(1000, 1023))
_kernel_parts = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e),
              st.floats(0.5, 1.0, exclude_max=True), _kernel_exponents,
              st.booleans()))
_kernel_even = st.builds(EvenElement, _kernel_parts, _kernel_parts)


@settings(max_examples=300, deadline=None)
@example(even(1e-170, -0.0), -3)  # |x|^2 underflows: the 2^600 path
@example(even(-0.0, 3e-163), 5)
@example(even(1e200, 1e-300), -2)  # |x|^2 overflows: the 2^-600 path
@example(even(-1e308, 1e308), 1)
@example(even(0.0, -0.0), -1)
@example(even(math.inf, math.nan), -40)
@given(_kernel_even, st.integers(-40, 40))
def test_inverse_and_power_kernels_match_the_even_element_bodies(x, m):
    c = complex(x)
    want = outcome(lambda: reference_inv(x), bits)
    assert outcome(lambda: complex_inv(c), bits) == want
    want = outcome(lambda: reference_int_pow(x, m), bits)
    assert outcome(lambda: complex_int_pow(c, m), bits) == want
    assert outcome(lambda: even_int_pow(x, m), bits) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ENTIRE_KERNELS)), _kernel_even)
def test_entire_kernels_match_the_even_element_bodies(kind, x):
    assert (outcome(lambda: ENTIRE_KERNELS[kind](complex(x)), bits)
            == outcome(lambda: REFERENCE_CALLS[kind](x), bits))


_factor = st.one_of(st.none(), st.builds(
    EntireFactor, st.sampled_from(sorted(ENTIRE_KERNELS)), _even))


@settings(max_examples=200, deadline=None)
@given(_poly, _poly, _factor, _even)
def test_meromorphic_call_matches_reference(num, den, factor, z):
    # den_roots=() skips rooting: only the value is under test
    f = MeromorphicFunction(num, den, factor, den_roots=())
    assert (outcome(lambda: f(z), bits)
            == outcome(lambda: reference_meromorphic_call(f, z), bits))


def test_meromorphic_call_on_random_rationals_with_entire_factors():
    rng = random.Random(15)
    for _ in range(60):
        num = Polynomial.from_coeffs(
            [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(rng.randint(1, 5))])
        den = Polynomial.from_coeffs(
            [even(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(rng.randint(1, 6))])
        factor = EntireFactor(rng.choice(["exp", "sin", "cos"]),
                              even(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        f = MeromorphicFunction(num, den, factor)
        for _ in range(5):
            z = even(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert bits(f(z)) == bits(reference_meromorphic_call(f, z))


@settings(max_examples=100, deadline=None)
@given(_poly, _poly)
def test_polynomial_mul_matches_reference(p, q):
    assert poly_bits(p * q) == poly_bits(reference_mul(p, q))


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_polynomial_scale_matches_reference(p, c):
    want = Polynomial.from_coeffs([even_mul(c, a) for a in evens(p.coeffs)])
    assert poly_bits(p.scale(complex(c))) == poly_bits(want)


# a -0.0 part turns +0.0 where it meets the zero padding: -0.0 + 0.0
_SIGNED_ZERO_POLYS = (
    Polynomial.from_coeffs([complex(-0.0, -0.0), complex(1.0, -0.0)]),
    Polynomial.from_coeffs([complex(-0.0, 2.0)]),
    Polynomial.from_coeffs([complex(0.0, -0.0), 0j, complex(-0.0, 1.0)]))


@settings(max_examples=100, deadline=None)
@example(*_SIGNED_ZERO_POLYS[:2])
@example(*_SIGNED_ZERO_POLYS[1:])
@example(_SIGNED_ZERO_POLYS[2], _SIGNED_ZERO_POLYS[0])
@given(_poly, _poly)
def test_polynomial_add_and_sub_match_reference(p, q):
    assert poly_bits(p + q) == poly_bits(reference_add(p, q))
    assert poly_bits(p - q) == poly_bits(reference_add(p, q, negate=True))


@settings(max_examples=100, deadline=None)
@example(_SIGNED_ZERO_POLYS[0], even(-0.0, 0.0))
@example(_SIGNED_ZERO_POLYS[2], even(0.5, -0.0))
@given(_poly, _even)
def test_deflate_matches_reference(p, root):
    ref_quotient, ref_remainder = reference_deflate(p, root)
    assert poly_bits(p.deflate(complex(root))) == poly_bits(ref_quotient)
    # the remainder of synthetic division is the Horner value
    assert bits(p(root)) == bits(ref_remainder)


@settings(max_examples=100, deadline=None)
@given(_poly, _even)
def test_taylor_shift_matches_reference(p, center):
    assert ([bits(t) for t in p.taylor_shift(complex(center))]
            == [bits(t) for t in reference_taylor_shift(p, center)])


@settings(max_examples=100, deadline=None)
@given(_poly, _even, st.integers(0, 9))
def test_truncated_taylor_shift_is_the_head_of_the_full_shift(p, center,
                                                              terms):
    x = complex(center)
    assert ([bits(t) for t in p.taylor_shift(x, terms)]
            == [bits(t) for t in p.taylor_shift(x)][:terms])


# taylor_shift's last passes and the product's skipped zeros: the same
# bits as the plain loops, on parts that include the signed zeros, ±1,
# subnormals, the top of the range, inf and NaN

_special_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-310, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    _parts)
_special_coeffs = st.lists(st.builds(complex, _special_parts, _special_parts),
                           max_size=8)


def synthetic_division_shift(coeffs, center, terms):
    """t_0 .. t_{terms-1} by repeated synthetic division, every pass kept
    whole, on complex as taylor_shift computes."""
    work = list(reversed(coeffs))
    out = []
    for _ in range(min(terms, len(work))):
        acc = 0j
        quotient = []
        for c in work:
            acc = acc * center + c
            quotient.append(acc)
        out.append(quotient.pop())
        work = quotient
    return tuple(out)


def dense_product(p, q):
    """p * q with every pair of coefficients multiplied and added."""
    if p.is_zero() or q.is_zero():
        return ()
    out = [0j] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@settings(max_examples=300, deadline=None)
@example([1e308, -0.0, complex(-1e-310, -0.0)], complex(-1.0, 0.0))
@example([complex(0.0, -0.0), 1.0], complex(5e-324, -0.0))
@example([1.0, complex(math.inf, 0.0), 2.0], complex(1.0, -0.0))
@example([1.0, 2.0, 3.0], complex(math.nan, 0.0))
@given(_special_coeffs, st.builds(complex, _special_parts, _special_parts))
def test_taylor_shift_keeps_the_bits_of_repeated_synthetic_division(
        coeffs, center):
    p = Polynomial(tuple(coeffs))
    for terms in [*range(len(coeffs) + 2), None]:
        want = synthetic_division_shift(
            coeffs, center, len(coeffs) if terms is None else terms)
        assert repr(p.taylor_shift(center, terms)) == repr(want), terms


@settings(max_examples=300, deadline=None)
@example([0.0, 1.0], [complex(0.0, -0.0), -0.0, 2.0])
@example([complex(0.0, -0.0), -0.0, 1.0], [-1.0, -0.0, 1.0])
@given(_special_coeffs, _special_coeffs)
def test_polynomial_mul_skips_zeros_with_the_dense_bits(xs, ys):
    # drop the trailing zeros that from_coeffs would: a polynomial never
    # ends on one
    p, q = Polynomial.from_coeffs(xs), Polynomial.from_coeffs(ys)
    got, want = (p * q).coeffs, dense_product(p, q)
    if all(map(cmath.isfinite, p.coeffs + q.coeffs)):
        assert repr(got) == repr(want)
    else:
        # a skipped 0 * inf is a NaN the dense loop adds, so only the
        # verdict of a finiteness check is kept
        assert (all(map(cmath.isfinite, got))
                == all(map(cmath.isfinite, want)))


@settings(max_examples=200, deadline=None)
@example("sin", even(-0.0, 1.0), even(0.0, -0.0), 6)  # sin(0): valuation 1
@example("cos", even(1.0, -0.0), even(-0.0, 0.5), 5)
@example("exp", even(-0.0, -0.0), even(2.0, -0.0), 4)
@example("sin", even(1.0, 0.0), even(1e-10, 0.0), 3)  # no zero beside 0
@example("sin", even(math.pi, 0.0), even(3.0, 0.0), 3)  # on 3*pi
@example("sin", even(1.0, 0.0), even(3.1415926535, 0.0), 3)  # undecided
@given(st.sampled_from(sorted(ENTIRE_KERNELS)), _even, _even,
       st.integers(0, 12))
def test_entire_series_matches_reference(kind, scale, center, order):
    # the k! division scales each part: complex / k would turn -0.0 to +0.0
    assert (outcome(lambda: entire_series(kind, complex(scale),
                                          complex(center), order), series_bits)
            == outcome(lambda: reference_entire_series(kind, scale, center,
                                                       order), series_bits))


def test_cached_coefficients_leave_equality_alone():
    p = Polynomial.from_coeffs([even(1.5, -2.0), even(0.0, 3.0)])
    before = (repr(p), hash(p))
    p(even(0.25, 0.5))
    q = Polynomial(p.coeffs)
    assert (repr(p), hash(p)) == before
    assert p == q and hash(p) == hash(q)


def _hex_bits(xs):
    return [(x.real.hex(), x.imag.hex()) for x in xs]


@pytest.mark.parametrize("m", range(2, 14))
def test_durand_kerner_iterates_on_multiple_roots(m):
    # Aberth on (z-1)^m (the name is older than the iteration)
    monic = [complex(math.comb(m, k) * (-1) ** (m - k)) for k in range(m + 1)]
    assert (_hex_bits(roots._aberth(monic))
            == _hex_bits(reference_aberth(monic)))


def test_aberth_iterates_on_binomials():
    rng = random.Random(20)
    for n in range(3, 16):
        for _ in range(3):
            c = cmath.rect(rng.uniform(0.5, 1.4), rng.uniform(-math.pi, math.pi))
            monic = [c] + [0j] * (n - 1) + [1 + 0j]
            assert (_hex_bits(roots._aberth(monic))
                    == _hex_bits(reference_aberth(monic)))


def _random_monic(rng, n, sparse=False):
    """n random coefficients and a leading 1; with sparse, each is zero
    with probability 1/2."""
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
              if not sparse or rng.random() < 0.5 else 0j
              for _ in range(n)]
    return coeffs + [1 + 0j]


def test_dense_polynomials_keep_the_dense_iterates():
    # with no zero coefficient every run has length 1: the iterates are
    # those of one Horner step per coefficient, bit for bit
    rng = random.Random(25)
    cases = [_random_monic(rng, rng.randint(1, 16)) for _ in range(60)]
    # dividing by a negative lead makes the leading 1 carry -0.0
    cases += [[c / -2.0 for c in _random_monic(rng, rng.randint(1, 16))]
              for _ in range(20)]
    cases += [[complex(math.comb(m, k) * (-1) ** (m - k))
               for k in range(m + 1)] for m in range(2, 14)]
    for monic in cases:
        assert all(monic)
        assert (_hex_bits(roots._aberth(monic))
                == _hex_bits(reference_aberth(monic, dense_horner)))


def _interior_run(n, k, a, b):
    # z^n + a z^k + b: runs of n - k and k
    return [b] + [0j] * (k - 1) + [a] + [0j] * (n - k - 1) + [1 + 0j]


_ZERO_RUN_CASES = [
    # a run at the top
    *([0.8 - 0.3j] + [0j] * (n - 1) + [1 + 0j] for n in (2, 7, 40, 130)),
    # interior runs, and runs of one beside longer ones
    _interior_run(9, 4, 0.5 + 1j, -2 + 0.1j),
    _interior_run(12, 1, -3j, 0.25),
    _interior_run(12, 11, 1.5, 0.7 + 0.7j),
    [1j, 0j, 0j, 2 + 0j, -1 + 0j, 0j, 0j, 0j, 0.5 + 0.5j, 0j, 1 + 0j],
    # zeros at the bottom: roots at 0
    [0j, 0j, 0j, -1 + 2j, 0j, 0j, 1 + 0j],
    [0j, 0j, 4 + 0j, 0j, 1 + 0j],
    [0j, 0.3 + 0j, 0j, 0j, 0j, 1 + 0j],
    # (x^2 + a^2)^2 and x^4 + a^4, a = 1.7
    [1.7 ** 4 + 0j, 0j, 2 * 1.7 ** 2 + 0j, 0j, 1 + 0j],
    [1.7 ** 4 + 0j, 0j, 0j, 0j, 1 + 0j],
]


@pytest.mark.parametrize("monic", _ZERO_RUN_CASES)
def test_zero_runs_take_one_step_each(monic):
    xs = roots._aberth(monic)
    assert _hex_bits(xs) == _hex_bits(reference_aberth(monic))
    # the raw iterates sit where the dense pass puts them, up to the
    # scatter of a multiple root
    n = len(monic) - 1
    dense = reference_aberth(monic, dense_horner)
    for x in xs:
        assert min(abs(x - y) for y in dense) <= 1e-4 * (1 + abs(x)), n


def test_zero_run_power_overflow_leaves_the_double_range(monkeypatch):
    # iterates far beyond the roots, where x^(g-1) or |x|^g overflows in
    # one step, stop the search as the dense pass's infinite bound did
    for modulus in (1e100, 1e200):
        start = [modulus * cmath.exp(1j * k) for k in range(4)]
        monkeypatch.setattr(roots, "_centroid_start",
                            lambda coeffs, start=start: list(start))
        for monic in ([2j, 0j, 0j, 0j, 1 + 0j], [2j, 1 + 0j, 0j, 0j, 1 + 0j]):
            with pytest.raises(roots.RootFindingError,
                               match="left the double range"):
                roots.find_roots(monic)


def _outcome_bits(call):
    try:
        return [(_hex_bits([x]), m) for x, m in call()]
    except ComputationError as err:
        return f"{type(err).__name__}: {err}"


def test_sparse_simple_roots_polish_to_the_dense_bits(monkeypatch):
    # the exact polish lands each simple root on the double it reached
    # from the dense iterates
    rng = random.Random(2025)
    dense_aberth = lambda coeffs: reference_aberth(coeffs, dense_horner)
    simple = 0
    while simple < 2000:
        monic = _random_monic(rng, rng.randint(2, 12), sparse=True)
        if not any(monic[1:-1]):
            continue
        got = _outcome_bits(lambda: roots.find_roots(monic))
        with monkeypatch.context() as patch:
            patch.setattr(roots, "_aberth", dense_aberth)
            want = _outcome_bits(lambda: roots.find_roots(monic))
        assert got == want, monic
        simple += isinstance(got, list) and all(m == 1 for _, m in got)


def _monic_power(a, m):
    return list(Polynomial.from_coeffs([-a, 1]).int_pow(m).coeffs)


# the roots of p(c + w) lie nearer 0 than those of p: the start moves
_CENTROID_SHIFTED = [
    [c + 1e-3 if k == 0 else c for k, c in enumerate(_monic_power(2, 10))],
    list((Polynomial.from_coeffs([-1 - 1j, 1]).int_pow(6)
          * Polynomial.from_coeffs([1, 1])).coeffs),
]

# coefficients up to about 1e38, whose p(c) far exceeds p(0): the start
# stays about the origin
_CENTROID_KEPT = [
    [103.22843768735174 - 4.095392554173994j,
     -7.83437627339637e-34 - 1.010697633486764e-33j,
     1.44057372466962e+36 - 4.443394519571875e+36j, 1 + 0j],
    [3.0677751310322324e-44 + 2.0895160488768345e-44j,
     5.601302054165971e+37 - 9.930526026349237e+37j,
     5.587837006293008e-54 - 1.25250425022231e-54j,
     -6.19914631615057e+36 + 3.510259984944766e+36j,
     -3.495313525892368e+35 - 2.4326436561467153e+35j, 1 + 0j],
]


@pytest.mark.parametrize("monic", _CENTROID_SHIFTED + _CENTROID_KEPT)
def test_centroid_start_matches_reference(monic):
    shifted = monic in _CENTROID_SHIFTED
    xs = roots._centroid_start(monic)
    assert _hex_bits(xs) == _hex_bits(reference_centroid_start(monic))
    assert (_hex_bits(xs) != _hex_bits(roots._start_points(monic))) == shifted
    assert (_hex_bits(roots._aberth(monic))
            == _hex_bits(reference_aberth(monic)))


@pytest.mark.parametrize("a", [1 + 0j, 0.5j, -2 + 1j])
def test_pure_powers_need_no_sweep(monkeypatch, a):
    # (z - a)^m shifts to w^m exactly: every iterate starts on a, where
    # p = 0 puts the start at the floor, so not even one sweep runs
    monkeypatch.setattr(roots, "_MAX_SWEEPS", 0)
    for m in range(2, 21):
        assert roots._aberth(_monic_power(a, m)) == [a] * m, m
        assert roots.find_roots(_monic_power(a, m)) == [(a, m)], m


def test_rounded_power_keeps_its_centroid_ring():
    # the folded (z - a)^11 rounds its low coefficients to about 1e-10:
    # its roots lie about 0.12 from a, the start ring sits there at the
    # floor, and a sweep of noise-driven steps would link 10 of 11
    a = -1.140625 - 1.796875j
    monic = _monic_power(a, 11)
    low = Polynomial(tuple(monic)).taylor_shift(a)[:11]
    assert 1e-11 < max(map(abs, low)) < 1e-9
    xs = roots._aberth(monic)
    assert _hex_bits(xs) == _hex_bits(roots._centroid_start(monic))
    assert _hex_bits(xs) == _hex_bits(reference_aberth(monic))
    ((root, mult),) = roots.find_roots(monic)
    assert mult == 11 and abs(root - a) <= 1e-9


def test_aberth_stalls_out_on_multiple_roots(monkeypatch):
    # the rounding-floor exit stops (z-1)^m well before the sweep cap
    ladder = [[complex(math.comb(m, k) * (-1) ** (m - k))
               for k in range(m + 1)] for m in range(2, 14)]
    want = [_hex_bits(roots._aberth(monic)) for monic in ladder]
    monkeypatch.setattr(roots, "_MAX_SWEEPS", 40)
    assert [_hex_bits(roots._aberth(monic)) for monic in ladder] == want


def test_start_circle_of_a_binomial_has_the_root_modulus():
    rng = random.Random(19)
    for n in range(1, 41):
        c = cmath.rect(10.0 ** rng.uniform(-30, 30),
                       rng.uniform(-math.pi, math.pi))
        monic = [c] + [0j] * (n - 1) + [1 + 0j]
        xs = roots._start_points(monic)
        radius = abs(c) ** (1.0 / n)
        assert len(xs) == n
        assert all(abs(abs(x) - radius) <= 1e-14 * radius for x in xs), n
        assert _hex_bits(xs) == _hex_bits(reference_start(monic))


def test_zero_roots_start_and_stay_at_zero():
    # z^2 (z^2 + 4): two iterates at 0, two on the circle |x| = 2
    monic = [0j, 0j, 4 + 0j, 0j, 1 + 0j]
    xs = roots._start_points(monic)
    assert xs[:2] == [0j, 0j]
    assert all(abs(abs(x) - 2.0) <= 1e-15 for x in xs[2:])
    assert roots._aberth(monic)[:2] == [0j, 0j]
    assert roots.find_roots(monic) == [(-2j, 1), (0j, 2), (2j, 1)]
    # z^4 (z + c): a four-fold zero root beside a simple one
    assert roots.find_roots([0j] * 4 + [0.53 - 2.1j, 1 + 0j]) == [
        (-0.53 + 2.1j, 1), (0j, 4)]
    for n in range(1, 8):
        monic = [0j] * n + [1 + 0j]
        assert roots._start_points(monic) == [0j] * n
        assert roots.find_roots(monic) == [(0j, n)]


#: |p(x)| over the Horner scale sum |a_k| |x|^k at a converged simple root
RESIDUAL_TOL = 1e-13


def _relative_residual(coeffs, x):
    value = 0j
    scale = 0.0
    for c in reversed(coeffs):
        value = value * x + c
        scale = scale * abs(x) + abs(c)
    return abs(value) / scale


def test_aberth_does_not_stop_early_at_high_degree():
    rng = random.Random(42)
    for n in range(20, 61):
        c = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        xs = roots._aberth([c] + [0j] * (n - 1) + [1 + 0j])
        assert len(xs) == n
        radius = abs(c) ** (1.0 / n)
        assert all(abs(abs(x) - radius) <= 1e-12 for x in xs), n
    for _ in range(12):
        n = rng.randint(20, 45)
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        coeffs.append(1 + 0j)
        xs = roots._aberth(coeffs)
        assert len(xs) == n
        assert all(_relative_residual(coeffs, x) <= RESIDUAL_TOL for x in xs)


# ---------------------------------------------------------------------------
# local_expansion: the sized window gives the padded window's bits

WINDOW_CASES = [
    *(f"(z+2)/((z-0.5)^{m}*(z^2+3))" for m in range(1, 8)),
    "1/(z^15+0.7-0.2*I)",
    "z^3/(z-1)",
    "(z^41+2*z^3+1)/(z-0.25)^2",
    "z^45/(z-1)",
    "exp(2*z)/(z-1)^3",
    "exp(I*z)/(z^2+1)",
    "sin(z)/z^4",
    "sin(0*z)/(z-1)",
    "cos(I*z)/(z^2+4)^2",
]


@pytest.mark.parametrize("text", WINDOW_CASES)
def test_sized_window_matches_padded_window(text):
    f = meromorphic_from_text(text)
    poles = find_poles(f)
    centers = [even(0.0), even(0.3, -0.7), even(1.0, 1.0)]
    centers += [p.location for p in poles]
    # beside a multiple pole the float t_0 is rejected: an exact window
    centers += [even(p.location.u + 1e-6, p.location.v) for p in poles]
    for center in centers:
        for window in (1, 16, 40):
            got = local_expansion(f, center, window)
            want = reference_local_expansion(f, center, window)
            assert series_bits(got) == series_bits(want), (center, window)

