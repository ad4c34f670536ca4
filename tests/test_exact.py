"""Exact polynomial and rational function arithmetic."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd._exact import Polynomial, RationalFunction, poly_gcd, poly_lcm


def rand_poly(rng, max_deg=4, zero_ok=True):
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return Polynomial()
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    return Polynomial(coeffs)


def rand_rf(rng, max_deg=3):
    num = rand_poly(rng, max_deg)
    den = rand_poly(rng, max_deg, zero_ok=False)
    return RationalFunction(num, den)


# -- a plain reference: coefficient tuples of Fractions, lowest degree first ------


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)
    )


def ref_scale(a, c):
    return ref_trim(x * c for x in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        q = rem[i] / b[-1]
        quot[i - len(b) + 1] = q
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] -= q * y
    return ref_trim(quot), ref_trim(rem)


def ref_monic_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_scale(a, 1 / a[-1]) if a else ()


def assert_canonical(p, want=None):
    """p is in the reduced integer form, and its Fraction coefficients are
    the reference tuple `want` when given."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) for c in p.nums)
    assert gcd(p.den, *p.nums) == 1
    if p.nums:
        assert p.nums[-1] != 0
    else:
        assert p.den == 1
    twin = Polynomial(p.coeffs)
    assert twin == p and hash(twin) == hash(p)
    if want is not None:
        assert p.coeffs == ref_trim(want)


coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
wide = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
polys = st.lists(st.one_of(coeff, coeff, wide), max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=polys, b=polys, c=polys, k=st.one_of(coeff, st.integers(-5, 5)))
def test_polynomial_ring_axioms(a, b, c, k):
    for p in (a, b, c):
        assert_canonical(p)
    A, B = a.coeffs, b.coeffs
    assert_canonical(a + b, ref_add(A, B))
    assert_canonical(a - b, ref_add(A, ref_scale(B, -1)))
    assert_canonical(-a, ref_scale(A, -1))
    assert_canonical(a * b, ref_mul(A, B))
    assert_canonical(a * k, ref_scale(A, k))
    assert_canonical(k * a, ref_scale(A, k))
    assert_canonical(a.derivative(), [i * x for i, x in enumerate(A)][1:])
    assert_canonical(a.dilate(k), [x * Fraction(k) ** i for i, x in enumerate(A)])
    if A:
        assert_canonical(a.monic(), ref_scale(A, 1 / A[-1]))
        assert a.leading() == A[-1]
    assert [a[k] for k in range(-1, len(A) + 1)] == [0, *A, 0]
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial() == a
    assert a * Polynomial([Fraction(1)]) == a
    assert a - a == Polynomial()


@st.composite
def division_case(draw):
    """(a, b): b nonzero; a an exact multiple of b (zero remainder), b a
    constant, or both arbitrary."""
    b = draw(nonzero_polys)
    kind = draw(st.sampled_from(["multiple", "constant", "any"]))
    if kind == "constant":
        b = Polynomial.constant(b.leading())
    a = draw(polys)
    if kind == "multiple":
        a = a * b
    return kind, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=division_case())
def test_divmod_property(case):
    kind, a, b = case
    q, r = a.divmod(b)
    assert_canonical(q)
    assert_canonical(r)
    assert q * b + r == a
    assert r.degree < b.degree
    assert (q.coeffs, r.coeffs) == ref_divmod(a.coeffs, b.coeffs)
    if kind != "any":
        assert r.is_zero()
    assert a // b == q and a % b == r


def test_polynomial_divmod():
    rng = random.Random(202)
    for _ in range(300):
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 3, zero_ok=False)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_polynomial_gcd_lcm():
    rng = random.Random(303)
    for _ in range(200):
        a = rand_poly(rng, 3, zero_ok=False)
        b = rand_poly(rng, 3, zero_ok=False)
        g = poly_gcd(a, b)
        assert a % g == Polynomial()
        assert b % g == Polynomial()
        assert g == g.monic()
        m = poly_lcm(a, b)
        assert m % a == Polynomial()
        assert m % b == Polynomial()
        assert m.degree == a.degree + b.degree - g.degree


def test_polynomial_known_gcd():
    # (s-1)^2 and (s-1)(s+2) share exactly (s-1)
    a = Polynomial([Fraction(1), Fraction(-2), Fraction(1)])
    b = Polynomial([Fraction(-2), Fraction(1), Fraction(1)])
    assert poly_gcd(a, b) == Polynomial([Fraction(-1), Fraction(1)])


def test_polynomial_derivative_product_rule():
    rng = random.Random(404)
    for _ in range(200):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_polynomial_eval():
    rng = random.Random(505)
    for _ in range(100):
        p = rand_poly(rng)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        direct = sum(
            (p.coeffs[k] * x**k for k in range(p.degree + 1)), Fraction(0)
        )
        assert p.eval(x) == direct


def test_polynomial_text():
    p = Polynomial([Fraction(1), Fraction(-2), Fraction(1)])
    assert p.text() == "s^2 - 2*s + 1"
    assert Polynomial().text() == "0"
    assert Polynomial([Fraction(3, 2)]).text() == "3/2"
    assert Polynomial([-1, 1, 0, Fraction(-1, 2)]).text() == "-1/2*s^3 + s - 1"


def test_rational_canonical_form():
    rng = random.Random(606)
    for _ in range(200):
        num = rand_poly(rng)
        den = rand_poly(rng, zero_ok=False)
        k = rand_poly(rng, 2, zero_ok=False)
        x = RationalFunction(num, den)
        y = RationalFunction(num * k, den * k)
        assert x == y
        assert x.den == x.den.monic()
        assert poly_gcd(x.num, x.den).degree <= 0 or x.num == Polynomial()


def assert_canonical_rf(r):
    assert_canonical(r.num)
    assert_canonical(r.den)
    assert r.den.leading() == 1
    assert ref_monic_gcd(r.num.coeffs, r.den.coeffs) in ((), (1,))


def test_rational_field_axioms():
    rng = random.Random(707)
    zero = RationalFunction.zero()
    one = RationalFunction.one()
    for _ in range(300):
        x = rand_rf(rng)
        y = rand_rf(rng)
        z = rand_rf(rng)
        for r in (x + y, x - y, x * y, -x, x.derivative()):
            assert_canonical_rf(r)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert hash(x * y) == hash(y * x)
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        if not y.is_zero():
            assert_canonical_rf(x / y)
            assert (x / y) * y == x
            assert y * y.inverse() == one


def test_rational_derivative_quotient_rule():
    rng = random.Random(808)
    for _ in range(150):
        f = rand_poly(rng)
        g = rand_poly(rng, zero_ok=False)
        x = RationalFunction(f, g)
        expect = RationalFunction(
            f.derivative() * g - f * g.derivative(), g * g
        )
        assert x.derivative() == expect


def test_rational_s_power():
    s2 = RationalFunction.s_power(2)
    sm3 = RationalFunction.s_power(-3)
    assert s2.num == Polynomial([Fraction(0), Fraction(0), Fraction(1)])
    assert (s2 * sm3) == RationalFunction.s_power(-1)
    assert RationalFunction.s_power(0) == RationalFunction.one()


def test_rational_text():
    one_over_sm1 = RationalFunction(
        Polynomial([Fraction(1)]), Polynomial([Fraction(-1), Fraction(1)])
    )
    assert one_over_sm1.text() == "1/(s - 1)"
    assert RationalFunction.s_power(-2).text() == "1/s^2"


# -- the constructor's c*s^k slicing against the Euclid oracle ---------------------

nonzero = coeff.filter(lambda c: c != 0)
not_one = nonzero.filter(lambda c: c != 1)


@st.composite
def poly_nonzero_at_0(draw, max_deg=3):
    """A polynomial with a nonzero constant term (no root at s=0)."""
    rest = draw(st.lists(coeff, max_size=max_deg))
    return Polynomial([draw(nonzero)] + rest)


@st.composite
def laurent_pair(draw):
    """(num, den): den = c*s^k with c != 1, num with 0..k+1 trailing zeros or zero."""
    k = draw(st.integers(0, 5))
    den = Polynomial.s_power(k) * draw(not_one)
    if draw(st.integers(0, 7)) == 0:
        return Polynomial(), den
    z = draw(st.integers(0, k + 1))
    return Polynomial.s_power(z) * draw(poly_nonzero_at_0()), den


@st.composite
def general_pair(draw):
    """(num, den) with den not a monomial, sharing s-powers and a factor with num."""
    k = draw(st.integers(0, 3))
    z = draw(st.integers(0, 4))
    g = draw(poly_nonzero_at_0(max_deg=1))
    q = draw(poly_nonzero_at_0(max_deg=2).filter(lambda p: p.degree >= 1))
    num = Polynomial.s_power(z) * draw(poly_nonzero_at_0()) * g
    den = Polynomial.s_power(k) * draw(not_one) * q * g
    return num, den


def euclid_form(num, den):
    """Canonical (num, den) coefficient tuples by hand, on the plain reference:
    divide out the Euclid gcd, then make den monic."""
    if not num:
        return (), (Fraction(1),)
    g = ref_monic_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    inv = 1 / den[-1]
    return ref_scale(num, inv), ref_scale(den, inv)


def assert_canonical_as_euclid(r, num, den):
    want_num, want_den = euclid_form(num, den)
    assert_canonical(r.num, want_num)
    assert_canonical(r.den, want_den)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=st.one_of(laurent_pair(), general_pair()))
def test_canonical_form_matches_euclid(pair):
    num, den = pair
    assert_canonical_as_euclid(RationalFunction(num, den), num.coeffs, den.coeffs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.one_of(laurent_pair(), general_pair()),
    b=st.one_of(laurent_pair(), general_pair()),
)
def test_sum_matches_cross_multiplied_form(a, b):
    x, y = RationalFunction(*a), RationalFunction(*b)
    xn, xd, yn, yd = x.num.coeffs, x.den.coeffs, y.num.coeffs, y.den.coeffs
    cross = (ref_add(ref_mul(xn, yd), ref_mul(yn, xd)), ref_mul(xd, yd))
    assert_canonical_as_euclid(x + y, *cross)
    assert_canonical_as_euclid(y + x, *cross)
    assert hash(x + y) == hash(y + x)


laurent = laurent_pair().map(lambda pair: RationalFunction(*pair))
S_PLUS_1 = Polynomial([1, 1])


def euclid_copy(r):
    """(num, den) of r, both times (s + 1): a den the slicing path never reads."""
    return r.num * S_PLUS_1, r.den * S_PLUS_1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=laurent, b=laurent, c=st.one_of(coeff, st.integers(-3, 3)))
def test_laurent_product_matches_euclid(a, b, c):
    """n1/s^i * n2/s^j over s^(i+j), reduced by slicing, and a scalar
    product, against the same products built over the (s + 1) copies, which
    the constructor reduces by poly_gcd."""
    (an, ad), (bn, bd) = euclid_copy(a), euclid_copy(b)
    for got, want in ((a * b, RationalFunction(an * bn, ad * bd)), (a * c, RationalFunction(an * c, ad))):
        assert_canonical_rf(got)
        assert got == want and hash(got) == hash(want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=laurent)
def test_laurent_derivative_matches_euclid(a):
    """The quotient rule over s^(2k), reduced by slicing, against the
    quotient rule on the (s + 1) copy, reduced by poly_gcd."""
    n, d = euclid_copy(a)
    want = RationalFunction(n.derivative() * d - n * d.derivative(), d * d)
    got = a.derivative()
    assert_canonical_rf(got)
    assert got == want and hash(got) == hash(want)
