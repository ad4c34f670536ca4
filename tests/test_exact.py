"""Exact polynomial and rational function arithmetic."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd._exact import Polynomial, RationalFunction, binomial, poly_gcd, poly_lcm


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


def test_polynomial_ring_axioms():
    rng = random.Random(101)
    for _ in range(400):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial() == a
        assert a * Polynomial([Fraction(1)]) == a
        assert a - a == Polynomial()


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


def test_rational_field_axioms():
    rng = random.Random(707)
    zero = RationalFunction.zero()
    one = RationalFunction.one()
    for _ in range(300):
        x = rand_rf(rng)
        y = rand_rf(rng)
        z = rand_rf(rng)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        if not y.is_zero():
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


def test_binomial():
    assert binomial(5, 2) == Fraction(10)
    assert binomial(4, 0) == 1
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_out_of_range():
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(4, -1) == 0


# -- Laurent fast paths against the Euclid oracle --------------------------------

coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
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
    den = Polynomial.s_power(k, draw(not_one))
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
    den = Polynomial.s_power(k, draw(not_one)) * q * g
    return num, den


def euclid_form(num, den):
    """Canonical (num, den) by hand: divide out the Euclid gcd, then make den monic."""
    if num.is_zero():
        return Polynomial(), Polynomial.one()
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    inv = 1 / den.leading()
    return num * inv, den * inv


def assert_canonical_as_euclid(r, num, den):
    want_num, want_den = euclid_form(num, den)
    assert r.num.coeffs == want_num.coeffs
    assert r.den.coeffs == want_den.coeffs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=st.one_of(laurent_pair(), general_pair()))
def test_canonical_form_matches_euclid(pair):
    num, den = pair
    assert_canonical_as_euclid(RationalFunction(num, den), num, den)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.one_of(laurent_pair(), general_pair()),
    b=st.one_of(laurent_pair(), general_pair()),
)
def test_sum_matches_cross_multiplied_form(a, b):
    x, y = RationalFunction(*a), RationalFunction(*b)
    cross = (x.num * y.den + y.num * x.den, x.den * y.den)
    assert_canonical_as_euclid(x + y, *cross)
    assert_canonical_as_euclid(y + x, *cross)
