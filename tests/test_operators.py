"""Noncommutative differential-operator algebra over rational coefficients."""

import random
from fractions import Fraction

import pytest

from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.operators import (
    DiffOperator,
    OperatorPolynomial,
    annihilator_of_span,
    apply_to_delayed,
    clear_polynomial_denominators,
    conjugate_by_delay,
    to_integral_form,
)


def rand_rf(rng, max_deg=2):
    num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_deg + 1))]
    den = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, max_deg))]
    den.append(Fraction(rng.choice([1, 2, -1])))
    p = Polynomial(num)
    q = Polynomial(den)
    if p.is_zero():
        p = Polynomial.one()
    return RF(p, q)


def rand_op(rng, max_order=3):
    terms = {}
    for a in range(max_order + 1):
        if rng.random() < 0.6:
            terms[a] = rand_rf(rng)
    if not terms:
        terms[0] = RF.one()
    return DiffOperator(terms)


def test_commutation_rule():
    # moving a derivative past 1/s costs a -1/s^2 correction term
    d = DiffOperator.d()
    inv_s = DiffOperator.mul(RF.s_power(-1))
    lhs = d.compose(inv_s)
    rhs = inv_s.compose(d) + DiffOperator.mul(-1 * RF.s_power(-2))
    assert lhs == rhs


def test_compose_matches_nested_apply():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_op(rng, 2)
        b = rand_op(rng, 2)
        f = rand_rf(rng)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_compose_associative():
    rng = random.Random(12)
    for _ in range(25):
        a = rand_op(rng, 2)
        b = rand_op(rng, 2)
        c = rand_op(rng, 2)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_not_commutative():
    d = DiffOperator.d()
    mul_s = DiffOperator.mul(RF.s_power(1))
    assert d.compose(mul_s) != mul_s.compose(d)


def test_shift_d_is_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_op(rng, 2)
        b = rand_op(rng, 2)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert a.compose(b).shift_d(c) == a.shift_d(c).compose(b.shift_d(c))
        assert (a + b).shift_d(c) == a.shift_d(c) + b.shift_d(c)
        assert a.shift_d(c).shift_d(-c) == a


def test_conjugate_collapse_equals_shift():
    rng = random.Random(14)
    for _ in range(40):
        op = rand_op(rng, 3)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        poly = conjugate_by_delay(op)
        assert poly.eval_at(r) == op.shift_d(r)
        assert poly.coeff(0) == op


def test_apply_to_delayed_matches_conjugate():
    # op(f e^{-rs}) factors as ([D -> D - r] f) e^{-rs}
    rng = random.Random(15)
    for _ in range(30):
        op = rand_op(rng, 3)
        f = rand_rf(rng)
        r = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        via_poly = conjugate_by_delay(op).eval_at(-r).apply(f)
        assert apply_to_delayed(op, f, r) == via_poly


def test_annihilator_kills_span():
    basis = [RF.s_power(-1), RF.s_power(-2)]
    ann = annihilator_of_span(basis)
    for b in basis:
        assert ann.apply(b).is_zero()
    combo = Fraction(3) * basis[0] - Fraction(7, 2) * basis[1]
    assert ann.apply(combo).is_zero()
    outside = RF(Polynomial.one(), Polynomial([Fraction(-1), Fraction(1)]))
    assert not ann.apply(outside).is_zero()


def test_annihilator_mixed_denominators():
    rng = random.Random(16)
    basis = [
        RF(Polynomial([Fraction(1)]), Polynomial([Fraction(-1), Fraction(1)])),
        RF.s_power(-1),
        RF(Polynomial([Fraction(0), Fraction(2)]), Polynomial([Fraction(1), Fraction(0), Fraction(1)])),
    ]
    ann = annihilator_of_span(basis)
    for b in basis:
        assert ann.apply(b).is_zero()
    combo = RF.zero()
    for b in basis:
        combo = combo + Fraction(rng.randint(-3, 3)) * b
    assert ann.apply(combo).is_zero()


def test_annihilator_rejects_empty():
    with pytest.raises(ValueError):
        annihilator_of_span([])
    with pytest.raises(ValueError):
        annihilator_of_span([RF.zero()])


def test_clear_polynomial_denominators():
    messy = DiffOperator(
        {
            1: RF(Polynomial.one(), Polynomial([Fraction(-1), Fraction(1)])),
            0: RF.s_power(-2),
        }
    )
    poly = OperatorPolynomial((messy, DiffOperator.identity()))
    m, cleared = clear_polynomial_denominators(poly)
    assert m == m.monic()
    assert m.eval(Fraction(0)) != 0
    assert cleared == poly.compose_left(DiffOperator.mul(m))
    for c in cleared.coeffs:
        for _, rf in c.terms.items():
            assert rf.den.trailing_zero_count() == rf.den.degree


def test_to_integral_form():
    op = DiffOperator({2: RF.one(), 0: RF.s_power(-1)})
    poly = OperatorPolynomial((op,))
    n, out = to_integral_form(poly)
    assert n > 0
    assert out.is_strict_integral()
    # n is the smallest such depth
    assert not poly.scale(RF.s_power(1 - n)).is_strict_integral()
    assert out.scale(RF.s_power(n)) == poly.scale(RF.s_power(0))
    # already-integral input passes through untouched
    n2, out2 = to_integral_form(out)
    assert n2 == 0
    assert out2 == out


def test_operator_text():
    op = DiffOperator({1: RF.s_power(-2), 0: RF(Polynomial([Fraction(0), Fraction(2)]))})
    assert op.text() == "(1/s^2)*D^1 + 2*s*D^0"
    assert DiffOperator.zero().text() == "0"


def test_operator_polynomial_text():
    poly = OperatorPolynomial((DiffOperator.d(), DiffOperator.identity()))
    assert poly.text() == "r^0: 1*D^1\nr^1: 1*D^0"
