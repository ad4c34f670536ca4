"""Noncommutative differential-operator algebra over rational coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd import operators
from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.builder import ModelSpec, build_detector, verify_detector
from algcpd.operators import (
    DiffOperator,
    OperatorPolynomial,
    annihilator_of_span,
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


def shift_d(op, c):
    """op with D -> D + c for a scalar c: the delay conjugation collapsed at c."""
    return conjugate_by_delay(op).eval_at(c)


def test_shift_d_is_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_op(rng, 2)
        b = rand_op(rng, 2)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert shift_d(a.compose(b), c) == shift_d(a, c).compose(shift_d(b, c))
        assert shift_d(a + b, c) == shift_d(a, c) + shift_d(b, c)
        assert shift_d(shift_d(a, c), -c) == a


def rand_laurent(rng):
    """A sum of up to three c*s^e, e in -4..1: the coefficients verify meets."""
    out = RF.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + RF.s_power(rng.randint(-4, 1)) * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return out


def rand_laurent_op(rng):
    return DiffOperator({a: rand_laurent(rng) for a in range(rng.randint(0, 4)) if rng.random() < 0.7})


INV = RF(Polynomial.one(), Polynomial([1, 1]))  # 1/(s + 1), a rational jump shape


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    operand=st.sampled_from(("laurent", "inv", "random")),
    t0=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
)
def test_delay_expansion_matches_shifted_apply(seed, operand, t0):
    """sum_k t0^k R_k equals the operator polynomial collapsed at t0, expanded
    under D -> D - t0 and applied to f, on Laurent operands, on 1/(s + 1) and
    on random rational operands; the coefficientwise apply equals each
    coefficient applied on its own."""
    rng = random.Random(seed)
    if operand == "laurent":
        poly = OperatorPolynomial(rand_laurent_op(rng) for _ in range(rng.randint(0, 4)))
        f = rand_laurent(rng)
    else:
        poly = OperatorPolynomial(rand_op(rng, 3) for _ in range(rng.randint(0, 3)))
        f = INV if operand == "inv" else rand_rf(rng)
    total = RF.zero()
    for k, r in enumerate(poly.delay_expansion(f)):
        total = total + r * t0**k
    assert total == shift_d(poly.eval_at(t0), -t0).apply(f)
    assert poly.apply(f) == tuple(c.apply(f) for c in poly.coeffs)


def canonical(x):
    """The integers of a RationalFunction's canonical form, or of each
    coefficient of a DiffOperator by order."""
    if isinstance(x, DiffOperator):
        return {a: canonical(r) for a, r in x.terms.items()}
    return x.num.nums, x.num.den, x.den.nums, x.den.den


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), kill=st.booleans())
def test_laurent_apply_and_delay_expansion_match_rational_arithmetic(seed, kill):
    """apply(f), delay_expansion(f), the coefficientwise apply(f) and
    compose on Laurent operands, computed on integer triples, give the
    canonical nums/den that RationalFunction arithmetic gives with the Laurent
    branch off. kill composes the operator with an annihilator of a nonzero f,
    so apply(f) is zero."""
    rng = random.Random(seed)
    op, f = rand_laurent_op(rng), rand_laurent(rng)
    if kill and not f.is_zero():
        op = op.compose(annihilator_of_span([f]))
        assert op.apply(f).is_zero()
    poly = OperatorPolynomial(rand_laurent_op(rng) for _ in range(rng.randint(0, 4)))
    op2 = rand_laurent_op(rng)
    fast = (op.apply(f), *poly.delay_expansion(f), *poly.apply(f), op.compose(op2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_laurent", lambda rf: None)
        slow = (op.apply(f), *poly.delay_expansion(f), *poly.apply(f), op.compose(op2))
    assert [canonical(x) for x in fast] == [canonical(x) for x in slow]


def test_non_laurent_operand_takes_rational_arithmetic(monkeypatch):
    """An operand over 1/(s + 1) takes RationalFunction arithmetic, and a
    rational-jump detector, whose smooth checks take the Laurent branch and
    whose jump checks do not, still verifies. The build composes on Laurent
    triples too, so the calls are counted from verify_detector on."""
    calls = []
    mac = operators._laurent_mac
    monkeypatch.setattr(operators, "_laurent_mac", lambda *args: calls.append(args) or mac(*args))
    # (D + 1) 1/(s + 1) = -1/(s + 1)^2 + 1/(s + 1) = s/(s + 1)^2
    op = DiffOperator({1: RF.one(), 0: RF.one()})
    assert op.apply(INV) == RF(Polynomial([0, 1]), Polynomial([1, 2, 1]))
    # with D -> D - t0 the order-1 term leaves -t0/(s + 1), so at t0 = 1 the
    # shift cancels the order-0 term
    poly = OperatorPolynomial((op,))
    assert poly.delay_expansion(INV) == (RF(Polynomial([0, 1]), Polynomial([1, 2, 1])), -1 * INV)
    poly = OperatorPolynomial((op, DiffOperator.identity()))
    assert poly.apply(INV) == (RF(Polynomial([0, 1]), Polynomial([1, 2, 1])), INV)
    assert calls == []
    det = build_detector(ModelSpec.rational(1, INV))
    calls.clear()
    assert verify_detector(det).ok
    assert calls


@pytest.mark.parametrize("coeff", [RF.s_power(-2) * 3 + RF.s_power(1), INV], ids=["laurent", "inv"])
def test_compose_with_zero_and_identity(coeff):
    """a o 0 = 0 o a = 0 and 1 o a = a o 1 = a. The zero operator has order
    -1 and no terms, so a product with it has no term to sum, and 0 o 0 has
    no slot."""
    a = DiffOperator({0: RF.s_power(-1), 2: coeff})
    zero, one = DiffOperator.zero(), DiffOperator.identity()
    assert a.compose(zero) == zero.compose(a) == zero.compose(zero) == zero
    assert one.compose(a) == a.compose(one) == a
    assert one.compose(one) == one


def test_conjugate_collapse_equals_shift():
    """The collapse at r equals sum_a rho_a o (D + r)^a, the powers of D + r
    made by compose."""
    rng = random.Random(14)
    for _ in range(40):
        op = rand_op(rng, 3)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        poly = conjugate_by_delay(op)
        d_plus_r = DiffOperator({1: RF.one(), 0: r})
        shifted = DiffOperator.zero()
        for a, rho in op.terms.items():
            power = DiffOperator.identity()
            for _ in range(a):
                power = power.compose(d_plus_r)
            shifted = shifted + DiffOperator.mul(rho).compose(power)
        assert poly.eval_at(r) == shifted
        assert poly.coeff(0) == op


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
    assert not poly.compose_left(DiffOperator.mul(RF.s_power(1 - n))).is_strict_integral()
    assert out.compose_left(DiffOperator.mul(RF.s_power(n))) == poly
    # already-integral input passes through untouched
    n2, out2 = to_integral_form(out)
    assert n2 == 0
    assert out2 == out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), a=st.integers(0, 3))
def test_to_integral_form_shifts_the_power_of_s(seed, a):
    """On Laurent operator polynomials, to_integral_form returns the least
    N >= 0 that makes the result strictly integral, and the result is the
    left product with s^-N, canonical form and all. It only moves the power
    of s, so it reaches neither _apply_terms nor _laurent_mac. A coefficient
    over 1/(s + 1) still raises ValueError."""
    rng = random.Random(seed)
    poly = OperatorPolynomial(rand_laurent_op(rng) for _ in range(rng.randint(0, 4)))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_apply_terms", "_laurent_mac"):
            real = getattr(operators, name)
            mp.setattr(operators, name, lambda *args, _real=real: calls.append(args) or _real(*args))
        n, out = to_integral_form(poly)
        with pytest.raises(ValueError):
            to_integral_form(OperatorPolynomial((*poly.coeffs, DiffOperator({a: INV}))))
    assert calls == []
    assert n >= 0 and out.is_strict_integral()
    if n:
        assert not poly.compose_left(DiffOperator.mul(RF.s_power(1 - n))).is_strict_integral()
    want = poly.compose_left(DiffOperator.mul(RF.s_power(-n)))
    assert [canonical(c) for c in out.coeffs] == [canonical(c) for c in want.coeffs]


def test_operator_text():
    op = DiffOperator({1: RF.s_power(-2), 0: RF(Polynomial([Fraction(0), Fraction(2)]))})
    assert op.text() == "(1/s^2)*D^1 + 2*s*D^0"
    assert DiffOperator.zero().text() == "0"


def test_operator_polynomial_text():
    poly = OperatorPolynomial((DiffOperator.d(), DiffOperator.identity()))
    assert poly.text() == "r^0: 1*D^1\nr^1: 1*D^0"
