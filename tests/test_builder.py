"""Symbolic detector construction and exact verification."""

import dataclasses
from fractions import Fraction

import pytest

from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.builder import (
    ModelSpec,
    build_detector,
    build_detector_general,
    build_detector_linear,
    verify_detector,
)
from algcpd.operators import DiffOperator, OperatorPolynomial


def test_step_detector_golden():
    det = build_detector(ModelSpec.monomial(0, 0))
    assert det.method == "linear"
    assert det.depth == 2
    assert det.degree == 1
    assert det.max_deriv == 2
    assert det.text() == (
        "r^0: (1/s)*D^2 + (2/s^2)*D^1\n"
        "r^1: (1/s)*D^1 + (1/s^2)*D^0"
    )
    assert det.omega.is_strict_integral()


def test_step_detector_verifies_exactly():
    det = build_detector(ModelSpec.monomial(0, 0))
    rep = verify_detector(det, n_delays=4, seed=3)
    assert rep.ok
    assert rep.smooth_residuals == ()
    assert rep.jump_residuals == ()
    assert len(rep.delays) == 4


def test_ramp_model_shape():
    det = build_detector(ModelSpec.monomial(1, 0))
    assert det.depth == 4
    assert det.degree == 1
    assert det.max_deriv == 4
    assert verify_detector(det, n_delays=2).ok


def test_methods_agree_on_verification():
    # same model through both constructions: operators differ, nulling does not
    model = ModelSpec.monomial(0, 0)
    lin = build_detector_linear(model)
    gen = build_detector_general(model)
    assert verify_detector(lin, n_delays=2, seed=7).ok
    assert verify_detector(gen, n_delays=2, seed=7).ok


def test_polynomial_jump_uses_general():
    det = build_detector(ModelSpec.polynomial(0, 1))
    assert det.method == "general"
    assert det.degree == 3
    assert verify_detector(det, n_delays=2).ok


def test_rational_jump():
    shape = RF(Polynomial.one(), Polynomial([Fraction(1), Fraction(1)]))  # 1/(s+1)
    det = build_detector(ModelSpec.rational(1, shape))
    assert det.method == "linear"
    assert verify_detector(det, n_delays=2).ok


def test_differentiated_observation():
    det = build_detector(ModelSpec.monomial(1, 2, order=1))
    assert det.omega.is_strict_integral()
    assert verify_detector(det, n_delays=2).ok


def test_verify_catches_broken_operator():
    det = build_detector(ModelSpec.monomial(0, 0))
    junk = OperatorPolynomial((DiffOperator.mul(RF.s_power(-5)),))
    broken = dataclasses.replace(det, omega=det.omega + junk)
    rep = verify_detector(broken, n_delays=2)
    assert not rep.ok
    assert rep.smooth_residuals or rep.jump_residuals


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec.monomial(-1, 0)
    with pytest.raises(ValueError):
        ModelSpec.monomial(0, 99)
    with pytest.raises(ValueError):
        ModelSpec.monomial(0, 0, order=-1)
    with pytest.raises(ValueError):
        ModelSpec.rational(0, RF.zero())
    with pytest.raises(ValueError):
        build_detector(ModelSpec.monomial(0, 0), method="newton")


def test_model_labels():
    assert ModelSpec.monomial(0, 0).label() == "monomial(n1=0,n2=0,order=0)"
    assert ModelSpec.polynomial(2, 1, 1).label() == "polynomial(n1=2,n2=1,order=1)"
    lbl = ModelSpec.rational(0, RF.s_power(-2)).label()
    assert lbl.startswith("rational(n1=0,")


def test_signal_families_reflect_order():
    m = ModelSpec.monomial(1, 0, order=2)
    for raw, obs in zip(m.smooth_basis(), m.smooth_signal_family()):
        assert obs == raw * RF.s_power(-2)
