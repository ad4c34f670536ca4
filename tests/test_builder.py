"""Symbolic detector construction and exact verification."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.builder import (
    ModelSpec,
    build_detector,
    build_detector_general,
    build_detector_linear,
    verify_detector,
)
from algcpd.kernels import discretize
from algcpd.operators import DiffOperator, OperatorPolynomial, annihilator_of_span, conjugate_by_delay
from algcpd.runtime import DetectConfig, detect_samples, eval_windows


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
    rep = verify_detector(det)
    assert rep.ok
    assert rep.smooth_residuals == ()
    assert rep.jump_residuals == ()


def test_ramp_model_shape():
    det = build_detector(ModelSpec.monomial(1, 0))
    assert det.depth == 4
    assert det.degree == 1
    assert det.max_deriv == 4
    assert verify_detector(det).ok


def test_methods_agree_on_verification():
    # same model through both constructions: operators differ, nulling does not
    model = ModelSpec.monomial(0, 0)
    lin = build_detector_linear(model)
    gen = build_detector_general(model)
    assert verify_detector(lin).ok
    assert verify_detector(gen).ok


def test_polynomial_jump_uses_general():
    det = build_detector(ModelSpec.polynomial(0, 1))
    assert det.method == "general"
    assert det.degree == 3
    assert verify_detector(det).ok


def test_rational_jump():
    shape = RF(Polynomial.one(), Polynomial([Fraction(1), Fraction(1)]))  # 1/(s+1)
    det = build_detector(ModelSpec.rational(1, shape))
    assert det.method == "linear"
    assert verify_detector(det).ok


# criterion 1's model grid (tests/test_acceptance.py)
GRID = [(n1, n2) for n1 in range(7) for n2 in range(7)]


@functools.lru_cache(maxsize=None)
def grid_detector(n1, n2, window):
    return discretize(build_detector(ModelSpec.monomial(n1, n2)), window=window, dt=0.01)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(GRID),
    window=st.sampled_from((32, 64, 128)),
    offset=st.sampled_from((0.0, 1.0, -7.5, 1e3)),
    data=st.data(),
)
def test_smooth_family_nulled_under_any_shift(model, window, offset, data):
    """A sliding window sees every time shift of the smooth part, so each
    window must null every polynomial of degree <= n1, not only the powers
    1/s^(v+1) that verify_detector reads: drawn in the window-normalised time
    tau = t / (W * dt), with an offset, |d| stays at rounding level."""
    n1, n2 = model
    coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n1 + 1, max_size=n1 + 1))
    tau = np.arange(3 * window) / window
    y = offset + np.polynomial.polynomial.polyval(tau, coeffs)
    d = eval_windows(grid_detector(n1, n2, window), y).d
    assert np.max(np.abs(d)) <= 1e-6


def test_kink_is_found_by_the_model_of_raised_degrees():
    """A change of slope is a jump in the first derivative: the model of
    degrees (0 + 1, 0 + 1) finds it within one sample, with or without an
    offset, under the batch MAD."""
    dd = discretize(build_detector(ModelSpec.monomial(1, 1)), window=64, dt=0.01)
    t = np.arange(600) * 0.01
    kink = np.where(t < 3.005, 0.5 * t, 0.5 * 3.005 - (t - 3.005))
    for offset in (0.0, 2.0):
        _, found = detect_samples(dd, kink + offset, DetectConfig(kappa=3.0))
        assert [d.time for d in found] == [3.005]


def test_verify_catches_broken_operator():
    det = build_detector(ModelSpec.monomial(0, 0))
    junk = OperatorPolynomial((DiffOperator.mul(RF.s_power(-5)),))
    broken = dataclasses.replace(det, omega=det.omega + junk)
    rep = verify_detector(broken)
    assert not rep.ok
    assert rep.smooth_residuals or rep.jump_residuals


def test_verify_reports_every_delay_and_jump_element(monkeypatch):
    # r * P_0 added to omega keeps every coefficient a smooth annihilator but
    # breaks the jump nulling: each jump element leaves a residual polynomial
    # in the delay t0, reported one nonzero coefficient at a time
    det = build_detector(ModelSpec.polynomial(3, 2))
    extra = OperatorPolynomial((DiffOperator(), det.omega.coeffs[0]))
    broken = dataclasses.replace(det, omega=det.omega + extra)
    shifts = []
    eval_at = OperatorPolynomial.eval_at

    def counted(self, c):
        shifts.append(c)
        return eval_at(self, c)

    monkeypatch.setattr(OperatorPolynomial, "eval_at", counted)
    rep = verify_detector(broken)
    assert not rep.ok
    assert rep.smooth_residuals == ()
    assert rep.jump_residuals == (
        "t0^6 on 1/s: -336/s^5",
        "t0^7 on 1/s: 168/s^4",
        "t0^8 on 1/s: -24/s^3",
        "t0^9 on 1/s: 1/s^2",
        "t0^7 on 1/s^2: 56/s^5",
        "t0^8 on 1/s^2: -16/s^4",
        "t0^9 on 1/s^2: 1/s^3",
        "t0^8 on 1/s^3: -8/s^5",
        "t0^9 on 1/s^3: 1/s^4",
    )
    # the jump element's derivatives are expanded in t0, the operator never is
    assert shifts == []


# the three delays the sampled check read: 1/2 and two drawn from random.Random(0)
OLD_DELAYS = (Fraction(1, 2), Fraction(25, 7), Fraction(2, 3))


@pytest.mark.parametrize("model", [ModelSpec.monomial(0, 0), ModelSpec.monomial(1, 0),
                                   ModelSpec.polynomial(2, 1)], ids=ModelSpec.label)
def test_verify_rejects_a_detector_broken_between_sampled_delays(model):
    """omega + q(r) * pi1, with pi1 the smooth annihilator and q vanishing at
    the three delays a sampled check read, nulls the smooth part identically
    and the jump at those delays, and nowhere else. A check at those delays
    alone (the default of the sampled verify_detector it replaced) passes it;
    the expansion in t0 does not."""
    det = build_detector(model)
    pi1 = annihilator_of_span(model.smooth_basis())
    q = Polynomial.one()
    for t0 in OLD_DELAYS:
        q = q * Polynomial([-t0, 1])
    planted = dataclasses.replace(
        det, omega=det.omega + OperatorPolynomial(DiffOperator.mul(c).compose(pi1) for c in q.coeffs))
    for t0 in OLD_DELAYS:
        shifted = conjugate_by_delay(planted.omega.eval_at(t0)).eval_at(-t0)
        assert all(shifted.apply(w).is_zero() for w in model.jump_basis())
    rep = verify_detector(planted)
    assert rep.smooth_residuals == ()
    assert rep.jump_residuals and not rep.ok


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec.monomial(-1, 0)
    with pytest.raises(ValueError):
        ModelSpec.monomial(0, 99)
    with pytest.raises(TypeError):  # a derivative order is written as raised degrees
        ModelSpec.monomial(0, 0, 1)
    with pytest.raises(ValueError):
        ModelSpec.rational(0, RF.zero())
    with pytest.raises(ValueError):
        build_detector(ModelSpec.monomial(0, 0), method="newton")


def test_model_labels():
    assert ModelSpec.monomial(0, 0).label() == "monomial(n1=0,n2=0,order=0)"
    assert ModelSpec.polynomial(2, 1).label() == "polynomial(n1=2,n2=1,order=0)"
    lbl = ModelSpec.rational(0, RF.s_power(-2)).label()
    assert lbl.startswith("rational(n1=0,")
