"""Kernel derivation, quadrature discretization, and the window-value oracle."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd import kernels
from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import (
    BivariatePoly,
    discretize,
    kernelize,
    oracle_window_values,
    quadrature_weights,
)
from algcpd.operators import DiffOperator, OperatorPolynomial, to_integral_form


def _smooth_samples(rng, n, dt):
    # random low-order polynomial plus a couple of sinusoids
    t = np.arange(n) * dt
    c = rng.standard_normal(4)
    y = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
    for _ in range(2):
        a, w, p = rng.standard_normal(), 3.0 + 4.0 * rng.random(), rng.random()
        y = y + a * np.sin(w * t + p)
    return y


def test_step_kernel_golden():
    det = build_detector(ModelSpec.monomial(0, 0))
    kern = kernelize(det)
    assert kern.degree == 1
    assert kern.text() == "K_0(T,u): 3*u^2 - 2*T*u\nK_1(T,u): -2*u + T"


def exact_moment(kv, T, m):
    """integral_0^T kv(T, tau) * tau^m dtau, straight from the kernel's terms."""
    return sum(c * T ** (i + j + m + 1) / (j + m + 1) for (i, j), c in kv.terms.items())


def test_kernel_exact_moments():
    # step kernels integrate constants to zero on [0, T], exactly
    det = build_detector(ModelSpec.monomial(0, 0))
    kern = kernelize(det)
    T = Fraction(63, 100)
    for kv in kern.kernels:
        assert exact_moment(kv, T, 0) == 0


def test_kernel_moments_grow_with_model():
    det = build_detector(ModelSpec.monomial(2, 0))
    kern = kernelize(det)
    T = Fraction(63, 100)
    for kv in kern.kernels:
        for m in range(3):  # smooth degree bound 2: kills 1, t, t^2
            assert exact_moment(kv, T, m) == 0
    # the projection basis is every vanishing moment up to tau degree + 1;
    # the twice-differentiated step reaches that top one (tau degree 1, kills t^2)
    tops = []
    for model in (ModelSpec.monomial(2, 0), ModelSpec.monomial(0, 0, order=2)):
        for kv in kernelize(build_detector(model)).kernels:
            top = max(j for _, j in kv.terms) + 1
            want = [m for m in range(top + 1) if exact_moment(kv, T, m) == 0]
            assert kernels._annihilated_moments(kv, T) == want
            tops.append(top in want)
    assert any(tops)


def test_kernelize_rejects_non_integral():
    det = build_detector(ModelSpec.monomial(0, 0))
    # D alone: an s^0 monomial, not a finite integral
    bad = dataclasses.replace(det, omega=OperatorPolynomial((DiffOperator.d(),)))
    assert not bad.omega.is_strict_integral()
    with pytest.raises(ValueError):
        kernelize(bad)
    # 1/(s+1): a denominator that is not a power of s has no Laurent monomials
    shifted = RF(Polynomial.one(), Polynomial([Fraction(1), Fraction(1)]))
    omega = OperatorPolynomial((DiffOperator.mul(shifted), DiffOperator.identity()))
    bad = dataclasses.replace(det, omega=omega)
    assert not omega.is_strict_integral()
    with pytest.raises(ValueError):
        kernelize(bad)
    with pytest.raises(ValueError):
        to_integral_form(omega)


def test_quadrature_weights():
    h = Fraction(1, 100)
    trap = quadrature_weights(5, h, "trapezoid")
    assert trap == [h / 2, h, h, h, h / 2]
    simp = quadrature_weights(5, h, "simpson")
    assert simp == [h / 3, 4 * h / 3, 2 * h / 3, 4 * h / 3, h / 3]
    with pytest.raises(ValueError):
        quadrature_weights(1, h, "trapezoid")
    with pytest.raises(ValueError):
        quadrature_weights(4, h, "simpson")
    with pytest.raises(ValueError):
        quadrature_weights(8, h, "gauss")


def test_quadrature_exactness():
    # trapezoid integrates linears exactly, simpson cubics
    h = Fraction(1, 10)
    n = 11
    xs = [i * h for i in range(n)]
    trap = quadrature_weights(n, h, "trapezoid")
    assert sum(w * (2 + 3 * x) for w, x in zip(trap, xs)) == Fraction(2) + Fraction(3, 2)
    simp = quadrature_weights(n, h, "simpson")
    exact = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    assert sum(w * (x + x**2 + x**3) for w, x in zip(simp, xs)) == exact


def test_raw_weights_are_float_image_of_exact():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=16, dt=0.01, project=False)
    assert dd.projected is False
    for v, row in enumerate(dd.exact_weights):
        for i, w in enumerate(row):
            assert dd.weights[v, i] == float(w)
    assert dd.weights.dtype == np.float64
    assert dd.weights.flags["C_CONTIGUOUS"]
    assert dd.weights.shape == (2, 16)


def test_discretize_validation():
    det = build_detector(ModelSpec.monomial(0, 0))
    with pytest.raises(ValueError):
        discretize(det, window=1)
    for dt in (0.0, -0.01, math.inf, math.nan):
        with pytest.raises(ValueError):
            discretize(det, window=8, dt=dt)
    with pytest.raises(ValueError):
        discretize(det, window=8, rule="gauss")


def test_projection_kills_quadrature_bias():
    det = build_detector(ModelSpec.monomial(0, 0))
    raw = discretize(det, window=64, dt=0.01, project=False)
    prj = discretize(det, window=64, dt=0.01, project=True)
    assert prj.projected is True
    # raw trapezoid rows carry O(h^2) bias on constants; projected rows do not
    assert abs(raw.weights[0].sum()) > 1e-6
    assert abs(prj.weights[0].sum()) < 1e-16
    # the deflation is a small correction, not a rewrite
    scale = np.abs(raw.weights).max()
    assert np.abs(prj.weights - raw.weights).max() < 1e-4 * scale


def test_projection_annihilates_in_model_windows():
    det = build_detector(ModelSpec.monomial(2, 0))
    dd = discretize(det, window=64, dt=0.01)
    t = np.arange(64) * 0.01
    peak = np.abs(dd.weights).max()
    for coeffs in [(1.0, 0.0, 0.0), (0.3, -2.0, 5.0), (1e3, 1e2, 1e1)]:
        y = coeffs[0] + coeffs[1] * t + coeffs[2] * t**2
        for row in dd.weights:
            assert abs(float(row @ y)) < 1e-12 * peak * max(np.abs(y).max(), 1.0)


def test_oracle_matches_kernel_path():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=32, dt=0.01, project=False)
    rng = np.random.default_rng(5)
    y = _smooth_samples(rng, 32, 0.01)
    direct = dd.weights @ y
    oracle = oracle_window_values(det, y, 0.01, "trapezoid")
    assert len(oracle) == dd.degree + 1
    for a, b in zip(direct, oracle):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_oracle_simpson_rule():
    det = build_detector(ModelSpec.monomial(1, 0))
    dd = discretize(det, window=33, dt=0.02, rule="simpson", project=False)
    rng = np.random.default_rng(6)
    y = _smooth_samples(rng, 33, 0.02)
    direct = dd.weights @ y
    oracle = oracle_window_values(det, y, 0.02, "simpson")
    for a, b in zip(direct, oracle):
        assert math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-15)


def test_midpoint_collapse():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=16, dt=0.01)
    expect = dd.weights[0] + dd.t_mid * dd.weights[1]
    assert np.allclose(dd.w_mid, expect, rtol=0, atol=0)
    assert dd.wnorm == pytest.approx(float(np.linalg.norm(expect)))
    assert dd.span == pytest.approx(0.15)


def test_bivariate_poly_text():
    p = BivariatePoly({(1, 0): Fraction(1), (0, 2): Fraction(-3)})
    # T-degree renders as T, tau as u
    assert "T" in p.text() and "u^2" in p.text()
    assert BivariatePoly().text() == "0"


# -- discretize against the per-tap Fraction Horner --------------------------


def fraction_horner_rows(det, window, dt, rule):
    """Exact weight rows by one Fraction Horner evaluation per tap: the
    reference that discretize's integer-grid rows must equal."""
    kern = kernelize(det)
    h = Fraction(dt)
    T = (window - 1) * h
    q = quadrature_weights(window, h, rule)
    rows = []
    for kv in kern.kernels:
        tau_coeffs = kv.tau_poly_at(T)
        row = []
        for i in range(window):
            tau = i * h
            acc = Fraction(0)
            for c in reversed(tau_coeffs):
                acc = acc * tau + c
            row.append(q[i] * acc)
        rows.append(tuple(row))
    return tuple(rows)


def reference_weights(det, exact_rows, dt, project):
    """Float image of the reference rows, then the projection discretize applies."""
    weights = np.array([[float(w) for w in row] for row in exact_rows], dtype=np.float64)
    if project:
        window = weights.shape[1]
        T = (window - 1) * Fraction(dt)
        grid = np.arange(window, dtype=np.float64) / (window - 1)
        for vi, kv in enumerate(kernelize(det).kernels):
            basis = [grid**m for m in kernels._annihilated_moments(kv, T)]
            if basis:
                weights[vi] = kernels._project_out(weights[vi], basis)
    return weights


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


ORACLE_MODELS = {
    "monomial(0,0)": (ModelSpec.monomial(0, 0), None),
    "monomial(4,0)": (ModelSpec.monomial(4, 0), None),
    "monomial(8,0)": (ModelSpec.monomial(8, 0), None),
    "monomial(1,1,order=1)": (ModelSpec.monomial(1, 1, order=1), None),
    "polynomial(3,2)": (ModelSpec.polynomial(3, 2), None),
    "monomial(1,0)/general": (ModelSpec.monomial(1, 0), "general"),
}
ORACLE_DTS = (0.01, 0.001, 0.1, 1 / 3, 2**-7, 1e-6)


@functools.lru_cache(maxsize=None)
def oracle_detector(name):
    spec, method = ORACLE_MODELS[name]
    return build_detector(spec, method=method)


def check_against_reference(det, window, dt, rule):
    want_exact = fraction_horner_rows(det, window, dt, rule)
    for project in (False, True):
        dd = discretize(det, window=window, dt=dt, rule=rule, project=project)
        assert_same_bits(dd.weights, reference_weights(det, want_exact, dt, project))
        assert dd.exact_weights == want_exact
        assert all(type(w) is Fraction for row in dd.exact_weights for w in row)


@pytest.mark.parametrize(
    "window,rule",
    [(2, "trapezoid"), (3, "trapezoid"), (64, "trapezoid"), (385, "trapezoid"),
     (3, "simpson"), (385, "simpson")],
)
@pytest.mark.parametrize("model", list(ORACLE_MODELS))
def test_discretize_matches_fraction_horner(model, window, rule):
    det = oracle_detector(model)
    for dt in ORACLE_DTS:
        check_against_reference(det, window, dt, rule)


def test_discretize_matches_fraction_horner_at_4096():
    check_against_reference(oracle_detector("monomial(8,0)"), 4096, 0.01, "trapezoid")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(list(ORACLE_MODELS)),
    dt=st.floats(min_value=1e-6, max_value=1.0, exclude_min=True, exclude_max=True),
    window=st.integers(min_value=2, max_value=200),
    rule=st.sampled_from(["trapezoid", "simpson"]),
)
def test_discretize_raw_weights_are_float_image_of_reference(model, dt, window, rule):
    if rule == "simpson":
        window = max(3, window | 1)
    det = oracle_detector(model)
    want_exact = fraction_horner_rows(det, window, dt, rule)
    dd = discretize(det, window=window, dt=dt, rule=rule, project=False)
    assert_same_bits(dd.weights, reference_weights(det, want_exact, dt, False))

    # exact_weights is built on first access and leaves the floats alone
    bits = dd.weights.tobytes()
    assert "exact_weights" not in vars(dd)
    assert dd.exact_weights == want_exact
    assert dd.exact_weights is dd.exact_weights
    assert dd.weights.tobytes() == bits
    with pytest.raises(dataclasses.FrozenInstanceError):
        dd.window = window + 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        dd.exact_weights = ()
