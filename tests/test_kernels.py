"""Kernel derivation, quadrature discretization, and the window-value oracle."""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd import kernels
from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import BivariatePoly, discretize, kernelize, quadrature_weights
from algcpd.operators import DiffOperator, OperatorPolynomial, to_integral_form
from algcpd.runtime import detect_samples


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
    k0, k1 = kernelize(det)
    assert k0.text() == "3*u^2 - 2*T*u"
    assert k1.text() == "-2*u + T"


# -- an independent kernel reference, in plain Fractions ---------------------


def reference_kernel(comp):
    """{(i, j): c} for the terms c * T^i * u^j of comp's kernel, by the Cauchy
    formula c * (T - u)^(m-1) / (m-1)! * (-u)^a summed over the monomials
    c * s^-m * D^a of comp.laurent_terms(); (T - u)^(m-1) is multiplied out
    factor by factor."""
    out = {}
    for c, e, a in comp.laurent_terms():
        m = -e
        assert m >= 1
        power = {(0, 0): Fraction(1)}
        for _ in range(m - 1):
            nxt = {}
            for (i, j), x in power.items():
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + x
                nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) - x
            power = nxt
        scale = c * (-1) ** a / math.factorial(m - 1)
        for (i, j), x in power.items():
            out[(i, j + a)] = out.get((i, j + a), 0) + scale * x
    return {k: x for k, x in out.items() if x}


def reference_kernels(det):
    return [reference_kernel(comp) for comp in det.omega.coeffs]


def tau_coeffs_at(ref, T):
    """Coefficients in u (ascending) of a reference kernel with T substituted."""
    out = [Fraction(0)] * (max((j for _, j in ref), default=-1) + 1)
    for (i, j), c in ref.items():
        out[j] += c * T**i
    return out


def exact_moment(ref, T, m):
    """integral_0^T K(T, tau) * tau^m dtau, from the reference kernel's terms."""
    return sum(c * T ** (i + j + m + 1) / (j + m + 1) for (i, j), c in ref.items())


def reference_moments(ref, T):
    """Every vanishing moment degree up to the kernel's u degree + 1."""
    top = max((j for _, j in ref), default=0) + 1
    return [m for m in range(top + 1) if exact_moment(ref, T, m) == 0]


def oracle_window_values(det, samples, dt, rule="trapezoid"):
    """Independent single-window evaluation used to check the kernel path.

    Avoids the collapsed bivariate kernels entirely: for each monomial
    c * s^-m * D^a of comp.laurent_terms() the m-fold integration factor S_m
    is rebuilt numerically by repeated antidifferentiation (S_1 = 1,
    S_{j+1}(tau) = integral_tau^T S_j), evaluated per sample in float, and
    accumulated with math.fsum. Same quadrature rule, different code path and
    different summation order.
    """
    y = [float(v) for v in samples]
    window = len(y)
    q = [float(w) for w in quadrature_weights(window, Fraction(dt), rule)]
    T = (window - 1) * dt
    taus = [i * dt for i in range(window)]

    # plan[v] = [(c, m, a)] for the monomials c * s^-m * D^a of delay power v
    plan = [[(c, -e, a) for c, e, a in comp.laurent_terms()] for comp in det.omega.coeffs]
    assert all(m >= 1 for terms in plan for _, m, _ in terms)
    max_m = max((m for terms in plan for _, m, _ in terms), default=0)

    # s_polys[m] = float coefficients (ascending) of S_m on [0, T]
    s_polys = [[], [1.0]]
    for _ in range(2, max_m + 1):
        anti = [0.0] + [c / (k + 1) for k, c in enumerate(s_polys[-1])]
        at_T = 0.0
        for c in reversed(anti):
            at_T = at_T * T + c
        nxt = [-c for c in anti]
        nxt[0] += at_T
        s_polys.append(nxt)

    out = np.empty(len(plan), dtype=np.float64)
    for vi, terms in enumerate(plan):
        contributions = []
        for c, m, a in terms:
            cf = float(c)
            sp = s_polys[m]
            for i in range(window):
                tau = taus[i]
                sm = 0.0
                for pc in reversed(sp):
                    sm = sm * tau + pc
                contributions.append(cf * sm * (-tau) ** a * y[i] * q[i])
        out[vi] = math.fsum(contributions)
    return out


def test_kernel_exact_moments():
    # step kernels integrate constants to zero on [0, T], exactly
    det = build_detector(ModelSpec.monomial(0, 0))
    T = Fraction(63, 100)
    for ref in reference_kernels(det):
        assert exact_moment(ref, T, 0) == 0


def test_kernel_moments_grow_with_model():
    det = build_detector(ModelSpec.monomial(2, 0))
    T = Fraction(63, 100)
    for ref in reference_kernels(det):
        for m in range(3):  # smooth degree bound 2: kills 1, t, t^2
            assert exact_moment(ref, T, m) == 0
    # the projection basis is every vanishing moment up to tau degree + 1;
    # polynomial(0, 3) reaches that top one, the one model with n1 <= 4 and
    # n2 <= 3 that does
    tops = []
    for model in (ModelSpec.monomial(2, 0), ModelSpec.polynomial(0, 3)):
        det = build_detector(model)
        for kv, ref in zip(kernelize(det), reference_kernels(det)):
            want = reference_moments(ref, T)
            assert kernels._annihilated_moments(kv, kv.at(T), T) == want
            tops.append(max(j for _, j in ref) + 1 in want)
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
    for v, row in enumerate(fraction_horner_rows(det, 16, 0.01, "trapezoid")):
        for i, w in enumerate(row):
            assert dd.weights[v, i] == float(w)
    assert dd.weights.dtype == np.float64
    assert dd.weights.flags["C_CONTIGUOUS"]
    assert dd.weights.shape == (2, 16)


def test_discretize_validation():
    det = build_detector(ModelSpec.monomial(0, 0))
    with pytest.raises(ValueError):
        discretize(det, window=1)
    # any window that is not an integer, bools and integral floats included
    for window in (16.0, 16.5, True, False, "16", None, np.float64(16.0)):
        with pytest.raises(ValueError, match="window must be an integer"):
            discretize(det, window=window)
    # NumPy integers are integers: the same detector as the int window
    dd = discretize(det, window=np.int64(16))
    assert type(dd.window) is int
    assert dd.weights.tobytes() == discretize(det, window=16).weights.tobytes()
    for dt in (0.0, -0.01, math.inf, math.nan, True, False):
        with pytest.raises(ValueError, match="dt"):
            discretize(det, window=8, dt=dt)
    # a dt whose weights, or their norm at the midpoint, overflow or underflow
    # the floats fails loudly instead of giving a detector that finds nothing;
    # the pytest config makes an escaping RuntimeWarning an error
    for dt in (1e150, 1e100, 1e-60, 1e-200, 1e-300):
        with pytest.raises(ValueError, match=re.escape(f"dt={dt!r}")):
            discretize(det, window=64, dt=dt)
    # in range at both ends: finite weights with a finite positive norm
    for dt in (1e50, 1e-50):
        dd = discretize(det, window=64, dt=dt)
        assert np.isfinite(dd.weights).all() and 0.0 < dd.wnorm < math.inf
    with pytest.raises(ValueError):
        discretize(det, window=8, rule="gauss")
    # project="no" is truthy and used to project anyway
    for project in ("no", 0, 1, None, np.bool_(True)):
        with pytest.raises(ValueError, match="project must be a bool"):
            discretize(det, window=8, project=project)


def test_discretize_reads_dt_as_a_python_float():
    # the weights are those of float(dt), the grid the runtime reads from dd.dt
    det = build_detector(ModelSpec.monomial(0, 0))
    y = np.where(np.arange(200) * 0.01 >= 1.115, 1.0, 0.0)
    times = []
    for dt in (np.float32(0.01), np.float64(0.01), Fraction(1, 100)):
        dd = discretize(det, window=64, dt=dt)
        want = discretize(det, window=64, dt=float(dt))
        assert type(dd.dt) is float and dd.dt == want.dt
        assert_same_bits(dd.weights, want.weights)
        assert dd.exact_rows == want.exact_rows
        dets = detect_samples(dd, y)[1]
        assert dets == detect_samples(want, y)[1]
        times += [d.time for d in dets]
    assert times and all(type(t) is float for t in times)
    for dt in ("0.01", None, 0.01j, [0.01]):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            discretize(det, window=8, dt=dt)
    # a rational too large or too small for the floats is out of range too
    for dt in (10**400, Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            discretize(det, window=8, dt=dt)


def test_projection_kills_quadrature_bias():
    det = build_detector(ModelSpec.monomial(0, 0))
    raw = discretize(det, window=64, dt=0.01, project=False)
    prj = discretize(det, window=64, dt=0.01, project=True)
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
    assert len(oracle) == dd.weights.shape[0]
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
    assert dd.t_mid == 15 * 0.01 / 2
    expect = dd.weights[0] + dd.t_mid * dd.weights[1]
    assert dd.wnorm == float(np.sqrt(np.dot(expect, expect)))


def test_bivariate_poly_text():
    # item i is the coefficient of T^i, a polynomial in tau (rendered u);
    # terms run by falling total degree, then falling u degree
    p = BivariatePoly((Polynomial(["1/2", 0, -3]), Polynomial([0, 1]), Polynomial(["-1/6"])))
    assert p.text() == "-3*u^2 + T*u - 1/6*T^2 + 1/2"
    assert BivariatePoly((Polynomial(), Polynomial([2]))).text() == "2*T"
    assert BivariatePoly().text() == "0"


# -- discretize against the per-tap Fraction Horner --------------------------


def fraction_horner_rows(det, window, dt, rule):
    """Exact weight rows by one Fraction Horner evaluation per tap of the
    reference kernels: what discretize's integer-grid rows must equal."""
    h = Fraction(dt)
    T = (window - 1) * h
    q = quadrature_weights(window, h, rule)
    rows = []
    for ref in reference_kernels(det):
        tau_coeffs = tau_coeffs_at(ref, T)
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
        for vi, ref in enumerate(reference_kernels(det)):
            basis = [grid**m for m in reference_moments(ref, T)]
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
    # the old name of monomial(2, 2), a change in the first derivative of
    # monomial(1, 1), kept so the ids of the cases it parametrizes stay put
    "monomial(1,1,order=1)": (ModelSpec.monomial(2, 2), None),
    "polynomial(3,2)": (ModelSpec.polynomial(3, 2), None),
    "monomial(1,0)/general": (ModelSpec.monomial(1, 0), "general"),
}
# 2.0 is the one step with an even Fraction numerator, so the end and interior
# quadrature weights have different numerators (trapezoid q_0 = 1 against
# q_i = 2; simpson 2/3, 8/3 and 4/3)
ORACLE_DTS = (0.01, 0.001, 0.1, 1 / 3, 2**-7, 1e-6, 2.0)


@functools.lru_cache(maxsize=None)
def oracle_detector(name):
    spec, method = ORACLE_MODELS[name]
    return build_detector(spec, method=method)


@pytest.mark.parametrize("model", list(ORACLE_MODELS))
def test_kernelize_matches_cauchy_reference(model):
    det = oracle_detector(model)
    T = Fraction(63, 100)
    for kv, ref in zip(kernelize(det), reference_kernels(det), strict=True):
        got = {(i, j): c for i, p in enumerate(kv) for j, c in enumerate(p.coeffs) if c}
        assert got == ref
        assert kv.at(T).coeffs == tuple(tau_coeffs_at(ref, T))


def check_against_reference(det, window, dt, rule):
    want_exact = fraction_horner_rows(det, window, dt, rule)
    for project in (False, True):
        dd = discretize(det, window=window, dt=dt, rule=rule, project=project)
        assert_same_bits(dd.weights, reference_weights(det, want_exact, dt, project))


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
    with pytest.raises(dataclasses.FrozenInstanceError):
        dd.window = window + 1


def horner_taps(coeffs, window):
    """sum_j coeffs[j] * i^j at each tap i in range(window), Horner at every tap."""
    out = []
    for i in range(window):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * i + c
        out.append(acc)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.lists(st.integers(min_value=-(2**900), max_value=2**900), max_size=14),
    zero_lead=st.booleans(),
)
def test_tap_numerators_match_horner(coeffs, zero_lead):
    """The running sums of forward differences are P at every tap, for any
    integer coefficients (the zero polynomial and a zero leading coefficient
    too), at windows 1 to deg + 3 and 4096."""
    if coeffs and zero_lead:
        coeffs[-1] = 0
    for window in [*range(1, len(coeffs) + 3), 4096]:
        got = kernels._tap_numerators(coeffs, window)
        assert got == horner_taps(coeffs, window)
        assert all(type(x) is int for x in got)
