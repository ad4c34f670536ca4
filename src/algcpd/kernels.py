"""Kernelization: strictly finite-integral operators to sliding-window kernels.

A monomial c * s^-m * D^a acts on a window [0, T] of the signal as

    integral_0^T  c * (T - tau)^(m-1) / (m-1)!  *  (-tau)^a  *  y(tau)  dtau

(m-fold integration collapsed by the Cauchy formula; D^a is multiplication
by (-tau)^a in the original domain). Summing over the monomials of each delay
coefficient gives one exact bivariate polynomial kernel K_v(T, tau) per delay
power, and a quadrature rule turns each kernel into a weight row. All kernel
algebra is Fraction-exact; floats appear only in the frozen weight arrays.

A row is evaluated on the integer tap grid: with T fixed and tau = i * dt,
K_v(T, i * dt) is a polynomial in the tap index i, so it is brought to one
denominator D and summed by Horner over plain ints. Each weight is then the
int quotient q_i.numerator * sum / (q_i.denominator * D), which rounds
correctly, so the rows are still exact and every float is the correctly
rounded image of its exact weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ._exact import binomial
from .builder import DetectorOperator
from .operators import DiffOperator


class BivariatePoly:
    """Exact polynomial in (T, tau): {(i, j): c} for c * T^i * tau^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int], Fraction] | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    clean[key] = c if isinstance(c, Fraction) else Fraction(c)
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BivariatePoly(out)

    def tau_poly_at(self, T: Fraction) -> List[Fraction]:
        """Coefficients in tau (ascending) with T substituted, exact."""
        deg = max((j for (_, j) in self.terms), default=0)
        out = [Fraction(0)] * (deg + 1)
        for (i, j), c in self.terms.items():
            out[j] += c * T**i
        while out and out[-1] == 0:
            out.pop()
        return out

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[1])):
            c = self.terms[(i, j)]
            atoms = []
            if i:
                atoms.append("T" if i == 1 else f"T^{i}")
            if j:
                atoms.append("u" if j == 1 else f"u^{j}")
            mag = abs(c)
            if not atoms or mag != 1:
                atoms.insert(0, str(mag))
            body = "*".join(atoms)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


def _monomial_kernel(c: Fraction, m: int, a: int) -> BivariatePoly:
    """Kernel of c * s^-m * D^a: c * (T-tau)^(m-1)/(m-1)! * (-tau)^a."""
    fact = math.factorial(m - 1)
    sign = Fraction(-1) ** a
    terms: Dict[Tuple[int, int], Fraction] = {}
    # (T - tau)^(m-1) = sum_k C(m-1,k) T^(m-1-k) (-tau)^k
    for k in range(m):
        coef = c * sign * binomial(m - 1, k) * Fraction(-1) ** k / fact
        key = (m - 1 - k, k + a)
        terms[key] = terms.get(key, Fraction(0)) + coef
    return BivariatePoly(terms)


@dataclass(frozen=True)
class SymbolicKernel:
    """One exact window kernel per delay power of the detector."""

    detector: DetectorOperator
    kernels: Tuple[BivariatePoly, ...]

    @property
    def degree(self) -> int:
        return len(self.kernels) - 1

    def text(self) -> str:
        return "\n".join(f"K_{v}(T,u): {k.text()}" for v, k in enumerate(self.kernels))


def _integral_monomials(comp: DiffOperator) -> List[Tuple[Fraction, int, int]]:
    """[(c, m, a)] for the monomials c * s^-m * D^a of comp; raises ValueError
    unless every m >= 1."""
    out = []
    for c, e, a in comp.laurent_terms():
        if e >= 0:
            raise ValueError("detector operator is not in strict integral form: " + comp.text())
        out.append((c, -e, a))
    return out


def kernelize(det: DetectorOperator) -> SymbolicKernel:
    kernels = []
    for comp in det.omega.coeffs:
        k = BivariatePoly()
        for c, m, a in _integral_monomials(comp):
            k = k + _monomial_kernel(c, m, a)
        kernels.append(k)
    return SymbolicKernel(detector=det, kernels=tuple(kernels))


def quadrature_weights(window: int, dt: Fraction, rule: str) -> List[Fraction]:
    if rule == "trapezoid":
        if window < 2:
            raise ValueError("trapezoid rule needs window >= 2")
        q = [dt] * window
        q[0] = dt / 2
        q[-1] = dt / 2
        return q
    if rule == "simpson":
        if window < 3 or window % 2 == 0:
            raise ValueError("simpson rule needs an odd window >= 3")
        q = [dt / 3]
        for i in range(1, window - 1):
            q.append(dt * (4 if i % 2 else 2) / 3)
        q.append(dt / 3)
        return q
    raise ValueError(f"unknown quadrature rule {rule!r}")


@dataclass(frozen=True)
class DiscreteDetector:
    """Frozen float weights of a kernelized detector on a fixed grid.

    weights[v, i] multiplies sample i of a window for the delay-power-v value;
    the window value at hypothesis t is sum_v v_v * t^v. t_mid is the window
    midpoint T/2 used by the zero-crossing runtime, w_mid the collapsed weight
    row at t_mid and wnorm its Euclidean norm (the runtime's noise scale).
    """

    detector: DetectorOperator
    kernel: SymbolicKernel
    window: int
    dt: float
    rule: str
    weights: np.ndarray  # (degree+1, window) float64, C-contiguous
    # per row (D, A): before quadrature, row v at tap i is exactly
    # sum_j A[j] * i^j / D, an integer polynomial in the tap index
    exact_rows: Tuple[Tuple[int, Tuple[int, ...]], ...]
    t_mid: float
    w_mid: np.ndarray
    wnorm: float
    projected: bool = True

    @property
    def degree(self) -> int:
        return self.weights.shape[0] - 1

    @property
    def span(self) -> float:
        """Window time span T = (window - 1) * dt."""
        return (self.window - 1) * self.dt

    @cached_property
    def exact_weights(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The exact quadrature weights, built from exact_rows on first access.

        The unprojected float weights are their float images.
        """
        q = quadrature_weights(self.window, Fraction(self.dt), self.rule)
        return tuple(
            tuple(
                Fraction(qi.numerator * s, qi.denominator * den)
                for qi, s in zip(q, _tap_numerators(coeffs, self.window))
            )
            for den, coeffs in self.exact_rows
        )


def _integer_row(tau_coeffs: List[Fraction], h: Fraction) -> Tuple[int, Tuple[int, ...]]:
    """(D, A) with sum_j tau_coeffs[j] * (i*h)^j == sum_j A[j] * i^j / D for all i.

    Folding h^j into each coefficient turns the row into a polynomial in the
    integer tap index; D > 0 is the common denominator of the folded terms.
    """
    folded = [c * h**j for j, c in enumerate(tau_coeffs)]
    den = math.lcm(*(c.denominator for c in folded))
    return den, tuple(c.numerator * (den // c.denominator) for c in folded)


def _tap_numerators(coeffs: Tuple[int, ...], window: int) -> List[int]:
    """sum_j coeffs[j] * i^j at each tap i in range(window), Horner over ints."""
    rev = coeffs[::-1]
    out = []
    for i in range(window):
        acc = 0
        for c in rev:
            acc = acc * i + c
        out.append(acc)
    return out


def _annihilated_moments(kv: BivariatePoly, T: Fraction) -> List[int]:
    """Moment degrees m with integral_0^T kv(T, tau) * tau^m dtau exactly zero.

    With row = kv.tau_poly_at(T), moment m is sum_j row[j] * T^(j+m+1) / (j+m+1);
    T > 0, so it is zero exactly when sum_j row[j] * T^j / (j+m+1) is. The
    range of m is bounded by kv's tau degree, not len(row): a trailing
    coefficient of row can vanish at this T. These are identities of the exact
    kernel (it annihilates the sampled model-family polynomials); the discrete
    projection enforces the same identities on the quadrature weights.
    """
    deg_tau = max((j for _, j in kv.terms), default=0)
    scaled = [c * T**j for j, c in enumerate(kv.tau_poly_at(T))]
    return [
        m
        for m in range(deg_tau + 2)
        if sum(c / (j + m + 1) for j, c in enumerate(scaled)) == 0
    ]


def _project_out(row: np.ndarray, basis: List[np.ndarray]) -> np.ndarray:
    """Deflate row against span(basis) via twice-applied modified Gram-Schmidt."""
    ortho: List[np.ndarray] = []
    for b in basis:
        u = b.astype(np.float64).copy()
        for o in ortho:
            u -= np.dot(o, u) * o
        for o in ortho:  # second pass for orthogonality at the eps level
            u -= np.dot(o, u) * o
        n = float(np.sqrt(np.dot(u, u)))
        if n > 0.0:
            ortho.append(u / n)
    out = row.copy()
    for _ in range(2):
        for o in ortho:
            out -= np.dot(o, out) * o
    return out


def discretize(
    det: DetectorOperator,
    window: int = 64,
    dt: float = 0.01,
    rule: str = "trapezoid",
    project: bool = True,
) -> DiscreteDetector:
    """Evaluate the symbolic kernels on a uniform window grid.

    With project=True (the default) each float weight row is deflated against
    the sampled monomials its exact kernel annihilates, so windows holding a
    pure model-family signal produce values at rounding level instead of
    quadrature-bias level. project=False keeps the raw quadrature weights
    (exactly the float image of exact_weights).
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    kern = kernelize(det)
    h = Fraction(dt)
    T = (window - 1) * h
    q = quadrature_weights(window, h, rule)

    rows = [_integer_row(kv.tau_poly_at(T), h) for kv in kern.kernels]
    qn = [x.numerator for x in q]
    qd = [x.denominator for x in q]
    weights = np.array(
        [
            # int / int rounds correctly, exactly as float(Fraction) does
            [n * s / (d * den) for n, d, s in zip(qn, qd, _tap_numerators(coeffs, window))]
            for den, coeffs in rows
        ],
        dtype=np.float64,
    )

    if project:
        grid = np.arange(window, dtype=np.float64) / max(window - 1, 1)
        for vi, kv in enumerate(kern.kernels):
            basis = [grid ** m for m in _annihilated_moments(kv, T)]
            if basis:
                weights[vi] = _project_out(weights[vi], basis)
        weights = np.ascontiguousarray(weights)

    t_mid = float(T) / 2.0
    w_mid = np.zeros(window, dtype=np.float64)
    p = 1.0
    for row in weights:
        w_mid += row * p
        p *= t_mid
    wnorm = float(np.sqrt(np.dot(w_mid, w_mid)))

    return DiscreteDetector(
        detector=det,
        kernel=kern,
        window=window,
        dt=dt,
        rule=rule,
        weights=weights,
        exact_rows=tuple(rows),
        t_mid=t_mid,
        w_mid=w_mid,
        wnorm=wnorm,
        projected=project,
    )


def oracle_window_values(
    det: DetectorOperator, samples: Sequence[float], dt: float, rule: str = "trapezoid"
) -> np.ndarray:
    """Independent single-window evaluation used to check the kernel path.

    Avoids the collapsed bivariate kernels entirely: for each monomial
    c * s^-m * D^a the m-fold integration factor S_m is rebuilt numerically by
    repeated antidifferentiation (S_1 = 1, S_{j+1}(tau) = integral_tau^T S_j),
    evaluated per sample in float, and accumulated with math.fsum. Same
    quadrature rule, different code path and different summation order.
    """
    y = [float(v) for v in samples]
    window = len(y)
    h = Fraction(dt)
    q = [float(w) for w in quadrature_weights(window, h, rule)]
    T = (window - 1) * dt
    taus = [i * dt for i in range(window)]

    # s_polys[m] = float coefficients (ascending) of S_m on [0, T]
    max_m = 0
    plan = []
    for comp in det.omega.coeffs:
        terms = _integral_monomials(comp)
        plan.append(terms)
        for _, m, _ in terms:
            max_m = max(max_m, m)
    s_polys: List[List[float]] = [[], [1.0]]
    for _ in range(2, max_m + 1):
        prev = s_polys[-1]
        anti = [0.0] + [c / (k + 1) for k, c in enumerate(prev)]
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
