"""Kernelization: strictly finite-integral operators to sliding-window kernels.

A monomial c * s^-m * D^a acts on a window [0, T] of the signal as

    integral_0^T  c * (T - tau)^(m-1) / (m-1)!  *  (-tau)^a  *  y(tau)  dtau

(m-fold integration collapsed by the Cauchy formula; D^a is multiplication
by (-tau)^a in the original domain). Summing over the monomials of each delay
coefficient gives one exact bivariate polynomial kernel K_v(T, tau) per delay
power, and a quadrature rule turns each kernel into a weight row. A kernel is
a tuple of exact ``Polynomial``s in tau, one per power of T, so all kernel
algebra runs on the integer numerators of the exact field; floats appear only
in the frozen weight arrays.

A row is evaluated on the integer tap grid: T is substituted once, by Horner
over the kernel's polynomials, and folding tau = i * dt into the result gives
K_v(T, i * dt) as one canonical polynomial A(i) / D in the tap index i. The
quadrature weight at tap i is q_i = c_i * h, for the grid step h = hn / hd and
a factor c_i of the rule ({1/2, 1} for the trapezoid rule, {1/3, 4/3, 2/3} for
Simpson's). So hn is multiplied into A's integer coefficients once per row,
the taps are tabulated as running sums of A's forward differences over plain
ints (Horner only for the first deg + 1 taps), and each weight is the int
quotient c_i.numerator * hn * A(i) / (c_i.denominator * hd * D),
with one divisor per factor and row. That quotient is the exact weight
q_i * A(i) / D, and int / int rounds it correctly, so the rows are still exact
and every float is the correctly rounded image of its exact weight.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ._exact import Polynomial, _poly, render_terms
from .builder import DetectorOperator
from .operators import DiffOperator

# the quadrature rules quadrature_weights knows
RULES = ("trapezoid", "simpson")


class BivariatePoly(tuple):
    """Exact polynomial in (T, tau), held as ``Polynomial``s in tau: item i is
    the coefficient of T^i. The zero kernel is the empty tuple."""

    __slots__ = ()

    def at(self, T: Fraction) -> Polynomial:
        """The polynomial in tau with T substituted, by Horner over the items."""
        acc = Polynomial.zero()
        for p in reversed(self):
            acc = acc * T + p
        return acc

    def text(self) -> str:
        """Terms by falling total degree, then falling tau degree; tau renders as u."""
        terms = [(i, j, c, p.den) for i, p in enumerate(self) for j, c in enumerate(p.nums) if c]
        terms.sort(key=lambda t: (-t[0] - t[1], -t[1]))
        return render_terms((c, den, (("T", i), ("u", j))) for i, j, c, den in terms)


def _integral_monomials(comp: DiffOperator) -> List[Tuple[Fraction, int, int]]:
    """[(c, m, a)] for the monomials c * s^-m * D^a of comp; raises ValueError
    unless every m >= 1."""
    out = []
    for c, e, a in comp.laurent_terms():
        if e >= 0:
            raise ValueError("detector operator is not in strict integral form: " + comp.text())
        out.append((c, -e, a))
    return out


def _kernel(comp: DiffOperator) -> BivariatePoly:
    """Sum over the monomials c * s^-m * D^a of comp of
    c * (T - tau)^(m-1) / (m-1)! * (-tau)^a, whose T^i term is
    c * C(m-1, i) / (m-1)! * (-tau)^(m-1-i+a). The terms are summed as integer
    numerators over one denominator L, so each T-column is made once."""
    terms = _integral_monomials(comp)
    L = math.lcm(*(c.denominator * math.factorial(m - 1) for c, m, _ in terms))
    cols: List[List[int]] = []
    for c, m, a in terms:
        f = c.numerator * (L // (c.denominator * math.factorial(m - 1)))
        cols += [[] for _ in range(m - len(cols))]
        for i in range(m):
            j = m - 1 - i + a
            col = cols[i]
            col += [0] * (j + 1 - len(col))
            col[j] += (-1) ** j * math.comb(m - 1, i) * f
    return BivariatePoly(_poly(col, L) for col in cols)


def kernelize(det: DetectorOperator) -> Tuple[BivariatePoly, ...]:
    """The exact window kernels of det, K_v(T, tau) for each delay power v in
    order, one per coefficient of det.omega; raises ValueError unless each
    coefficient is in strict integral form."""
    return tuple(_kernel(c) for c in det.omega.coeffs)


def _quadrature_factors(window: int, rule: str) -> List[Tuple[Fraction, slice]]:
    """The rule as (c, taps) pairs, q_i = c * dt at each tap i the slice picks;
    the slices partition range(window). Raises ValueError unless rule is one
    of RULES and spans window samples."""
    ends = slice(0, None, window - 1)
    if rule == "trapezoid":
        if window < 2:
            raise ValueError("trapezoid rule needs window >= 2")
        return [(Fraction(1, 2), ends), (Fraction(1), slice(1, window - 1))]
    if rule == "simpson":
        if window < 3 or window % 2 == 0:
            raise ValueError("simpson rule needs an odd window >= 3")
        return [
            (Fraction(1, 3), ends),
            (Fraction(4, 3), slice(1, window - 1, 2)),
            (Fraction(2, 3), slice(2, window - 1, 2)),
        ]
    raise ValueError(f"unknown quadrature rule {rule!r}; pick from {RULES}")


def quadrature_weights(window: int, dt: Fraction, rule: str) -> List[Fraction]:
    """The quadrature weight q_i of each of the window taps at grid step dt."""
    q: List[Fraction] = [dt] * window
    for c, taps in _quadrature_factors(window, rule):
        q[taps] = [c * dt] * len(range(window)[taps])
    return q


@dataclass(frozen=True)
class DiscreteDetector:
    """Frozen float weights of a kernelized detector on a fixed grid.

    window: samples per window, which the runtime and the stream slide.
    dt: the grid step, by which the runtime turns positions into times.
    weights: (delay powers, window) float64 rows, what the window engine reads.
    exact_rows: (D, A) per row, exactly sum_j A[j] * i^j / D at tap i before
    quadrature; the tests' exact reference for the float weights.
    t_mid: the window midpoint T/2, where the runtime collapses the rows.
    wnorm: the norm of the rows collapsed at t_mid, the runtime's noise scale.
    """

    window: int
    dt: float
    weights: np.ndarray
    exact_rows: Tuple[Tuple[int, Tuple[int, ...]], ...]
    t_mid: float
    wnorm: float


def _midpoint_norm(weights: np.ndarray, t_mid: float) -> float:
    """The Euclidean norm of sum_v weights[v] * t_mid^v, the rows collapsed at t_mid."""
    w_mid = np.zeros(weights.shape[1], dtype=np.float64)
    p = 1.0
    for row in weights:
        w_mid += row * p
        p *= t_mid
    return float(np.sqrt(np.dot(w_mid, w_mid)))


def _tap_numerators(coeffs: Sequence[int], window: int) -> List[int]:
    """P(i) = sum_j coeffs[j] * i^j at each tap i in range(window), exactly.

    Horner over ints gives P at the first deg + 1 taps, and their difference
    table the forward differences Delta^k P(0). Delta^deg P is constant, and
    Delta^k P(i) = Delta^k P(0) + sum_{j<i} Delta^(k+1) P(j), so deg chained
    running sums (itertools.accumulate) tabulate the rest with no multiply:
    about deg * window int adds, all in C (Knuth, TAOCP vol. 2, 4.6.4). The
    levels stream through one another; only the taps are held. The empty
    coeffs is the zero polynomial."""
    deg = len(coeffs) - 1
    if deg < 0:
        return [0] * window
    rev = coeffs[::-1]
    head = []
    for i in range(min(window, deg + 1)):
        acc = 0
        for c in rev:
            acc = acc * i + c
        head.append(acc)
    if window <= deg + 1:
        return head
    diffs, row = [], head
    for _ in range(deg + 1):
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    taps: Iterable[int] = repeat(diffs[deg], window - deg)
    for k in range(deg - 1, -1, -1):
        taps = accumulate(taps, initial=diffs[k])
    return list(taps)


def _annihilated_moments(kv: BivariatePoly, row: Polynomial, T: Fraction) -> List[int]:
    """Moment degrees m with integral_0^T row(tau) * tau^m dtau exactly zero,
    where row = kv.at(T).

    Moment m is sum_j row[j] * T^(j+m+1) / (j+m+1); T > 0, so with N the
    numerators of row(T * x) it is zero exactly when the integer
    sum_j N[j] * L / (j+m+1) is, for L the lcm of the j+m+1. The range of m is
    bounded by kv's tau degree, not row's: a trailing coefficient of row can
    vanish at this T. These are identities of the exact kernel (it annihilates
    the sampled model-family polynomials); the discrete projection enforces the
    same identities on the quadrature weights.
    """
    nums = row.dilate(T).nums
    out = []
    for m in range(max((p.degree for p in kv), default=0) + 2):
        lcm = math.lcm(*range(m + 1, m + len(nums) + 1))
        if not sum(c * (lcm // (j + m + 1)) for j, c in enumerate(nums)):
            out.append(m)
    return out


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


def _real(x) -> float:
    """x as a Python float: NaN unless x is a real number (bools excluded),
    and inf for an int or Fraction beyond the floats."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.inf


def _grid_step(dt) -> float:
    """dt as a Python float; ValueError unless it is a real number (bools
    excluded) whose float is finite and positive."""
    h = _real(dt)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    return h


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
    quadrature-bias level. project=False keeps the raw quadrature weights,
    each the correctly rounded float of its exact weight q_i * K_v(T, i * dt).
    dt is read once as a Python float, the step the runtime reads back from
    dd.dt, so a NumPy or Fraction dt gives the detector of float(dt). Raises
    ValueError for a dt that is not a real number, one whose float is not
    finite and positive, and one that takes the raw weights, or their norm
    collapsed at the window midpoint, out of the float range, and for a
    project that is not a bool.
    """
    if not isinstance(project, bool):
        raise ValueError(f"project must be a bool, got {project!r}")
    if isinstance(window, bool) or not isinstance(window, numbers.Integral):
        raise ValueError(f"window must be an integer, got {window!r}")
    window = int(window)
    if window < 2:
        raise ValueError("window must be >= 2")
    dt = _grid_step(dt)
    out_of_range = f"dt={dt!r} takes the weights or their norm out of the float range"
    factors = _quadrature_factors(window, rule)
    kernels = kernelize(det)
    h = Fraction(dt)
    hn, hd = h.numerator, h.denominator
    T = (window - 1) * h

    # K_v(T, tau) at this T, then at tau = i * h: sum_j A[j] * i^j / D, read off
    # the canonical Polynomial as (D, A)
    tau_rows = [kv.at(T) for kv in kernels]
    rows = tuple((p.den, p.nums) for p in (r.dilate(h) for r in tau_rows))
    weights = np.empty((len(rows), window), dtype=np.float64)
    try:
        for row, (den, coeffs) in zip(weights, rows):
            # q_i * A(i) / D with q_i = c * h: h's numerator goes into A, and
            # each factor c has one divisor; int / int rounds correctly, exactly
            # as float(Fraction) does
            taps = _tap_numerators([hn * a for a in coeffs], window)
            for c, sl in factors:
                n, d = c.numerator, c.denominator * hd * den
                row[sl] = [s / d for s in taps[sl]] if n == 1 else [n * s / d for s in taps[sl]]
        t_mid = float(T) / 2.0
    except OverflowError:
        raise ValueError(out_of_range) from None

    with np.errstate(over="ignore", invalid="ignore"):
        raw_norm = _midpoint_norm(weights, t_mid)
        if project:
            grid = np.arange(window, dtype=np.float64) / max(window - 1, 1)
            for vi, (kv, row) in enumerate(zip(kernels, tau_rows)):
                basis = [grid ** m for m in _annihilated_moments(kv, row, T)]
                if basis:
                    weights[vi] = _project_out(weights[vi], basis)
        wnorm = _midpoint_norm(weights, t_mid) if project else raw_norm
    # Near the ends of the float range the raw rows' collapse overflows or
    # underflows to 0. The projected one may be 0 in range too: a window too
    # short for the model projects to rounding dust (2 or 3 taps, say).
    if not (0.0 < raw_norm < math.inf and math.isfinite(wnorm)):
        raise ValueError(out_of_range)

    return DiscreteDetector(
        window=window, dt=dt, weights=weights, exact_rows=rows, t_mid=t_mid, wnorm=wnorm
    )
