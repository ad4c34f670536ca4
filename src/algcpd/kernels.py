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
quadrature weight at tap i is q_i = c_i * h, for the grid step h and a factor
c_i of the rule ({1/2, 1} for the trapezoid rule, {1/3, 4/3, 2/3} for
Simpson's). Each c_i is a power of two over the factors' common denominator,
so a weight is a power of two times a polynomial in i with rational
coefficients. The taps of every row are evaluated at once, as one NumPy
array, by Horner in double-double arithmetic (Dekker 1971), with a proven
error bound. Ziv's rounding test (Ziv 1991) accepts a tap when that bound
cannot move its value across a rounding boundary. The few taps it cannot
decide (near-ties, zeros, the ends of the float range) take the exact path:
int Horner and one int / int division, which rounds correctly. So the rows
are still exact, and every float weight is the correctly rounded image of
its exact weight, bit for bit (the proof is in _tap_weights).

T. J. Dekker, "A floating-point technique for extending the available
precision", Numerische Mathematik 18 (1971) 224-242.
A. Ziv, "Fast evaluation of elementary mathematical functions with correctly
rounded last bit", ACM Transactions on Mathematical Software 17 (1991) 410-423.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

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
    weights: (delay powers, window) float64 rows, one per power of the delay;
    derive --emit-weights writes them and the tests check them.
    exact_rows: (D, A) per row, exactly sum_j A[j] * i^j / D at tap i before
    quadrature; the tests' exact reference for the float weights. The raw
    quadrature image, the rows before projection, is
    _tap_weights(exact_rows, window, Fraction(dt), _quadrature_factors(window,
    rule)) for the rule discretize was given, run under
    np.errstate(over="ignore", invalid="ignore").
    t_mid: the window midpoint T/2, where the delay rows are collapsed.
    w_mid: (window,) float64, sum_v weights[v] * t_mid^v, the delay rows
    collapsed at t_mid: the one row the window engine slides for the runtime,
    whose window sum is v.
    wnorm: the Euclidean norm of w_mid, the runtime's noise scale.
    """

    window: int
    dt: float
    weights: np.ndarray
    exact_rows: Tuple[Tuple[int, Tuple[int, ...]], ...]
    t_mid: float
    w_mid: np.ndarray
    wnorm: float


def _midpoint_row(weights: np.ndarray, t_mid: float) -> np.ndarray:
    """sum_v weights[v] * t_mid^v, the rows collapsed at t_mid."""
    w_mid = np.zeros(weights.shape[1], dtype=np.float64)
    p = 1.0
    for row in weights:
        w_mid += row * p
        p *= t_mid
    return w_mid


def _norm(row: np.ndarray) -> float:
    return float(np.sqrt(np.dot(row, row)))


# Dekker's splitting constant for 53-bit floats: H * _SPLIT splits H into two
# halves of at most 26 bits each
_SPLIT = float(2**27 + 1)
# a tap index below this is a float of at most 26 bits, so a half times it is exact
_TAP_LIMIT = 2**26
# the range of a row's coefficients (their hi) on the double-double path, and
# the bound on its taps under which 4 times a tap is still finite
_TINY, _HUGE = 2.0**-900, 2.0**900


def _exact_tap(coeffs: Sequence[int], i: int, num: int, den: int) -> float:
    """num * sum_j coeffs[j] * i^j / den, by int Horner and one int / int
    division, which rounds correctly; OverflowError past the floats."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * i + c
    return num * acc / den


def _double_double(n: int, den: int) -> Tuple[float, float]:
    """n / den as hi + lo: hi the correctly rounded quotient, lo the correctly
    rounded remainder n / den - hi. OverflowError when hi is past the floats."""
    hi = n / den
    m, q = hi.as_integer_ratio()
    return hi, (n * q - m * den) / (den * q)


def _tap_weights(
    rows: Sequence[Tuple[int, Sequence[int]]], window: int, h: Fraction,
    factors: Sequence[Tuple[Fraction, slice]],
) -> np.ndarray:
    """The raw weight rows: at tap i of row (D, A), the correctly rounded float
    of q_i * A(i) / D, with q_i = c * h for the factor (c, taps) of the rule
    whose slice holds i. OverflowError when a weight is past the floats. Run
    it under np.errstate(over="ignore", invalid="ignore"): an overflow in the
    vectorized Horner leaves an inf or a NaN, which the test below rejects.

    Every factor is p / Lc, for Lc the lcm of the factor denominators and p a
    power of two, so the weight is p_i * P(i) with P(i) = sum_j c_j * i^j and
    c_j = hn * A[j] / (Lc * hd * D) for h = hn / hd. Each c_j is held as
    hi + lo (_double_double), within u^2 |c_j| of it for u = 2^-53, and P is
    evaluated at every tap of every row at once, by double-double Horner
    (Dekker 1971). One step takes (H, L) to (H, L) * i + (hi, lo):

    * Veltkamp's split H = hh + hl is exact barring overflow and leaves two
      halves of at most 26 bits, so for i < 2^26 the products hh*i and hl*i
      are exact, and FastTwoSum turns them into s + e = H*i exactly;
    * TwoSum(s, hi) = (s2, f) is exact, and s2 is the new H;
    * the new L is fl(f + g), for g = fl(e' + lo) and e' = fl(e + fl(L*i)),
      which round four times.

    A rounding is at most u times its exact result (an addition that
    underflows is exact, and so is a product by an integer that does). Let
    A_k = sum_(j>=k) |c_j| i^(j-k) = A_(k+1) i + |c_k|, and let m count the
    coefficients taken before c_k. To first order in u, |H| <= A_(k+1) and
    |L| <= (2m - 1) u A_(k+1) before the step that adds c_k: |e| <= u|s|,
    |f| <= u|s2| and |lo| <= u|c_k|, so |L| grows by at most 2u A_k. So the
    step's four roundings add at most (8m + 1) u^2 A_k, and with the
    coefficient's own error at most (8m + 2) u^2 A_k <= 10n u^2 A_k for n
    coefficients. The rest of the recursion multiplies it by i^k, and
    A_k i^k <= S = sum_j |c_j| i^j, so |P(i) - H - L| <= 10n^2 u^2 S
    < 2^-102 n^2 S. A last TwoSum makes H = fl(H + L) and L its error.

    Ziv's rounding test (Ziv 1991) decides each tap. S is computed by float
    Horner over |hi| (relative error below (2n + 3)u), so
    B = n^2 2^-96 S + 2^-1000 is at least 32 times that bound; its 2^-1000
    covers the underflow of a tiny n^2 2^-96 S or |L| (1 + 2^-50). The test
    computes 2v = fl(fl(|L| (2 + 2^-49)) + 2B), and v >= |L| + B/2 >=
    |P(i) - H|. Let g be the gap from |H| to the next float towards zero,
    the smaller of H's two gaps. When 2v < g, P(i) lies strictly within half
    a gap of H, so H is its correctly rounded float; and as 2v >= 2^-999, H
    is then a normal float of at least 2^-946, so p_i * H is exact too when
    |H| < 2^900. A tap is accepted under these two conditions, or when
    S = 0: then every c_j i^j is 0, so P(i) = 0 and the Horner leaves
    H = +0. An overflow anywhere in a tap's Horner leaves an inf or a NaN in
    H, L or S, and those fail the test.

    The taps it rejects take the exact path, _exact_tap: near-ties, zeros of
    P, and taps near the ends of the float range. So does every tap of a row
    whose hi for a nonzero c_j is outside (2^-900, 2^900) or does not
    convert, and every tap of a window longer than 2^26.
    """
    weights = np.empty((len(rows), window), dtype=np.float64)
    hn, hd = h.numerator, h.denominator
    lc = math.lcm(*(c.denominator for c, _ in factors))
    powers = np.empty(window, dtype=np.float64)
    for c, taps in factors:
        powers[taps] = c.numerator * lc // c.denominator
    width = max([len(a) for _, a in rows] + [1])
    his, los = [], []
    for den, coeffs in rows:
        d = lc * hd * den
        try:
            pairs = [_double_double(hn * a, d) for a in coeffs]
        except OverflowError:
            pairs = [(math.nan, 0.0)]
        if not all(_TINY < abs(x) < _HUGE for a, (x, _) in zip(coeffs, pairs) if a):
            pairs = [(math.nan, 0.0)]  # a NaN fails the test at every tap of the row
        pad = [0.0] * (width - len(pairs))
        his.append([x for x, _ in pairs] + pad)
        los.append([y for _, y in pairs] + pad)
    hi, lo = np.array(his, dtype=np.float64), np.array(los, dtype=np.float64)

    # six arrays, not one of six times the size: a freed block as large as
    # that raises glibc's mmap threshold for the rest of the process
    H, L, S, t, a, b = (np.empty(weights.shape, dtype=np.float64) for _ in range(6))
    if window > _TAP_LIMIT:
        accepted = np.zeros(weights.shape, dtype=bool)
    else:
        i = np.arange(window, dtype=np.float64)
        mag = np.abs(hi)
        np.copyto(H, hi[:, -1:])
        np.copyto(L, lo[:, -1:])
        np.copyto(S, mag[:, -1:])
        add, sub, mul = np.add, np.subtract, np.multiply
        for j in range(width - 2, -1, -1):
            c, cl = hi[:, j : j + 1], lo[:, j : j + 1]
            mul(H, _SPLIT, out=t)  # Veltkamp's split H = a + b
            sub(t, H, out=a)
            sub(t, a, out=a)
            sub(H, a, out=b)
            mul(a, i, out=a)  # exact products
            mul(b, i, out=b)
            add(a, b, out=H)  # FastTwoSum(a, b) = (s, e) in (H, t)
            sub(H, a, out=t)
            sub(b, t, out=t)
            mul(L, i, out=L)
            add(t, L, out=L)  # e'
            add(H, c, out=a)  # TwoSum(s, hi) = (s2, f) in (a, t)
            sub(a, H, out=b)
            sub(a, b, out=t)
            sub(H, t, out=t)
            sub(c, b, out=b)
            add(t, b, out=t)
            add(L, cl, out=L)  # g
            add(t, L, out=L)  # fl(f + g), the new L
            H, a = a, H  # s2, the new H
            mul(S, i, out=S)
            add(S, mag[:, j : j + 1], out=S)
        add(H, L, out=a)  # TwoSum(H, L) = (H, L)
        sub(a, H, out=b)
        sub(a, b, out=t)
        sub(H, t, out=t)
        sub(L, b, out=b)
        add(t, b, out=L)
        H, a = a, H
        zero = np.equal(S, 0.0)
        # Ziv's test: 2v < g, for 2v = |L| (2 + 2^-49) + 2B
        mul(S, width * width * 2.0**-95, out=S)
        add(S, 2.0**-999, out=S)
        np.abs(L, out=t)
        mul(t, 2.0 + 2.0**-49, out=t)
        add(t, S, out=t)
        np.abs(H, out=a)
        np.nextafter(a, 0.0, out=b)
        sub(a, b, out=b)
        accepted = np.less(t, b)
        accepted &= a < _HUGE
        accepted |= zero
        mul(H, powers, out=weights)
    if not accepted.all():
        for r, tap in zip(*(x.tolist() for x in np.nonzero(~accepted))):
            den, coeffs = rows[r]
            weights[r, tap] = _exact_tap(coeffs, tap, int(powers[tap]) * hn, lc * hd * den)
    return weights


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


def _orthonormal(ortho: Tuple[np.ndarray, ...], b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The orthonormal vectors ortho, extended by b made orthogonal to them by
    _project_out and normalized; ortho itself when nothing of b is left."""
    u = _project_out(b, ortho)
    n = float(np.sqrt(np.dot(u, u)))
    return ortho + (u / n,) if n > 0.0 else ortho


def _project_out(row: np.ndarray, ortho: Tuple[np.ndarray, ...]) -> np.ndarray:
    """A float64 copy of row deflated against span(ortho) by twice-applied
    modified Gram-Schmidt (the second pass for orthogonality at the eps
    level): ortho holds orthonormal vectors that _orthonormal made."""
    out = row.astype(np.float64)
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
) -> DiscreteDetector:
    """Evaluate the symbolic kernels on a uniform window grid.

    Each row starts as the raw quadrature image, the correctly rounded float
    of each exact weight q_i * K_v(T, i * dt) (_tap_weights over exact_rows),
    and is deflated against the sampled monomials its exact kernel
    annihilates, so windows holding a pure model-family signal produce values
    at rounding level instead of quadrature-bias level. dt is read once as a
    Python float, the step the runtime reads back from dd.dt, so a NumPy or
    Fraction dt gives the detector of float(dt). Raises ValueError for a dt
    that is not a real number, one whose float is not finite and positive,
    and one that takes the raw weights, or their norm collapsed at the window
    midpoint, out of the float range.
    """
    if isinstance(window, bool) or not isinstance(window, numbers.Integral):
        raise ValueError(f"window must be an integer, got {window!r}")
    window = int(window)
    if window < 2:
        raise ValueError("window must be >= 2")
    dt = _grid_step(dt)
    out_of_range = f"dt={dt!r} takes the weights or their norm out of the float range"
    factors = _quadrature_factors(window, rule)
    kernels = det.kernels
    h = Fraction(dt)
    T = (window - 1) * h

    # K_v(T, tau) at this T, then at tau = i * h: sum_j A[j] * i^j / D, read off
    # the canonical Polynomial as (D, A)
    tau_rows = [kv.at(T) for kv in kernels]
    rows = tuple((p.den, p.nums) for p in (r.dilate(h) for r in tau_rows))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            weights = _tap_weights(rows, window, h, factors)
            t_mid = float(T) / 2.0
        except OverflowError:
            raise ValueError(out_of_range) from None
        w_mid = _midpoint_row(weights, t_mid)
        raw_norm = _norm(w_mid)
        grid = np.arange(window, dtype=np.float64) / max(window - 1, 1)
        # vector k of the orthonormal basis depends on moments 0..k only, and
        # the rows share or nest their moment sets: one basis per prefix
        prefixes = {(): ()}
        for vi, (kv, row) in enumerate(zip(kernels, tau_rows)):
            moments = tuple(_annihilated_moments(kv, row, T))
            for k in range(1, len(moments) + 1):
                if moments[:k] not in prefixes:
                    prefixes[moments[:k]] = _orthonormal(
                        prefixes[moments[: k - 1]], grid ** moments[k - 1]
                    )
            if moments:
                weights[vi] = _project_out(weights[vi], prefixes[moments])
        w_mid = _midpoint_row(weights, t_mid)
        wnorm = _norm(w_mid)
    # Near the ends of the float range the raw rows' collapse overflows or
    # underflows to 0. The projected one may be 0 in range too: a window too
    # short for the model projects to rounding dust (2 or 3 taps, say).
    if not (0.0 < raw_norm < math.inf and math.isfinite(wnorm)):
        raise ValueError(out_of_range)

    return DiscreteDetector(
        window=window, dt=dt, weights=weights, exact_rows=rows, t_mid=t_mid, w_mid=w_mid,
        wnorm=wnorm,
    )
