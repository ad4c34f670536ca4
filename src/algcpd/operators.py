"""Noncommutative operator algebra over rational functions of s.

Elements are finite sums  sum_a  rho_a(s) * D^a  where D = d/ds and the
coefficients are exact rational functions. Composition uses the commutation
rule D o rho = rho o D + rho', i.e.

    D^a o rho = sum_j C(a, j) * rho^(j) * D^(a-j)

so every operator normalizes to the left-coefficient canonical form. Applied
to a rational function f, the operator returns sum_a rho_a * f^(a).

Operationally, multiplication by 1/s is one fold of integration from 0 and
D corresponds to multiplication by -t in the original domain; an operator
whose every monomial c*s^-m*D^a has m >= 1 therefore realizes a strictly
finite integral (no unintegrated or differentiated samples), which is the
form the kernelizer consumes.

``DiffOperator.apply``, ``DiffOperator.compose``, ``OperatorPolynomial.apply``
and ``OperatorPolynomial.delay_expansion`` are one routine, ``_apply_terms``,
over different terms: compose applies the rows of the left operand to each
coefficient sigma_b of the right one, D^a o sigma_b contributing
C(a, j) sigma_b^(j) to the slot of D^(a-j+b). The routine takes each
operand's derivatives once and, when every operand and coefficient has a
pure-power-of-s denominator, keeps each value as integer numerators over one
int denominator and one power of s (see ``_laurent_mac``) and canonicalizes
each result once. It is the one Laurent path of the symbolic layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from ._exact import (
    Polynomial,
    RationalFunction,
    _as_rf,
    _over_s_power,
    _poly,
    _s_power_degree,
    poly_lcm,
)

RF = RationalFunction


def _as_coeff(x) -> RF:
    c = _as_rf(x)
    if c is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as an operator coefficient")
    return c


def _laurent(rf: RF):
    """(nums, den, k) when rf's canonical denominator is s^k, else None: the
    Laurent triple of rf = sum_i nums[i] * s^(i - k) / den."""
    k = _s_power_degree(rf.den)
    if k is None:
        return None
    return rf.num.nums, rf.num.den, k


def _laurent_mac(acc, x, y, c: int):
    """acc + c * x * y on Laurent triples, c an integer; acc None is zero, and
    acc's list of numerators is updated in place.

    The product is an integer convolution over den_x * den_y and
    s^(k_x + k_y). It is added into acc over the larger of the two powers of
    s and the lcm of the two denominators. No gcd of the numerators is taken:
    the caller canonicalizes the final triple once, by ``_canonical``.
    """
    xn, xd, xk = x
    yn, yd, yk = y
    den, k = xd * yd, xk + yk
    scale = c
    if acc is None:
        nums, acc_den, acc_k = [], den, k
    else:
        nums, acc_den, acc_k = acc
        if acc_den != den:
            g = gcd(acc_den, den)
            up, scale = den // g, c * (acc_den // g)
            nums = [n * up for n in nums]
            acc_den *= up
        if acc_k < k:
            nums = [0] * (k - acc_k) + nums
            acc_k = k
    off = acc_k - k
    short = off + len(xn) + len(yn) - 1 - len(nums)
    if short > 0:
        nums.extend([0] * short)
    for j, b in enumerate(yn, off):
        if b:
            b *= scale
            for i, a in enumerate(xn, j):
                nums[i] += a * b
    return nums, acc_den, acc_k


def _laurent_derivative(triple):
    """The Laurent triple of the derivative: n_i s^(i - k) -> (i - k) n_i s^(i - k - 1)."""
    nums, den, k = triple
    return [(i - k) * c for i, c in enumerate(nums)], den, k + 1


def _canonical(triple) -> RF:
    """The canonical RationalFunction of a Laurent triple."""
    nums, den, k = triple
    return _over_s_power(_poly(nums, den), k)


def _apply_terms(parts, slots: int) -> Tuple[RF, ...]:
    """(R_0, ..., R_(slots-1)), R_k the sum of c * rho * f^(d) over the terms
    (k, d, c) of every row (rho, terms) of every part (f, rows), c an integer.

    When every f and every rho have a denominator s^k, the derivative chains,
    the products and their sums run on Laurent triples (integer numerators
    over one int and one power of s), and each R_k is canonicalized once, by
    ``_canonical``. Any other operand, such as 1/(s + 1), takes
    RationalFunction arithmetic for the whole call. Both give the one
    canonical form. Each rho is lifted to a triple once, and each f's
    derivatives are taken once for all of its rows.
    """
    parts = [(_as_coeff(f), rows) for f, rows in parts]
    lifted = [([_laurent(rho) for rho, _ in rows], _laurent(f)) for f, rows in parts]
    laurent = all(g is not None and None not in ts for ts, g in lifted)
    step = _laurent_derivative if laurent else RF.derivative
    acc = [None] * slots
    for (f, rows), (ts, g) in zip(parts, lifted):
        chain = [g if laurent else f]
        for _ in range(max((d for _, terms in rows for _, d, _ in terms), default=0)):
            chain.append(step(chain[-1]))
        for (rho, terms), t in zip(rows, ts):
            for k, d, c in terms:
                if laurent:
                    acc[k] = _laurent_mac(acc[k], t, chain[d], c)
                else:
                    term = rho * chain[d] * c
                    acc[k] = term if acc[k] is None else acc[k] + term
    if laurent:
        acc = [None if r is None else _canonical(r) for r in acc]
    return tuple(RF.zero() if r is None else r for r in acc)


class DiffOperator:
    """Canonical left-coefficient form sum_a rho_a(s) * D^a.

    Stored as a dict {order: RationalFunction} with no zero coefficients.
    Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, RF] | None = None):
        clean: Dict[int, RF] = {}
        if terms:
            for a, c in terms.items():
                if a < 0:
                    raise ValueError("negative derivative order")
                c = _as_coeff(c)
                if not c.is_zero():
                    clean[a] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "DiffOperator":
        return DiffOperator()

    @staticmethod
    def identity() -> "DiffOperator":
        return DiffOperator({0: RF.one()})

    @staticmethod
    def d(order: int = 1) -> "DiffOperator":
        """The pure derivative D^order."""
        return DiffOperator({order: RF.one()})

    @staticmethod
    def mul(coeff) -> "DiffOperator":
        """Order-0 operator: multiplication by a rational function."""
        return DiffOperator({0: _as_coeff(coeff)})

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Highest derivative order; -1 for the zero operator."""
        return max(self.terms) if self.terms else -1

    def items(self):
        return sorted(self.terms.items())

    # -- ring operations -----------------------------------------------------
    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return DiffOperator(out)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other, normalized by the commutation rule: the term
        C(a, j) rho_a sigma_b^(j) D^(a-j+b) of D^a o sigma_b for every j <= a."""
        parts = [(sigma, [(rho, [(a - j + b, j, comb(a, j)) for j in range(a + 1)])
                          for a, rho in self.terms.items()])
                 for b, sigma in other.terms.items()]
        return DiffOperator(dict(enumerate(_apply_terms(parts, self.order + other.order + 1))))

    def apply(self, f) -> RF:
        """Apply to a rational function: sum_a rho_a * f^(a)."""
        return _apply_terms([(f, [(rho, [(0, a, 1)]) for a, rho in self.terms.items()])], 1)[0]

    # -- comparison ---------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"DiffOperator({self.text()!r})"

    # -- rendering -------------------------------------------------------------------
    def text(self) -> str:
        """Render like ``(1/s^2)*D^1 + 2*s*D^0``; descending derivative order."""
        if self.is_zero():
            return "0"
        parts = []
        for a in sorted(self.terms, reverse=True):
            c = self.terms[a]
            ct = c.text()
            if not c.is_single_term():
                ct = f"({ct})"
            parts.append(f"{ct}*D^{a}")
        return " + ".join(parts)

    # -- strict integral form ----------------------------------------------------------
    def laurent_terms(self) -> List[Tuple[Fraction, int, int]]:
        """Flatten to [(c, e, a)] for the monomials c * s^e * D^a.

        Raises ValueError when a coefficient denominator is not a pure power
        of s (clear_polynomial_denominators removes those first).
        """
        out: List[Tuple[Fraction, int, int]] = []
        for a, c in self.items():
            # a canonical denominator is monic: s^shift itself
            shift = _s_power_degree(c.den)
            if shift is None:
                raise ValueError(
                    "coefficient denominator is not a pure power of s: " + c.text()
                )
            for k, coef in enumerate(c.num.coeffs):
                if coef != 0:
                    out.append((coef, k - shift, a))
        return out


class OperatorPolynomial:
    """Polynomial in the delay indeterminate with DiffOperator coefficients.

    coeffs[j] multiplies delay^j. Trailing zero coefficients are stripped; the
    zero element has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[DiffOperator] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> DiffOperator:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return DiffOperator.zero()

    def __add__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return OperatorPolynomial(
            tuple(self.coeff(j) + other.coeff(j) for j in range(n))
        )

    def compose_left(self, op: DiffOperator) -> "OperatorPolynomial":
        """op o self, coefficientwise (op is delay-free)."""
        return OperatorPolynomial(tuple(op.compose(c) for c in self.coeffs))

    def compose_right(self, op: DiffOperator) -> "OperatorPolynomial":
        """self o op, coefficientwise (op is delay-free)."""
        return OperatorPolynomial(tuple(c.compose(op) for c in self.coeffs))

    def eval_at(self, delay) -> DiffOperator:
        """Collapse at a numeric delay value (exact when delay is Fraction)."""
        delay = Fraction(delay) if not isinstance(delay, Fraction) else delay
        out = DiffOperator.zero()
        p = Fraction(1)
        for c in self.coeffs:
            out = out + DiffOperator.mul(p).compose(c)
            p *= delay
        return out

    def apply(self, f) -> Tuple[RF, ...]:
        """(P_0 f, ..., P_J f), each coefficient applied to f, with f's
        derivatives taken once for all of them."""
        rows = [(rho, [(j, a, 1)]) for j, c in enumerate(self.coeffs) for a, rho in c.terms.items()]
        return _apply_terms([(f, rows)], len(self.coeffs))

    def delay_expansion(self, f) -> Tuple[RF, ...]:
        """(R_0, ..., R_K), K the largest j + a over the terms, such that
        sum_k t0^k R_k = conjugate_by_delay(eval_at(t0)).eval_at(-t0).apply(f)
        for every delay t0.

        With P_j = sum_a rho_(j,a) D^a and (D - t0)^a expanded binomially,
        R_k = sum_(j+m=k) sum_a (-1)^m C(a, m) rho_(j,a) f^(a-m): the
        derivatives of f are taken once and no operator is expanded.
        """
        rows = [(rho, [(j + m, a - m, (-1) ** m * comb(a, m)) for m in range(a + 1)])
                for j, c in enumerate(self.coeffs) for a, rho in c.terms.items()]
        return _apply_terms([(f, rows)], 1 + max((k for _, ts in rows for k, _, _ in ts), default=-1))

    def max_deriv_order(self) -> int:
        return max((c.order for c in self.coeffs), default=-1)

    def is_strict_integral(self) -> bool:
        """True when every monomial is c*s^-m*D^a with m >= 1."""
        try:
            return all(e <= -1 for c in self.coeffs for _, e, _ in c.laurent_terms())
        except ValueError:
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"OperatorPolynomial({self.text()!r})"

    def text(self) -> str:
        """One line per delay power: ``r^j: <operator>``."""
        if self.is_zero():
            return "r^0: 0"
        return "\n".join(
            f"r^{j}: {c.text()}" for j, c in enumerate(self.coeffs)
        )


def conjugate_by_delay(op: DiffOperator) -> OperatorPolynomial:
    """Substitute D -> D + r with r the (symbolic) delay.

    Returns the operator polynomial sum_j r^j * P_j where
    P_j = sum_a C(a, j) rho_a D^(a-j). P_0 is the original operator, and the
    collapse at a numeric delay c is the operator with D -> D + c.
    """
    if op.is_zero():
        return OperatorPolynomial()
    coeffs: List[Dict[int, RF]] = [dict() for _ in range(op.order + 1)]
    for a, rho in op.terms.items():
        for j in range(a + 1):
            coeffs[j][a - j] = rho * comb(a, j)
    return OperatorPolynomial(tuple(DiffOperator(d) for d in coeffs))


def annihilator_of_span(basis: Sequence) -> DiffOperator:
    """Common-denominator annihilator of the span of rational functions.

    With q the monic lcm of the canonical denominators and D the largest
    degree among the cleared numerators, A = D^(D+1) o q annihilates every
    basis element (q turns each into a polynomial of degree <= D, which
    D+1 derivatives kill). Minimality is not claimed.
    """
    elems = [_as_coeff(b) for b in basis]
    elems = [e for e in elems if not e.is_zero()]
    if not elems:
        raise ValueError("annihilator_of_span needs at least one nonzero element")
    q = Polynomial.one()
    for e in elems:
        q = poly_lcm(q, e.den)
    max_deg = 0
    for e in elems:
        cleared = e.num * (q // e.den)
        max_deg = max(max_deg, cleared.degree)
    return DiffOperator.d(max_deg + 1).compose(DiffOperator.mul(q))


def clear_polynomial_denominators(
    op_poly: OperatorPolynomial,
) -> Tuple[Polynomial, OperatorPolynomial]:
    """Left-multiply by the smallest monic polynomial m with m(0) != 0 that
    turns every coefficient denominator into a pure power of s.

    Left multiplication preserves annihilation, so detectors stay valid.
    Returns (m, m o op_poly).
    """
    m = Polynomial.one()
    for c in op_poly.coeffs:
        for _, rf in c.terms.items():
            den = rf.den
            if _s_power_degree(den) is None:
                body = den // Polynomial.s_power(den.trailing_zero_count())
                m = poly_lcm(m, body)
    if m.degree == 0:
        return Polynomial.one(), op_poly
    cleared = op_poly.compose_left(DiffOperator.mul(m))
    return m, cleared


def to_integral_form(op_poly: OperatorPolynomial) -> Tuple[int, OperatorPolynomial]:
    """Multiply by s^-N for the smallest N >= 0 making the result strictly
    finite-integral: N = 1 + the largest Laurent exponent, or 0 when that is
    negative. laurent_terms checked that each coefficient is num / s^k, and
    it becomes num / s^(k + N): no operator product is taken. Returns
    (N, transformed); N == 0 leaves it unchanged.
    """
    hi = max((e for c in op_poly.coeffs for _, e, _ in c.laurent_terms()), default=-1)
    if hi < 0:
        return 0, op_poly
    n = hi + 1
    return n, OperatorPolynomial(
        DiffOperator({a: _over_s_power(rho.num, rho.den.degree + n) for a, rho in c.items()})
        for c in op_poly.coeffs
    )
