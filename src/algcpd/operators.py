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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from ._exact import (
    Polynomial,
    RationalFunction,
    binomial,
    poly_lcm,
)

RF = RationalFunction


def _as_coeff(x) -> RF:
    if isinstance(x, RF):
        return x
    if isinstance(x, Polynomial):
        return RF(x)
    if isinstance(x, (int, Fraction)):
        return RF(Polynomial.constant(x))
    raise TypeError(f"cannot use {type(x).__name__} as an operator coefficient")


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

    def coeff(self, a: int) -> RF:
        return self.terms.get(a, RF.zero())

    def items(self):
        return sorted(self.terms.items())

    # -- ring operations -----------------------------------------------------
    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return DiffOperator(out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, factor) -> "DiffOperator":
        """Left-multiply every coefficient by a rational function."""
        f = _as_coeff(factor)
        if f.is_zero():
            return DiffOperator()
        return DiffOperator({a: f * c for a, c in self.terms.items()})

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """self o other, normalized by the commutation rule."""
        out: Dict[int, RF] = {}
        for a, rho in self.terms.items():
            for b, sigma in other.terms.items():
                # D^a o sigma = sum_j C(a,j) sigma^(j) D^(a-j)
                sig_j = sigma
                for j in range(a + 1):
                    c = rho * sig_j * binomial(a, j)
                    if not c.is_zero():
                        k = a - j + b
                        out[k] = out[k] + c if k in out else c
                    if j < a:
                        sig_j = sig_j.derivative()
        return DiffOperator(out)

    def apply(self, f) -> RF:
        """Apply to a rational function: sum_a rho_a * f^(a)."""
        f = _as_coeff(f)
        if self.is_zero() or f.is_zero():
            return RF.zero()
        out = RF.zero()
        deriv = f
        prev = 0
        for a, rho in self.items():
            deriv = deriv.derivative_n(a - prev)
            prev = a
            out = out + rho * deriv
        return out

    def shift_d(self, c) -> "DiffOperator":
        """Substitute D -> D + c for a scalar c (delay conjugation at a point).

        (D + c)^a expands binomially because c commutes with D.
        """
        c = Fraction(c) if not isinstance(c, Fraction) else c
        out: Dict[int, RF] = {}
        for a, rho in self.terms.items():
            cj = Fraction(1)
            for j in range(a + 1):
                w = rho * (binomial(a, j) * cj)
                if not w.is_zero():
                    k = a - j
                    out[k] = out[k] + w if k in out else w
                cj *= c
        return DiffOperator(out)

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
            shift = c.den.trailing_zero_count()
            if c.den.degree != shift:
                raise ValueError(
                    "coefficient denominator is not a pure power of s: " + c.text()
                )
            for k, coef in enumerate(c.num.coeffs):
                if coef != 0:
                    out.append((coef / c.den.leading(), k - shift, a))
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

    def __sub__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return OperatorPolynomial(
            tuple(self.coeff(j) - other.coeff(j) for j in range(n))
        )

    def compose_left(self, op: DiffOperator) -> "OperatorPolynomial":
        """op o self, coefficientwise (op is delay-free)."""
        return OperatorPolynomial(tuple(op.compose(c) for c in self.coeffs))

    def compose_right(self, op: DiffOperator) -> "OperatorPolynomial":
        """self o op, coefficientwise (op is delay-free)."""
        return OperatorPolynomial(tuple(c.compose(op) for c in self.coeffs))

    def scale(self, factor) -> "OperatorPolynomial":
        return OperatorPolynomial(tuple(c.scale(factor) for c in self.coeffs))

    def eval_at(self, delay) -> DiffOperator:
        """Collapse at a numeric delay value (exact when delay is Fraction)."""
        delay = Fraction(delay) if not isinstance(delay, Fraction) else delay
        out = DiffOperator.zero()
        p = Fraction(1)
        for c in self.coeffs:
            out = out + c.scale(p)
            p *= delay
        return out

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
    P_j = sum_a C(a, j) rho_a D^(a-j). P_0 is the original operator. The
    collapse at a numeric delay equals shift_d at that value.
    """
    if op.is_zero():
        return OperatorPolynomial()
    coeffs: List[Dict[int, RF]] = [dict() for _ in range(op.order + 1)]
    for a, rho in op.terms.items():
        for j in range(a + 1):
            w = rho * binomial(a, j)
            slot = coeffs[j]
            k = a - j
            slot[k] = slot[k] + w if k in slot else w
    return OperatorPolynomial(tuple(DiffOperator(d) for d in coeffs))


def apply_to_delayed(op: DiffOperator, f, delay) -> RF:
    """Apply op to f * exp(-delay * s), returning the rational prefactor.

    op(f e^{-rs}) = ([op with D -> D - r] f) e^{-rs}; the delay exponential
    factors out, so the result is shift_d(op, -delay).apply(f).
    """
    return op.shift_d(-Fraction(delay)).apply(f)


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
            shift = den.trailing_zero_count()
            if den.degree != shift:
                body = den // Polynomial.s_power(shift)
                m = poly_lcm(m, body)
    if m.degree == 0:
        return Polynomial.one(), op_poly
    cleared = op_poly.compose_left(DiffOperator.mul(m))
    return m, cleared


def to_integral_form(op_poly: OperatorPolynomial) -> Tuple[int, OperatorPolynomial]:
    """Left-compose with s^-N for the smallest N >= 0 making the result strictly
    finite-integral: N = 1 + the largest Laurent exponent, or 0 when that is
    negative. Returns (N, transformed); N == 0 leaves it unchanged.
    """
    hi = max((e for c in op_poly.coeffs for _, e, _ in c.laurent_terms()), default=-1)
    if hi < 0:
        return 0, op_poly
    return hi + 1, op_poly.scale(RF.s_power(-(hi + 1)))
