"""Exact univariate polynomial and rational-function arithmetic.

Everything in the symbolic layer runs over ``fractions.Fraction``; floats only
appear once kernels are discretized. The indeterminate is rendered ``s``.

Operational images of polynomial pieces are Laurent polynomials in s
(t^n/n! <-> s^-(n+1)), so almost every denominator the builder and the
verifier meet is c*s^k. ``RationalFunction`` canonicalizes those by shifting
coefficient tuples and adds two of them over s^max(i, j); every other
denominator takes the Euclid path (``poly_gcd``). Both paths give the one
canonical form, so equality and zero tests do not depend on the path taken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


class Polynomial:
    """Dense polynomial over Fraction, coefficients indexed by degree.

    The zero polynomial has ``degree == -1`` (sentinel) and an empty
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def s_power(k: int, coeff=1) -> "Polynomial":
        """coeff * s**k"""
        if k < 0:
            raise ValueError("s_power exponent must be >= 0")
        return Polynomial((0,) * k + (coeff,))

    # -- structure --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def trailing_zero_count(self) -> int:
        """Multiplicity of the root at s=0 (0 for the zero polynomial)."""
        n = 0
        for c in self.coeffs:
            if c != 0:
                break
            n += 1
        return n

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial()
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Polynomial") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dd:
            return Polynomial(), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * dv[j]
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    # -- calculus / evaluation ----------------------------------------------
    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def eval(self, x):
        """Horner evaluation; exact when x is Fraction/int."""
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    # -- comparison ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"

    # -- rendering ------------------------------------------------------------
    def text(self, var: str = "s") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                core = var if k == 1 else f"{var}^{k}"
                body = core if mag == 1 else f"{mag}*{core}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def term_count(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


class RationalFunction:
    """Quotient of polynomials in canonical form.

    Canonical: numerator and denominator coprime, denominator monic and
    nonzero. The zero element is 0/1. The form is unique, so two paths reach it:

    * den = c*s^k: gcd(num, den) is s^z with z = min(k, trailing zeros of
      num), so dropping the z leading coefficients of both tuples cancels it;
    * any other den: divide both by the Euclid gcd ``poly_gcd(num, den)``.

    Either way the denominator is then made monic by dividing by its leading
    coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.constant(num)
        if den is None:
            den = Polynomial.one()
        elif isinstance(den, (int, Fraction)):
            den = Polynomial.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = Polynomial()
            self.den = Polynomial.one()
            return
        k = _s_power_degree(den)
        if k is not None:
            # den = c*s^k, so gcd(num, den) = s^z: cancel it by a shift.
            z = min(k, num.trailing_zero_count())
            if z:
                num = Polynomial(num.coeffs[z:])
                den = Polynomial(den.coeffs[z:])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.leading()
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one())

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p)

    @staticmethod
    def s_power(k: int, coeff=1) -> "RationalFunction":
        """coeff * s**k, any integer k (negative gives 1/s**-k)."""
        if k >= 0:
            return RationalFunction(Polynomial.s_power(k, coeff))
        return RationalFunction(Polynomial.constant(coeff), Polynomial.s_power(-k))

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations -------------------------------------------------------
    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        i, j = _s_power_degree(self.den), _s_power_degree(other.den)
        if i is not None and j is not None:
            # n1/s^i + n2/s^j = (n1*s^(m-i) + n2*s^(m-j)) / s^m, m = max(i, j)
            m = max(i, j)
            return RationalFunction(
                _shift(self.num, m - i) + _shift(other.num, m - j),
                Polynomial.s_power(m),
            )
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        r = RationalFunction.__new__(RationalFunction)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("rational function division by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _as_rf(other) / self

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    # -- calculus ---------------------------------------------------------------
    def derivative(self) -> "RationalFunction":
        # (n/d)' = (n'd - nd')/d^2
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def derivative_n(self, n: int) -> "RationalFunction":
        r = self
        for _ in range(n):
            r = r.derivative()
        return r

    # -- comparison ----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RationalFunction({self.text()!r})"

    # -- rendering --------------------------------------------------------------------
    def text(self, var: str = "s") -> str:
        if self.den.degree == 0:
            return self.num.text(var)
        nt = self.num.text(var)
        dt = self.den.text(var)
        if self.num.term_count() > 1:
            nt = f"({nt})"
        if self.den.term_count() > 1:
            dt = f"({dt})"
        return f"{nt}/{dt}"

    def is_single_term(self) -> bool:
        """True when the rendering is one product term (no +/-, no division)."""
        return self.den.degree == 0 and self.num.term_count() <= 1


def _s_power_degree(p: Polynomial):
    """k when p is c*s^k with c != 0, else None."""
    k = p.degree
    return k if p.trailing_zero_count() == k else None


def _shift(p: Polynomial, k: int) -> Polynomial:
    """p * s**k for k >= 0, without a multiplication."""
    if not k:
        return p
    return Polynomial((0,) * k + p.coeffs)


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial.constant(x))
    return NotImplemented


def binomial(n: int, k: int) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return Fraction(num)
