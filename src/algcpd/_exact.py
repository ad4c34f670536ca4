"""Exact univariate polynomial and rational-function arithmetic.

The symbolic layer is exact over the rationals; floats only appear once
kernels are discretized. The indeterminate is rendered ``s``.

A ``Polynomial`` is a tuple of Python ``int`` numerators over one positive
``int`` denominator, kept reduced: the gcd of the numerators and the
denominator is 1 and the top numerator is nonzero. That is the canonical form
of FLINT's ``fmpq_poly`` (FLINT documentation, "fmpq_poly.h: univariate
polynomials over the rational numbers"). A product is an integer convolution
and one gcd, a sum scales both sides to the lcm of the denominators, and
division is pseudo-division on the integers; no ring operation makes a
``Fraction``. ``Fraction`` is the type at the boundary only: the constructor
takes ``int``/``Fraction``/``str`` coefficients, and ``coeffs``,
``__getitem__`` and ``leading`` give ``Fraction``s. ``render_terms`` is the
one renderer of signed sums of monomials, for these polynomials and for the
bivariate window kernels built from them.

Operational images of polynomial pieces are Laurent polynomials in s
(t^n/n! <-> s^-(n+1)), so almost every denominator the builder and the
verifier meet is c*s^k. ``RationalFunction``'s constructor canonicalizes those
by slicing numerator tuples; every other denominator takes the Euclid path
(``poly_gcd``). Both paths give the one canonical form, so equality and zero
tests do not depend on the path taken. Sums, products and derivatives build
the plain numerator and denominator and leave the cancelling to the
constructor.

The one Laurent path is elsewhere: the routine behind ``DiffOperator.apply``,
``DiffOperator.compose``, ``OperatorPolynomial.apply`` and
``OperatorPolynomial.delay_expansion`` (``operators._apply_terms``). When
every operand and operator coefficient is over a power of s, each
intermediate value is a Laurent triple (integer numerators, one int
denominator, one power of s) that is never reduced, and each result is
canonicalized once, by ``_over_s_power(_poly(nums, den), k)``. That is the
canonical object the constructor builds, so equality, ``is_zero`` and
``text`` do not depend on which path an operator took either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Tuple


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact scalar expected, got {type(x).__name__}")


def _poly(nums, den: int) -> "Polynomial":
    """The canonical Polynomial of sum_k nums[k] * s^k / den (den != 0)."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    if den < 0:
        den = -den
        nums = [-c for c in nums[:n]]
    g = gcd(den, *nums[:n])
    p = object.__new__(Polynomial)
    if g == 1:
        p.nums = tuple(nums[:n])
        p.den = den
    else:
        p.nums = tuple(c // g for c in nums[:n])
        p.den = den // g
    return p


def _raw(nums: tuple, den: int) -> "Polynomial":
    """Polynomial from numerators and denominator already in canonical form."""
    p = object.__new__(Polynomial)
    p.nums = nums
    p.den = den
    return p


class Polynomial:
    """Dense polynomial over the rationals, coefficients indexed by degree.

    Stored as ``nums`` (a tuple of ``int``, lowest degree first) over ``den``
    (an ``int`` > 0), reduced so that gcd(*nums, den) == 1 and nums[-1] != 0.
    The zero polynomial has ``degree == -1`` (sentinel), no numerators and
    denominator 1. Instances are immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        den = 1
        for c in cs:
            d = c.denominator
            if den % d:
                den = den // gcd(den, d) * d
        q = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self.nums = q.nums
        self.den = q.den

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def constant(c) -> "Polynomial":
        c = _frac(c)
        return _poly((c.numerator,), c.denominator)

    @staticmethod
    def s_power(k: int) -> "Polynomial":
        """s**k"""
        if k < 0:
            raise ValueError("s_power exponent must be >= 0")
        return _raw((0,) * k + (1,), 1)

    # -- structure --------------------------------------------------------
    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def trailing_zero_count(self) -> int:
        """Multiplicity of the root at s=0 (0 for the zero polynomial)."""
        n = 0
        for c in self.nums:
            if c:
                break
            n += 1
        return n

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Both sides scaled to the lcm of the two denominators, then added."""
        if not other.nums:
            return self
        if not self.nums:
            return other
        da, db = self.den, other.den
        x, y = self.nums, other.nums
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            da *= fa
            x = [c * fa for c in x]
            y = [c * fb for c in y]
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        for i, c in enumerate(y):
            out[i] += c
        return _poly(out, da)

    def __neg__(self) -> "Polynomial":
        return _raw(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.nums, other.nums
            if not a or not b:
                return _ZERO
            if len(a) < len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for j, y in enumerate(b):
                if y:
                    for i, x in enumerate(a, j):
                        out[i] += x * y
            return _poly(out, self.den * other.den)
        if isinstance(other, int):
            return _poly([c * other for c in self.nums], self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _poly([c * p for c in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple:
        """(q, r) with self == q * other + r and deg r < deg other.

        Pseudo-division on the numerators: with b the divisor's top numerator,
        b^e * A == Q * B + R over the integers, where e counts the steps whose
        top remainder numerator b did not divide. Dividing by b^e and the two
        denominators then gives q and r.
        """
        if not other.nums:
            raise ZeroDivisionError("polynomial division by zero")
        B = other.nums
        dd = len(B) - 1
        if len(self.nums) - 1 < dd:
            return _ZERO, self
        lead = B[-1]
        R = list(self.nums)
        Q = [0] * (len(R) - dd)
        scale = 1
        for i in range(len(R) - 1, dd - 1, -1):
            c = R[i]
            if not c:
                continue
            q, rem = divmod(c, lead)
            if rem:
                R = [lead * x for x in R]
                Q = [lead * x for x in Q]
                scale *= lead
                q = c
            k = i - dd
            Q[k] = q
            for j in range(dd):
                R[k + j] -= q * B[j]
        den = scale * self.den
        return _poly([x * other.den for x in Q], den), _poly(R[:dd], den)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    # -- calculus / evaluation ----------------------------------------------
    def dilate(self, x) -> "Polynomial":
        """p(x * s) for an exact scalar x = p/q: numerator k times p^k * q^(d-k),
        over den * q^d for degree d."""
        if not self.nums:
            return self
        x = _frac(x)
        p, q, d = x.numerator, x.denominator, len(self.nums) - 1
        return _poly([c * p**k * q ** (d - k) for k, c in enumerate(self.nums)], self.den * q**d)

    def derivative(self) -> "Polynomial":
        return _poly([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def eval(self, x) -> Fraction:
        """Exact Horner evaluation at an int or Fraction x."""
        # with x = p/q and degree d: sum_k c_k p^k q^(d-k) / (den * q^d)
        x = _frac(x)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc * q, self.den * qk)

    def monic(self) -> "Polynomial":
        if not self.nums:
            return self
        return _poly(self.nums, self.nums[-1])

    # -- comparison ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({self.text()!r})"

    # -- rendering ------------------------------------------------------------
    def text(self) -> str:
        den = self.den
        return render_terms(
            (c, den, (("s", k),)) for k, c in reversed(tuple(enumerate(self.nums))) if c
        )

    def term_count(self) -> int:
        return sum(1 for c in self.nums if c)


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)


def render_terms(terms) -> str:
    """The signed sum of terms (c, den, powers), in the order given.

    Each term is the monomial c/den * prod var^k over powers ((var, k), ...),
    with c != 0 and den > 0, rendered like ``3*u^2 - 1/2*T*u``: factors joined
    by ``*``, a zero power left out, a magnitude of 1 left out unless the term
    is a constant. No terms render as ``0``.
    """
    parts = []
    for c, den, powers in terms:
        g = gcd(c, den)
        mag = str(abs(c) // g) if den == g else f"{abs(c) // g}/{den // g}"
        atoms = [var if k == 1 else f"{var}^{k}" for var, k in powers if k]
        if mag != "1" or not atoms:
            atoms.insert(0, mag)
        body = "*".join(atoms)
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return _ZERO
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
    coefficient, which rescales one integer denominator of each polynomial.

    Sums, products and derivatives take the quotient rules over the product
    of the denominators; for c/s^k operands that product is again a power of
    s, which the first path cancels by the slice. Hot Laurent arithmetic does
    not come here: ``operators._apply_terms`` runs it on integer triples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Polynomial):
            den = Polynomial.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = _ZERO
            self.den = _ONE
            return
        k = _s_power_degree(den)
        if k is not None:
            # den = c*s^k: dividing both by c leaves num/c over s^k
            c_num, c_den = den.nums[-1], den.den
            if c_num != c_den:  # c != 1 (den is reduced)
                num = _poly([x * c_den for x in num.nums], num.den * c_num)
            r = _over_s_power(num, k)
            num, den = r.num, r.den
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.nums[-1]
            if lead != den.den:
                # divide both by the leading coefficient lead / den.den
                num = _poly([x * den.den for x in num.nums], num.den * lead)
                den = _poly(den.nums, lead)
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
    def s_power(k: int) -> "RationalFunction":
        """s**k, any integer k (negative gives 1/s**-k)."""
        if k >= 0:
            return RationalFunction(Polynomial.s_power(k))
        return RationalFunction(_ONE, Polynomial.s_power(-k))

    # -- predicates -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations -------------------------------------------------------
    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
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

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar keeps num and den coprime and den monic
            if not other:
                return _RF_ZERO
            r = RationalFunction.__new__(RationalFunction)
            r.num = self.num * other
            r.den = self.den
            return r
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

    # -- comparison ----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.text()!r})"

    # -- rendering --------------------------------------------------------------------
    def text(self) -> str:
        if self.den.degree == 0:
            return self.num.text()
        nt = self.num.text()
        dt = self.den.text()
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
    nums = p.nums
    return len(nums) - 1 if nums and not any(nums[:-1]) else None


def _over_s_power(num: Polynomial, k: int) -> RationalFunction:
    """The canonical num / s^k (k >= 0). gcd(num, s^k) is s^z with
    z = min(k, trailing zeros of num), so slicing z coefficients off num
    cancels it and leaves den = s^(k-z)."""
    if not num.nums:
        return _RF_ZERO
    z = min(k, num.trailing_zero_count())
    r = RationalFunction.__new__(RationalFunction)
    r.num = _raw(num.nums[z:], num.den) if z else num
    r.den = _raw((0,) * (k - z) + (1,), 1)
    return r


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction(Polynomial.constant(x))
    return NotImplemented


_RF_ZERO = RationalFunction(_ZERO)
