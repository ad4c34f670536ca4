"""Detector construction: from a piecewise signal model to a delay-identifying
operator polynomial in strictly finite integral form.

A model says: the observation is a smooth component whose operational image
lies in span{s^-(v+1)} for v <= n1, a polynomial of degree <= n1, plus, after
an unknown change time r, a jump component of known shape (monomial or
rational) or unknown polynomial shape up to degree n2. A change in the k-th
derivative of such a signal is the model of degrees (n1 + k, n2 + k). The
built detector Omega(r) is a polynomial in the delay r with operator
coefficients such that

  * Omega(r) kills the smooth component identically in r, and
  * Omega(r0) kills the delayed jump exactly when r0 is the true change time,

so the window value, as a polynomial in the delay hypothesis, has a root at
the change time. verify_detector checks both exactly, for every delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

from ._exact import RationalFunction
from .operators import (
    DiffOperator,
    OperatorPolynomial,
    annihilator_of_span,
    clear_polynomial_denominators,
    conjugate_by_delay,
    to_integral_form,
)

RF = RationalFunction

MAX_MODEL_DEGREE = 8
# the build methods build_detector dispatches on
METHODS = ("linear", "general")


@dataclass(frozen=True)
class MonomialJump:
    """Jump with known shape t^degree (up to scale): image c/s^(degree+1)."""

    degree: int


@dataclass(frozen=True)
class PolynomialJump:
    """Jump that is an unknown polynomial of degree <= degree."""

    degree: int


@dataclass(frozen=True)
class RationalJump:
    """Jump with a known proper rational operational image."""

    shape: RF

    def __post_init__(self):
        if self.shape.is_zero():
            raise ValueError("rational jump shape must be nonzero")


JumpShape = Union[MonomialJump, PolynomialJump, RationalJump]


@dataclass(frozen=True)
class ModelSpec:
    """Piecewise model: smooth degree bound n1 and jump shape."""

    n1: int
    jump: JumpShape

    def __post_init__(self):
        if not (0 <= self.n1 <= MAX_MODEL_DEGREE):
            raise ValueError(f"n1 must be in [0, {MAX_MODEL_DEGREE}]")
        if isinstance(self.jump, (MonomialJump, PolynomialJump)):
            if not (0 <= self.jump.degree <= MAX_MODEL_DEGREE):
                raise ValueError(f"jump degree must be in [0, {MAX_MODEL_DEGREE}]")
        elif not isinstance(self.jump, RationalJump):
            raise TypeError("jump must be MonomialJump, PolynomialJump or RationalJump")

    # -- convenience constructors -------------------------------------------
    @staticmethod
    def monomial(n1: int, n2: int) -> "ModelSpec":
        return ModelSpec(n1, MonomialJump(n2))

    @staticmethod
    def polynomial(n1: int, n2: int) -> "ModelSpec":
        return ModelSpec(n1, PolynomialJump(n2))

    @staticmethod
    def rational(n1: int, shape: RF) -> "ModelSpec":
        return ModelSpec(n1, RationalJump(shape))

    # -- operational bases ------------------------------------------------------
    def smooth_basis(self) -> List[RF]:
        """Model-domain basis of the smooth component: 1/s^(v+1), v <= n1."""
        return [RF.s_power(-(v + 1)) for v in range(self.n1 + 1)]

    def jump_basis(self) -> List[RF]:
        """Model-domain basis of the jump component."""
        if isinstance(self.jump, MonomialJump):
            return [RF.s_power(-(self.jump.degree + 1))]
        if isinstance(self.jump, PolynomialJump):
            return [RF.s_power(-(v + 1)) for v in range(self.jump.degree + 1)]
        return [self.jump.shape]

    def label(self) -> str:
        # ",order=0" is pinned text: recorded weight hashes and golden cases are keyed by it
        if isinstance(self.jump, MonomialJump):
            return f"monomial(n1={self.n1},n2={self.jump.degree},order=0)"
        if isinstance(self.jump, PolynomialJump):
            return f"polynomial(n1={self.n1},n2={self.jump.degree},order=0)"
        return f"rational(n1={self.n1},x2={self.jump.shape.text()},order=0)"


@dataclass(frozen=True)
class DetectorOperator:
    """A built detector: strictly finite-integral operator polynomial in the
    delay, plus the metadata the kernelizer and runtime need."""

    model: ModelSpec
    method: str  # "linear" or "general"
    omega: OperatorPolynomial
    depth: int  # integral depth N (the left s^-N already applied)

    @property
    def degree(self) -> int:
        """Delay degree of omega."""
        return self.omega.degree

    @property
    def max_deriv(self) -> int:
        """Highest derivative order in omega."""
        return self.omega.max_deriv_order()

    @cached_property
    def kernels(self) -> tuple:
        """The exact window kernels of omega, K_v(T, tau) for each delay power v
        in order (``kernels._kernel``); raises ValueError unless each
        coefficient is in strict integral form. Derived once per detector; a
        copy made by dataclasses.replace derives its own."""
        from .kernels import _kernel  # kernels imports this module

        return tuple(_kernel(c) for c in self.omega.coeffs)

    def text(self) -> str:
        return self.omega.text()


def build_detector(model: ModelSpec, method: Optional[str] = None) -> DetectorOperator:
    """Dispatch on the jump shape; method overrides for cross-checking."""
    if method is None:
        method = "general" if isinstance(model.jump, PolynomialJump) else "linear"
    if method == "linear":
        return build_detector_linear(model)
    if method == "general":
        return build_detector_general(model)
    raise ValueError(f"unknown method {method!r}")


def build_detector_linear(model: ModelSpec) -> DetectorOperator:
    """Known jump shape: Omega(r) = pi1 o (D + r) o P.

    P is the multiplication operator inverting the jump image (s^(n2+1) for a
    monomial, the reciprocal shape for a rational jump), so the delayed jump
    becomes a pure exponential, which (D + r) kills at the true delay. pi1
    annihilates both the P-image of the smooth family and its D-derivative,
    which makes the nulling hold identically in r.
    """
    if isinstance(model.jump, PolynomialJump):
        raise ValueError("linear builder needs a known jump shape")
    if isinstance(model.jump, MonomialJump):
        p_rf = RF.s_power(model.jump.degree + 1)
    else:
        p_rf = model.jump.shape.inverse()

    span: List[RF] = []
    for g in model.smooth_basis():
        img = p_rf * g
        span.append(img)
        span.append(img.derivative())
    span = [e for e in span if not e.is_zero()]
    pi1 = annihilator_of_span(span) if span else DiffOperator.d(1)

    tail = DiffOperator.mul(p_rf)
    # (D + r) as a degree-1 operator polynomial, then close the sandwich
    omega = OperatorPolynomial((DiffOperator.d(1), DiffOperator.identity()))
    omega = omega.compose_right(tail).compose_left(pi1)
    return _finalize(model, "linear", omega)


def build_detector_general(model: ModelSpec) -> DetectorOperator:
    """Unknown polynomial jump: Omega(r) = conj(pi2) o pi1.

    pi1 annihilates the smooth basis. Conjugating pi1 by the delay splits it
    into components pi1_j; the jump residual at the true delay is a
    combination of pi1_j applied to the jump basis, so pi2 annihilates the
    span of all those images. Annihilating only the j=0 images is not enough:
    the cross terms survive and the detector would not null at the change
    time (the exact verifier catches this).
    """
    pi1 = annihilator_of_span(model.smooth_basis())
    components = conjugate_by_delay(pi1)
    images = [img for b in model.jump_basis() for img in components.apply(b) if not img.is_zero()]
    if not images:
        # smooth annihilator already kills the jump family at any delay
        pi2 = DiffOperator.d(1)
    else:
        pi2 = annihilator_of_span(images)
    omega = conjugate_by_delay(pi2).compose_right(pi1)
    return _finalize(model, "general", omega)


def _finalize(model: ModelSpec, method: str, omega: OperatorPolynomial) -> DetectorOperator:
    _, omega = clear_polynomial_denominators(omega)
    depth, omega = to_integral_form(omega)
    if omega.degree < 1:
        raise AssertionError("built detector is not delay-identifying")
    return DetectorOperator(model=model, method=method, omega=omega, depth=depth)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    smooth_residuals: Tuple[str, ...]  # text of nonzero residuals, empty when ok
    jump_residuals: Tuple[str, ...]


def verify_detector(det: DetectorOperator) -> VerifyReport:
    """Exact nulling check for every delay, no tolerances.

    Coefficientwise on the smooth basis (nulling identically in the delay),
    and as a polynomial in the delay t0 on the delayed jump basis: the delay
    exponential factors out of Omega(t0) applied to w * exp(-t0 * s), leaving
    Omega(t0) with D -> D - t0 applied to w, that is sum_k t0^k R_k
    (``OperatorPolynomial.delay_expansion``), zero for every t0 exactly when
    every R_k is the zero rational function.

    Omega's coefficients are over powers of s after _finalize, so every check
    runs on integer Laurent triples except on a rational jump shape such as
    1/(s + 1), which takes RationalFunction arithmetic; either path gives the
    canonical residuals, so is_zero and their texts do not depend on it.
    """
    smooth_bad: List[str] = []
    for f in det.model.smooth_basis():
        for j, r in enumerate(det.omega.apply(f)):
            if not r.is_zero():
                smooth_bad.append(f"coeff r^{j} on {f.text()}: {r.text()}")

    jump_bad: List[str] = []
    for w in det.model.jump_basis():
        for k, r in enumerate(det.omega.delay_expansion(w)):
            if not r.is_zero():
                jump_bad.append(f"t0^{k} on {w.text()}: {r.text()}")

    return VerifyReport(
        ok=not smooth_bad and not jump_bad,
        smooth_residuals=tuple(smooth_bad),
        jump_residuals=tuple(jump_bad),
    )
