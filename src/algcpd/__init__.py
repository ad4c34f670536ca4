"""Algebraic change-point detection.

Detectors are derived symbolically: the signal model is annihilated in the
operational domain by an exact noncommutative operator computation, the
resulting delay-identifying operator is rewritten as strictly finite
integrals, kernelized into sliding-window polynomial weights, and run over
samples either batch or streaming. No thresholding hyperparameters enter the
derivation; the runtime only needs a window, a grid step and a gate level.
"""

from ._exact import Polynomial, RationalFunction
from .builder import (
    DetectorOperator,
    ModelSpec,
    MonomialJump,
    PolynomialJump,
    RationalJump,
    VerifyReport,
    build_detector,
    build_detector_general,
    build_detector_linear,
    verify_detector,
)
from .operators import (
    DiffOperator,
    OperatorPolynomial,
    annihilator_of_span,
    apply_to_delayed,
    conjugate_by_delay,
    to_integral_form,
)
from .kernels import (
    DiscreteDetector,
    SymbolicKernel,
    discretize,
    kernelize,
    oracle_window_values,
)
from .runtime import (
    DecisionTrace,
    DetectConfig,
    Detection,
    StreamDetector,
    detect,
    detect_samples,
    eval_windows,
)
from .signals import SUITES, Carrier, Segment, SignalSpec, builtin_suite, render
from .noise import NOISE_KINDS, PerlinParams, apply_noise, measured_snr_db

__version__ = "0.1.0"

# One NumPy window engine; these constants stay because perfbench's run record reads them.
DEFAULT_BACKEND = "python"
HAVE_COMPILED = False

__all__ = [
    "DEFAULT_BACKEND",
    "HAVE_COMPILED",
    "Polynomial",
    "RationalFunction",
    "DiffOperator",
    "OperatorPolynomial",
    "annihilator_of_span",
    "apply_to_delayed",
    "conjugate_by_delay",
    "to_integral_form",
    "ModelSpec",
    "MonomialJump",
    "PolynomialJump",
    "RationalJump",
    "DetectorOperator",
    "VerifyReport",
    "build_detector",
    "build_detector_linear",
    "build_detector_general",
    "verify_detector",
    "DiscreteDetector",
    "SymbolicKernel",
    "discretize",
    "kernelize",
    "oracle_window_values",
    "DecisionTrace",
    "DetectConfig",
    "Detection",
    "StreamDetector",
    "detect",
    "detect_samples",
    "eval_windows",
    "SUITES",
    "Carrier",
    "Segment",
    "SignalSpec",
    "builtin_suite",
    "render",
    "NOISE_KINDS",
    "PerlinParams",
    "apply_noise",
    "measured_snr_db",
    "__version__",
]
