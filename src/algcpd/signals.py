"""Deterministic piecewise-polynomial test signals.

A signal is a list of segments, each a polynomial in local time (t - start),
sampled on a uniform grid, with an optional global additive sinusoid. Values
at a boundary belong to the starting segment (segment-start inclusive). The
change times are the segment starts after the first.

Three frozen built-in suites cover the benchmark regimes:

  pc5    five piecewise-constant levels, unit jumps, 20 s at dt=0.01
  poly6  six low-curvature quadratic segments with ~unit value jumps, 30 s
  sine3  three levels under a global sinusoid, 12.5 s

Suite constants are part of the package contract; benchmark numbers quoted in
the README assume them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Carrier:
    """Global additive sinusoid amplitude*sin(2*pi*frequency*t + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0


@dataclass(frozen=True)
class Segment:
    """Polynomial segment; coeffs are ascending powers of (t - start)."""

    start: float
    coeffs: Tuple[float, ...]


@dataclass(frozen=True)
class SignalSpec:
    segments: Tuple[Segment, ...]
    duration: float
    dt: float
    carrier: Optional[Carrier] = None

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        if self.segments[0].start != 0.0:
            raise ValueError("first segment must start at time 0")
        starts = [s.start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        if self.duration <= starts[-1]:
            raise ValueError("duration must exceed the last segment start")
        for s in self.segments:
            if not s.coeffs:
                raise ValueError("segment needs at least one coefficient")
            if not all(math.isfinite(c) for c in s.coeffs):
                raise ValueError("segment coefficients must be finite")

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.duration / self.dt))

    def change_times(self) -> Tuple[float, ...]:
        return tuple(s.start for s in self.segments[1:])


def render(spec: SignalSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the signal; returns (times, values)."""
    n = spec.n_samples
    if n < 1:
        raise ValueError("duration shorter than one sample")
    times = np.arange(n, dtype=np.float64) * spec.dt
    values = np.zeros(n, dtype=np.float64)
    bounds = [s.start for s in spec.segments] + [math.inf]
    for seg, nxt in zip(spec.segments, bounds[1:]):
        mask = (times >= seg.start) & (times < nxt)
        if not mask.any():
            continue
        local = times[mask] - seg.start
        acc = np.full(local.shape, seg.coeffs[-1], dtype=np.float64)
        for c in reversed(seg.coeffs[:-1]):
            acc = acc * local + c
        values[mask] = acc
    if spec.carrier is not None:
        c = spec.carrier
        values = values + c.amplitude * np.sin(
            2.0 * math.pi * c.frequency * times + c.phase
        )
    return times, values


# ---------------------------------------------------------------------------
# Built-in suites (frozen constants). Boundaries sit at half-sample offsets of
# the dt=0.01 grid so the windowed quadrature sees a centered jump cell.
# ---------------------------------------------------------------------------

_PC5 = SignalSpec(
    segments=(
        Segment(0.0, (0.5,)),
        Segment(6.405, (-0.5,)),
        Segment(12.805, (0.5,)),
        Segment(19.205, (-0.5,)),
        Segment(25.605, (0.5,)),
    ),
    duration=32.0,
    dt=0.01,
)

_POLY6 = SignalSpec(
    segments=(
        Segment(0.0, (0.3, 0.04, -0.003)),
        Segment(4.805, (-0.85, -0.025, 0.0035)),
        Segment(9.605, (0.42, 0.035, -0.0028)),
        Segment(14.405, (-0.72, 0.02, 0.0032)),
        Segment(19.205, (0.68, -0.03, -0.0026)),
        Segment(24.005, (-0.76, 0.028, 0.003)),
    ),
    duration=30.0,
    dt=0.01,
)

_SINE3 = SignalSpec(
    segments=(
        Segment(0.0, (1.0,)),
        Segment(4.205, (-1.0,)),
        Segment(8.405, (1.0,)),
    ),
    duration=12.5,
    dt=0.01,
    carrier=Carrier(amplitude=0.4, frequency=0.04, phase=0.4),
)

SUITES = {"pc5": _PC5, "poly6": _POLY6, "sine3": _SINE3}


def builtin_suite(name: str) -> SignalSpec:
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        ) from None
