"""Batch and streaming detection runtime.

The decision statistic at window position k is the collapsed window value
v(k) (the delay polynomial evaluated at the window midpoint) normalized by
the windowed noise scale:

    d(k) = v(k) / (wnorm * sqrt(W) * (sigma(k) + SIGMA_FLOOR * rms(k)) + EPSILON)

sigma(k) and rms(k) being the sample deviation and RMS of window k. The
three rounding floors are module constants, and _statistics is the only
place d is made; see SIGMA_FLOOR for what each floor guards.

A change inside a window drives v through a sign change at the position
where the hypothesized delay matches the true one, so detections are gated
zero crossings of d. The gate demands a direction-consistent excursion of at
least kappa times the noise scale of d on BOTH flanks of the crossing (which
implies the plain one-sided max |d| >= kappa * scale condition), plus a float
dust floor so noise-free flat segments never fire.

Batch and stream share one engine. The engine consumes window statistics in
position order and, whenever crossings have their right flank available,
resolves all of them in one vectorized gate under either scale: the flank
threshold and the dust floor are masks, applied cheapest first, and only
survivors become candidates for a time-ordered pending-candidate suppressor.
With an explicit cfg.scale batch and stream are bit-identical and chunk-size
invariant; with cfg.scale=None batch uses the whole-trace MAD of d while the
stream uses a trailing MAD at each crossing (a documented approximation, still
chunk-size invariant).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._engine import eval_windows_raw
from .kernels import DiscreteDetector

MAD_FACTOR = 1.4826  # normal-consistency factor for median absolute deviation
_MIN_SCALE_HISTORY = 16
# flank values gathered per step of the crossing gate (128 kB):
# more costs peak memory and saves little time
_SCREEN_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class DetectConfig:
    kappa: float = 3.0
    min_separation: Optional[float] = None  # seconds; None -> window * dt
    mode: str = "zero_crossing"  # or "linear_estimate"
    scale: Optional[float] = None  # noise scale of d; None -> MAD estimate

    def __post_init__(self):
        if self.mode not in ("zero_crossing", "linear_estimate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and >= 0")
        for name in ("min_separation", "scale"):
            x = getattr(self, name)
            if x is not None and not (math.isfinite(x) and x >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class Detection:
    time: float
    score: float
    kind: str
    position: int  # window index the timestamp was read from


@dataclass(frozen=True)
class DecisionTrace:
    """Per-position window statistics over a batch of samples."""

    t0: float
    dt: float
    window: int
    t_mid: float
    wnorm: float
    vnu: np.ndarray  # (degree+1, npos)
    v: np.ndarray  # collapsed at t_mid
    d: np.ndarray  # normalized decision values
    sigma: np.ndarray
    rms: np.ndarray

    @property
    def positions(self) -> int:
        return self.v.shape[0]

    def time_at(self, k: int) -> float:
        """Change-time hypothesis at the midpoint of window k."""
        return self.t0 + k * self.dt + self.t_mid

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.positions) * self.dt + self.t_mid


def _collapse(vnu: np.ndarray, t_mid: float) -> np.ndarray:
    """Horner evaluation of the delay polynomial at t_mid, elementwise."""
    v = vnu[-1].copy()
    for i in range(vnu.shape[0] - 2, -1, -1):
        v = v * t_mid + vnu[i]
    return v


# The rounding floors of the decision statistic, all relative to one window.
# SIGMA_FLOOR: windows of an exactly constant signal have zero sample
# deviation; dividing their rounding dust by EPSILON alone would turn them
# into huge spurious statistics. One part in 1e9 of the window RMS is far
# below any resolvable noise level and keeps such windows at d ~ 0.
# EPSILON: keeps d finite where the window is all zeros (sigma = rms = 0).
# DUST: the gate drops a crossing unless both flanks reach a max |v| above
# DUST * wnorm * sqrt(W) * rms(k); below that, v is rounding dust next to a
# real lobe, as where a response lobe decays into an event-free region.
SIGMA_FLOOR = 1e-9
EPSILON = 1e-12
DUST = 1e-9


def _statistics(dd: DiscreteDetector, samples: np.ndarray):
    """(vnu, v, d, sigma, rms) of every window position over samples.

    The engine is looked up in this module when called, so one bound to
    runtime.eval_windows_raw sees every batch and stream evaluation."""
    vnu, sigma, rms = eval_windows_raw(dd.weights, samples)
    v = _collapse(vnu, dd.t_mid)
    d = v / (dd.wnorm * math.sqrt(dd.window) * (sigma + SIGMA_FLOOR * rms) + EPSILON)
    return vnu, v, d, sigma, rms


def eval_windows(
    dd: DiscreteDetector,
    samples: Sequence[float],
    t0: float = 0.0,
) -> DecisionTrace:
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if samples.size and not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if samples.size < dd.window:
        raise ValueError(
            f"need at least window={dd.window} samples, got {samples.size}"
        )
    vnu, v, d, sigma, rms = _statistics(dd, samples)
    return DecisionTrace(
        t0=t0,
        dt=dd.dt,
        window=dd.window,
        t_mid=dd.t_mid,
        wnorm=dd.wnorm,
        vnu=vnu,
        v=v,
        d=d,
        sigma=sigma,
        rms=rms,
    )


def batch_mad_scale(d: np.ndarray) -> float:
    if d.size == 0:
        return math.inf
    med = float(np.median(d))
    return MAD_FACTOR * float(np.median(np.abs(d - med)))


class _Ring:
    """Trailing window statistics with absolute-position indexing."""

    def __init__(self):
        self.base = 0
        self.d = np.empty(0, dtype=np.float64)
        self.v = np.empty(0, dtype=np.float64)
        self.rms = np.empty(0, dtype=np.float64)
        self.vnu = np.empty((0, 0), dtype=np.float64)  # replaced by the first append

    @property
    def end(self) -> int:
        return self.base + self.d.shape[0]

    def append(self, d, v, rms, vnu) -> None:
        if self.d.size == 0:  # a whole batch trace, say: hold it, no copy
            self.d, self.v, self.rms, self.vnu = d, v, rms, vnu
            return
        self.d = np.concatenate([self.d, d])
        self.v = np.concatenate([self.v, v])
        self.rms = np.concatenate([self.rms, rms])
        self.vnu = np.concatenate([self.vnu, vnu], axis=1)

    def trim(self, keep_from: int) -> None:
        cut = keep_from - self.base
        if cut > 0:
            self.d = self.d[cut:]
            self.v = self.v[cut:]
            self.rms = self.rms[cut:]
            self.vnu = self.vnu[:, cut:]
            self.base = keep_from


@dataclass
class _Pending:
    position: int
    time: float
    score: float


class _GateEngine:
    """Order-driven crossing gate + suppression, shared by batch and stream.

    Takes the window geometry (samples per window, grid step, midpoint offset
    and weight norm), the noise scale of d (a constant, or None for the
    trailing MAD over max(8W, 512) positions) and, per feed, the statistics
    the caller already holds: the delay-row values vnu, their collapse v, the
    normalized d and the rms. One gate, _gate, resolves every ready crossing
    under either scale; see it for the order in which its tests prune.
    """

    def __init__(
        self,
        window: int,
        dt: float,
        t_mid: float,
        wnorm: float,
        cfg: DetectConfig,
        t0: float,
        scale: Optional[float],
    ):
        self.window = window
        self.dt = dt
        self.t_mid = t_mid
        self.cfg = cfg
        self.t0 = t0
        self.scale = None if scale is None else float(scale)
        # positions of d the trailing MAD reads, ending at a right flank's end
        self.trailing = 0 if scale is not None else max(8 * window, 512)
        self.flank = window // 2
        self._flanks = np.arange(-self.flank, self.flank + 1)  # column offsets
        sep = cfg.min_separation
        if sep is None:
            self.min_sep_pos = window
        else:
            self.min_sep_pos = max(1, int(round(sep / dt)))
        self.ring = _Ring()
        self.crossings: List[int] = []  # queued, ascending
        self.pending: Optional[_Pending] = None
        self.wnorm_sqrtw = wnorm * math.sqrt(window)
        self.finished = False

    # -- feeding -------------------------------------------------------------
    def feed(self, vnu, v, d, rms, first_pos: int) -> List[Detection]:
        if first_pos != self.ring.end:
            raise AssertionError("engine fed out of order")
        self.ring.append(d, v, rms, vnu)
        lo = max(1, first_pos)  # crossings need a left neighbor
        hi = self.ring.end - 1
        if hi >= lo:
            sign = np.sign(self.ring.d[lo - 1 - self.ring.base :])
            found = np.flatnonzero(sign[:-1] * sign[1:] < 0)
            if found.size:
                self.crossings.extend((found + lo).tolist())
        return self._drain()

    def finish(self) -> List[Detection]:
        self.finished = True
        out = self._drain()
        if self.pending is not None:
            out.append(self._emit(self.pending))
            self.pending = None
        return out

    # -- internals -----------------------------------------------------------
    def _drain(self) -> List[Detection]:
        out: List[Detection] = []
        frontier = self.ring.end - 1
        if self.finished:
            taken = len(self.crossings)
        else:
            taken = bisect.bisect_right(self.crossings, frontier - self.flank)
        if taken:
            for cand in self._gate(self.crossings[:taken]):
                out.extend(self._push_candidate(cand))
            del self.crossings[:taken]
        # every crossing still queued lies past frontier - flank, so its
        # candidate would land more than min_sep_pos past this pending one
        # and emit it anyway: waiting for it only delays the emission
        if self.pending is not None:
            resolvable = frontier if self.finished else frontier - self.flank
            if resolvable > self.pending.position + self.min_sep_pos:
                out.append(self._emit(self.pending))
                self.pending = None
        self._trim()
        return out

    def _trim(self) -> None:
        # a queued crossing lies past frontier - flank, so this keeps its
        # left flank, d[k-1] and the trailing MAD's history too
        anchor = self.ring.end - (2 * self.flank + 2) - self.trailing
        self.ring.trim(max(self.ring.base, anchor))

    def _gate(self, ks: List[int]) -> List[_Pending]:
        """Candidates of the ready crossings ks (ascending), in position order.

        The left flank of crossing k is d[k - W/2 .. k-1] and the right one
        d[k .. k + W/2], clipped to the ring at the stream start and at
        finish(). A clipped flank is gathered with its index clamped into it:
        a repeated value changes no max, min or NaN. The cheap tests prune
        first. Under a fixed scale: the left flank of every crossing, the
        right flank where the left passed, then |v| for the dust floor on
        flank survivors. Under the trailing MAD: both flanks and |v| for every
        crossing, then the median only where the dust floor passed."""
        ring, f = self.ring, self.flank
        out: List[_Pending] = []
        step = max(1, _SCREEN_ELEMENTS // (f + 1))
        for lo in range(0, len(ks), step):
            col = np.array(ks[lo : lo + step], dtype=np.int64) - ring.base
            # +1 where d falls through zero at k, -1 where it rises
            sign = np.where(ring.d[col - 1] > 0, 1.0, -1.0)
            score = np.inf  # becomes the smaller flank excursion
            for offsets, side in ((self._flanks[:f], 1.0), (self._flanks[f:], -1.0)):
                flank = np.take(ring.d, col[:, None] + offsets, mode="clip")
                score = np.minimum(score, (flank * (side * sign)[:, None]).max(axis=1))
                if self.scale is not None:
                    keep = self._reaching(col, score)
                    col, sign, score = col[keep], sign[keep], score[keep]
            # float dust floor (DUST): BOTH flanks must carry a macroscopic v
            v = np.abs(np.take(ring.v, col[:, None] + self._flanks, mode="clip"))
            floor = DUST * self.wnorm_sqrtw * ring.rms[col]
            keep = ~(np.minimum(v[:, :f].max(axis=1), v[:, f:].max(axis=1)) <= floor)
            col, score = col[keep], score[keep]
            if self.scale is None:
                keep = self._reaching(col, score)
                col, score = col[keep], score[keep]
            out.extend(map(self._candidate, col.tolist(), score.tolist()))
        return out

    def _reaching(self, col: np.ndarray, score: np.ndarray) -> np.ndarray:
        """Mask of the crossings at ring columns col whose flank excursions
        all reach kappa times the scale (a NaN excursion never does). The
        trailing MAD is that of d over the trailing positions ending at the
        crossing's right flank end; under 16 of them it is inf."""
        if self.scale is not None:
            threshold = self.cfg.kappa * self.scale
        else:
            d = self.ring.d
            threshold = np.empty(col.size)
            for i, hi in enumerate(np.minimum(col + self.flank, d.size - 1).tolist()):
                window = d[max(0, hi + 1 - self.trailing) : hi + 1]
                small = window.size < _MIN_SCALE_HISTORY
                threshold[i] = self.cfg.kappa * (math.inf if small else batch_mad_scale(window))
        return score >= threshold

    def _candidate(self, k: int, score: float) -> _Pending:
        """The candidate of the passing crossing at ring column k."""
        ring = self.ring
        col = k - 1 if abs(ring.d[k - 1]) <= abs(ring.d[k]) else k
        k_star = ring.base + col
        if self.cfg.mode == "zero_crossing":
            time = self.t0 + k_star * self.dt + self.t_mid
        else:
            v0 = float(ring.vnu[0, col])
            v1 = float(ring.vnu[1, col]) if ring.vnu.shape[0] > 1 else 0.0
            if v1 != 0.0:
                local = -v0 / v1
                span = (self.window - 1) * self.dt
                local = min(max(local, 0.0), span)
            else:
                local = self.t_mid
            time = self.t0 + k_star * self.dt + local
        return _Pending(position=k_star, time=time, score=score)

    def _push_candidate(self, cand: _Pending) -> List[Detection]:
        if self.pending is None:
            self.pending = cand
            return []
        if cand.position - self.pending.position <= self.min_sep_pos:
            if cand.score > self.pending.score:
                self.pending = cand
            return []
        out = [self._emit(self.pending)]
        self.pending = cand
        return out

    def _emit(self, p: _Pending) -> Detection:
        return Detection(time=p.time, score=p.score, kind=self.cfg.mode, position=p.position)


def detect(trace: DecisionTrace, cfg: DetectConfig = DetectConfig()) -> List[Detection]:
    """Batch detection over a precomputed trace; the gate reads trace.d."""
    scale = cfg.scale if cfg.scale is not None else batch_mad_scale(trace.d)
    engine = _GateEngine(trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, scale)
    out = engine.feed(trace.vnu, trace.v, trace.d, trace.rms, 0)
    out.extend(engine.finish())
    return out


def detect_samples(
    dd: DiscreteDetector,
    samples: Sequence[float],
    cfg: DetectConfig = DetectConfig(),
    t0: float = 0.0,
) -> Tuple[DecisionTrace, List[Detection]]:
    trace = eval_windows(dd, samples, t0=t0)
    return trace, detect(trace, cfg)


class StreamDetector:
    """Streaming runtime: feed samples, collect detections as they resolve.

    With an explicit cfg.scale the emitted detections are bit-identical to the
    batch path on the same samples regardless of chunking; with cfg.scale=None
    the gate scale is a trailing MAD (chunk-invariant but not equal to the
    batch whole-trace MAD). Fed one sample per push(), a detection is emitted
    at most min_sep_pos + window//2 + 1 positions past its own position,
    min_sep_pos being min_separation in samples (default: the window); a chunk
    of n samples can add up to n - 1 more.
    """

    def __init__(
        self,
        dd: DiscreteDetector,
        cfg: DetectConfig = DetectConfig(),
        t0: float = 0.0,
    ):
        self.dd = dd
        self.cfg = cfg
        self.t0 = t0
        self._engine = _GateEngine(dd.window, dd.dt, dd.t_mid, dd.wnorm, cfg, t0, cfg.scale)
        self._tail = np.empty(0, dtype=np.float64)
        self._seen = 0
        self._positions = 0
        self.detections: List[Detection] = []

    @property
    def samples_seen(self) -> int:
        return self._seen

    def push(self, sample: float) -> List[Detection]:
        return self.push_chunk(np.array([float(sample)], dtype=np.float64))

    def push_chunk(self, chunk: Sequence[float]) -> List[Detection]:
        if self._engine.finished:
            raise RuntimeError("stream already finalized")
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError("chunk must be one-dimensional")
        if chunk.size == 0:
            return []
        if not np.isfinite(chunk).all():
            raise ValueError("samples must be finite")
        work = np.concatenate([self._tail, chunk]) if self._tail.size else chunk
        self._seen += chunk.size
        w = self.dd.window
        keep = min(work.size, w - 1)
        self._tail = work[work.size - keep :].copy()
        if work.size < w:
            return []
        vnu, v, d, _, rms = _statistics(self.dd, work)
        first = self._positions
        self._positions += vnu.shape[1]
        out = self._engine.feed(vnu, v, d, rms, first)
        self.detections.extend(out)
        return out

    def finalize(self) -> List[Detection]:
        if self._engine.finished:
            return []
        out = self._engine.finish()
        self.detections.extend(out)
        return out
