"""Batch and streaming detection runtime.

The decision statistic at window position k is the collapsed window value
v(k) (the delay polynomial evaluated at the window midpoint) normalized by
the windowed noise scale:

    d(k) = v(k) / (wnorm * sqrt(W) * sigma_k + epsilon)

A change inside a window drives v through a sign change at the position
where the hypothesized delay matches the true one, so detections are gated
zero crossings of d. The gate demands a direction-consistent excursion of at
least kappa times the noise scale of d on BOTH flanks of the crossing (which
implies the plain one-sided max |d| >= kappa * scale condition), plus a float
dust floor so noise-free flat segments never fire.

Batch and stream share one engine. The engine consumes window statistics in
position order, resolves each crossing once its right flank is available, and
feeds survivors to a time-ordered pending-candidate suppressor. Under a fixed
scale the flank threshold is first applied to all ready crossings at once;
it is exact, so only the cost changes. With an explicit cfg.scale the two
paths are bit-identical and chunk-size invariant; with cfg.scale=None batch
uses the whole-trace MAD of d while the stream uses a trailing MAD (a
documented approximation, still chunk-size invariant).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._engine import eval_windows_raw
from .kernels import DiscreteDetector

MAD_FACTOR = 1.4826  # normal-consistency factor for median absolute deviation
_MIN_SCALE_HISTORY = 16
# flank values gathered per step of the vectorized crossing screen (128 kB):
# more costs peak memory and saves little time
_SCREEN_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class DetectConfig:
    kappa: float = 3.0
    min_separation: Optional[float] = None  # seconds; None -> window * dt
    epsilon: float = 1e-12
    mode: str = "zero_crossing"  # or "linear_estimate"
    scale: Optional[float] = None  # noise scale of d; None -> MAD estimate
    dust: float = 1e-9

    def __post_init__(self):
        if self.mode not in ("zero_crossing", "linear_estimate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.min_separation is not None and self.min_separation < 0:
            raise ValueError("min_separation must be >= 0")


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
    epsilon: Optional[float]  # the epsilon d was normalized with; None if unknown

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


# Relative deviation floor. Windows of an exactly constant signal have zero
# sample deviation; dividing their rounding dust by epsilon alone would turn
# them into huge spurious statistics. One part in 1e9 of the window RMS is far
# below any resolvable noise level and keeps such windows at d ~ 0.
SIGMA_FLOOR = 1e-9


def _normalize(
    v: np.ndarray,
    sigma: np.ndarray,
    rms: np.ndarray,
    wnorm_sqrtw: float,
    epsilon: float,
) -> np.ndarray:
    return v / (wnorm_sqrtw * (sigma + SIGMA_FLOOR * rms) + epsilon)


def eval_windows(
    dd: DiscreteDetector,
    samples: Sequence[float],
    t0: float = 0.0,
    epsilon: float = 1e-12,
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
    vnu, sigma, rms = eval_windows_raw(dd.weights, samples)
    v = _collapse(vnu, dd.t_mid)
    d = _normalize(v, sigma, rms, dd.wnorm * math.sqrt(dd.window), epsilon)
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
        epsilon=epsilon,
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

    def get_d(self, pos: int) -> float:
        return float(self.d[pos - self.base])

    def slice_d(self, lo: int, hi: int) -> np.ndarray:
        """d over absolute positions [lo, hi] inclusive."""
        return self.d[lo - self.base : hi + 1 - self.base]

    def slice_v(self, lo: int, hi: int) -> np.ndarray:
        return self.v[lo - self.base : hi + 1 - self.base]


class _ScaleProvider:
    """Noise scale of d for the gate, queried at a resolution position."""

    #: extra trailing positions the engine ring must retain for this provider
    retention = 0

    def value_at(self, pos: int, ring: _Ring) -> float:
        raise NotImplementedError


class _FixedScale(_ScaleProvider):
    def __init__(self, scale: float):
        self._scale = float(scale)

    def value_at(self, pos: int, ring: _Ring) -> float:
        return self._scale


class _TrailingMadScale(_ScaleProvider):
    """MAD of d over the trailing `length` positions ending at the query
    position. A pure function of (pos, d history), so results are invariant
    to how the stream was chunked."""

    def __init__(self, length: int):
        self.length = length
        self.retention = length

    def value_at(self, pos: int, ring: _Ring) -> float:
        lo = max(ring.base, pos - self.length + 1)
        window = ring.slice_d(lo, pos)
        if window.size < _MIN_SCALE_HISTORY:
            return math.inf
        med = float(np.median(window))
        return MAD_FACTOR * float(np.median(np.abs(window - med)))


@dataclass
class _Pending:
    position: int
    time: float
    score: float


class _GateEngine:
    """Order-driven crossing gate + suppression, shared by batch and stream.

    Takes the window geometry (samples per window, grid step, midpoint offset
    and weight norm) and, per feed, the statistics the caller already holds:
    the delay-row values vnu, their collapse v, the normalized d and the rms.
    """

    def __init__(
        self,
        window: int,
        dt: float,
        t_mid: float,
        wnorm: float,
        cfg: DetectConfig,
        t0: float,
        scale: _ScaleProvider,
    ):
        self.window = window
        self.dt = dt
        self.t_mid = t_mid
        self.cfg = cfg
        self.t0 = t0
        self.scale = scale
        self.flank = window // 2
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
            seg = self.ring.slice_d(lo - 1, hi)
            sign = np.sign(seg)
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
            for k in self._screen(self.crossings[:taken], frontier):
                cand = self._resolve(k, frontier)
                if cand is not None:
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
        anchor = self.ring.end - (2 * self.flank + 2) - self.scale.retention
        if self.crossings:
            anchor = min(
                anchor, self.crossings[0] - self.flank - 1 - self.scale.retention
            )
        keep_from = max(self.ring.base, anchor)
        self.ring.trim(keep_from)

    def _screen(self, ks: List[int], frontier: int) -> List[int]:
        """Drop, all at once, the crossings that _resolve would reject at the
        flank threshold. Only a fixed scale allows this, as its threshold is
        known before the flanks are. Crossings with a clipped flank (near the
        start, or near the end at finish) pass unscreened. max is exact, so
        the survivors, and with them the detections, are unchanged."""
        if not isinstance(self.scale, _FixedScale):
            return ks
        ring = self.ring
        threshold = self.cfg.kappa * self.scale.value_at(frontier, ring)
        batch = max(1, _SCREEN_ELEMENTS // (self.flank + 1))
        keep: List[int] = []
        for lo in range(0, len(ks), batch):
            k = np.array(ks[lo : lo + batch], dtype=np.int64)
            full = (k - self.flank >= ring.base) & (k + self.flank <= frontier)
            col = k[full] - ring.base
            drop = np.zeros_like(full)
            if col.size:
                falling = ring.d[col - 1] > 0  # sign_pre = +1 in _resolve
                left = sliding_window_view(ring.d, self.flank)[col - self.flank]
                # the complement of _resolve's test, so a NaN excursion is
                # kept here and rejected there; the right flank is read only
                # where the left one passed
                fail = np.where(falling, left.max(axis=1), -left.min(axis=1)) < threshold
                rest = np.flatnonzero(~fail)
                right = sliding_window_view(ring.d, self.flank + 1)[col[rest]]
                fail[rest] = np.where(
                    falling[rest], -right.min(axis=1), right.max(axis=1)
                ) < threshold
                drop[full] = fail
            keep.extend(k[~drop].tolist())
        return keep

    def _resolve(self, k: int, frontier: int) -> Optional[_Pending]:
        ring = self.ring
        left_lo = max(ring.base, k - self.flank)
        right_hi = min(frontier, k + self.flank)
        sign_pre = 1.0 if ring.get_d(k - 1) > 0 else -1.0
        left = ring.slice_d(left_lo, k - 1)
        right = ring.slice_d(k, right_hi)
        if left.size == 0 or right.size == 0:
            return None
        left_exc = float(np.max(sign_pre * left))
        right_exc = float(np.max(-sign_pre * right))
        threshold = self.cfg.kappa * self.scale.value_at(right_hi, ring)
        if not (left_exc >= threshold and right_exc >= threshold):
            return None
        # float dust floor: BOTH flanks must carry a macroscopic v excursion
        # vs window rms, else the crossing is rounding dust next to a real
        # lobe (e.g. where a response lobe decays into an event-free region)
        vleft = float(np.max(np.abs(ring.slice_v(left_lo, k - 1))))
        vright = float(np.max(np.abs(ring.slice_v(k, right_hi))))
        rms_k = float(ring.rms[k - ring.base])
        if min(vleft, vright) <= self.cfg.dust * self.wnorm_sqrtw * rms_k:
            return None
        k_star = k - 1 if abs(ring.get_d(k - 1)) <= abs(ring.get_d(k)) else k
        score = min(left_exc, right_exc)
        if self.cfg.mode == "zero_crossing":
            time = self.t0 + k_star * self.dt + self.t_mid
        else:
            col = k_star - ring.base
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
    """Batch detection over a precomputed trace."""
    if trace.epsilon == cfg.epsilon:
        d = trace.d
    else:
        d = _normalize(
            trace.v, trace.sigma, trace.rms,
            trace.wnorm * math.sqrt(trace.window), cfg.epsilon,
        )
    scale = cfg.scale if cfg.scale is not None else batch_mad_scale(d)
    engine = _GateEngine(
        trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, _FixedScale(scale)
    )
    out = engine.feed(trace.vnu, trace.v, d, trace.rms, 0)
    out.extend(engine.finish())
    return out


def detect_samples(
    dd: DiscreteDetector,
    samples: Sequence[float],
    cfg: DetectConfig = DetectConfig(),
    t0: float = 0.0,
) -> Tuple[DecisionTrace, List[Detection]]:
    trace = eval_windows(dd, samples, t0=t0, epsilon=cfg.epsilon)
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
        if cfg.scale is not None:
            provider: _ScaleProvider = _FixedScale(cfg.scale)
        else:
            provider = _TrailingMadScale(max(8 * dd.window, 512))
        self._engine = _GateEngine(dd.window, dd.dt, dd.t_mid, dd.wnorm, cfg, t0, provider)
        self._tail = np.empty(0, dtype=np.float64)
        self._seen = 0
        self._positions = 0
        self._finished = False
        self.detections: List[Detection] = []

    @property
    def samples_seen(self) -> int:
        return self._seen

    def push(self, sample: float) -> List[Detection]:
        return self.push_chunk(np.array([float(sample)], dtype=np.float64))

    def push_chunk(self, chunk: Sequence[float]) -> List[Detection]:
        if self._finished:
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
        vnu, sigma, rms = eval_windows_raw(self.dd.weights, work)
        v = _collapse(vnu, self.dd.t_mid)
        d = _normalize(v, sigma, rms, self._engine.wnorm_sqrtw, self.cfg.epsilon)
        first = self._positions
        self._positions += vnu.shape[1]
        out = self._engine.feed(vnu, v, d, rms, first)
        self.detections.extend(out)
        return out

    def finalize(self) -> List[Detection]:
        if self._finished:
            return []
        self._finished = True
        out = self._engine.finish()
        self.detections.extend(out)
        return out
