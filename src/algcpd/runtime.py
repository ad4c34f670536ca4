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
resolves all of them in one vectorized gate. It prunes in one order under
either scale: it takes each crossing's threshold first, then the left flank,
the right flank and the dust floor drop crossings as masks. Only survivors
become candidates for a time-ordered pending-candidate suppressor.
With an explicit cfg.scale batch and stream are bit-identical and chunk-size
invariant; with cfg.scale=None batch uses the whole-trace MAD of d while the
stream uses a trailing MAD at each crossing (a documented approximation, still
chunk-size invariant). One sorted-row routine, _mads, takes both: the batch
MAD is one row holding all of d, and a group of crossings copies its trailing
windows into the rows of one array, sorts them to read the medians, then
sorts the absolute deviations to read the MADs. A group's array holds at most
_SCREEN_ELEMENTS values (21 windows at W=96), the bound the flank gather
keeps to.

The engine is fed (feed) and drained (drain, finish) separately. Batch feeds
the whole trace and finishes. The stream holds samples until the engine's
due() frontier says a detection could be emitted, then feeds every held
position at once and drains; draining at any frontier gives the same
emissions, so this only decides how often the stream pays for the engine.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._engine import eval_windows_raw
from .kernels import DiscreteDetector, _real

MAD_FACTOR = 1.4826  # normal-consistency factor for median absolute deviation
_MIN_SCALE_HISTORY = 16
# flank values gathered per step of the crossing gate, and trailing-MAD
# values sorted per group (128 kB): more costs peak memory and saves little time
_SCREEN_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class DetectConfig:
    kappa: float = 3.0
    min_separation: Optional[float] = None  # seconds; None -> window * dt
    scale: Optional[float] = None  # noise scale of d; None -> MAD estimate

    def __post_init__(self):
        # a bool is a number to Python: kappa=True would silently gate at 1
        if isinstance(self.kappa, bool) or not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be a finite number >= 0, got {self.kappa!r}")
        for name in ("min_separation", "scale"):
            x = getattr(self, name)
            if x is not None and (isinstance(x, bool) or not (math.isfinite(x) and x >= 0)):
                raise ValueError(f"{name} must be a finite number >= 0, got {x!r}")


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


def _start_time(t0) -> float:
    """t0 as a Python float; ValueError unless it is a real number (bools
    excluded) whose float is finite."""
    t = _real(t0)
    if not math.isfinite(t):
        raise ValueError(f"t0 must be a finite number, got {t0!r}")
    return t


def eval_windows(
    dd: DiscreteDetector,
    samples: Sequence[float],
    t0: float = 0.0,
) -> DecisionTrace:
    t0 = _start_time(t0)
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    _check_samples(dd, samples)
    return DecisionTrace(t0, dd.dt, dd.window, dd.t_mid, dd.wnorm, *_statistics(dd, samples))


def _eval_rows(dd: DiscreteDetector, block: np.ndarray) -> List[DecisionTrace]:
    """eval_windows of each row of a (rows, n) block of equal-length
    signals, all from one engine call; the traces start at t0 = 0."""
    _check_samples(dd, block)
    stats = _statistics(dd, block)
    return [
        DecisionTrace(0.0, dd.dt, dd.window, dd.t_mid, dd.wnorm, *(a[..., r, :] for a in stats))
        for r in range(block.shape[0])
    ]


def _sample_bound(dd: DiscreteDetector) -> float:
    """The largest |sample| whose window statistics stay in the float range:
    sqrt(DBL_MAX / (2W)) keeps a window's sum of squares under DBL_MAX / 2,
    unless the weights bind first through the bounds on v, the collapse
    sum_r ||w_r||_1 max(1, t_mid)^r |y|, and on d's denominator, wnorm sqrt(W) |y|.
    Raises ValueError for a wnorm that is not positive: d would then divide v
    by EPSILON alone, and every window of noise would read as a change."""
    if not dd.wnorm > 0.0:  # NaN fails it too
        raise ValueError(f"the detector's midpoint norm wnorm is {dd.wnorm!r} at "
                         f"window={dd.window}: the window is too short for its model")
    with np.errstate(over="ignore"):
        collapsed = _collapse(np.abs(dd.weights).sum(axis=1), max(1.0, dd.t_mid))
    gain = max(collapsed, dd.wnorm * math.sqrt(dd.window), 1.0)
    big = sys.float_info.max
    return min(math.sqrt(big / (2 * dd.window)), float(big / 2 / gain))


def _out_of_bound(bound: float, window: int) -> ValueError:
    return ValueError(f"samples must be finite and at most {bound:.3g} in magnitude, "
                      f"the bound of the window sums at window={window}")


def _check_samples(dd: DiscreteDetector, samples: np.ndarray) -> None:
    bound = _sample_bound(dd)
    if samples.size and not np.abs(samples).max() <= bound:  # NaN fails it too
        raise _out_of_bound(bound, dd.window)
    n = samples.shape[-1]
    if n < dd.window:
        raise ValueError(f"need at least window={dd.window} samples, got {n}")


def batch_mad_scale(d: np.ndarray) -> float:
    """The MAD of all of d as float64 (inf if d is empty): _mads of one row,
    d itself."""
    d = np.asarray(d, dtype=np.float64)  # _mads' rows take its dtype and hold deviations
    if d.size == 0:
        return math.inf
    n = np.array([d.size])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_mads(d, n, n)[0])


def _mads(d: np.ndarray, ends: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """MAD_FACTOR * np.median(|w - np.median(w)|), bit for bit, of each
    window w = d[ends[i] - counts[i] : ends[i]]: the batch MAD is one row
    holding all of d, the stream's trailing MADs one row per crossing. The
    windows are copied into one (len(ends), max(counts)) array, and each row
    is sorted in place twice: first to read the medians, then the absolute
    deviations from them, to read the MADs. A median is the middle value, or
    (0.0 + a + b) / 2 of the middle pair as np.mean makes it (a -0.0 median
    is +0.0, an overflowing pair inf), and NaN where the window holds one. A
    window shorter than its row starts at column 0 and is padded with +inf,
    which sorts after every value but NaN and so moves none of the order
    statistics read. Callers hold NumPy's overflow and invalid warnings, as
    Python floats raise none."""
    width = int(counts.max())
    windows = as_strided(d, (d.size - width + 1, width), d.strides * 2)
    rows = windows[np.maximum(ends - width, 0)]  # a copy
    short = (counts < width).nonzero()[0].tolist()
    r = np.arange(counts.size)  # the middle one or two of each row's first counts[i]
    lo, hi, odd = (r, (counts - 1) // 2), (r, counts // 2), counts % 2 == 1

    def medians():
        mid = rows[lo]
        med = np.where(odd, 0.0 + mid, (0.0 + mid + rows[hi]) / 2)
        return np.where(np.isnan(rows[:, -1]), np.nan, med)

    for i in short:
        rows[i, counts[i] :] = np.inf
    rows.sort(axis=1)
    np.abs(np.subtract(rows, medians()[:, None], out=rows), out=rows)
    for i in short:  # a pad minus an inf median is NaN: pad it again
        rows[i, counts[i] :] = np.inf
    rows.sort(axis=1)
    return MAD_FACTOR * medians()


class _GateEngine:
    """Order-driven crossing gate + suppression, shared by batch and stream.

    Takes the window geometry (samples per window, grid step, midpoint offset
    and weight norm), the noise scale of d (a constant, or None for the
    trailing MAD over max(8W, 512) positions) and, per feed, the statistics
    the caller already holds: the collapsed window value v, the normalized d
    and the rms. One gate, _gate, resolves every ready crossing under either
    scale; see it for the order in which its tests prune. Under the trailing
    MAD, _thresholds takes a gate step's scales in groups of at most
    max(1, _SCREEN_ELEMENTS // trailing) crossings, one sorted row of d per
    crossing (_mads, the routine batch_mad_scale runs on one row): a group's
    rows take at most 128 kB, or one window where that alone is more
    (W > 2048).

    The history the gate reads is d, v and rms of positions base to end, as
    plain arrays. A feed to an empty history holds the arrays as
    given, so a batch trace is gated where it lies; a later feed
    concatenates, and _trim slices off the positions no crossing reads again.
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
        elif math.isfinite(sep / dt):
            self.min_sep_pos = max(1, int(round(sep / dt)))
        else:
            raise ValueError(f"min_separation {sep!r} s is not a finite number of {dt!r} s steps")
        self.base = 0  # the position of the history's first column
        self.d = self.v = self.rms = np.empty(0)
        self.crossings: List[int] = []  # queued, ascending
        self.pending: Optional[Detection] = None
        self.wnorm_sqrtw = wnorm * math.sqrt(window)
        self.finished = False

    @property
    def end(self) -> int:
        """One past the last fed position."""
        return self.base + self.d.shape[0]

    # -- feeding -------------------------------------------------------------
    def feed(self, v, d, rms, first_pos: int) -> None:
        """Append the statistics of positions first_pos.. and queue their
        crossings; drain() or finish() gates them."""
        if first_pos != self.end:
            raise AssertionError("engine fed out of order")
        if self.d.shape[0]:
            d, v, rms = (np.concatenate(p) for p in ((self.d, d), (self.v, v), (self.rms, rms)))
        self.d, self.v, self.rms = d, v, rms
        lo = max(1, first_pos)  # crossings need a left neighbor
        if self.end - 1 >= lo:
            sign = np.sign(self.d[lo - 1 - self.base :])
            found = np.flatnonzero(sign[:-1] * sign[1:] < 0)
            if found.size:
                self.crossings.extend((found + lo).tolist())

    def due(self) -> int:
        """The least frontier (last fed position) at which drain() may emit,
        or W//2 + W + 1 past the last fed position if that is less.

        drain() emits a pending candidate once a new candidate lies more than
        min_sep_pos past it, or once the frontier minus W//2 does; a new
        candidate needs its crossing's right flank fed, and sits at the
        crossing or one before. So nothing is emitted until the frontier minus
        W//2 is more than min_sep_pos past the horizon: the least of the last
        fed position (crossings not yet found lie past it), the position
        before the first queued crossing, and the pending candidate. The cap
        only drains earlier, and a caller that holds positions back until
        this frontier holds O(W) of them whatever min_sep_pos is."""
        last = self.end - 1
        horizon = last
        if self.crossings:
            horizon = min(horizon, self.crossings[0] - 1)
        if self.pending is not None:
            horizon = min(horizon, self.pending.position)
        return min(horizon + self.min_sep_pos, last + self.window) + self.flank + 1

    def drain(self) -> List[Detection]:
        """Gate every crossing whose right flank is fed (all of them once
        finished), emit what they and the frontier resolve, and trim the
        history."""
        out: List[Detection] = []
        limit = math.inf if self.finished else self.end - 1 - self.flank
        taken = bisect.bisect_right(self.crossings, limit)
        if taken:
            for cand in self._gate(self.crossings[:taken]):
                out.extend(self._push_candidate(cand))
            del self.crossings[:taken]
        # every crossing still queued lies past limit, so its candidate would
        # land more than min_sep_pos past this pending one and emit it anyway:
        # waiting for it only delays the emission (once finished, none is left)
        if self.pending is not None and limit > self.pending.position + self.min_sep_pos:
            out.append(self.pending)
            self.pending = None
        self._trim()
        return out

    def finish(self) -> List[Detection]:
        self.finished = True
        return self.drain()

    # -- internals -----------------------------------------------------------
    def _trim(self) -> None:
        # a queued crossing lies past frontier - flank, so this keeps its
        # left flank, d[k-1] and the trailing MAD's history too
        cut = self.end - (2 * self.flank + 2) - self.trailing - self.base
        if cut > 0:
            self.base += cut
            kept = (self.d[cut:], self.v[cut:], self.rms[cut:])
            # a view would keep a large feed's arrays alive behind a short history
            if cut > 3 * kept[0].shape[0]:
                kept = tuple(a.copy() for a in kept)
            self.d, self.v, self.rms = kept

    def _gate(self, ks: List[int]) -> List[Detection]:
        """Candidates of the ready crossings ks (ascending), in position order.

        The left flank of crossing k is d[k - W/2 .. k-1] and the right one
        d[k .. k + W/2], clipped to the history at the stream start and at
        finish(). A clipped flank is gathered with its index clamped into it:
        a repeated value changes no max, min or NaN. The tests prune in one
        order under either scale: each crossing's threshold is taken first,
        the left flank prunes against it, the right flank prunes the
        survivors, and |v| for the dust floor is gathered last."""
        f = self.flank
        out: List[Detection] = []
        step = max(1, _SCREEN_ELEMENTS // (f + 1))
        for lo in range(0, len(ks), step):
            col = np.array(ks[lo : lo + step], dtype=np.int64) - self.base
            threshold = self._thresholds(col)
            # +1 where d falls through zero at k, -1 where it rises
            sign = np.where(self.d[col - 1] > 0, 1.0, -1.0)
            score = np.inf  # becomes the smaller flank excursion
            for offsets, side in ((self._flanks[:f], 1.0), (self._flanks[f:], -1.0)):
                flank = np.take(self.d, col[:, None] + offsets, mode="clip")
                score = np.minimum(score, (flank * (side * sign)[:, None]).max(axis=1))
                keep = score >= threshold  # a NaN excursion never reaches it
                col, sign, score, threshold = col[keep], sign[keep], score[keep], threshold[keep]
            # float dust floor (DUST): BOTH flanks must carry a macroscopic v
            v = np.abs(np.take(self.v, col[:, None] + self._flanks, mode="clip"))
            floor = DUST * self.wnorm_sqrtw * self.rms[col]
            keep = ~(np.minimum(v[:, :f].max(axis=1), v[:, f:].max(axis=1)) <= floor)
            out.extend(map(self._candidate, col[keep].tolist(), score[keep].tolist()))
        return out

    def _thresholds(self, col: np.ndarray) -> np.ndarray:
        """kappa times the scale of each crossing at history columns col. The
        trailing MAD is that of d over the trailing positions ending at the
        crossing's right flank end; under 16 of them it is inf."""
        if self.scale is not None:
            return np.full(col.size, self.cfg.kappa * self.scale)
        ends = np.minimum(col + self.flank, self.d.size - 1) + 1
        counts = np.minimum(ends, self.trailing)  # positions in each window
        scale = np.empty(col.size)
        group = max(1, _SCREEN_ELEMENTS // self.trailing)
        # an overflowing middle pair or inf - inf yields inf or NaN, as in
        # Python floats; kappa 0 times an inf scale is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, col.size, group):
                part = slice(lo, lo + group)
                scale[part] = _mads(self.d, ends[part], counts[part])
            scale[counts < _MIN_SCALE_HISTORY] = np.inf
            return self.cfg.kappa * scale

    def _candidate(self, k: int, score: float) -> Detection:
        """The candidate of the passing crossing at history column k: the
        position of the smaller |d| of the two, timed at its window midpoint."""
        k_star = self.base + (k - 1 if abs(self.d[k - 1]) <= abs(self.d[k]) else k)
        time = self.t0 + k_star * self.dt + self.t_mid
        return Detection(time=time, score=score, kind="zero_crossing", position=k_star)

    def _push_candidate(self, cand: Detection) -> List[Detection]:
        if self.pending is None:
            self.pending = cand
            return []
        if cand.position - self.pending.position <= self.min_sep_pos:
            if cand.score > self.pending.score:
                self.pending = cand
            return []
        out = [self.pending]
        self.pending = cand
        return out


def detect(trace: DecisionTrace, cfg: DetectConfig = DetectConfig()) -> List[Detection]:
    """Batch detection over a precomputed trace; the gate reads trace.d."""
    scale = cfg.scale if cfg.scale is not None else batch_mad_scale(trace.d)
    engine = _GateEngine(trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, scale)
    engine.feed(trace.v, trace.d, trace.rms, 0)
    return engine.finish()


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
    batch whole-trace MAD). A detection at position p is returned by the
    push() or push_chunk() call that completes position
    p + min_sep_pos + window//2 + 1, min_sep_pos being min_separation in
    samples (default: the window), or by finalize() if the stream ends
    first; fed one sample per push(), that is exactly
    min_sep_pos + window//2 + 1 positions past p.

    push() and push_chunk() only hold samples until a detection could be
    emitted (_GateEngine.due). Then one engine call evaluates every held
    position and one gate pass resolves every ready crossing, so the work of
    a stream is that of a few large calls, not one per sample. push_chunk()
    copies its chunk, so the caller may refill its array. Between calls the
    stream holds fewer than 2W + W//2 samples, and the gate's history O(W)
    positions, or O(max(8W, 512)) under the trailing MAD, however long the
    stream runs and however large a chunk was.
    """

    def __init__(
        self,
        dd: DiscreteDetector,
        cfg: DetectConfig = DetectConfig(),
        t0: float = 0.0,
    ):
        self.dd = dd
        self.cfg = cfg
        self.t0 = _start_time(t0)
        self._engine = _GateEngine(dd.window, dd.dt, dd.t_mid, dd.wnorm, cfg, self.t0, cfg.scale)
        # the samples from the first position not yet evaluated on, in order:
        # _tail, a copy of the last W-1 samples evaluated on (none at the
        # start), the chunks pushed since, then the single samples pushed
        # since; _held counts them all
        self._tail = np.empty(0)
        self._chunks: List[np.ndarray] = []
        self._singles: List[float] = []
        self._held = 0
        self._due = self._engine.due() + dd.window  # _held to evaluate at
        self._bound = _sample_bound(dd)
        self.detections: List[Detection] = []

    @property
    def samples_seen(self) -> int:
        return self._engine.end + self._held

    def push(self, sample: float) -> List[Detection]:
        if self._engine.finished:
            raise RuntimeError("stream already finalized")
        x = float(sample)
        if not abs(x) <= self._bound:  # NaN fails it as inf does
            raise _out_of_bound(self._bound, self.dd.window)
        self._singles.append(x)
        self._held += 1
        return self._advance()

    def push_chunk(self, chunk: Sequence[float]) -> List[Detection]:
        if self._engine.finished:
            raise RuntimeError("stream already finalized")
        chunk = np.array(chunk, dtype=np.float64)  # a copy, never a view
        if chunk.ndim != 1:
            raise ValueError("chunk must be one-dimensional")
        if chunk.size == 0:
            return []
        if not np.abs(chunk).max() <= self._bound:
            raise _out_of_bound(self._bound, self.dd.window)
        if self._singles:  # they came before this chunk
            self._chunks.append(np.array(self._singles))
            self._singles = []
        self._chunks.append(chunk)
        self._held += chunk.size
        return self._advance()

    def _advance(self) -> List[Detection]:
        """Evaluate and drain once _due samples are held."""
        if self._held < self._due:
            return []
        self._evaluate()
        out = self._engine.drain()
        self._due = self._engine.due() + self.dd.window - self._engine.end
        self.detections.extend(out)
        return out

    def _evaluate(self) -> None:
        """Feed every complete position not yet evaluated to the gate, and
        keep a copy of the last W-1 samples, the next window's."""
        if self._held < self.dd.window:
            return
        work = np.concatenate((self._tail, *self._chunks, self._singles))
        _, v, d, _, rms = _statistics(self.dd, work)
        self._engine.feed(v, d, rms, self._engine.end)
        self._tail = work[1 - self.dd.window :].copy()
        self._chunks, self._singles = [], []
        self._held = self._tail.shape[0]

    def finalize(self) -> List[Detection]:
        if self._engine.finished:
            return []
        self._evaluate()
        out = self._engine.finish()
        self.detections.extend(out)
        return out
