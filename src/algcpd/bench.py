"""Seeded Monte Carlo campaigns over the built-in suites.

A campaign fixes a suite, a noise class, an SNR, and a detector setup, then
runs R independent trials. Each trial re-noises the clean signal with a
per-trial seed, runs batch detection, and records the number of segments
reported (detections + 1). The trials are evaluated in groups: the noisy
signals of a group are stacked into one (trials, n) block, the window engine
runs once over the block, and each row is gated on its own. A group holds
BLOCK // positions trials (at least one), so the engine's block of positions
stays the size it is for one long signal; the results are those of one trial
at a time, bit for bit. Results aggregate into a segment-count histogram
plus exact / within-one tallies, printable as a fixed-width report table and
round-trippable through CSV.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _engine, runtime
from ._csv import read_table, write_table
from .builder import METHODS, ModelSpec, build_detector
from .kernels import DiscreteDetector, _quadrature_factors, discretize
from .noise import NOISE_KINDS, apply_noise, noise_power_ratio
from .runtime import DetectConfig
from .signals import builtin_suite, render

__all__ = [
    "DetectorSetup",
    "Campaign",
    "CampaignResult",
    "run_trial",
    "run_campaign",
    "format_report",
    "write_report_csv",
    "read_report_csv",
    "write_histogram_csv",
    "REFERENCE_SETUPS",
    "REFERENCE_GRID",
    "reference_campaign",
]

# segment-count columns shown in reports: 1..HIST_MAX, then an overflow bin
HIST_MAX = 8


@dataclass(frozen=True)
class DetectorSetup:
    """Detector + gate parameters for a campaign.

    scale=None means the per-trial gate scale is the batch MAD of the decision
    statistic; a float pins it (e.g. window**-0.5, the quiet-floor value for
    uncorrelated noise).
    """

    n1: int
    n2: int = 0
    method: str = "linear"
    window: int = 64
    rule: str = "trapezoid"
    kappa: float = 3.0
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick from {METHODS}")
        for name in ("n1", "n2", "window"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        self.model()  # ModelSpec checks n1 and n2
        _quadrature_factors(self.window, self.rule)
        self.config()  # DetectConfig checks kappa and scale

    def model(self) -> ModelSpec:
        return ModelSpec.monomial(self.n1, self.n2)

    def config(self) -> DetectConfig:
        return DetectConfig(kappa=self.kappa, scale=self.scale)

    def label(self) -> str:
        kind = "mad" if self.scale is None else "fix"
        return f"n1={self.n1} n2={self.n2} W={self.window} k={self.kappa:g} {kind}"


def _int(v) -> int:
    """An int from JSON (not a bool) or from an integer report.csv cell."""
    if not (isinstance(v, str) or _is_int(v)):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    """A float from JSON (not a bool) or from a report.csv cell."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


# The one setup schema: each DetectorSetup field, in field order, with the
# coercion (by declared type) that reads it from JSON or a report.csv cell.
_COERCE = {"int": _int, "float": _float, "str": str,
           "Optional[float]": lambda v: None if v is None or v == "" else _float(v)}
SETUP_FIELDS: Dict[str, Callable] = {f.name: _COERCE[f.type] for f in fields(DetectorSetup)}


@dataclass(frozen=True)
class Campaign:
    suite: str
    noise_kind: str
    snr_db: float
    setup: DetectorSetup
    trials: int = 100
    base_seed: int = 24245  # trial i uses base_seed + i

    def __post_init__(self) -> None:
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}; pick from {NOISE_KINDS}")
        noise_power_ratio(self.snr_db)
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer of at least 1, got {self.trials!r}")
        if not _is_int(self.base_seed):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class CampaignResult:
    campaign: Campaign
    true_segments: int
    histogram: Dict[int, int] = field(default_factory=dict)
    exact: int = 0
    within_one: int = 0
    # mean |estimated - true| over trials with the exact count, nan if none
    mean_abs_err: float = math.nan

    def mode_segments(self) -> int:
        """Most frequent segment count (ties break toward the smaller count)."""
        if not self.histogram:
            return 0
        best = max(self.histogram.values())
        return min(k for k, v in self.histogram.items() if v == best)

    def exact_fraction(self) -> float:
        return self.exact / self.campaign.trials

    def within_one_fraction(self) -> float:
        return self.within_one / self.campaign.trials

    def binned(self) -> List[int]:
        """Histogram as HIST_MAX + 1 columns: counts at 1..HIST_MAX, then >= HIST_MAX+1."""
        cols = [0] * (HIST_MAX + 1)
        for segs, n in self.histogram.items():
            if 1 <= segs <= HIST_MAX:
                cols[segs - 1] += n
            else:
                cols[HIST_MAX] += n
        return cols


@lru_cache(maxsize=64)
def _cached_detector(
    n1: int, n2: int, method: str, window: int, rule: str, dt: float
) -> DiscreteDetector:
    det = build_detector(ModelSpec.monomial(n1, n2), method=method)
    return discretize(det, window=window, dt=dt, rule=rule)


def run_trial(
    dd: DiscreteDetector,
    clean: np.ndarray,
    noise_kind: str,
    snr_db: float,
    seed: int,
    cfg: DetectConfig,
):
    """One noised detection pass; returns the detection list."""
    return _run_trials(dd, clean, noise_kind, snr_db, [seed], cfg)[0]


def _run_trials(dd, clean, noise_kind, snr_db, seeds, cfg) -> List[list]:
    """One noised detection pass per seed, all through one engine call;
    returns the detection lists in seed order."""
    noisy = np.stack([apply_noise(clean, noise_kind, snr_db, seed) for seed in seeds])
    return [runtime.detect(trace, cfg) for trace in runtime._eval_rows(dd, noisy)]


def run_campaign(c: Campaign, on_trial=None) -> CampaignResult:
    spec = builtin_suite(c.suite)
    _, clean = render(spec)
    truth = spec.change_times()
    true_segments = len(truth) + 1
    dd = _cached_detector(
        c.setup.n1, c.setup.n2, c.setup.method, c.setup.window, c.setup.rule, spec.dt
    )
    cfg = c.setup.config()
    group = max(1, _engine.BLOCK // max(1, clean.shape[0] - dd.window + 1))

    result = CampaignResult(campaign=c, true_segments=true_segments)
    err_sum = 0.0
    err_n = 0
    for lo in range(0, c.trials, group):
        seeds = range(c.base_seed + lo, c.base_seed + min(c.trials, lo + group))
        for i, detections in enumerate(_run_trials(dd, clean, c.noise_kind, c.snr_db, seeds, cfg), lo):
            if on_trial is not None:
                on_trial(i, detections)
            est = [d.time for d in detections]
            segs = len(est) + 1
            result.histogram[segs] = result.histogram.get(segs, 0) + 1
            if segs == true_segments:
                result.exact += 1
                for t_est, t_true in zip(est, truth):
                    err_sum += abs(t_est - t_true)
                    err_n += 1
            if abs(segs - true_segments) <= 1:
                result.within_one += 1
    if err_n:
        result.mean_abs_err = err_sum / err_n
    return result


_HEADER = (
    f"{'suite':<7}{'noise':<14}{'snr':>6}  {'setup':<28}{'R':>5}  "
    + "".join(f"{b:>6}" for b in list(range(1, HIST_MAX + 1)) + [f"{HIST_MAX + 1}+"])
    + f"  {'exact%':>7}{'win1%':>7}{'terr':>9}"
)


def format_report(results: Sequence[CampaignResult]) -> str:
    """Fixed-width segment-count histogram table, one row per campaign.

    The bin holding each row's true segment count is starred.
    """
    lines = [_HEADER, "-" * len(_HEADER)]
    for r in results:
        c = r.campaign
        true_col = r.true_segments - 1 if 1 <= r.true_segments <= HIST_MAX else HIST_MAX
        bins = "".join(
            f"{n}{'*' if i == true_col else ' '}".rjust(6)
            for i, n in enumerate(r.binned())
        )
        terr = f"{r.mean_abs_err:>9.4f}" if math.isfinite(r.mean_abs_err) else f"{'-':>9}"
        lines.append(
            f"{c.suite:<7}{c.noise_kind:<14}{c.snr_db:>6.1f}  {c.setup.label():<28}"
            f"{c.trials:>5}  {bins}"
            f"  {100.0 * r.exact_fraction():>7.1f}{100.0 * r.within_one_fraction():>7.1f}{terr}"
        )
    return "\n".join(lines) + "\n"


def write_histogram_csv(result: CampaignResult, f: Union[str, io.TextIOBase]) -> None:
    """Per-campaign histogram in the documented two-column form (segments,count)."""
    write_table(f, ("segments", "count"), sorted(result.histogram.items()))


def _hist_to_text(h: Dict[int, int]) -> str:
    return "|".join(f"{k}:{h[k]}" for k in sorted(h))


def _hist_from_text(s: str) -> Dict[int, int]:
    out: Dict[int, int] = {}
    if s:
        for item in s.split("|"):
            k, v = item.split(":")
            out[int(k)] = int(v)
    return out


# report.csv columns, each with the coercion that reads its cell back
_REPORT = {
    "suite": str, "noise": str, "snr_db": float, "trials": int, "base_seed": int,
    **SETUP_FIELDS,
    "true_segments": int, "exact": int, "within_one": int, "mean_abs_err": float,
    "histogram": _hist_from_text,
}


def _report_row(r: CampaignResult) -> List:
    c = r.campaign
    # floats by repr so they round-trip; a scale of None is the empty cell
    return ["" if v is None else repr(v) if isinstance(v, float) else v for v in (
        c.suite, c.noise_kind, c.snr_db, c.trials, c.base_seed,
        *(getattr(c.setup, k) for k in SETUP_FIELDS),
        r.true_segments, r.exact, r.within_one, r.mean_abs_err, _hist_to_text(r.histogram),
    )]


def _result_from_row(row: List[str]) -> CampaignResult:
    v = {k: coerce(cell) for (k, coerce), cell in zip(_REPORT.items(), row)}
    setup = DetectorSetup(**{k: v.pop(k) for k in SETUP_FIELDS})
    c = Campaign(v.pop("suite"), v.pop("noise"), v.pop("snr_db"), setup,
                 v.pop("trials"), v.pop("base_seed"))
    return CampaignResult(c, **v)


def write_report_csv(results: Sequence[CampaignResult], f: Union[str, io.TextIOBase]) -> None:
    write_table(f, tuple(_REPORT), (_report_row(r) for r in results))


def read_report_csv(f: Union[str, io.TextIOBase]) -> List[CampaignResult]:
    return read_table(f, tuple(_REPORT), _result_from_row)


# Per-suite detector setups frozen after calibration. pc5 and poly6 use the
# analytic quiet-floor scale W**-0.5 (their long segments would contaminate a
# whole-trace MAD); sine3 is short enough that the MAD path is both safe and
# the better default under correlated noise.
REFERENCE_SETUPS: Dict[str, DetectorSetup] = {
    "pc5": DetectorSetup(n1=0, window=384, kappa=2.5, scale=384 ** -0.5),
    "poly6": DetectorSetup(n1=2, window=384, kappa=2.2, scale=384 ** -0.5),
    "sine3": DetectorSetup(n1=0, window=96, kappa=3.0, scale=None),
}

# The default bench grid: (suite, noise kind, SNR dB).
REFERENCE_GRID: Tuple[Tuple[str, str, float], ...] = (
    ("pc5", "normal", 0.0),
    ("pc5", "normal", -6.0),
    ("poly6", "normal", 25.0),
    ("poly6", "uniform", 25.0),
    ("poly6", "perlin", 20.0),
    ("poly6", "mult_uniform", 20.0),
    ("sine3", "normal", 25.0),
    ("sine3", "normal", 20.0),
    ("sine3", "perlin", 10.0),
)


def reference_campaign(
    suite: str,
    noise_kind: str = "normal",
    snr_db: float = 25.0,
    trials: int = 100,
    base_seed: int = 24245,
) -> Campaign:
    if suite not in REFERENCE_SETUPS:
        raise ValueError(f"no reference setup for suite {suite!r}")
    return Campaign(
        suite=suite, noise_kind=noise_kind, snr_db=snr_db,
        setup=REFERENCE_SETUPS[suite], trials=trials, base_seed=base_seed,
    )

