"""Seeded Monte Carlo campaigns over the built-in suites.

A campaign fixes a suite, a noise class, an SNR, and a detector setup, then
runs R independent trials. Each trial re-noises the clean signal with a
per-trial seed, runs batch detection, and records the number of segments
reported (detections + 1). Results aggregate into a segment-count histogram
plus exact / within-one tallies, printable as a fixed-width report table and
round-trippable through CSV.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .builder import ModelSpec, build_detector
from .kernels import DiscreteDetector, discretize
from .noise import apply_noise
from .runtime import DetectConfig, detect_samples
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
    order: int = 0
    method: str = "linear"
    window: int = 64
    rule: str = "trapezoid"
    kappa: float = 3.0
    scale: Optional[float] = None
    mode: str = "zero_crossing"

    def model(self) -> ModelSpec:
        return ModelSpec.monomial(self.n1, self.n2, self.order)

    def config(self) -> DetectConfig:
        return DetectConfig(kappa=self.kappa, scale=self.scale, mode=self.mode)

    def label(self) -> str:
        kind = "mad" if self.scale is None else "fix"
        return f"n1={self.n1} n2={self.n2} W={self.window} k={self.kappa:g} {kind}"


@dataclass(frozen=True)
class Campaign:
    suite: str
    noise_kind: str
    snr_db: float
    setup: DetectorSetup
    trials: int = 100
    base_seed: int = 24245  # trial i uses base_seed + i


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
    n1: int, n2: int, order: int, method: str, window: int, rule: str, dt: float
) -> DiscreteDetector:
    det = build_detector(ModelSpec.monomial(n1, n2, order), method=method)
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
    noisy = apply_noise(clean, noise_kind, snr_db, seed)
    _, detections = detect_samples(dd, noisy, cfg)
    return detections


def run_campaign(c: Campaign, on_trial=None) -> CampaignResult:
    spec = builtin_suite(c.suite)
    _, clean = render(spec)
    truth = spec.change_times()
    true_segments = len(truth) + 1
    dd = _cached_detector(
        c.setup.n1, c.setup.n2, c.setup.order, c.setup.method,
        c.setup.window, c.setup.rule, spec.dt,
    )
    cfg = c.setup.config()

    result = CampaignResult(campaign=c, true_segments=true_segments)
    err_sum = 0.0
    err_n = 0
    for i in range(c.trials):
        detections = run_trial(dd, clean, c.noise_kind, c.snr_db, c.base_seed + i, cfg)
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
    own = isinstance(f, str)
    fh = open(f, "w", newline="") if own else f
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["segments", "count"])
        for segs in sorted(result.histogram):
            w.writerow([segs, result.histogram[segs]])
    finally:
        if own:
            fh.close()


_CSV_FIELDS = [
    "suite", "noise", "snr_db", "trials", "base_seed",
    "n1", "n2", "order", "method", "window", "rule", "kappa", "scale", "mode",
    "true_segments", "exact", "within_one", "mean_abs_err", "histogram",
]


def _hist_to_text(h: Dict[int, int]) -> str:
    return "|".join(f"{k}:{h[k]}" for k in sorted(h))


def _hist_from_text(s: str) -> Dict[int, int]:
    out: Dict[int, int] = {}
    if s:
        for item in s.split("|"):
            k, v = item.split(":")
            out[int(k)] = int(v)
    return out


def write_report_csv(results: Sequence[CampaignResult], f: Union[str, io.TextIOBase]) -> None:
    own = isinstance(f, str)
    fh = open(f, "w", newline="") if own else f
    try:
        w = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, lineterminator="\n")
        w.writeheader()
        for r in results:
            c = r.campaign
            s = c.setup
            w.writerow({
                "suite": c.suite,
                "noise": c.noise_kind,
                "snr_db": repr(c.snr_db),
                "trials": c.trials,
                "base_seed": c.base_seed,
                "n1": s.n1, "n2": s.n2, "order": s.order, "method": s.method,
                "window": s.window, "rule": s.rule, "kappa": repr(s.kappa),
                "scale": "" if s.scale is None else repr(s.scale),
                "mode": s.mode,
                "true_segments": r.true_segments,
                "exact": r.exact,
                "within_one": r.within_one,
                "mean_abs_err": repr(r.mean_abs_err),
                "histogram": _hist_to_text(r.histogram),
            })
    finally:
        if own:
            fh.close()


def read_report_csv(f: Union[str, io.TextIOBase]) -> List[CampaignResult]:
    own = isinstance(f, str)
    fh = open(f, "r", newline="") if own else f
    try:
        out = []
        for row in csv.DictReader(fh):
            setup = DetectorSetup(
                n1=int(row["n1"]), n2=int(row["n2"]), order=int(row["order"]),
                method=row["method"], window=int(row["window"]), rule=row["rule"],
                kappa=float(row["kappa"]),
                scale=None if row["scale"] == "" else float(row["scale"]),
                mode=row["mode"],
            )
            c = Campaign(
                suite=row["suite"], noise_kind=row["noise"],
                snr_db=float(row["snr_db"]), setup=setup,
                trials=int(row["trials"]), base_seed=int(row["base_seed"]),
            )
            out.append(CampaignResult(
                campaign=c,
                true_segments=int(row["true_segments"]),
                histogram=_hist_from_text(row["histogram"]),
                exact=int(row["exact"]),
                within_one=int(row["within_one"]),
                mean_abs_err=float(row["mean_abs_err"]),
            ))
        return out
    finally:
        if own:
            fh.close()


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

