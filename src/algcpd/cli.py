"""Command line interface.

Subcommands:
  derive    print a detector's operator form, kernels, optional weight CSV
  simulate  render a built-in or configured signal, optionally noised
  detect    run batch detection over a signal CSV
  bench     run seeded Monte Carlo campaigns and write reports
  plot      render signal / decision-trace SVG plots from CSVs

Every CSV table, its columns and the reader's checks are listed in
docs/config.md, section "CSV tables".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import bench as bench_mod
from ._csv import read_table, write_table
from .builder import METHODS, ModelSpec, build_detector
from .kernels import RULES, discretize, kernelize
from .noise import NOISE_KINDS, apply_noise
from .runtime import DetectConfig, Detection, detect_samples
from .signals import SUITES, Carrier, Segment, SignalSpec, builtin_suite, render
from .svgplot import HLine, Panel, Series, VLine, render_svg


def _f(x) -> str:
    return repr(float(x))


# ---- CSV I/O (table formats: docs/config.md, "CSV tables") ------------------

_SIGNAL = ("time", "value")
_TRUTH = ("time",)
_DETECTIONS = ("time", "score", "kind")
_TRACE = ("time", "d", "v", "sigma", "rms")


def _read_xy(path: str, header: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The first two columns of a table, as float64 arrays; no rows is an error."""
    rows = read_table(path, header, lambda row: (float(row[0]), float(row[1])))
    if not rows:
        raise ValueError(f"{path}: no samples")
    return tuple(np.array([r[i] for r in rows], dtype=np.float64) for i in (0, 1))


def write_signal_csv(path: str, times, values) -> None:
    write_table(path, _SIGNAL, ((_f(t), _f(v)) for t, v in zip(times, values)))


def read_signal_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    return _read_xy(path, _SIGNAL)


def write_truth_csv(path: str, times: Sequence[float]) -> None:
    write_table(path, _TRUTH, ((_f(t),) for t in times))


def read_truth_csv(path: str) -> List[float]:
    return read_table(path, _TRUTH, lambda row: float(row[0]))


def write_detections_csv(fh, detections: Sequence[Detection]) -> None:
    write_table(fh, _DETECTIONS, ((_f(d.time), _f(d.score), d.kind) for d in detections))


def read_detections_csv(path: str) -> List[Tuple[float, float, str]]:
    return read_table(path, _DETECTIONS, lambda row: (float(row[0]), float(row[1]), row[2]))


def write_trace_csv(path: str, trace) -> None:
    cols = (trace.times(), trace.d, trace.v, trace.sigma, trace.rms)
    write_table(path, _TRACE, ([_f(x) for x in r] for r in zip(*cols)))


def read_trace_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Time and decision columns only (what plotting needs)."""
    return _read_xy(path, _TRACE)


def write_weights_csv(path: str, dd) -> None:
    header = ["index"] + [f"w{nu}" for nu in range(dd.weights.shape[0])]
    write_table(path, header, ([i] + [_f(x) for x in dd.weights[:, i]] for i in range(dd.window)))


# ---- config files -----------------------------------------------------------

def _object(obj, keys: Sequence[str], what: str) -> dict:
    """obj if it is a JSON object with no key outside keys; ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}; keys: {', '.join(keys)}")
    return obj


_SIGNAL_KEYS = ("duration", "dt", "segments", "carrier")
_SEGMENT_KEYS = ("start", "coeffs")
_CARRIER_KEYS = ("amplitude", "frequency", "phase")


def load_signal_config(path: str) -> SignalSpec:
    """JSON schema: duration, dt, segments [{start, coeffs}], optional carrier
    {amplitude, frequency, phase}. An unknown key at any level, or a bool
    where a number belongs, is an error."""
    with open(path, "r") as fh:
        obj = json.load(fh)
    num = bench_mod._COERCE["float"]
    try:
        obj = _object(obj, _SIGNAL_KEYS, "signal config")
        segments = []
        for s in obj["segments"]:
            s = _object(s, _SEGMENT_KEYS, "segment")
            if not isinstance(s["coeffs"], list):
                raise ValueError(f"coeffs must be a list, got {s['coeffs']!r}")
            segments.append(Segment(num(s["start"]), tuple(num(c) for c in s["coeffs"])))
        carrier = None
        if obj.get("carrier") is not None:
            c = _object(obj["carrier"], _CARRIER_KEYS, "carrier")
            carrier = Carrier(
                amplitude=num(c["amplitude"]),
                frequency=num(c["frequency"]),
                phase=num(c.get("phase", 0.0)),
            )
        return SignalSpec(
            segments=tuple(segments),
            duration=num(obj["duration"]),
            dt=num(obj["dt"]),
            carrier=carrier,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad signal config: {e}") from None


_CAMPAIGN_KEYS = ("suite", "noise", "snr_db", "trials", "setup")


def load_bench_config(path: str, base_seed: int, trials: Optional[int]) -> List[bench_mod.Campaign]:
    """JSON schema: one campaign object or {"campaigns": [...]}. Campaign keys:
    suite, noise, snr_db, trials, setup {any DetectorSetup field}; setup keys
    fall back to the suite's reference setup. An unknown suite, campaign key
    or setup key, a bool where a number belongs, or a value Campaign or
    DetectorSetup rejects, in any campaign is an error raised before the
    first campaign runs."""
    with open(path, "r") as fh:
        obj = json.load(fh)
    items = obj["campaigns"] if isinstance(obj, dict) and "campaigns" in obj else obj
    if isinstance(items, dict):
        items = [items]
    out = []
    where = ""
    try:
        for i, it in enumerate(items):
            where = f" (campaign {i})"
            it = _object(it, _CAMPAIGN_KEYS, "campaign")
            suite = it["suite"]
            if suite not in bench_mod.REFERENCE_SETUPS:
                raise ValueError(
                    f"unknown suite {suite!r}; "
                    f"available: {', '.join(sorted(bench_mod.REFERENCE_SETUPS))}"
                )
            given = _object(it.get("setup", {}), tuple(bench_mod.SETUP_FIELDS), "setup")
            overrides = {k: bench_mod.SETUP_FIELDS[k](v) for k, v in given.items()}
            setup = dataclasses.replace(bench_mod.REFERENCE_SETUPS[suite], **overrides)
            out.append(bench_mod.Campaign(
                suite=suite,
                noise_kind=it.get("noise", "normal"),
                snr_db=bench_mod._COERCE["float"](it.get("snr_db", 25.0)),
                setup=setup,
                trials=trials if trials is not None else it.get("trials", 100),
                base_seed=base_seed,
            ))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad bench config{where}: {e}") from None
    return out


# ---- subcommands ------------------------------------------------------------

def _parse_model(text: str) -> ModelSpec:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"--model wants 'n1[,n2]', got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--model wants integers, got {text!r}")
    nums += [0] * (2 - len(nums))
    return ModelSpec.monomial(*nums)


def cmd_derive(args) -> int:
    model = ModelSpec.monomial(args.n1, args.n2)
    det = build_detector(model, method=args.method)
    print(f"model: {det.model.label()}")
    print(f"method: {det.method}")
    print("operator:")
    print(det.omega.text())
    print(f"integral depth: {det.depth}")
    print(f"delay degree: {det.degree}")
    print(f"max derivative: {det.max_deriv}")
    print("kernels (T = window span, u = offset into window):")
    for nu, k in enumerate(kernelize(det)):
        print(f"K{nu}: {k.text()}")
    if args.emit_weights:
        dd = discretize(det, window=args.window, dt=args.dt, rule=args.rule)
        write_weights_csv(args.emit_weights, dd)
        print(f"weights: {args.emit_weights} (window={args.window} dt={_f(args.dt)} rule={args.rule})")
    return 0


def cmd_simulate(args) -> int:
    if args.suite:
        spec = builtin_suite(args.suite)
    else:
        spec = load_signal_config(args.config)
    times, clean = render(spec)
    values = clean
    if args.noise != "none":
        if args.seed is None:
            raise ValueError("--seed is required when --noise is not 'none'")
        values = apply_noise(clean, args.noise, args.snr, args.seed)
    write_signal_csv(args.out, times, values)
    if args.truth_out:
        write_truth_csv(args.truth_out, spec.change_times())
    return 0


def _infer_dt(times: np.ndarray, override: Optional[float]) -> float:
    if not np.isfinite(times).all():
        raise ValueError("time column must be finite")
    if override is not None:
        return override
    if times.size < 2:
        raise ValueError("need at least 2 samples to infer dt; pass --dt")
    dt = float(times[1] - times[0])
    if dt <= 0:
        raise ValueError("time column must be strictly increasing")
    gaps = np.diff(times)
    if not np.all(np.abs(gaps - dt) <= 1e-6 * dt):
        raise ValueError("time column is not a uniform grid; pass --dt to override")
    return dt


def cmd_detect(args) -> int:
    times, values = read_signal_csv(args.infile)
    dt = _infer_dt(times, args.dt)
    model = _parse_model(args.model)
    det = build_detector(model, method=args.method)
    dd = discretize(det, window=args.window, dt=dt, rule=args.rule)
    cfg = DetectConfig(kappa=args.kappa, min_separation=args.min_separation, scale=args.scale)
    trace, detections = detect_samples(dd, values, cfg, t0=float(times[0]))
    write_detections_csv(args.out or sys.stdout, detections)
    if args.trace_out:
        write_trace_csv(args.trace_out, trace)
    return 0


def cmd_bench(args) -> int:
    if args.config:
        campaigns = load_bench_config(args.config, args.seed, args.trials)
    else:
        trials = args.trials if args.trials is not None else 100
        campaigns = [
            bench_mod.reference_campaign(s, k, db, trials, args.seed)
            for s, k, db in bench_mod.REFERENCE_GRID
        ]

    results, failed = [], None
    for ci, c in enumerate(campaigns):
        on_trial = None
        if args.emit_trials:
            trial_dir = os.path.join(args.out, "trials")
            os.makedirs(trial_dir, exist_ok=True)

            def on_trial(i, dets, _ci=ci, _dir=trial_dir):
                write_detections_csv(os.path.join(_dir, f"c{_ci:02d}_t{i:03d}.csv"), dets)

        try:
            results.append(bench_mod.run_campaign(c, on_trial=on_trial))
        except ValueError as e:
            source = args.config or "reference grid"
            failed = f"{source}: campaign failed (campaign {ci}): {e}"
            break

    # the campaigns that finished before one failed are still written under --out
    text = bench_mod.format_report(results)
    if failed is None:
        sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w") as fh:
            fh.write(text)
        bench_mod.write_report_csv(results, os.path.join(args.out, "report.csv"))
        for ci, r in enumerate(results):
            c = r.campaign
            name = f"hist_c{ci:02d}_{c.suite}_{c.noise_kind}_{c.snr_db:g}dB.csv"
            bench_mod.write_histogram_csv(r, os.path.join(args.out, name))
    if failed is not None:
        raise ValueError(failed)
    return 0


def cmd_plot(args) -> int:
    times, values = read_signal_csv(args.signal)
    sig_panel = Panel(series=[Series(times, values)], ylabel="signal")
    if args.truth:
        sig_panel.vlines.extend(VLine(t, "vtruth") for t in read_truth_csv(args.truth))
    marks = [t for t, _, _ in read_detections_csv(args.detections)] if args.detections else []
    sig_panel.vlines.extend(VLine(t, "vmark") for t in marks)
    panels = [sig_panel]
    if args.trace:
        tt, d = read_trace_csv(args.trace)
        trace_panel = Panel(series=[Series(tt, d, "s1")], ylabel="decision")
        trace_panel.hlines.append(HLine(0.0))
        trace_panel.vlines.extend(VLine(t, "vmark") for t in marks)
        panels.append(trace_panel)
    svg = render_svg(panels, title=args.title)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


# ---- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="algcpd",
        description="Algebraic change-point detection: derive detectors, "
        "simulate signals, detect changes, benchmark, plot.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # allow_abbrev=False on each subcommand: --mode, say, is an error, not --model
    d = sub.add_parser("derive", help="print operator and kernel forms of a detector",
                       allow_abbrev=False)
    d.add_argument("--n1", type=int, default=0, help="smooth part degree bound")
    d.add_argument("--n2", type=int, default=0, help="jump part degree")
    d.add_argument("--method", choices=METHODS, default=None)
    d.add_argument("--window", type=int, default=64, help="samples per window for --emit-weights")
    d.add_argument("--dt", type=float, default=0.01, help="sample spacing for --emit-weights")
    d.add_argument("--rule", choices=RULES, default="trapezoid")
    d.add_argument("--emit-weights", metavar="PATH", help="write discretized weights CSV")
    d.set_defaults(func=cmd_derive)

    s = sub.add_parser("simulate", help="render a signal to CSV, optionally noised",
                       allow_abbrev=False)
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", choices=sorted(SUITES), help="built-in suite name")
    src.add_argument("--config", metavar="PATH", help="JSON signal config (see docs/config.md)")
    s.add_argument("--noise", default="none", choices=NOISE_KINDS)
    s.add_argument("--snr", type=float, default=25.0, help="SNR in dB (ignored for --noise none)")
    s.add_argument("--seed", type=int, default=None, help="required when noise is not 'none'")
    s.add_argument("--out", required=True, metavar="PATH", help="signal CSV (time,value)")
    s.add_argument("--truth-out", metavar="PATH", help="truth CSV (time)")
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("detect", help="batch change detection over a signal CSV", allow_abbrev=False)
    t.add_argument("--in", dest="infile", required=True, metavar="PATH", help="signal CSV (time,value)")
    t.add_argument("--model", default="0,0", help="'n1[,n2]' (default 0,0)")
    t.add_argument("--method", choices=METHODS, default=None)
    t.add_argument("--window", type=int, default=64, help="samples per sliding window")
    t.add_argument("--dt", type=float, default=None, help="override inferred sample spacing")
    t.add_argument("--rule", choices=RULES, default="trapezoid")
    t.add_argument("--kappa", type=float, default=3.0, help="gate threshold multiplier")
    t.add_argument("--scale", type=float, default=None,
                   help="fixed gate scale (default: batch MAD of the decision statistic)")
    t.add_argument("--min-separation", type=float, default=None,
                   help="minimum seconds between detections (default: window span)")
    t.add_argument("--out", metavar="PATH",
                   help="detections CSV, kind always zero_crossing (default: stdout)")
    t.add_argument("--trace-out", metavar="PATH", help="decision trace CSV")
    t.set_defaults(func=cmd_detect)

    b = sub.add_parser("bench", help="run Monte Carlo campaigns and report histograms",
                       allow_abbrev=False)
    b.add_argument("--config", metavar="PATH", help="JSON campaign config (see docs/config.md)")
    b.add_argument("--trials", type=int, default=None, help="override trials per campaign")
    b.add_argument("--seed", type=int, required=True, help="base seed; trial i uses seed+i")
    b.add_argument("--out", metavar="DIR", help="write report.txt, report.csv, histogram CSVs")
    b.add_argument("--emit-trials", action="store_true",
                   help="also write per-trial detection CSVs under DIR/trials")
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("plot", help="render CSVs to a static SVG", allow_abbrev=False)
    g.add_argument("--signal", required=True, metavar="PATH", help="signal CSV (time,value)")
    g.add_argument("--detections", metavar="PATH", help="detections CSV to mark")
    g.add_argument("--truth", metavar="PATH", help="truth CSV to mark")
    g.add_argument("--trace", metavar="PATH", help="decision trace CSV (adds a panel)")
    g.add_argument("--title", default="", help="plot title")
    g.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    g.set_defaults(func=cmd_plot)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.emit_trials and not args.out:
        parser.error("bench --emit-trials needs --out DIR")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
