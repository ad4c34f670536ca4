"""Command line interface.

Subcommands:
  derive    print a detector's operator form, kernels, optional weight CSV
  simulate  render a built-in or configured signal, optionally noised
  detect    run batch detection over a signal CSV
  bench     run seeded Monte Carlo campaigns and write reports
  plot      render signal / decision-trace SVG plots from CSVs

CSV columns: signals (time,value), truth (time), detections
(time,score,kind), weights (index,w0,w1,...), decision traces
(time,d,v,sigma,rms), campaign histograms (segments,count). All floats are
written with repr so output is byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import bench as bench_mod
from .builder import ModelSpec, build_detector
from .kernels import discretize, kernelize
from .noise import apply_noise
from .runtime import DetectConfig, Detection, detect_samples
from .signals import SUITES, Carrier, Segment, SignalSpec, builtin_suite, render
from .svgplot import HLine, Panel, Series, VLine, render_svg


def _f(x) -> str:
    return repr(float(x))


# ---- CSV I/O ----------------------------------------------------------------

def write_signal_csv(path: str, times, values) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "value"])
        for t, v in zip(times, values):
            w.writerow([_f(t), _f(v)])


def read_signal_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    times: List[float] = []
    values: List[float] = []
    with open(path, "r", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["time", "value"]:
            raise ValueError(f"{path}: expected header 'time,value'")
        for i, row in enumerate(r):
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}: bad row {i + 2}: {row!r}")
    if not times:
        raise ValueError(f"{path}: no samples")
    return np.asarray(times, dtype=np.float64), np.asarray(values, dtype=np.float64)


def write_truth_csv(path: str, times: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time"])
        for t in times:
            w.writerow([_f(t)])


def read_truth_csv(path: str) -> List[float]:
    out: List[float] = []
    with open(path, "r", newline="") as fh:
        r = csv.reader(fh)
        next(r, None)  # header
        for row in r:
            if row:
                out.append(float(row[0]))
    return out


def write_detections_csv(fh, detections: Sequence[Detection]) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["time", "score", "kind"])
    for d in detections:
        w.writerow([_f(d.time), _f(d.score), d.kind])


def read_detections_csv(path: str) -> List[Tuple[float, float, str]]:
    out = []
    with open(path, "r", newline="") as fh:
        r = csv.reader(fh)
        next(r, None)
        for row in r:
            if row:
                out.append((float(row[0]), float(row[1]), row[2]))
    return out


def write_trace_csv(path: str, trace) -> None:
    times = trace.times()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "d", "v", "sigma", "rms"])
        for k in range(trace.positions):
            w.writerow([
                _f(times[k]), _f(trace.d[k]), _f(trace.v[k]),
                _f(trace.sigma[k]), _f(trace.rms[k]),
            ])


def read_trace_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Time and decision columns only (what plotting needs)."""
    times: List[float] = []
    d: List[float] = []
    with open(path, "r", newline="") as fh:
        r = csv.reader(fh)
        next(r, None)
        for row in r:
            if row:
                times.append(float(row[0]))
                d.append(float(row[1]))
    return np.asarray(times), np.asarray(d)


def write_weights_csv(path: str, dd) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index"] + [f"w{nu}" for nu in range(dd.weights.shape[0])])
        for i in range(dd.window):
            w.writerow([i] + [_f(x) for x in dd.weights[:, i]])


# ---- config files -----------------------------------------------------------

def load_signal_config(path: str) -> SignalSpec:
    """JSON schema: duration, dt, segments [{start, coeffs}], optional carrier
    {amplitude, frequency, phase}."""
    with open(path, "r") as fh:
        obj = json.load(fh)
    try:
        segments = tuple(
            Segment(float(s["start"]), tuple(float(c) for c in s["coeffs"]))
            for s in obj["segments"]
        )
        carrier = None
        if obj.get("carrier") is not None:
            c = obj["carrier"]
            carrier = Carrier(
                amplitude=float(c["amplitude"]),
                frequency=float(c["frequency"]),
                phase=float(c.get("phase", 0.0)),
            )
        return SignalSpec(
            segments=segments,
            duration=float(obj["duration"]),
            dt=float(obj["dt"]),
            carrier=carrier,
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: bad signal config: {e}")


# the setup keys a bench config may override, with their coercions
_SETUP_KEYS = {
    "n1": int, "n2": int, "order": int, "method": str, "window": int, "rule": str,
    "kappa": float, "scale": lambda v: None if v is None else float(v), "mode": str,
}


def load_bench_config(path: str, base_seed: int, trials: Optional[int]) -> List[bench_mod.Campaign]:
    """JSON schema: one campaign object or {"campaigns": [...]}. Campaign keys:
    suite, noise, snr_db, trials, setup {n1, n2, order, method, window, rule,
    kappa, scale, mode}; setup keys fall back to the suite's reference setup.
    An unknown suite or setup key is an error."""
    with open(path, "r") as fh:
        obj = json.load(fh)
    items = obj["campaigns"] if isinstance(obj, dict) and "campaigns" in obj else obj
    if isinstance(items, dict):
        items = [items]
    out = []
    try:
        for it in items:
            suite = it["suite"]
            if suite not in bench_mod.REFERENCE_SETUPS:
                raise ValueError(
                    f"{path}: unknown suite {suite!r}; "
                    f"available: {', '.join(sorted(bench_mod.REFERENCE_SETUPS))}"
                )
            overrides = {k: _SETUP_KEYS[k](v) for k, v in it.get("setup", {}).items()}
            setup = dataclasses.replace(bench_mod.REFERENCE_SETUPS[suite], **overrides)
            out.append(bench_mod.Campaign(
                suite=suite,
                noise_kind=it.get("noise", "normal"),
                snr_db=float(it.get("snr_db", 25.0)),
                setup=setup,
                trials=int(trials if trials is not None else it.get("trials", 100)),
                base_seed=base_seed,
            ))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: bad bench config: {e}")
    return out


# ---- subcommands ------------------------------------------------------------

def _parse_model(text: str) -> ModelSpec:
    parts = text.split(",")
    if len(parts) > 3:
        raise ValueError(f"--model wants 'n1[,n2[,order]]', got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--model wants integers, got {text!r}")
    nums += [0] * (3 - len(nums))
    return ModelSpec.monomial(*nums)


def cmd_derive(args) -> int:
    model = ModelSpec.monomial(args.n1, args.n2, args.order)
    det = build_detector(model, method=args.method)
    print(f"model: {det.model.label()}")
    print(f"method: {det.method}")
    print("operator:")
    print(det.omega.text())
    print(f"integral depth: {det.depth}")
    print(f"delay degree: {det.degree}")
    print(f"max derivative: {det.max_deriv}")
    sk = kernelize(det)
    print("kernels (T = window span, u = offset into window):")
    for nu, k in enumerate(sk.kernels):
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
    if override is not None:
        return override
    if times.size < 2:
        raise ValueError("need at least 2 samples to infer dt; pass --dt")
    dt = float(times[1] - times[0])
    if dt <= 0:
        raise ValueError("time column must be strictly increasing")
    gaps = np.diff(times)
    if np.max(np.abs(gaps - dt)) > 1e-6 * dt:
        raise ValueError("time column is not a uniform grid; pass --dt to override")
    return dt


def cmd_detect(args) -> int:
    times, values = read_signal_csv(args.infile)
    dt = _infer_dt(times, args.dt)
    model = _parse_model(args.model)
    det = build_detector(model, method=args.method)
    dd = discretize(det, window=args.window, dt=dt, rule=args.rule)
    cfg = DetectConfig(
        kappa=args.kappa,
        min_separation=args.min_separation,
        mode=args.mode,
        scale=args.scale,
    )
    trace, detections = detect_samples(dd, values, cfg, t0=float(times[0]))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_detections_csv(fh, detections)
    else:
        write_detections_csv(sys.stdout, detections)
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

    results = []
    for ci, c in enumerate(campaigns):
        on_trial = None
        if args.out and args.emit_trials:
            trial_dir = os.path.join(args.out, "trials")
            os.makedirs(trial_dir, exist_ok=True)

            def on_trial(i, dets, _ci=ci, _dir=trial_dir):
                p = os.path.join(_dir, f"c{_ci:02d}_t{i:03d}.csv")
                with open(p, "w", newline="") as fh:
                    write_detections_csv(fh, dets)

        results.append(bench_mod.run_campaign(c, on_trial=on_trial))

    text = bench_mod.format_report(results)
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
    return 0


def cmd_plot(args) -> int:
    times, values = read_signal_csv(args.signal)
    sig_panel = Panel(series=[Series(times, values)], ylabel="signal")
    if args.truth:
        sig_panel.vlines.extend(VLine(t, "vtruth") for t in read_truth_csv(args.truth))
    if args.detections:
        sig_panel.vlines.extend(VLine(t, "vmark") for t, _, _ in read_detections_csv(args.detections))
    panels = [sig_panel]
    if args.trace:
        tt, d = read_trace_csv(args.trace)
        trace_panel = Panel(series=[Series(tt, d, "s1")], ylabel="decision")
        trace_panel.hlines.append(HLine(0.0))
        if args.detections:
            trace_panel.vlines.extend(
                VLine(t, "vmark") for t, _, _ in read_detections_csv(args.detections)
            )
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

    d = sub.add_parser("derive", help="print operator and kernel forms of a detector")
    d.add_argument("--n1", type=int, default=0, help="smooth part degree bound")
    d.add_argument("--n2", type=int, default=0, help="jump part degree")
    d.add_argument("--order", type=int, default=0, help="derivative order of the change")
    d.add_argument("--method", choices=["linear", "general"], default=None)
    d.add_argument("--window", type=int, default=64, help="samples per window for --emit-weights")
    d.add_argument("--dt", type=float, default=0.01, help="sample spacing for --emit-weights")
    d.add_argument("--rule", choices=["trapezoid", "simpson"], default="trapezoid")
    d.add_argument("--emit-weights", metavar="PATH", help="write discretized weights CSV")
    d.set_defaults(func=cmd_derive)

    s = sub.add_parser("simulate", help="render a signal to CSV, optionally noised")
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", choices=sorted(SUITES), help="built-in suite name")
    src.add_argument("--config", metavar="PATH", help="JSON signal config (see docs/config.md)")
    s.add_argument("--noise", default="none",
                   choices=["none", "normal", "uniform", "perlin", "mult_uniform"])
    s.add_argument("--snr", type=float, default=25.0, help="SNR in dB (ignored for --noise none)")
    s.add_argument("--seed", type=int, default=None, help="required when noise is not 'none'")
    s.add_argument("--out", required=True, metavar="PATH", help="signal CSV (time,value)")
    s.add_argument("--truth-out", metavar="PATH", help="truth CSV (time)")
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("detect", help="batch change detection over a signal CSV")
    t.add_argument("--in", dest="infile", required=True, metavar="PATH", help="signal CSV (time,value)")
    t.add_argument("--model", default="0,0,0", help="'n1[,n2[,order]]' (default 0,0,0)")
    t.add_argument("--method", choices=["linear", "general"], default=None)
    t.add_argument("--window", type=int, default=64, help="samples per sliding window")
    t.add_argument("--dt", type=float, default=None, help="override inferred sample spacing")
    t.add_argument("--rule", choices=["trapezoid", "simpson"], default="trapezoid")
    t.add_argument("--kappa", type=float, default=3.0, help="gate threshold multiplier")
    t.add_argument("--mode", choices=["zero_crossing", "linear_estimate"], default="zero_crossing")
    t.add_argument("--scale", type=float, default=None,
                   help="fixed gate scale (default: batch MAD of the decision statistic)")
    t.add_argument("--min-separation", type=float, default=None,
                   help="minimum seconds between detections (default: window span)")
    t.add_argument("--out", metavar="PATH", help="detections CSV (default: stdout)")
    t.add_argument("--trace-out", metavar="PATH", help="decision trace CSV")
    t.set_defaults(func=cmd_detect)

    b = sub.add_parser("bench", help="run Monte Carlo campaigns and report histograms")
    b.add_argument("--config", metavar="PATH", help="JSON campaign config (see docs/config.md)")
    b.add_argument("--trials", type=int, default=None, help="override trials per campaign")
    b.add_argument("--seed", type=int, required=True, help="base seed; trial i uses seed+i")
    b.add_argument("--out", metavar="DIR", help="write report.txt, report.csv, histogram CSVs")
    b.add_argument("--emit-trials", action="store_true",
                   help="also write per-trial detection CSVs under DIR/trials")
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("plot", help="render CSVs to a static SVG")
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
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
