"""Command-line interface: pipelines, CSV formats, error paths."""

import csv
import json
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from algcpd import bench
from algcpd.cli import (
    load_signal_config,
    main,
    read_detections_csv,
    read_signal_csv,
    read_trace_csv,
    read_truth_csv,
    write_detections_csv,
    write_signal_csv,
    write_trace_csv,
    write_truth_csv,
)
from algcpd.runtime import DecisionTrace, Detection
from algcpd.signals import Carrier, Segment, SignalSpec


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_step_config(path, jump_at=1.115, duration=2.0):
    cfg = {
        "duration": duration,
        "dt": 0.01,
        "segments": [
            {"start": 0.0, "coeffs": [0.0]},
            {"start": jump_at, "coeffs": [1.0]},
        ],
    }
    path.write_text(json.dumps(cfg))


def test_derive_prints_operator_and_kernels(capsys):
    code, out, err = run(capsys, "derive", "--n1", "0", "--n2", "0")
    assert code == 0 and err == ""
    assert "monomial(n1=0,n2=0,order=0)" in out
    assert "r^0: (1/s)*D^2 + (2/s^2)*D^1" in out
    assert "r^1: (1/s)*D^1 + (1/s^2)*D^0" in out
    assert "K0: 3*u^2 - 2*T*u" in out
    assert "K1: -2*u + T" in out
    assert "integral depth: 2" in out


def test_derive_emit_weights(tmp_path, capsys):
    wcsv = tmp_path / "w.csv"
    code, _, _ = run(capsys, "derive", "--emit-weights", str(wcsv), "--window", "8")
    assert code == 0
    rows = list(csv.reader(wcsv.open()))
    assert rows[0] == ["index", "w0", "w1"]
    assert len(rows) == 9
    assert int(rows[1][0]) == 0


@pytest.mark.parametrize("dt", ["1e150", "1e100", "1e-200"])
def test_derive_rejects_dt_out_of_range(tmp_path, capsys, dt):
    """A --dt whose weights leave the float range is a one-line error naming
    dt, not a traceback or a weight file of zeros or infinities."""
    wcsv = tmp_path / "w.csv"
    code, _, err = run(capsys, "derive", "--emit-weights", str(wcsv), "--dt", dt)
    assert code == 1
    assert err.startswith("error:") and "dt=" in err
    assert len(err.strip().splitlines()) == 1
    assert not wcsv.exists()


def test_simulate_suite_and_truth(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    tru = tmp_path / "truth.csv"
    code, _, _ = run(
        capsys, "simulate", "--suite", "pc5",
        "--out", str(sig), "--truth-out", str(tru),
    )
    assert code == 0
    times, values = read_signal_csv(str(sig))
    assert len(times) == 3200
    truth_rows = tru.read_text().strip().splitlines()
    assert truth_rows[0] == "time"
    assert len(truth_rows) == 5


def test_simulate_noise_requires_seed(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    code, out, err = run(
        capsys, "simulate", "--suite", "pc5", "--noise", "normal",
        "--snr", "10", "--out", str(sig),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "--seed" in err


def test_simulate_detect_pipeline(tmp_path, capsys):
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    det = tmp_path / "det.csv"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    assert code == 0
    code, _, _ = run(capsys, "detect", "--in", str(sig), "--model", "0",
                     "--window", "64", "--out", str(det))
    assert code == 0
    dets = read_detections_csv(str(det))
    assert len(dets) == 1
    t_est, score, kind = dets[0]
    assert abs(t_est - 1.115) <= 0.02
    assert score > 0 and kind == "zero_crossing"


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_simulate_rejects_non_finite_duration(tmp_path, capsys, duration):
    """A config with "duration": Infinity or NaN is a one-line error, not a traceback."""
    cfg = tmp_path / "step.json"
    write_step_config(cfg, duration=duration)
    sig = tmp_path / "sig.csv"
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not sig.exists()


@pytest.mark.parametrize("snr", ["nan", "-inf", "-4000"])
def test_simulate_rejects_snr_without_finite_noise_power(tmp_path, capsys, snr):
    """An SNR that is NaN, or so low that the noise power overflows, is a
    one-line error, not a NaN signal or a traceback."""
    sig = tmp_path / "sig.csv"
    code, out, err = run(capsys, "simulate", "--suite", "pc5", "--noise", "normal",
                         f"--snr={snr}", "--seed", "1", "--out", str(sig))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not sig.exists()


# The example signal config of docs/config.md: a level, then a ramp from
# t = 1.115, under a carrier.
DOC_SIGNAL = {
    "duration": 2.0,
    "dt": 0.01,
    "segments": [
        {"start": 0.0, "coeffs": [0.0]},
        {"start": 1.115, "coeffs": [1.0, 0.5]},
    ],
    "carrier": {"amplitude": 0.4, "frequency": 0.04, "phase": 0.4},
}


def test_simulate_config_with_carrier(tmp_path, capsys):
    cfg = tmp_path / "sig.json"
    cfg.write_text(json.dumps(DOC_SIGNAL))
    assert load_signal_config(str(cfg)) == SignalSpec(
        segments=(Segment(0.0, (0.0,)), Segment(1.115, (1.0, 0.5))),
        duration=2.0,
        dt=0.01,
        carrier=Carrier(amplitude=0.4, frequency=0.04, phase=0.4),
    )
    sig = tmp_path / "sig.csv"
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    assert code == 0 and err == ""
    times, values = read_signal_csv(str(sig))
    assert len(times) == 200
    step = np.where(times >= 1.115, 1.0 + 0.5 * (times - 1.115), 0.0)
    want = step + 0.4 * np.sin(2 * np.pi * 0.04 * times + 0.4)
    assert np.allclose(values, want, rtol=0, atol=1e-12)
    assert values[0] == 0.4 * np.sin(0.4)


def _carrier_phse(cfg):
    del cfg["carrier"]["phase"]
    cfg["carrier"]["phse"] = 1.0


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg["segments"][0].update(coeffs=[True]), "True"),
    (lambda cfg: cfg["segments"][1].update(coeffs="12"), "'12'"),
    (lambda cfg: cfg.update(dt=True), "True"),
    (lambda cfg: cfg.update(carier=cfg.pop("carrier")), "'carier'"),
    (_carrier_phse, "'phse'"),
    (lambda cfg: cfg["segments"][1].update(slope=0.5), "'slope'"),
], ids=["coeffs_bool", "coeffs_string", "dt_bool", "key_carier", "carrier_phse", "segment_slope"])
def test_simulate_config_checked(tmp_path, capsys, edit, named):
    """A bool where a number belongs, or a misspelt or extra key at any level,
    is a one-line error naming it, not a signal rendered without it."""
    obj = json.loads(json.dumps(DOC_SIGNAL))
    edit(obj)
    cfg = tmp_path / "sig.json"
    cfg.write_text(json.dumps(obj))
    sig = tmp_path / "sig.csv"
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {cfg}: bad signal config: ") and named in err
    assert len(err.strip().splitlines()) == 1
    assert not sig.exists()


def test_detect_stdout_and_trace(tmp_path, capsys):
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    trace = tmp_path / "trace.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    code, out, _ = run(capsys, "detect", "--in", str(sig), "--trace-out", str(trace))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,score,kind"
    assert len(lines) == 2
    with trace.open() as fh:
        head = fh.readline().strip()
    assert head == "time,d,v,sigma,rms"


def test_detect_has_no_mode_option(tmp_path, capsys):
    """The change time is read one way, so --mode is a usage error."""
    sig = tmp_path / "sig.csv"
    sig.write_text("time,value\n0.0,1.0\n0.01,1.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--in", str(sig), "--mode", "zero_crossing"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_detect_rejects_ragged_grid(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,1.0\n0.01,1.0\n0.5,1.0\n0.51,1.0\n")
    code, _, err = run(capsys, "detect", "--in", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("rows, flags", [
    ([5], []),
    ([150, 151], []),
    ([0], ["--dt", "0.01"]),
], ids=["one", "two", "first-dt"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_detect_rejects_non_finite_times(tmp_path, capsys, bad, rows, flags):
    """A nan or inf in the time column is a one-line error, not a grid that
    passes as uniform, nor, under --dt, a t0 that makes every time nan."""
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    times, values = read_signal_csv(str(sig))
    times[rows] = float(bad)
    write_signal_csv(str(sig), times, values)
    code, out, err = run(capsys, "detect", "--in", str(sig), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag,value", [
    ("--kappa", "nan"),
    ("--kappa", "inf"),
    ("--scale", "nan"),
    ("--dt", "inf"),
    ("--min-separation", "inf"),
    ("--min-separation", "1e308"),
])
def test_detect_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    """A non-finite gate or grid parameter is a one-line error, not an empty list."""
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    code, out, err = run(capsys, "detect", "--in", str(sig), flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text, flags, named", [
    ("time,value\n0.0,1.0\n0.01,1.0\n", ["--model", "1,2,3,4"], "n1[,n2]"),
    ("time,value\n0.0,1.0\n0.01,1.0\n", ["--model", "0,0,0"], "--model wants 'n1[,n2]'"),
    ("time,value\n0.0,1.0\n0.01,1.0\n", ["--model", "a"], "--model wants integers"),
    ("time,value\n", [], "no samples"),
    ("time,value\n0.0,1.0\n", [], "pass --dt"),
    ("time,value\n0.02,1.0\n0.01,1.0\n", [], "strictly increasing"),
], ids=["model_four_parts", "model_three_parts", "model_not_int", "no_rows", "one_row_no_dt",
        "time_decreasing"])
def test_detect_rejects_bad_model_and_signal(tmp_path, capsys, text, flags, named):
    sig = tmp_path / "sig.csv"
    sig.write_text(text)
    code, out, err = run(capsys, "detect", "--in", str(sig), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err
    assert len(err.strip().splitlines()) == 1


def test_detect_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y\n0.0,1.0\n")
    code, _, err = run(capsys, "detect", "--in", str(bad))
    assert code == 1
    assert "error:" in err


# (flag, case, contents): for each reader, a wrong header, a short row and a
# non-numeric cell. A one-column truth table has no short row but a blank
# one, which is skipped, so its second case is an empty cell.
MALFORMED = [
    ("--in", "header", "time;value\n0.0;1.0\n"),
    ("--in", "short", "time,value\n0.0,1.0\n0.01\n"),
    ("--in", "cell", "time,value\n0.0,1.0\n0.01,one\n"),
    ("--detections", "header", "time,value\n1.0,2.0\n"),
    ("--detections", "short", "time,score,kind\n1.0,2.0\n"),
    ("--detections", "cell", "time,score,kind\n1.0,high,zero_crossing\n"),
    ("--truth", "header", "value\n1.0\n"),
    ("--truth", "short", 'time\n1.0\n""\n'),
    ("--truth", "cell", "time\nsoon\n"),
    ("--trace", "header", "time,value\n0.0,1.0\n"),
    ("--trace", "short", "time,d,v,sigma,rms\n0.0,1.0\n"),
    ("--trace", "cell", "time,d,v,sigma,rms\n0.0,nan?,1.0,1.0,1.0\n"),
]


@pytest.mark.parametrize(
    "flag,case,text", MALFORMED, ids=[f"{flag[2:]}-{case}" for flag, case, _ in MALFORMED]
)
def test_readers_reject_malformed_tables(tmp_path, capsys, flag, case, text):
    """A malformed table is one `error:` line naming the file, not a traceback
    or a silently wrong plot."""
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(sig))
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    svg = tmp_path / "plot.svg"
    if flag == "--in":
        argv = ["detect", "--in", str(bad)]
    else:
        argv = ["plot", "--signal", str(sig), flag, str(bad), "--out", str(svg)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ")
    assert ("expected header" if case == "header" else "bad row") in err
    assert len(err.strip().splitlines()) == 1
    assert not svg.exists()


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]


def bits(xs):
    return [struct.pack("<d", float(x)) for x in xs]


def test_cli_tables_round_trip_bit_for_bit(tmp_path):
    """Every CLI table reads back the floats it wrote, bit for bit, under the
    exact header its writer puts down."""
    xs = EDGE_FLOATS
    ys = xs[::-1]
    sig, tru, det, tra = (str(tmp_path / n) for n in ("s.csv", "t.csv", "d.csv", "tr.csv"))

    write_signal_csv(sig, xs, ys)
    times, values = read_signal_csv(sig)
    assert bits(times) == bits(xs) and bits(values) == bits(ys)

    write_truth_csv(tru, xs)
    assert bits(read_truth_csv(tru)) == bits(xs)

    with open(det, "w", newline="") as fh:
        write_detections_csv(fh, [Detection(x, y, "zero_crossing", 0) for x, y in zip(xs, ys)])
    back = read_detections_csv(det)
    assert bits(t for t, _, _ in back) == bits(xs)
    assert bits(s for _, s, _ in back) == bits(ys)
    assert {k for _, _, k in back} == {"zero_crossing"}

    d = np.array(xs)
    trace = DecisionTrace(
        t0=0.1, dt=0.01, window=8, t_mid=0.035, wnorm=1.0, vnu=np.zeros((1, d.size)),
        v=np.ones(d.size), d=d, sigma=np.ones(d.size), rms=np.ones(d.size),
    )
    write_trace_csv(tra, trace)
    tt, dd = read_trace_csv(tra)
    assert bits(tt) == bits(trace.times()) and bits(dd) == bits(xs)

    headers = [open(p).readline() for p in (sig, tru, det, tra)]
    assert headers == ["time,value\n", "time\n", "time,score,kind\n", "time,d,v,sigma,rms\n"]


def test_bench_reference_subset(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({
        "campaigns": [
            {"suite": "sine3", "noise": "normal", "snr_db": 25.0, "trials": 4},
        ]
    }))
    outdir = tmp_path / "rep"
    code, out, _ = run(capsys, "bench", "--config", str(cfg), "--seed", "24245",
                       "--out", str(outdir))
    assert code == 0
    assert (outdir / "report.txt").exists()
    assert (outdir / "report.csv").exists()
    hists = list(outdir.glob("hist_*.csv"))
    assert len(hists) == 1
    assert "sine3" in out


def test_bench_emit_trials(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps(
        {"suite": "sine3", "noise": "none", "snr_db": 0.0, "trials": 2}
    ))
    outdir = tmp_path / "rep"
    code, _, _ = run(capsys, "bench", "--config", str(cfg), "--seed", "1",
                     "--out", str(outdir), "--emit-trials")
    assert code == 0
    trials = sorted((outdir / "trials").glob("*.csv"))
    assert len(trials) == 2
    assert read_detections_csv(str(trials[0]))


def test_bench_emit_trials_needs_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "1", "--trials", "1", "--emit-trials"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: bench --emit-trials needs --out DIR")


@pytest.mark.parametrize("bad", [
    {"noise": "gauss"},
    {"setup": {"method": "exact"}},
    {"setup": {"rule": "midpoint"}},
    {"setup": {"mode": "peak"}},
    {"setup": {"kappa": -1.0}},
    {"setup": {"kappa": float("nan")}},
    {"setup": {"scale": -0.5}},
    {"snr_db": float("nan")},
    {"trials": 1.9},
    {"trials": True},
    {"setup": {"window": 96.9}},
    {"setup": {"n1": True}},
    {"setup": {"n1": 9}},
    {"setup": {"rule": "simpson"}},
    {"snr_db": True},
    {"setup": {"kappa": True}},
    {"setup": {"scale": False}},
    {"snr": 10.0},
    {"noize": "uniform"},
    {"base_seed": 7},
    {"setup": None},
    {"setup": [1]},
    {"setup": {"order": 0}},
], ids=["noise", "method", "rule", "mode", "kappa", "kappa_nan", "scale", "snr_nan",
        "trials_float", "trials_bool", "window_float", "n1_bool", "n1_range", "simpson_even",
        "snr_bool", "kappa_bool", "scale_bool", "key_snr", "key_noize", "key_base_seed",
        "setup_null", "setup_list", "key_order"])
def test_bench_config_checked_before_any_trial(tmp_path, capsys, monkeypatch, bad):
    """A bad value in the second campaign is a one-line error raised before
    the first campaign runs a trial; no report is written. Every trial
    draws its noisy signal through bench.apply_noise, so a trial run shows
    there."""
    trials = []
    real = bench.apply_noise
    monkeypatch.setattr(bench, "apply_noise", lambda *args: trials.append(args) or real(*args))
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"campaigns": [
        {"suite": "sine3", "trials": 2},
        {"suite": "sine3", "trials": 2, **bad},
    ]}))
    outdir = tmp_path / "rep"
    code, out, err = run(capsys, "bench", "--config", str(cfg), "--seed", "1",
                         "--out", str(outdir))
    assert code == 1
    assert trials == []
    assert out == ""
    assert not outdir.exists()
    assert err.startswith("error:") and "(campaign 1)" in err
    assert len(err.strip().splitlines()) == 1


def test_bench_campaign_error_names_the_campaign(tmp_path, capsys):
    """An error raised while a campaign's trials run names the campaign, as
    the config-time errors do: -3070 dB puts pc5's noisy samples past the
    bound of the window sums at W 384. With --out, the campaigns that
    finished before it are written (report.txt, report.csv, histograms)."""
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"campaigns": [
        {"suite": "sine3", "trials": 1},
        {"suite": "pc5", "snr_db": -3070, "trials": 1},
    ]}))
    outdir = tmp_path / "rep"
    for out_args in ([], ["--out", str(outdir)]):
        code, out, err = run(capsys, "bench", "--config", str(cfg), "--seed", "1", *out_args)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {cfg}: campaign failed (campaign 1): samples must be finite")
        assert len(err.strip().splitlines()) == 1
    (done,) = bench.read_report_csv(str(outdir / "report.csv"))
    assert (done.campaign.suite, done.campaign.trials) == ("sine3", 1)
    assert sum(done.histogram.values()) == 1
    assert (outdir / "report.txt").read_text() == bench.format_report([done])
    assert sorted(p.name for p in outdir.iterdir()) == [
        "hist_c00_sine3_normal_25dB.csv", "report.csv", "report.txt",
    ]


@pytest.mark.parametrize("argv", [
    ["derive", "--emit", "w.csv"],
    ["simulate", "--suite", "sine3", "--out", "s.csv", "--truth", "t.csv"],
    ["detect", "--in", "s.csv", "--mod", "0,0"],
    ["bench", "--seed", "1", "--conf", "c.json"],
    ["plot", "--signal", "s.csv", "--out", "p.svg", "--det", "d.csv"],
    ["derive", "--order", "1"],
], ids=["derive", "simulate", "detect", "bench", "plot", "derive_order"])
def test_abbreviated_long_options_are_usage_errors(capsys, argv):
    """No subcommand reads a prefix of a long option as the option, so a
    renamed or removed option cannot be taken for another one. derive's
    removed --order is such an option: a change in the k-th derivative is
    the model of degrees (n1 + k, n2 + k)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_plot_svg(tmp_path, capsys):
    cfg = tmp_path / "step.json"
    write_step_config(cfg)
    sig = tmp_path / "sig.csv"
    det = tmp_path / "det.csv"
    tru = tmp_path / "truth.csv"
    svg = tmp_path / "plot.svg"
    run(capsys, "simulate", "--config", str(cfg), "--out", str(sig),
        "--truth-out", str(tru))
    run(capsys, "detect", "--in", str(sig), "--out", str(det))
    code, _, _ = run(capsys, "plot", "--signal", str(sig), "--detections", str(det),
                     "--truth", str(tru), "--title", "step", "--out", str(svg))
    assert code == 0
    root = ET.parse(str(svg)).getroot()
    assert root.tag.endswith("svg")


def test_pipeline_byte_stable(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        sig = tmp_path / f"sig_{tag}.csv"
        det = tmp_path / f"det_{tag}.csv"
        run(capsys, "simulate", "--suite", "sine3", "--noise", "normal",
            "--snr", "10", "--seed", "77", "--out", str(sig))
        run(capsys, "detect", "--in", str(sig), "--window", "96", "--out", str(det))
        outs.append((sig.read_bytes(), det.read_bytes()))
    assert outs[0] == outs[1]


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required --in
    assert exc.value.code == 2


def test_bench_setup_overrides_reference(tmp_path, capsys):
    """A setup key replaces its reference value; the rest stay the suite's."""
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps(
        {"suite": "sine3", "noise": "normal", "snr_db": 25.0, "trials": 2,
         "setup": {"kappa": 2.0}}
    ))
    outdir = tmp_path / "rep"
    code, _, _ = run(capsys, "bench", "--config", str(cfg), "--seed", "1",
                     "--out", str(outdir))
    assert code == 0
    (row,) = list(csv.DictReader((outdir / "report.csv").open()))
    assert float(row["kappa"]) == 2.0
    assert int(row["window"]) == 96
    assert row["scale"] == ""


@pytest.mark.parametrize("via_config", [False, True])
def test_bench_rejects_zero_trials(tmp_path, capsys, via_config):
    """Zero trials is a one-line error, not a ZeroDivisionError traceback."""
    argv = ["bench", "--seed", "1", "--trials", "0"]
    if via_config:
        cfg = tmp_path / "camp.json"
        cfg.write_text(json.dumps({"suite": "sine3", "trials": 0}))
        argv = ["bench", "--seed", "1", "--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "trials" in err
    assert len(err.strip().splitlines()) == 1


def test_bench_unknown_suite_fails(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"suite": "nosuch", "trials": 2}))
    code, _, err = run(capsys, "bench", "--config", str(cfg), "--seed", "1")
    assert code == 1
    assert err.startswith("error:")
    assert "nosuch" in err
