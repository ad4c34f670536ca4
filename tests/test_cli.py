"""Command-line interface: pipelines, CSV formats, error paths."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from algcpd.cli import main, read_detections_csv, read_signal_csv


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


def test_detect_rejects_ragged_grid(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0.0,1.0\n0.01,1.0\n0.5,1.0\n0.51,1.0\n")
    code, _, err = run(capsys, "detect", "--in", str(bad))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("flag,value", [
    ("--kappa", "nan"),
    ("--kappa", "inf"),
    ("--scale", "nan"),
    ("--dt", "inf"),
    ("--min-separation", "inf"),
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


def test_detect_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y\n0.0,1.0\n")
    code, _, err = run(capsys, "detect", "--in", str(bad))
    assert code == 1
    assert "error:" in err


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


def test_bench_unknown_suite_fails(tmp_path, capsys):
    cfg = tmp_path / "camp.json"
    cfg.write_text(json.dumps({"suite": "nosuch", "trials": 2}))
    code, _, err = run(capsys, "bench", "--config", str(cfg), "--seed", "1")
    assert code == 1
    assert err.startswith("error:")
    assert "nosuch" in err
