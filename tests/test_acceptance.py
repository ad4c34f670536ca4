"""Release acceptance gate.

One test per release criterion; each prints a single PASS/FAIL line with the
measured numbers (run with -s or -rA to see the lines for passing tests).
Thresholds and time budgets are asserted exactly as stated, never loosened.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from algcpd._engine import eval_windows_raw
from algcpd._exact import Polynomial, RationalFunction as RF
from algcpd.bench import reference_campaign, run_campaign
from algcpd.builder import ModelSpec, build_detector, verify_detector
from algcpd.cli import main
from algcpd.kernels import discretize
from algcpd.operators import DiffOperator
from algcpd.runtime import DetectConfig, StreamDetector, detect_samples
from test_kernels import oracle_window_values, raw_weights


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def _rand_poly(rng, max_deg=3):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    return Polynomial(coeffs)


def _smooth_signal(seed, n, dt):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    scale = 10.0 ** rng.integers(-2, 3)
    c = rng.standard_normal(4) * scale
    y = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
    for _ in range(2):
        y = y + scale * rng.standard_normal() * np.sin(
            (2.0 + 6.0 * rng.random()) * t + rng.random()
        )
    return y


def test_criterion_1_symbolic_soundness():
    start = time.perf_counter()

    # exhaustive (n1, n2) model grid, exact verification at every delay; a
    # change in the k-th derivative is the model of degrees (n1 + k, n2 + k),
    # so 0..6 holds every (n1, n2, k) with n1, n2 <= 4 and k <= 2
    grid_ok = True
    for n1 in range(7):
        for n2 in range(7):
            det = build_detector(ModelSpec.monomial(n1, n2))
            rep = verify_detector(det)
            grid_ok = grid_ok and rep.ok and not rep.smooth_residuals and not rep.jump_residuals

    # unknown-polynomial-jump construction, spot-checked across the grid corners
    for n1, n2 in [(0, 1), (0, 4), (4, 0), (3, 3), (3, 5), (6, 6)]:
        rep = verify_detector(build_detector(ModelSpec.polynomial(n1, n2)))
        grid_ok = grid_ok and rep.ok

    # randomized ring-axiom battery
    rng = random.Random(20250819)
    ring_cases = 0
    ring_ok = True
    for _ in range(1000):
        a, b, c = _rand_poly(rng), _rand_poly(rng), _rand_poly(rng)
        ring_ok = ring_ok and (a + b) + c == a + (b + c)
        ring_ok = ring_ok and a * b == b * a
        ring_ok = ring_ok and a * (b + c) == a * b + a * c
        ring_ok = ring_ok and (a * b) * c == a * (b * c)
        ring_cases += 1

    # randomized commutation battery: D o M_g == M_g o D + M_{g'}
    d_op = DiffOperator.d()
    comm_cases = 0
    comm_ok = True
    for _ in range(1000):
        if rng.random() < 0.5:
            g = RF.s_power(rng.randint(-4, 4)) * Fraction(rng.randint(1, 9), rng.randint(1, 5))
        else:
            g = RF(_rand_poly(rng, 2))
            if g.is_zero():
                g = RF.one()
        lhs = d_op.compose(DiffOperator.mul(g))
        rhs = DiffOperator.mul(g).compose(d_op) + DiffOperator.mul(g.derivative())
        comm_ok = comm_ok and lhs == rhs
        comm_cases += 1

    elapsed = time.perf_counter() - start
    ok = grid_ok and ring_ok and comm_ok and ring_cases >= 1000 and comm_cases >= 1000 and elapsed < 30.0
    _report(
        1, "symbolic soundness", ok,
        f"49-model grid exact at every delay, {ring_cases} ring + {comm_cases} commutation cases, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    window, dt = 64, 0.01
    models = [
        ModelSpec.monomial(0, 0),
        ModelSpec.monomial(1, 0),
        ModelSpec.monomial(2, 1),
        ModelSpec.polynomial(0, 1),
    ]
    dds = [(m, build_detector(m)) for m in models]
    dds = [(m, det, raw_weights(discretize(det, window=window, dt=dt))) for m, det in dds]
    worst = 0.0
    for i in range(100):
        y = _smooth_signal(1000 + i, window, dt)
        m, det, raw = dds[i % len(dds)]
        direct = raw @ y
        oracle = oracle_window_values(det, y, dt, "trapezoid")
        for a, b in zip(direct, oracle):
            rel = abs(a - b) / max(abs(a), abs(b), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        2, "kernel path matches iterated-integration oracle", ok,
        f"100 signals, worst rel dev {worst:.2e} <= 1e-10, {elapsed:.1f}s < 10s",
    )


def test_criterion_3_closed_form_recovery():
    window, h = 64, 0.01
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=window, dt=h)
    T = (window - 1) * h
    # quadrature tolerance: the jump sits mid-cell, so the trapezoid error is
    # first order, bounded by ~ h * g * max|K| with max|K0| = T^2, max|K1| = T
    tol_identity = 1.5 * h * max(T, T * T)
    n = 250
    t = np.arange(n) * h

    det_ok = True
    flank_ok = True
    ident_ok = True
    worst_det = 0.0
    worst_flank = 0.0
    worst_ident = 0.0
    for i in range(20):
        tj = 0.9 + 0.037 * i + 0.0042
        y = np.where(t >= tj, 1.0, 0.0)
        trace, dets = detect_samples(dd, y)
        det_ok = det_ok and len(dets) == 1
        for d in dets:
            worst_det = max(worst_det, abs(d.time - tj))
            det_ok = det_ok and abs(d.time - tj) <= 2 * h

        # nu_0 and nu_1, the window sums of the two delay rows
        vnu = eval_windows_raw(dd.weights, y)[0]
        kstar = dets[0].position
        for k in (kstar - 1, kstar):
            est = k * h + (-vnu[0][k] / vnu[1][k])
            worst_flank = max(worst_flank, abs(est - tj))
            flank_ok = flank_ok and abs(est - tj) <= h

        for k in range(trace.positions):
            r = tj - k * h
            if 2 * h < r < T - 2 * h:
                dev = max(
                    abs(vnu[0][k] - r * r * (T - r)),
                    abs(vnu[1][k] - (-r * (T - r))),
                )
                worst_ident = max(worst_ident, dev)
                ident_ok = ident_ok and dev <= tol_identity

    ok = det_ok and flank_ok and ident_ok
    _report(
        3, "noise-free unit-step closed-form recovery", ok,
        f"20 jumps: det err {worst_det:.4f} <= {2*h}, flank est err {worst_flank:.4f} <= {h}, "
        f"identity dev {worst_ident:.1e} <= {tol_identity:.1e}",
    )


SNR_LADDER = (25.0, 20.0, 10.0, 0.0, -6.0)


@pytest.fixture(scope="module")
def normal_grid():
    """suite -> snr -> CampaignResult at R=100, shared by criteria 4."""
    out = {}
    times = {}
    for suite in ("pc5", "poly6", "sine3"):
        per = {}
        for snr in SNR_LADDER:
            c = reference_campaign(suite, "normal", snr, trials=100)
            t0 = time.perf_counter()
            per[snr] = run_campaign(c)
            times[(suite, snr)] = time.perf_counter() - t0
        out[suite] = per
    out["_times"] = times
    return out


def test_criterion_4_reference_regimes(normal_grid):
    times = normal_grid["_times"]
    slowest = max(times.values())
    time_ok = slowest < 60.0

    pc5 = normal_grid["pc5"]
    poly6 = normal_grid["poly6"]
    sine3 = normal_grid["sine3"]
    headline_ok = (
        pc5[0.0].exact >= 90
        and pc5[-6.0].exact >= 65
        and pc5[-6.0].within_one >= 85
        and poly6[25.0].exact >= 70
        and sine3[25.0].exact >= 95
    )

    mono_ok = True
    worst_rise = -1.0
    for suite in ("pc5", "poly6", "sine3"):
        fr = [normal_grid[suite][snr].exact_fraction() for snr in SNR_LADDER]
        for a, b in zip(fr, fr[1:]):
            worst_rise = max(worst_rise, b - a)
            mono_ok = mono_ok and b <= a + 0.05

    ok = time_ok and headline_ok and mono_ok
    _report(
        4, "reference regime reproduction (R=100)", ok,
        f"pc5@0dB {pc5[0.0].exact}>=90, pc5@-6dB {pc5[-6.0].exact}>=65/"
        f"{pc5[-6.0].within_one}>=85, poly6@25dB {poly6[25.0].exact}>=70, "
        f"sine3@25dB {sine3[25.0].exact}>=95; worst SNR-rise {worst_rise*100:+.1f}pp <= +5pp; "
        f"slowest campaign {slowest:.1f}s < 60s",
    )


def test_criterion_5_robustness():
    mult = run_campaign(reference_campaign("poly6", "mult_uniform", 20.0, trials=100))
    mult_ok = mult.exact >= 60

    perlin_rows = []
    perlin_ok = True
    for suite, snr in (("poly6", 20.0), ("sine3", 10.0)):
        res = run_campaign(reference_campaign(suite, "perlin", snr, trials=100))
        perlin_rows.append(
            f"{suite}@{snr:g}dB exact {res.exact}/100 mode {res.mode_segments()}"
        )
        perlin_ok = perlin_ok and abs(res.mode_segments() - res.true_segments) <= 1

    ok = mult_ok and perlin_ok
    _report(
        5, "robustness regimes", ok,
        f"poly6 mult_uniform@20dB exact {mult.exact}>=60; " + "; ".join(perlin_rows),
    )


def test_criterion_6_performance():
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=128, dt=0.001)
    assert dd.weights.shape[0] - 1 == 1
    n = 1_000_000
    rng = np.random.default_rng(12345)
    t = np.arange(n) * 0.001
    y = np.where(t >= 300.0, 1.0, 0.0) + np.where(t >= 700.0, -1.5, 0.0)
    y = y + 0.15 * rng.standard_normal(n)
    cfg = DetectConfig(scale=128**-0.5, kappa=4.0)

    best = math.inf
    stream_out = None
    for _ in range(2):
        sd = StreamDetector(dd, cfg)
        t0 = time.perf_counter()
        for i in range(0, n, 65536):
            sd.push_chunk(y[i : i + 65536])
        sd.finalize()
        best = min(best, time.perf_counter() - t0)
        stream_out = [(d.time, d.score, d.kind, d.position) for d in sd.detections]

    _, batch = detect_samples(dd, y, cfg)
    batch_out = [(d.time, d.score, d.kind, d.position) for d in batch]

    ok = best < 1.0 and stream_out == batch_out and len(batch_out) >= 1
    _report(
        6, "streaming throughput and batch parity", ok,
        f"1e6 samples W=128 in {best:.2f}s < 1s, {len(batch_out)} detections, stream == batch",
    )


def run_pipeline(root):
    """Run the seeded CLI pipeline of criterion 7 in the new directory root;
    returns every artifact it wrote, by path relative to root."""
    root.mkdir()
    sig = root / "sig.csv"
    tru = root / "truth.csv"
    det = root / "det.csv"
    trc = root / "trace.csv"
    wts = root / "weights.csv"
    svg = root / "plot.svg"
    bdir = root / "bench"
    bcfg = root / "bench.json"
    bcfg.write_text(
        '{"campaigns": [{"suite": "sine3", "noise": "normal", "snr_db": 20.0, "trials": 3},'
        ' {"suite": "pc5", "noise": "mult_uniform", "snr_db": 10.0, "trials": 2}]}'
    )
    steps = [
        ["simulate", "--suite", "sine3", "--noise", "normal", "--snr", "10",
         "--seed", "77", "--out", str(sig), "--truth-out", str(tru)],
        ["detect", "--in", str(sig), "--window", "96", "--out", str(det),
         "--trace-out", str(trc)],
        ["derive", "--n1", "1", "--emit-weights", str(wts), "--window", "32"],
        ["bench", "--config", str(bcfg), "--seed", "24245", "--out", str(bdir),
         "--emit-trials"],
        ["plot", "--signal", str(sig), "--detections", str(det), "--truth", str(tru),
         "--trace", str(trc), "--title", "pipeline", "--out", str(svg)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    artifacts = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p != bcfg:
            artifacts[str(p.relative_to(root))] = p.read_bytes()
    return artifacts


def test_criterion_7_cli_determinism(tmp_path, capsys):
    a = run_pipeline(tmp_path / "run_a")
    b = run_pipeline(tmp_path / "run_b")
    capsys.readouterr()  # swallow the pipelines' stdout

    same_names = sorted(a) == sorted(b)
    diff = [k for k in a if same_names and a[k] != b[k]]
    ok = same_names and not diff and len(a) >= 10
    _report(
        7, "seeded CLI pipelines are byte-stable", ok,
        f"{len(a)} artifacts identical across two runs" if ok
        else f"names match: {same_names}, differing: {diff[:5]}",
    )
