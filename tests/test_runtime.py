"""Batch and streaming detection runtimes."""

import math

import numpy as np
import pytest

from algcpd import runtime
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import discretize
from algcpd.noise import apply_noise
from algcpd.runtime import (
    DecisionTrace,
    DetectConfig,
    Detection,
    StreamDetector,
    detect,
    detect_samples,
    eval_windows,
)
from algcpd.signals import builtin_suite, render


def step_detector(window=64, dt=0.01):
    det = build_detector(ModelSpec.monomial(0, 0))
    return discretize(det, window=window, dt=dt)


def step_signal(n, dt, jumps):
    t = np.arange(n) * dt
    y = np.zeros(n)
    for at, amp in jumps:
        y += np.where(t >= at, amp, 0.0)
    return y


def as_tuples(dets):
    return [(d.time, d.score, d.kind, d.position) for d in dets]


def test_clean_step_zero_crossing():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    trace, dets = detect_samples(dd, y)
    assert isinstance(trace, DecisionTrace)
    assert len(dets) == 1
    assert dets[0].kind == "zero_crossing"
    assert abs(dets[0].time - 1.115) <= 2 * 0.01
    assert dets[0].score > 0


def test_clean_step_linear_estimate():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    _, dets = detect_samples(dd, y, DetectConfig(mode="linear_estimate"))
    assert len(dets) == 1
    assert dets[0].kind == "linear_estimate"
    assert abs(dets[0].time - 1.115) <= 2 * 0.01


def test_off_grid_jump_located_within_sample():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.1137, 1.0)])
    for mode in ("zero_crossing", "linear_estimate"):
        _, dets = detect_samples(dd, y, DetectConfig(mode=mode))
        assert len(dets) == 1
        assert abs(dets[0].time - 1.1137) < 0.01


def test_negative_jump_detected():
    dd = step_detector()
    y = step_signal(300, 0.01, [(1.5, -2.0)])
    _, dets = detect_samples(dd, y)
    assert len(dets) == 1
    assert abs(dets[0].time - 1.5) <= 0.02


def test_two_separated_jumps():
    dd = step_detector()
    y = step_signal(400, 0.01, [(1.2, 1.0), (2.5, 1.5)])
    _, dets = detect_samples(dd, y)
    assert len(dets) == 2
    assert abs(dets[0].time - 1.2) <= 0.02
    assert abs(dets[1].time - 2.5) <= 0.02
    assert dets[0].time < dets[1].time


def test_min_separation_suppresses_weaker():
    dd = step_detector()
    y = step_signal(400, 0.01, [(1.2, 1.0), (2.5, 1.5)])
    _, dets = detect_samples(dd, y, DetectConfig(min_separation=5.0))
    assert len(dets) == 1


def test_constant_signal_is_quiet():
    dd = step_detector()
    for c in (0.0, 5.0, -3e4):
        trace, dets = detect_samples(dd, np.full(500, c))
        assert dets == []
        assert float(np.abs(trace.d).max()) < 1e-6


def test_pure_noise_is_quiet():
    dd = step_detector()
    for seed in range(3):
        z = np.random.default_rng(seed).standard_normal(10_000)
        _, dets = detect_samples(dd, z, DetectConfig(kappa=3.0))
        assert dets == []


def test_batch_stream_bit_identity_fixed_scale():
    dd = step_detector()
    rng = np.random.default_rng(42)
    y = step_signal(400, 0.01, [(1.2, 1.0)]) + 0.05 * rng.standard_normal(400)
    cfg = DetectConfig(scale=0.05)
    _, batch = detect_samples(dd, y, cfg)
    assert len(batch) >= 1
    for chunk in (1, 7, 64, 128, 400):
        sd = StreamDetector(dd, cfg)
        got = []
        for i in range(0, len(y), chunk):
            got += sd.push_chunk(y[i : i + chunk])
        got += sd.finalize()
        assert as_tuples(got) == as_tuples(batch)
        assert as_tuples(sd.detections) == as_tuples(batch)


def unscreened_detect(trace, cfg):
    """detect() with every crossing sent through _GateEngine._resolve: the
    same constant scale, from a provider the vectorized screen skips."""

    class Constant(runtime._ScaleProvider):
        def value_at(self, pos, ring):
            return cfg.scale

    d = runtime._normalize(
        trace.v, trace.sigma, trace.rms, trace.wnorm * math.sqrt(trace.window), cfg.epsilon
    )
    engine = runtime._GateEngine(
        trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, Constant()
    )
    out = engine.feed(trace.vnu, trace.v, d, trace.rms, 0)
    return out + engine.finish()


def streamed(dd, y, cfg, chunk):
    sd = StreamDetector(dd, cfg)
    got = []
    for i in range(0, len(y), chunk):
        got += sd.push_chunk(y[i : i + chunk])
    return got + sd.finalize()


def gate_case():
    """Three steps in noise; the last is within W/2 positions of the end, so
    finish() resolves its crossing with a clipped right flank."""
    dd = step_detector(window=32)
    n = 1500
    rng = np.random.default_rng(8)
    y = step_signal(n, 0.01, [(3.0, 1.0), (7.0, -1.2), (14.76, 1.5)])
    return dd, y + 0.05 * rng.standard_normal(n)


@pytest.mark.parametrize("kappa", [0.0, 3.0])
def test_fixed_scale_gate_screen_changes_nothing(kappa):
    dd, y = gate_case()
    cfg = DetectConfig(kappa=kappa, scale=0.15)
    trace, batch = detect_samples(dd, y, cfg)
    assert as_tuples(batch) == as_tuples(unscreened_detect(trace, cfg))
    if kappa:
        assert len(batch) == 3
        assert batch[-1].position + dd.window // 2 > trace.positions - 1
    for chunk in (1, 7, 65536):
        assert as_tuples(streamed(dd, y, cfg, chunk)) == as_tuples(batch)


def test_fixed_scale_gate_threshold_met_exactly():
    dd, y = gate_case()
    trace, dets = detect_samples(dd, y, DetectConfig(kappa=3.0, scale=0.15))
    top = max(dets, key=lambda d: d.score)
    # with kappa=1 the threshold is the score itself, min(left_exc, right_exc)
    for scale, kept in ((top.score, True), (np.nextafter(top.score, np.inf), False)):
        cfg = DetectConfig(kappa=1.0, scale=float(scale))
        batch = detect(trace, cfg)
        assert (top.position in [d.position for d in batch]) == kept
        assert as_tuples(batch) == as_tuples(unscreened_detect(trace, cfg))
        for chunk in (1, 7, 65536):
            assert as_tuples(streamed(dd, y, cfg, chunk)) == as_tuples(batch)


def flank_trace(left_peak, right_peak, reach=0):
    """A trace with one crossing, at k=100 (W=16), whose only large
    excursions sit on the outermost flank positions k - W/2 and k + W/2, or
    `reach` steps beyond them. |d| is v/4 there: peaks of 5 read 1.25 and
    the rest 0.025."""
    window, k = 16, 100
    v = np.where(np.arange(200) < k, 0.1, -0.1)
    v[k - window // 2 - reach] = left_peak
    v[k + window // 2 + reach] = -right_peak
    ones = np.ones(200)
    # d is made by hand, not by _normalize, so no epsilon: detect() renormalizes
    return DecisionTrace(
        t0=0.0, dt=0.01, window=window, t_mid=0.075, wnorm=1.0,
        vnu=v[None, :], v=v, d=v / 4.0, sigma=ones, rms=ones, epsilon=None,
    )


@pytest.mark.parametrize("reach", [0, 1])
def test_fixed_scale_gate_flanks_end_where_resolve_ends_them(reach):
    trace = flank_trace(5.0, 5.0, reach)
    cfg = DetectConfig(kappa=1.0, scale=1.0)
    got = detect(trace, cfg)
    assert as_tuples(got) == as_tuples(unscreened_detect(trace, cfg))
    assert [d.position for d in got] == ([99] if reach == 0 else [])


@pytest.mark.parametrize("peaks", [(5.0, 6.0), (6.0, 5.0)])
def test_fixed_scale_gate_threshold_met_exactly_on_either_flank(peaks):
    """The smaller flank excursion binds; a threshold equal to it passes."""
    trace = flank_trace(*peaks)
    (det,) = detect(trace, DetectConfig(kappa=1.0, scale=1.0))
    for scale, kept in ((det.score, True), (np.nextafter(det.score, np.inf), False)):
        cfg = DetectConfig(kappa=1.0, scale=float(scale))
        got = detect(trace, cfg)
        assert as_tuples(got) == as_tuples(unscreened_detect(trace, cfg))
        assert len(got) == int(kept)


@pytest.mark.parametrize("scale", [None, 96 ** -0.5], ids=["trailing_mad", "fixed"])
@pytest.mark.parametrize("min_separation", [None, 0.5], ids=["sep_window", "sep_0.5s"])
def test_stream_emission_lag_bound(scale, min_separation):
    """Fed one sample per push(), each detection is emitted no later than the
    push that completes position p + min_sep_pos + W//2 + 1, p being its own
    position, even while later crossings are still queued (in noise they
    almost always are)."""
    window = 96
    spec = builtin_suite("pc5")
    _, clean = render(spec)
    y = apply_noise(clean, "normal", 10.0, 0)
    dd = step_detector(window=window, dt=spec.dt)
    cfg = DetectConfig(kappa=3.0, scale=scale, min_separation=min_separation)
    min_sep_pos = window if min_separation is None else round(min_separation / spec.dt)
    bound = min_sep_pos + window // 2 + 1
    sd = StreamDetector(dd, cfg)
    lags = []
    for i, x in enumerate(y.tolist()):
        # position i + 1 - W is the last one this push completes
        lags += [i + 1 - window - d.position for d in sd.push(x)]
    sd.finalize()
    assert len(lags) >= 3
    assert max(lags) <= bound
    if scale is not None:
        _, batch = detect_samples(dd, y, cfg)
        assert as_tuples(sd.detections) == as_tuples(batch)


def test_stream_mad_scale_chunk_invariant():
    dd = step_detector()
    rng = np.random.default_rng(7)
    y = step_signal(3000, 0.01, [(9.0, 2.0), (21.0, -2.0)])
    y = y + 0.1 * rng.standard_normal(y.size)
    runs = []
    for chunk in (1, 13, 3000):
        sd = StreamDetector(dd, DetectConfig())
        for i in range(0, len(y), chunk):
            sd.push_chunk(y[i : i + chunk])
        sd.finalize()
        runs.append(as_tuples(sd.detections))
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) == 2


def test_stream_bookkeeping():
    dd = step_detector()
    sd = StreamDetector(dd)
    assert sd.samples_seen == 0
    sd.push(0.0)
    assert sd.samples_seen == 1
    sd.push_chunk(np.zeros(99))
    assert sd.samples_seen == 100
    assert sd.push_chunk(np.empty(0)) == []
    sd.finalize()
    with pytest.raises(RuntimeError):
        sd.push(1.0)
    with pytest.raises(RuntimeError):
        sd.push_chunk([1.0, 2.0])


def test_stream_rejects_bad_chunks():
    dd = step_detector()
    sd = StreamDetector(dd)
    with pytest.raises(ValueError):
        sd.push_chunk(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sd.push_chunk(np.zeros((2, 2)))


def test_eval_windows_validation():
    dd = step_detector()
    with pytest.raises(ValueError):
        eval_windows(dd, np.zeros(10))  # shorter than the window
    with pytest.raises(ValueError):
        eval_windows(dd, np.zeros((2, 64)))
    bad = np.zeros(100)
    bad[50] = np.inf
    with pytest.raises(ValueError):
        eval_windows(dd, bad)


def test_trace_geometry():
    dd = step_detector(window=32, dt=0.5)
    trace = eval_windows(dd, np.zeros(100), t0=10.0)
    assert trace.positions == 100 - 32 + 1
    assert trace.time_at(0) == pytest.approx(10.0 + dd.t_mid)
    assert trace.time_at(3) == pytest.approx(10.0 + 3 * 0.5 + dd.t_mid)
    assert np.allclose(trace.times(), [trace.time_at(k) for k in range(trace.positions)])
    assert trace.vnu.shape == (2, trace.positions)
    assert trace.d.shape == (trace.positions,)


def test_detect_reuses_trace():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    trace = eval_windows(dd, y)
    a = detect(trace, DetectConfig())
    b = detect(trace, DetectConfig())
    assert as_tuples(a) == as_tuples(b)
    assert len(a) == 1


def test_detect_uses_trace_d_only_for_its_epsilon(monkeypatch):
    dd, y = gate_case()
    cfg = DetectConfig(kappa=3.0, scale=0.15)
    want = detect(eval_windows(dd, y, epsilon=cfg.epsilon), cfg)
    assert len(want) == 3

    # a trace normalized with a much larger epsilon has a d too small to
    # pass the gate; detect() must renormalize it with cfg.epsilon
    stale = eval_windows(dd, y, epsilon=1e3)
    assert stale.epsilon == 1e3
    assert np.abs(stale.d).max() < 0.15
    assert as_tuples(detect(stale, cfg)) == as_tuples(want)

    # with the same epsilon, the trace's d is used as it is
    trace = eval_windows(dd, y, epsilon=cfg.epsilon)
    monkeypatch.setattr(runtime, "_normalize", None)
    assert as_tuples(detect(trace, cfg)) == as_tuples(want)


def test_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(mode="argmax")
    with pytest.raises(ValueError):
        DetectConfig(kappa=-1.0)
    with pytest.raises(ValueError):
        DetectConfig(min_separation=-0.5)


def test_detection_fields():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    trace, dets = detect_samples(dd, y, t0=100.0)
    d = dets[0]
    assert isinstance(d, Detection)
    assert abs(d.time - 101.115) <= 0.02
    assert d.time == pytest.approx(trace.time_at(d.position))
