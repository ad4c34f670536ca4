"""Batch and streaming detection runtimes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def gate_oracle(trace, cfg, scale):
    """The gate as a plain loop over a whole trace, one crossing at a time.

    A crossing at k is a strict sign change of d between k-1 and k. Its left
    flank is d[k - W/2 .. k-1] and its right flank d[k .. k + W/2], both
    clipped to the trace. It passes when the excursion away from zero on each
    flank, in the direction of the crossing, reaches kappa times the scale,
    and when max |v| on both flanks exceeds the dust floor. The scale is
    `scale` when given; for None it is the MAD of d over the max(8W, 512)
    positions ending at the right flank's end (inf under 16 of them). Passing
    crossings closer than min_separation keep the higher score.
    """
    window, dt = trace.window, trace.dt
    flank = window // 2
    wnorm_sqrtw = trace.wnorm * math.sqrt(window)
    d = trace.d
    v, last, trailing = trace.v, d.size - 1, max(8 * window, 512)
    if cfg.min_separation is None:
        min_sep_pos = window
    else:
        min_sep_pos = max(1, int(round(cfg.min_separation / dt)))
    out, pending = [], None
    for k in range(1, d.size):
        if not np.sign(d[k - 1]) * np.sign(d[k]) < 0:
            continue
        lo, hi = max(0, k - flank), min(last, k + flank)
        sign_pre = 1.0 if d[k - 1] > 0 else -1.0
        left_exc = float(np.max(sign_pre * d[lo:k]))
        right_exc = float(np.max(-sign_pre * d[k : hi + 1]))
        if scale is None:
            history = d[max(0, hi - trailing + 1) : hi + 1]
            if history.size < 16:
                gate_scale = math.inf
            else:
                med = float(np.median(history))
                gate_scale = runtime.MAD_FACTOR * float(np.median(np.abs(history - med)))
        else:
            gate_scale = scale
        threshold = cfg.kappa * gate_scale
        if not (left_exc >= threshold and right_exc >= threshold):
            continue
        vleft = float(np.max(np.abs(v[lo:k])))
        vright = float(np.max(np.abs(v[k : hi + 1])))
        if min(vleft, vright) <= runtime.DUST * wnorm_sqrtw * float(trace.rms[k]):
            continue
        k_star = k - 1 if abs(float(d[k - 1])) <= abs(float(d[k])) else k
        if cfg.mode == "zero_crossing":
            time = trace.t0 + k_star * dt + trace.t_mid
        else:
            v0 = float(trace.vnu[0, k_star])
            v1 = float(trace.vnu[1, k_star]) if trace.vnu.shape[0] > 1 else 0.0
            if v1 != 0.0:
                local = min(max(-v0 / v1, 0.0), (window - 1) * dt)
            else:
                local = trace.t_mid
            time = trace.t0 + k_star * dt + local
        cand = Detection(time=time, score=min(left_exc, right_exc), kind=cfg.mode, position=k_star)
        if pending is None:
            pending = cand
        elif cand.position - pending.position <= min_sep_pos:
            if cand.score > pending.score:
                pending = cand
        else:
            out.append(pending)
            pending = cand
    return out if pending is None else out + [pending]


def streamed(dd, y, cfg, *sizes):
    """Stream y in chunks of the given sizes, repeated until y runs out."""
    sd = StreamDetector(dd, cfg)
    got, i = [], 0
    for size in itertools.cycle(sizes):
        if i >= y.size:
            break
        got += sd.push_chunk(y[i : i + size])
        i += size
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
    assert as_tuples(batch) == as_tuples(gate_oracle(trace, cfg, cfg.scale))
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
        assert as_tuples(batch) == as_tuples(gate_oracle(trace, cfg, cfg.scale))
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
    return DecisionTrace(
        t0=0.0, dt=0.01, window=window, t_mid=0.075, wnorm=1.0,
        vnu=v[None, :], v=v, d=v / 4.0, sigma=ones, rms=ones,
    )


@pytest.mark.parametrize("reach", [0, 1])
def test_fixed_scale_gate_flanks_end_where_resolve_ends_them(reach):
    trace = flank_trace(5.0, 5.0, reach)
    cfg = DetectConfig(kappa=1.0, scale=1.0)
    got = detect(trace, cfg)
    assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, cfg.scale))
    assert [d.position for d in got] == ([99] if reach == 0 else [])


@pytest.mark.parametrize("peaks", [(5.0, 6.0), (6.0, 5.0)])
def test_fixed_scale_gate_threshold_met_exactly_on_either_flank(peaks):
    """The smaller flank excursion binds; a threshold equal to it passes."""
    trace = flank_trace(*peaks)
    (det,) = detect(trace, DetectConfig(kappa=1.0, scale=1.0))
    for scale, kept in ((det.score, True), (np.nextafter(det.score, np.inf), False)):
        cfg = DetectConfig(kappa=1.0, scale=float(scale))
        got = detect(trace, cfg)
        assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, cfg.scale))
        assert len(got) == int(kept)


def gate_detect(trace, cfg):
    """The gate engine fed a whole trace, under cfg.scale as it is: None
    selects the trailing MAD, which detect() never uses."""
    engine = runtime._GateEngine(
        trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, cfg.scale
    )
    return engine.feed(trace.vnu, trace.v, trace.d, trace.rms, 0) + engine.finish()


@pytest.mark.parametrize("scale", [1.0, None], ids=["fixed", "trailing_mad"])
def test_dust_floor_met_exactly_rejects(scale):
    """A crossing whose smaller flank max |v| equals the dust floor is dropped.
    The floor is DUST * wnorm * sqrt(W) * rms[k] = DUST * 4.0 * rms[k], and
    max |v| is 5.0 on both flanks; rms[k] moves the floor."""
    cfg = DetectConfig(kappa=1.0, scale=scale)
    k = 100
    for floor, kept in ((5.0, False), (float(np.nextafter(5.0, 0.0)), True)):
        trace = flank_trace(5.0, 5.0)
        trace.rms[k] = floor / (runtime.DUST * 4.0)
        assert runtime.DUST * 4.0 * trace.rms[k] == floor
        got = gate_detect(trace, cfg)
        assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, scale))
        assert len(got) == int(kept)


@pytest.mark.parametrize("k, kept", [(6, False), (7, True)])
def test_trailing_mad_needs_16_positions(k, kept):
    """Under the trailing MAD, a crossing at k (W=16) has its right flank end
    at k + 8. At k=7 the MAD reads 16 positions of d; it is 0, so the
    crossing passes. At k=6 it has 15, the scale is inf and nothing passes."""
    v = np.where(np.arange(200) < k, 0.1, -0.1)
    ones = np.ones(200)
    trace = DecisionTrace(
        t0=0.0, dt=0.01, window=16, t_mid=0.075, wnorm=1.0,
        vnu=v[None, :], v=v, d=v / 4.0, sigma=ones, rms=ones,
    )
    cfg = DetectConfig(kappa=1.0, scale=None)
    got = gate_detect(trace, cfg)
    assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, None))
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


def test_stream_mad_scale_matches_gate_oracle():
    """The stream's trailing-MAD gate against the plain loop, exactly, at
    chunk sizes 1, 13 and the whole signal."""
    window = 96
    spec = builtin_suite("pc5")
    _, clean = render(spec)
    y = apply_noise(clean, "normal", 10.0, 0)
    dd = step_detector(window=window, dt=spec.dt)
    cfg = DetectConfig(kappa=3.0, scale=None)
    want = as_tuples(gate_oracle(eval_windows(dd, y), cfg, None))
    assert len(want) >= 3
    for chunk in (1, 13, y.size):
        assert as_tuples(streamed(dd, y, cfg, chunk)) == want


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    window=st.sampled_from([16, 33, 64]),
    n=st.integers(400, 1400),
    steps=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0)), min_size=0, max_size=4
    ),
    noise=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(0, 2**16),
    kappa=st.sampled_from([0.0, 2.0, 3.0]),
    mode=st.sampled_from(["zero_crossing", "linear_estimate"]),
    fixed=st.booleans(),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5),
)
def test_gate_matches_oracle_under_any_partition(
    window, n, steps, noise, seed, kappa, mode, fixed, sizes
):
    """Step-plus-noise signals under either scale: batch and a stream cut at
    random chunk sizes both give the oracle's detections, exactly."""
    dt = 0.01
    y = step_signal(n, dt, [(at * n * dt, amp) for at, amp in steps])
    y = y + noise * np.random.default_rng(seed).standard_normal(n)
    dd = step_detector(window=window, dt=dt)
    trace = eval_windows(dd, y)
    scale = window ** -0.5 if fixed else None
    cfg = DetectConfig(kappa=kappa, mode=mode, scale=scale)
    batch_scale = scale if fixed else runtime.batch_mad_scale(trace.d)
    assert as_tuples(detect(trace, cfg)) == as_tuples(gate_oracle(trace, cfg, batch_scale))
    got = streamed(dd, y, cfg, *sizes)
    assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, scale))


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
    """A rejected chunk leaves the stream as it was: samples_seen and the
    detections after a good continuation are those of a clean stream."""
    dd = step_detector()
    rng = np.random.default_rng(3)
    y = step_signal(600, 0.01, [(2.0, 1.0), (4.5, -1.0)]) + 0.05 * rng.standard_normal(600)
    cfg = DetectConfig(kappa=3.0, scale=64 ** -0.5)
    sd = StreamDetector(dd, cfg)
    got = sd.push_chunk(y[:250])
    with pytest.raises(ValueError):
        sd.push_chunk(np.array([1.0, np.nan]))
    assert sd.samples_seen == 250
    with pytest.raises(ValueError):
        sd.push_chunk(np.zeros((2, 2)))
    assert sd.samples_seen == 250
    got += sd.push_chunk(y[250:]) + sd.finalize()
    clean = StreamDetector(dd, cfg)
    want = clean.push_chunk(y[:250]) + clean.push_chunk(y[250:]) + clean.finalize()
    assert len(want) == 2
    assert as_tuples(got) == as_tuples(want)


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


def test_detect_gates_trace_d_as_given(monkeypatch):
    """detect() uses trace.d and never recomputes it."""
    dd, y = gate_case()
    cfg = DetectConfig(kappa=3.0, scale=0.15)
    trace = eval_windows(dd, y)
    want = detect(trace, cfg)
    assert len(want) == 3
    monkeypatch.setattr(runtime, "_statistics", None)
    assert as_tuples(detect(trace, cfg)) == as_tuples(want)


def test_decision_statistic_formula():
    """eval_windows' d is the documented expression, bit for bit:
    v / (wnorm * sqrt(W) * (sigma + SIGMA_FLOOR * rms) + EPSILON).
    W=50, so sqrt(W) is not a power of two and the order of the products
    shows in the bits."""
    dd = step_detector(window=50)
    rng = np.random.default_rng(5)
    noisy = step_signal(400, 0.01, [(2.0, 1.0)]) + 0.05 * rng.standard_normal(400)
    for y in (noisy, np.full(400, 5.0)):
        trace = eval_windows(dd, y)
        want = trace.v / (
            trace.wnorm * math.sqrt(trace.window)
            * (trace.sigma + runtime.SIGMA_FLOOR * trace.rms)
            + runtime.EPSILON
        )
        assert np.array_equal(trace.d.view(np.uint64), want.view(np.uint64))


def test_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(mode="argmax")
    bad = [-1.0, math.nan, math.inf, -math.inf]
    for field in ("kappa", "min_separation", "scale"):
        for x in bad:
            with pytest.raises(ValueError):
                DetectConfig(**{field: x})
    # the edge of each valid range is accepted
    DetectConfig(kappa=0.0, min_separation=0.0, scale=0.0)


def test_detection_fields():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    trace, dets = detect_samples(dd, y, t0=100.0)
    d = dets[0]
    assert isinstance(d, Detection)
    assert abs(d.time - 101.115) <= 0.02
    assert d.time == pytest.approx(trace.time_at(d.position))
