"""Batch and streaming detection runtimes."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd import kernels, runtime
from algcpd.bench import REFERENCE_SETUPS, Campaign, DetectorSetup, run_campaign
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
from test_kernels import raw_weights


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


def test_off_grid_jump_located_within_sample():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.1137, 1.0)])
    _, dets = detect_samples(dd, y)
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


def test_noise_free_step_found_at_its_sample_at_every_window():
    """A unit step between samples 2W-1 and 2W of 4W samples, step detector,
    kappa 3, scale W^-0.5: batch finds it once, within half a sample of 2W,
    at every W from 29 to 400. At even W a window midpoint lies on the step,
    so d is a lone exact zero there, and a stream in chunks of W//2 + 1
    finds it too. Below W 29 the step's |d| peak, about 0.56, is under the
    threshold 3*W^-0.5."""
    det = build_detector(ModelSpec.monomial(0, 0))
    dt = 0.01
    for window in range(29, 401):
        dd = discretize(det, window=window, dt=dt)
        y = np.zeros(4 * window)
        y[2 * window :] = 1.0
        cfg = DetectConfig(kappa=3.0, scale=window ** -0.5)
        _, batch = detect_samples(dd, y, cfg)
        assert len(batch) == 1, window
        # the window midpoint of position p is sample p + (W-1)/2
        assert abs(batch[0].position + (window - 1) / 2 - 2 * window) <= 0.5, window
        if window % 2 == 0:
            assert as_tuples(streamed(dd, y, cfg, window // 2 + 1)) == as_tuples(batch), window


@pytest.mark.parametrize("suite", ["pc5", "sine3"])
def test_noise_free_reference_changes_found_within_one_sample(suite):
    """Every change of the noise-free suite is found within one sample through
    its reference setup, in batch under the fixed scale W^-0.5 and the
    whole-trace MAD, and in a stream under the fixed scale. pc5 at W 384 puts
    each change under a window midpoint: d is a lone exact zero there."""
    setup = REFERENCE_SETUPS[suite]
    spec = builtin_suite(suite)
    _, y = render(spec)
    det = build_detector(setup.model(), method=setup.method)
    dd = discretize(det, window=setup.window, dt=spec.dt, rule=setup.rule)
    trace = eval_windows(dd, y)
    truth = spec.change_times()
    for scale in (setup.window ** -0.5, None):
        cfg = dataclasses.replace(setup.config(), scale=scale)
        batch = detect(trace, cfg)
        assert len(batch) == len(truth), scale
        for got, want in zip(batch, truth):
            assert abs(got.time - want) <= spec.dt, (scale, got.time, want)
        if scale is not None:
            assert as_tuples(streamed(dd, y, cfg, 7)) == as_tuples(batch)


def gate_oracle(trace, cfg, scale):
    """The gate as a plain loop over a whole trace, one crossing at a time.

    A crossing at k is a strict sign change of d between k-1 and k, or a
    lone exact zero d[k-1] between d[k-2] and d[k] of opposite sign; d[k]
    gives its direction. Its left flank is d[k - W/2 .. k-1] and its right
    flank d[k .. k + W/2], both clipped to the trace. It passes when the
    excursion away from zero on each flank, in that direction, reaches kappa
    times the scale, and when max |v| on both flanks exceeds the dust floor.
    The scale is `scale` when given; for None it is the MAD of d over the
    max(8W, 512) positions ending at the right flank's end (inf under 16 of
    them). Passing crossings closer than min_separation keep the higher score.
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
        lone = k >= 2 and d[k - 1] == 0.0 and np.sign(d[k - 2]) * np.sign(d[k]) < 0
        if not (np.sign(d[k - 1]) * np.sign(d[k]) < 0 or lone):
            continue
        lo, hi = max(0, k - flank), min(last, k + flank)
        falls = 1.0 if d[k] < 0 else -1.0
        left_exc = float(np.max(falls * d[lo:k]))
        right_exc = float(np.max(-falls * d[k : hi + 1]))
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
        time = trace.t0 + k_star * dt + trace.t_mid
        score = min(left_exc, right_exc)
        cand = Detection(time=time, score=score, kind="zero_crossing", position=k_star)
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
    """Stream y in chunks of the given sizes, repeated until y runs out.
    Every chunk is handed over in one array that is refilled for the next,
    so a stream that kept the caller's array, not its samples, reads
    samples that are no longer the ones it was given."""
    sd = StreamDetector(dd, cfg)
    reused = np.empty(min(max(sizes), y.size))
    got, i = [], 0
    for size in itertools.cycle(sizes):
        if i >= y.size:
            break
        chunk = reused[: min(size, y.size - i)]
        chunk[:] = y[i : i + size]
        got += sd.push_chunk(chunk)
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
        v=v, d=v / 4.0, sigma=ones, rms=ones,
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
    engine.feed(trace.v, trace.d, trace.rms, 0)
    return engine.finish()


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
        v=v, d=v / 4.0, sigma=ones, rms=ones,
    )
    cfg = DetectConfig(kappa=1.0, scale=None)
    got = gate_detect(trace, cfg)
    assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, None))
    assert len(got) == int(kept)


def assert_exact_emission_lag(scale, min_separation, chunk):
    """Each detection at position p is returned by the call that completes
    position p + min_sep_pos + W//2 + 1: one push() per sample for chunk 1,
    push_chunk() of chunk samples otherwise. In noise later crossings are
    almost always still queued when it comes out."""
    window = 96
    spec = builtin_suite("pc5")
    _, clean = render(spec)
    y = apply_noise(clean, "normal", 10.0, 0)
    dd = step_detector(window=window, dt=spec.dt)
    cfg = DetectConfig(kappa=3.0, scale=scale, min_separation=min_separation)
    min_sep_pos = window if min_separation is None else max(1, round(min_separation / spec.dt))
    lag = min_sep_pos + window // 2 + 1
    sd = StreamDetector(dd, cfg)
    emitted = 0
    for i in range(0, y.size, chunk):
        got = sd.push(float(y[i])) if chunk == 1 else sd.push_chunk(y[i : i + chunk])
        # the call completes positions i + 1 - W .. min(i + chunk, n) - W
        for d in got:
            assert i - window < d.position + lag <= min(i + chunk, y.size) - window
        emitted += len(got)
    sd.finalize()
    assert emitted >= 3
    if scale is not None:
        _, batch = detect_samples(dd, y, cfg)
        assert as_tuples(sd.detections) == as_tuples(batch)


SEPARATIONS = [None, 0.0, 0.5, 3.0]
SEPARATION_IDS = ["sep_window", "sep_0s", "sep_0.5s", "sep_3s"]


@pytest.mark.parametrize("scale", [None, 96 ** -0.5], ids=["trailing_mad", "fixed"])
@pytest.mark.parametrize("min_separation", SEPARATIONS, ids=SEPARATION_IDS)
def test_stream_emission_lag_bound(scale, min_separation):
    """Fed one sample per push(), a detection at p comes out exactly
    min_sep_pos + W//2 + 1 positions past p, min_sep_pos 1 and 300 being
    below and above W=96."""
    assert_exact_emission_lag(scale, min_separation, 1)


@pytest.mark.parametrize("scale", [None, 96 ** -0.5], ids=["trailing_mad", "fixed"])
@pytest.mark.parametrize("min_separation", SEPARATIONS, ids=SEPARATION_IDS)
def test_stream_chunk_emission_lag(scale, min_separation):
    """Fed seven samples per push_chunk(), a detection at p comes out of the
    call that completes position p + min_sep_pos + W//2 + 1."""
    assert_exact_emission_lag(scale, min_separation, 7)


def test_finalize_twice_returns_nothing_more():
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    sd = StreamDetector(dd, DetectConfig(scale=64 ** -0.5))
    got = sd.push_chunk(y) + sd.finalize()
    assert len(got) == 1
    assert sd.finalize() == []
    assert as_tuples(sd.detections) == as_tuples(got)


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
    fixed=st.booleans(),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    zeros=st.lists(
        st.tuples(st.integers(0, 2**16), st.integers(1, 3), st.integers(-2, 2)), max_size=6
    ),
)
def test_gate_matches_oracle_under_any_partition(
    window, n, steps, noise, seed, kappa, fixed, sizes, zeros
):
    """Step-plus-noise signals under either scale: batch and a stream cut at
    random chunk sizes both give the oracle's detections, exactly. Then d is
    zeroed over runs of 1-3 positions from d[k-1] at some sign changes k, and
    the gate is fed that trace in pieces cut at the same sizes and also
    within two positions of each run's start: lone zeros between opposite
    signs are crossings, longer runs are not, wherever a piece ends."""
    dt = 0.01
    y = step_signal(n, dt, [(at * n * dt, amp) for at, amp in steps])
    y = y + noise * np.random.default_rng(seed).standard_normal(n)
    dd = step_detector(window=window, dt=dt)
    trace = eval_windows(dd, y)
    scale = window ** -0.5 if fixed else None
    cfg = DetectConfig(kappa=kappa, scale=scale)
    batch_scale = scale if fixed else runtime.batch_mad_scale(trace.d)
    assert as_tuples(detect(trace, cfg)) == as_tuples(gate_oracle(trace, cfg, batch_scale))
    got = streamed(dd, y, cfg, *sizes)
    assert as_tuples(got) == as_tuples(gate_oracle(trace, cfg, scale))

    changes = np.flatnonzero(np.sign(trace.d[:-1]) * np.sign(trace.d[1:]) < 0)
    if not changes.size:
        return
    d = trace.d.copy()
    cuts = set(itertools.accumulate(itertools.islice(itertools.cycle(sizes), d.size)))
    for pick, run, at in zeros:
        start = int(changes[pick % changes.size])  # d[k-1] of the change at k
        d[start : start + run] = 0.0
        cuts.add(start + at)
    zeroed = dataclasses.replace(trace, d=d)
    batch_scale = scale if fixed else runtime.batch_mad_scale(d)
    assert as_tuples(detect(zeroed, cfg)) == as_tuples(gate_oracle(zeroed, cfg, batch_scale))
    engine = runtime._GateEngine(window, dt, trace.t_mid, trace.wnorm, cfg, trace.t0, scale)
    fed, got = 0, []
    for cut in sorted(c for c in cuts if 0 < c <= d.size) + [d.size]:
        if cut > fed:
            engine.feed(trace.v[fed:cut], d[fed:cut], trace.rms[fed:cut], fed)
            got += engine.drain()
            fed = cut
    assert as_tuples(got + engine.finish()) == as_tuples(gate_oracle(zeroed, cfg, scale))


def eager_calls(trace, cfg, sizes, n):
    """Per-call detections of a stream that feeds the gate every position a
    call completes and drains it at every call, read from a batch trace; the
    last list is finalize()'s."""
    engine = runtime._GateEngine(
        trace.window, trace.dt, trace.t_mid, trace.wnorm, cfg, trace.t0, cfg.scale
    )
    calls, fed, seen = [], 0, 0
    for size in itertools.cycle(sizes):
        if seen >= n:
            break
        seen = min(seen + size, n)
        done = max(0, seen - trace.window + 1)
        if done > fed:
            cols = slice(fed, done)
            engine.feed(trace.v[cols], trace.d[cols], trace.rms[cols], fed)
            fed = done
            calls.append(engine.drain())
        else:
            calls.append([])
    calls.append(engine.finish())
    return calls


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    window=st.sampled_from([16, 33, 64]),
    n=st.integers(300, 1400),
    steps=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0)), min_size=0, max_size=4
    ),
    noise=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(0, 2**16),
    kappa=st.sampled_from([0.0, 2.0, 3.0]),
    fixed=st.booleans(),
    min_separation=st.sampled_from([None, 0.0, 0.05, 0.3, 1.5]),
    sizes=st.lists(st.just(1) | st.integers(1, 300), min_size=1, max_size=5),
    push_ones=st.booleans(),
)
def test_stream_emits_where_an_eager_drain_does(
    window, n, steps, noise, seed, kappa, fixed, min_separation, sizes, push_ones
):
    """However the samples are cut, and with min_separation below and above
    W, every push_chunk() call returns exactly what a stream that drains the
    gate at every call returns at that call. With push_ones, every
    one-sample piece goes through push(float) instead, between the chunks."""
    dt = 0.01
    y = step_signal(n, dt, [(at * n * dt, amp) for at, amp in steps])
    y = y + noise * np.random.default_rng(seed).standard_normal(n)
    dd = step_detector(window=window, dt=dt)
    scale = window ** -0.5 if fixed else None
    cfg = DetectConfig(kappa=kappa, scale=scale, min_separation=min_separation)
    sd = StreamDetector(dd, cfg)
    got, i = [], 0
    for size in itertools.cycle(sizes):
        if i >= n:
            break
        if push_ones and size == 1:
            got.append(as_tuples(sd.push(float(y[i]))))
        else:
            got.append(as_tuples(sd.push_chunk(y[i : i + size])))
        i += size
    got.append(as_tuples(sd.finalize()))
    want = [as_tuples(c) for c in eager_calls(eval_windows(dd, y), cfg, sizes, n)]
    assert got == want


def stored_samples(sd):
    """The samples a stream holds: its tail, then the chunks and single
    samples pushed since; each one is counted in _held."""
    stored = sd._tail.shape[0] + sum(c.shape[0] for c in sd._chunks) + len(sd._singles)
    assert stored == sd._held
    return stored


def test_stream_push_storage_bounded():
    """20 * max(8W, 512) single-sample pushes leave the samples held and the
    storage of the gate's history within a constant times the max(8W, 512) + W positions
    the trailing MAD must keep: under the trailing MAD, under a fixed scale,
    and with min_separation 3 s (300 positions, above W). The samples held
    never exceed 2W + W//2: W-1 for the next window, and at most W//2 + W + 1
    positions' worth waiting to be evaluated, whatever min_separation is."""
    window = 96
    keep = max(8 * window, 512)
    y = 0.1 * np.random.default_rng(2).standard_normal(20 * keep)
    for cfg in (
        DetectConfig(),
        DetectConfig(scale=window ** -0.5),
        DetectConfig(min_separation=3.0),
    ):
        sd = StreamDetector(step_detector(window=window), cfg)
        most_stored = most_history = most_held = 0
        for x in y.tolist():
            sd.push(x)
            most_stored = max(most_stored, stored_samples(sd))
            d = sd._engine.d
            most_history = max(most_history, (d if d.base is None else d.base).shape[0])
            most_held = max(most_held, sd._held)
        assert most_stored <= 4 * (keep + window), cfg
        assert most_history <= 4 * (keep + window), cfg
        assert most_held <= 2 * window + window // 2, cfg


def test_stream_storage_shrinks_after_a_large_chunk():
    """One large push_chunk leaves no chunk-sized storage behind: the gate's
    history is copied out of the chunk's arrays, the stream keeps a copy of
    the chunk's last W-1 samples and not the chunk, and single pushes after
    it hold no more samples than the next evaluation needs."""
    window = 128
    keep = max(8 * window, 512)
    y = 0.1 * np.random.default_rng(5).standard_normal(100_000 + 2000)
    for cfg in (DetectConfig(), DetectConfig(scale=window ** -0.5)):
        sd = StreamDetector(step_detector(window=window), cfg)
        sd.push_chunk(y[:100_000])
        for name in ("d", "v", "rms"):
            a = getattr(sd._engine, name)
            assert (a if a.base is None else a.base).shape[-1] <= keep + 2 * window, (cfg, name)
        assert sd._tail.base is None and sd._tail.shape[0] == window - 1, cfg
        assert stored_samples(sd) == window - 1, cfg
        for x in y[100_000:].tolist():
            sd.push(x)
            assert stored_samples(sd) <= 2 * (2 * window + window // 2 + 1), cfg


def test_median_matches_np_median_bit_for_bit():
    """batch_mad_scale against the MAD np.median makes over odd and even
    counts (up to one sine3 trial at W 96 and one _SCREEN_ELEMENTS group),
    ties, signed zeros, infinities, NaN, and middle pairs whose sum
    overflows to inf (np.median's own mean overflows there too).
    batch_mad_scale runs outside errstate: it must raise no warning."""
    rng = np.random.default_rng(11)
    big = np.finfo(np.float64).max
    cases = [rng.standard_normal(n) for n in (1, 2, 3, 4, 767, 768, 1155, 16384)]
    cases += [rng.integers(-2, 3, n).astype(np.float64) for n in (5, 6, 16, 17)]
    cases.append(rng.integers(-2, 3, 9))  # an int array is read as float64
    cases += [np.array(a) for a in (
        [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0], [-0.0],
        [1.7e308, big], [-big, -1.7e308, 5.0], [-big, 1.0, -1.7e308, 2.0],
        [big, big, -big], [1.0, np.nan, 2.0], [np.nan, 3.0],
        [np.inf, 1.0, 2.0], [-np.inf, 1.0], [np.inf, -np.inf], [np.inf, np.inf, 3.0],
    )]

    def bits(x):
        return np.float64(x).view(np.uint64)

    for a in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.median(a))
            mad = runtime.MAD_FACTOR * float(np.median(np.abs(a - want)))
        assert bits(runtime.batch_mad_scale(a)) == bits(mad), a


def trailing_engine(d, window, kappa):
    """A trailing-MAD gate engine whose history is d, fed at position 0."""
    engine = runtime._GateEngine(window, 0.01, 0.0, 1.0, DetectConfig(kappa=kappa), 0.0, None)
    engine.feed(d, d, np.ones(d.size), 0)
    return engine


def plain_thresholds(engine, col):
    """kappa times the MAD of each crossing's trailing window by np.median,
    one crossing at a time: the max(8W, 512) positions of d ending at its
    right flank's end, clipped to the history, and inf under 16 of them."""
    d, out = engine.d, []
    for k in col.tolist():
        end = min(k + engine.flank, d.size - 1) + 1
        w = d[max(0, end - engine.trailing) : end]
        with np.errstate(over="ignore", invalid="ignore"):
            mad = runtime.MAD_FACTOR * float(np.median(np.abs(w - np.median(w))))
        out.append(engine.cfg.kappa * (math.inf if w.size < 16 else mad))
    return np.array(out)


def mad_traces():
    """900 positions of d each: noise, and the special cases of
    test_median_matches_np_median_bit_for_bit spread over whole windows."""
    rng = np.random.default_rng(23)
    big = np.finfo(np.float64).max
    with_nan = rng.standard_normal(900)
    with_nan[700] = np.nan
    return {
        "noise": rng.standard_normal(900),
        "signed_zeros": rng.choice([0.0, -0.0], 900),
        "zeros_and_ones": rng.choice([0.0, -0.0, 1.0, -1.0], 900),
        "ties": rng.integers(-2, 3, 900).astype(np.float64),
        "nan": with_nan,
        "overflowing_pair": rng.choice([1.7e308, big], 900),
        "overflowing_negative": rng.choice([-big, -1.7e308, 5.0], 900),
        "overflowing_mixed": np.resize([big, big, -big], 900),
    }


@pytest.mark.parametrize("case", sorted(mad_traces()))
@pytest.mark.parametrize("window", [16, 96])
@pytest.mark.parametrize("kappa", [0.0, 3.0])
def test_trailing_mad_thresholds_match_batch_mad_scale(case, window, kappa):
    """The gate's trailing-MAD thresholds, taken from sorted rows, equal
    kappa times np.median's MAD of each crossing's window bit for bit. A
    crossing at every position covers windows under 16 positions (W 16),
    short windows at the stream start, full ones, and more crossings than
    one gate step takes; kappa 0 times an inf scale is NaN, as in Python
    floats."""
    d = mad_traces()[case]
    engine = trailing_engine(d, window, kappa)
    col = np.arange(1, d.size)
    ends = np.minimum(col + engine.flank, d.size - 1) + 1
    assert (ends < 16).any() == (window == 16)
    assert (ends < engine.trailing).any() and (ends == engine.trailing).any()
    assert col.size > runtime._SCREEN_ELEMENTS // engine.trailing
    want = plain_thresholds(engine, col)
    got = engine._thresholds(col)  # warnings are errors: it must raise none
    assert got.shape == want.shape
    assert (got.view(np.uint64) == want.view(np.uint64)).all(), case


def test_trailing_mad_gate_temporaries_bounded():
    """One whole-trace push_chunk of a pc5 draw (W 96, trailing MAD, 3,200
    samples) adds a traced peak under 4 * _SCREEN_ELEMENTS float64 values.
    The gate takes its trailing MADs in steps of at most _SCREEN_ELEMENTS
    values; one array of all of a drain's windows would be several times
    that."""
    spec = builtin_suite("pc5")
    _, clean = render(spec)
    y = apply_noise(clean, "normal", 10.0, 0)
    assert y.size == 3200
    sd = StreamDetector(step_detector(window=96, dt=spec.dt), DetectConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sd.push_chunk(y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(sd.detections) >= 2
    assert peak < 4 * runtime._SCREEN_ELEMENTS * 8, peak


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
        sd.push(math.nan)
    with pytest.raises(RuntimeError):
        sd.push_chunk([1.0, 2.0])
    assert sd.samples_seen == 100


def test_stream_rejects_bad_chunks():
    """A rejected chunk or sample leaves the stream as it was: samples_seen
    and the detections after a good continuation are those of a clean
    stream. The bad samples come while good ones are still buffered."""
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
    for x in y[250:260].tolist():
        got += sd.push(x)
    for bad in (math.nan, math.inf, -math.inf, 2e153, -1e300):
        with pytest.raises(ValueError):
            sd.push(bad)
        assert sd.samples_seen == 260
    with pytest.raises(ValueError):
        sd.push_chunk(np.array([1.0, 2e153]))
    assert sd.samples_seen == 260
    got += sd.push_chunk(y[260:]) + sd.finalize()
    clean = StreamDetector(dd, cfg)
    want = clean.push_chunk(y[:250]) + clean.push_chunk(y[250:]) + clean.finalize()
    assert len(want) == 2
    assert as_tuples(got) == as_tuples(want)


def amplitude_probe(a):
    """A step at sample 300 of 600 in 0.05 normal noise, scaled by a."""
    noise = 0.05 * np.random.default_rng(0).standard_normal(600)
    return a * (np.where(np.arange(600) >= 300, 1.0, 0.0) + noise)


@pytest.mark.parametrize("scale", [None, 64 ** -0.5], ids=["mad", "fixed"])
@pytest.mark.parametrize("a", [1e150, 1e152])
def test_samples_within_the_bound_detect(a, scale):
    """Up to sqrt(DBL_MAX / (2W)), 1.19e153 at W 64, a step is found where
    it is at amplitude 1, in batch and in a stream."""
    dd = step_detector()
    cfg = DetectConfig(kappa=3.0, scale=scale)
    y = amplitude_probe(a)
    _, dets = detect_samples(dd, y, cfg)
    assert [d.position for d in dets] == [268]
    assert [d.position for d in streamed(dd, y, cfg, 1)] == [268]
    assert [d.position for d in streamed(dd, y, cfg, 600)] == [268]


@pytest.mark.parametrize("scale", [None, 64 ** -0.5], ids=["mad", "fixed"])
@pytest.mark.parametrize("a", [2e153, 1e154, 1e155, 1e300])
def test_samples_past_the_bound_fail_loudly(a, scale):
    """Past the bound a window's sums can overflow, and the
    detections were wrong or none; now batch, push_chunk and push raise,
    naming the bound and the window, and the stream keeps no bad sample."""
    dd = step_detector()
    cfg = DetectConfig(kappa=3.0, scale=scale)
    y = amplitude_probe(a)
    assert math.sqrt(sys.float_info.max / (2 * 64)) == runtime._sample_bound(dd)
    message = r"samples must be finite and at most 1\.19e\+153 .* window=64"
    with pytest.raises(ValueError, match=message):
        detect_samples(dd, y, cfg)
    sd = StreamDetector(dd, cfg)
    with pytest.raises(ValueError, match=message):
        sd.push_chunk(y)
    assert sd.samples_seen == 0
    first = int(np.flatnonzero(np.abs(y) > runtime._sample_bound(dd))[0])
    for x in y[:first].tolist():
        sd.push(x)
    with pytest.raises(ValueError, match=message):
        sd.push(y[first])
    assert sd.samples_seen == first


def test_sample_bound_holds_heavy_weights_in_range():
    """The general polynomial(3, 2) detector at W 64 and dt 4.4e15 has a
    collapsed row w_mid heavy enough that wnorm sqrt(W) |y|, the bound on d's
    denominator and on v, binds before sqrt(DBL_MAX / (2W)). (discretize
    keeps wnorm under sqrt(DBL_MAX), so the weights can bind by at most a
    factor of about 0.7.) Samples at the bound with the signs of w_mid keep
    every statistic finite (pytest makes an overflow warning an error); twice
    that fails."""
    det = build_detector(ModelSpec.polynomial(3, 2), method="general")
    dd = discretize(det, window=64, dt=4.4e15)
    bound = runtime._sample_bound(dd)
    assert bound < math.sqrt(sys.float_info.max / (2 * 64)) * 0.8
    y = bound * np.tile(np.where(dd.w_mid < 0, -1.0, 1.0), 3)
    trace = eval_windows(dd, y)
    assert all(np.isfinite(a).all() for a in (trace.v, trace.d, trace.sigma, trace.rms))
    with pytest.raises(ValueError, match="samples must be finite"):
        eval_windows(dd, 2 * y)


def test_zero_wnorm_fails_loudly():
    """monomial(0, 0) at W 2 projects to rows whose midpoint norm is exactly
    0.0; d then divides v by EPSILON alone, and a noisy step gave dozens of
    detections. Batch, campaign rows and stream raise, naming the window,
    before the engine sees a sample."""
    dd = step_detector(window=2)
    assert dd.wnorm == 0.0
    y = step_signal(600, 0.01, [(3.0, 1.0)]) + np.random.default_rng(0).normal(0, 0.05, 600)
    message = r"wnorm is 0\.0 at window=2"
    with pytest.raises(ValueError, match=message):
        detect_samples(dd, y)
    with pytest.raises(ValueError, match=message):
        runtime._eval_rows(dd, np.stack([y, y]))
    with pytest.raises(ValueError, match=message):
        run_campaign(Campaign("pc5", "normal", 10.0, DetectorSetup(n1=0, window=2), trials=2))
    for scale in (None, 2 ** -0.5):
        with pytest.raises(ValueError, match=message):
            StreamDetector(dd, DetectConfig(scale=scale))
    # a detector with a positive norm at the same window still runs: the
    # raw quadrature rows, unprojected
    weights = raw_weights(dd)
    w_mid = kernels._midpoint_row(weights, dd.t_mid)
    raw = dataclasses.replace(dd, weights=weights, w_mid=w_mid, wnorm=kernels._norm(w_mid))
    assert raw.wnorm > 0.0
    eval_windows(raw, y)


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


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf, True, "1.0", None])
def test_bad_t0_fails_before_any_sample(t0, monkeypatch):
    """A start time that is not a real number with a finite float (a bool
    is not one) raises ValueError in batch and stream before the engine
    sees a sample."""
    dd = step_detector()
    y = step_signal(200, 0.01, [(1.115, 1.0)])
    monkeypatch.setattr(runtime, "eval_windows_raw", None)
    with pytest.raises(ValueError, match="t0 must be a finite number"):
        detect_samples(dd, y, t0=t0)
    with pytest.raises(ValueError, match="t0 must be a finite number"):
        StreamDetector(dd, t0=t0)


def test_t0_is_read_as_a_python_float():
    """A NumPy or Fraction t0 gives the detections of its float, timed as
    Python floats, in batch and stream."""
    dd = step_detector()
    y = step_signal(400, 0.01, [(1.2, 1.0), (2.5, 1.5)])
    cfg = DetectConfig(kappa=3.0, scale=64 ** -0.5)
    want = as_tuples(detect_samples(dd, y, cfg, t0=0.5)[1])
    assert len(want) == 2
    for t0 in (np.float64(0.5), Fraction(1, 2)):
        trace, dets = detect_samples(dd, y, cfg, t0=t0)
        sd = StreamDetector(dd, cfg, t0=t0)
        streamed_dets = sd.push_chunk(y) + sd.finalize()
        for got in (dets, streamed_dets):
            assert as_tuples(got) == want
            assert all(type(d.time) is float for d in got)
        assert type(trace.t0) is float and type(sd.t0) is float


def test_trace_geometry():
    dd = step_detector(window=32, dt=0.5)
    trace = eval_windows(dd, np.zeros(100), t0=10.0)
    assert trace.positions == 100 - 32 + 1
    assert trace.time_at(0) == pytest.approx(10.0 + dd.t_mid)
    assert trace.time_at(3) == pytest.approx(10.0 + 3 * 0.5 + dd.t_mid)
    assert np.allclose(trace.times(), [trace.time_at(k) for k in range(trace.positions)])
    assert trace.v.shape == trace.d.shape == (trace.positions,)


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


def test_detect_gates_the_trace_in_place():
    """The gate holds a batch trace's arrays as given: feeding a whole trace
    copies none of d, v or rms."""
    dd, y = gate_case()
    trace = eval_windows(dd, y)
    engine = runtime._GateEngine(
        trace.window, trace.dt, trace.t_mid, trace.wnorm, DetectConfig(), trace.t0, 0.15
    )
    engine.feed(trace.v, trace.d, trace.rms, 0)
    for name in ("d", "v", "rms"):
        assert np.shares_memory(getattr(engine, name), getattr(trace, name)), name


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
    bad = [-1.0, math.nan, math.inf, -math.inf, True, False]
    for field in ("kappa", "min_separation", "scale"):
        for x in bad:
            with pytest.raises(ValueError, match=field):
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
