"""The NumPy window engine against the scalar loop, bit for bit.

`scalar_eval_windows_raw` is the reference: one window position at a time,
every accumulator starting at 0.0 and taking its terms left to right over the
window with a plain float multiply and add, math.sqrt last.
"""

import math

import numpy as np
import pytest

from algcpd import _engine, runtime
from algcpd._engine import eval_windows_raw
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import discretize
from algcpd.runtime import DetectConfig, detect_samples

MODELS = {2: ModelSpec.monomial(0, 0), 5: ModelSpec.polynomial(3, 2)}


def scalar_eval_windows_raw(weights, signal):
    nv = weights.shape[0]
    window = weights.shape[1]
    npos = max(0, signal.shape[0] - window + 1)
    out_vnu = np.empty((nv, npos))
    out_sigma = np.empty(npos)
    out_rms = np.empty(npos)
    wrows = [list(map(float, weights[v])) for v in range(nv)]
    sig = list(map(float, signal))
    for k in range(npos):
        for v in range(nv):
            acc = 0.0
            row = wrows[v]
            for i in range(window):
                acc = acc + row[i] * sig[k + i]
            out_vnu[v, k] = acc
        ssum = 0.0
        ssq = 0.0
        for i in range(window):
            x = sig[k + i]
            ssum = ssum + x
            ssq = ssq + x * x
        mean = ssum / window
        var = 0.0
        for i in range(window):
            dev = sig[k + i] - mean
            var = var + dev * dev
        out_sigma[k] = math.sqrt(var / window)
        out_rms[k] = math.sqrt(ssq / window)
    return out_vnu, out_sigma, out_rms


def weights_for(nv, window):
    dd = discretize(build_detector(MODELS[nv]), window=window, dt=0.01)
    assert dd.weights.shape == (nv, window)
    return dd.weights


def hard_signal(n, window, seed):
    """Segments from 1e-160 (squares underflow to subnormals) to 1e150, and
    runs of +0.0 and -0.0, one of them longer than a window."""
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    cut = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 12), replace=False))
    for lo, hi in zip(np.r_[0, cut], np.r_[cut, n]):
        y[lo:hi] = rng.standard_normal(hi - lo) * 10.0 ** rng.integers(-160, 151)
    y[n // 7 : n // 7 + window + 5] = -0.0
    y[n // 3 : n // 3 + window // 2] = 0.0
    y[n // 2 : n // 2 + 9] = [0.0, -0.0] * 4 + [-0.0]
    y[n // 2 + 20 : n // 2 + 40] = -1e-300
    return y


def assert_bit_identical(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        # equal bit patterns: equal values and equal sign bits of zeros
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("nv", [2, 5])
@pytest.mark.parametrize("window", [64, 128, 384])
@pytest.mark.parametrize("block", [1, 50, _engine.BLOCK])
def test_engine_matches_scalar_loop(nv, window, block, monkeypatch):
    monkeypatch.setattr(_engine, "BLOCK", block)
    w = weights_for(nv, window)
    short = _engine.SHORT
    counts = {1, short - 1, short, short + 1, 2 * short + 3}
    if block < 1000:
        counts |= {block - 1, block, block + 1, 3 * block + 7}
    for npos in sorted(counts):
        y = hard_signal(npos + window - 1, window, seed=npos)
        assert_bit_identical(
            eval_windows_raw(w, y), scalar_eval_windows_raw(w, y)
        )


@pytest.mark.parametrize("nv", [2, 5])
@pytest.mark.parametrize("window", [64, 128, 384])
def test_engine_matches_scalar_loop_across_block_edge(nv, window):
    """Positions on both sides of the real block boundary; each position
    depends only on its own window, so the oracle runs on that stretch."""
    w = weights_for(nv, window)
    block = _engine.BLOCK
    npos = 2 * block + 40
    y = hard_signal(npos + window - 1, window, seed=window + nv)
    got = eval_windows_raw(w, y)
    for edge in (block, 2 * block):
        lo, hi = edge - 40, edge + 40
        want = scalar_eval_windows_raw(w, y[lo : hi + window - 1])
        assert_bit_identical([got[0][:, lo:hi], got[1][lo:hi], got[2][lo:hi]], want)


def test_engine_writes_nothing_without_positions():
    w = weights_for(2, 64)
    for n in (0, 10, 63):
        vnu, sigma, rms = eval_windows_raw(w, np.zeros(n))
        assert vnu.shape == (2, 0)
        assert sigma.shape == rms.shape == (0,)


def test_empty_position_range():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=64, dt=0.01)
    vnu, sigma, rms = eval_windows_raw(dd.weights, np.zeros(10))
    assert vnu.shape == (2, 0)
    assert sigma.shape == rms.shape == (0,)


def test_engine_matches_scalar_loop_on_a_random_walk():
    """A degree-1 model (three delay rows) at a window size no other case
    uses, over a random walk in noise."""
    dd = discretize(build_detector(ModelSpec.monomial(1, 0)), window=48, dt=0.02)
    rng = np.random.default_rng(17)
    y = np.cumsum(rng.standard_normal(5000)) * 0.01 + rng.standard_normal(5000)
    assert_bit_identical(eval_windows_raw(dd.weights, y), scalar_eval_windows_raw(dd.weights, y))


def test_detections_match_scalar_loop(monkeypatch):
    """detect_samples reaches the engine through runtime.eval_windows_raw;
    with the scalar loop bound there, the detections are the same tuples."""
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=64, dt=0.01)
    t = np.arange(2000) * 0.01
    rng = np.random.default_rng(4)
    y = np.where(t >= 7.3, 1.0, 0.0) + 0.08 * rng.standard_normal(2000)

    def key(dets):
        return [(d.time, d.score, d.kind, d.position) for d in dets]

    _, got = detect_samples(dd, y, DetectConfig())
    monkeypatch.setattr(runtime, "eval_windows_raw", scalar_eval_windows_raw)
    _, want = detect_samples(dd, y, DetectConfig())
    assert key(got) == key(want)
    assert len(got) == 1
