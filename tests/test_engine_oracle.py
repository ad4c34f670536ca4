"""The NumPy window engine against the scalar loop, bit for bit.

`scalar_eval_windows_raw` is the reference: one window position at a time,
every accumulator starting at 0.0 and taking its terms left to right over the
window with a plain float multiply and add, math.sqrt last.
"""

import collections
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


@pytest.fixture
def calls(monkeypatch):
    """Calls of the engine's two paths, counted by function name."""
    seen = collections.Counter()
    for name in ("_eval_short", "_eval_block"):
        def spy(*args, _real=getattr(_engine, name), _name=name):
            seen[_name] += 1
            return _real(*args)
        monkeypatch.setattr(_engine, name, spy)
    return seen


@pytest.mark.parametrize("nv", [2, 5])
@pytest.mark.parametrize("window", [64, 96, 128, 384])
@pytest.mark.parametrize("block", [1, 50, _engine.BLOCK])
def test_engine_matches_scalar_loop(nv, window, block, monkeypatch, calls):
    """Position counts on both sides of each path switch. Under the real
    BLOCK: the SHORT edge, so the first counts take the short path and the
    rest the block path. Under a small BLOCK: its block edges, each once with
    SHORT at 0 (the block path, over several blocks) and once with the real
    SHORT (the short path). The spies check the path each count took."""
    w = weights_for(nv, window)
    short = _engine.SHORT
    if block == _engine.BLOCK:
        cases = [(n, short) for n in (1, short - 1, short, short + 1, 2 * short + 3)]
    else:
        monkeypatch.setattr(_engine, "BLOCK", block)
        edges = (block - 1, block, block + 1, 3 * block + 7)
        cases = [(n, at) for n in edges for at in (0, short)]
    for npos, short_at in cases:
        monkeypatch.setattr(_engine, "SHORT", short_at)
        calls.clear()
        y = hard_signal(npos + window - 1, window, seed=npos)
        assert_bit_identical(
            eval_windows_raw(w, y), scalar_eval_windows_raw(w, y)
        )
        if npos < short_at:
            assert calls == {"_eval_short": 1}
        else:
            assert calls == ({"_eval_block": -(-npos // block)} if npos else {})


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


@pytest.mark.parametrize("nv", [2, 5])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_engine_rows_match_scalar_loop(rows, nv, monkeypatch, calls):
    """Each row of a (rows, n) block is the scalar loop over that row alone,
    bit for bit: on the short path (fewer than SHORT positions over all
    rows, and one position per row), on the block path in one block, and
    with a small BLOCK, so that a block holds BLOCK // rows positions of
    every row and each row's positions split across blocks. The spies check
    the path taken."""
    window = 64
    w = weights_for(nv, window)
    few = max(1, (_engine.SHORT - 1) // rows)
    cases = [  # (positions per row, BLOCK, calls of each path)
        (few, _engine.BLOCK, {"_eval_short": 1}),
        (1, _engine.BLOCK, {"_eval_short": 1}),
        (300, _engine.BLOCK, {"_eval_block": 1}),
        (300, 100, {"_eval_block": -(-300 // (100 // rows))}),
    ]
    for npos, block, want_calls in cases:
        monkeypatch.setattr(_engine, "BLOCK", block)
        calls.clear()
        y = np.stack([hard_signal(npos + window - 1, window, seed=7 * r + npos) for r in range(rows)])
        vnu, sigma, rms = eval_windows_raw(w, y)
        assert vnu.shape == (nv, rows, npos)
        assert sigma.shape == rms.shape == (rows, npos)
        for r in range(rows):
            assert_bit_identical((vnu[:, r], sigma[r], rms[r]), scalar_eval_windows_raw(w, y[r]))
        assert calls == want_calls


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("npos", [1, 2, 10])
@pytest.mark.parametrize("rows", [1, 3])
def test_reduce_over_leading_axis_is_a_row_loop(k, npos, rows):
    """The short path's order: np.add.reduce over the outer axis of a
    C-contiguous (window, k, npos, rows) array from initial 0.0 adds whole
    rows, offset 0 first, the same bits as a loop of np.add over the rows.
    The shapes are those the short path builds (k is nv + 1 or 2)."""
    window = 64
    a = hard_signal(window * k * npos * rows, window, seed=100 * k + 10 * npos + rows)
    a = a.reshape(window, k, npos, rows)
    want = np.zeros((k, npos, rows))
    for row in a:
        want = np.add(want, row)
    got = np.add.reduce(a, axis=0, initial=0.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_engine_rows_without_positions():
    w = weights_for(2, 64)
    for rows, n in ((1, 63), (3, 10), (2, 0)):
        vnu, sigma, rms = eval_windows_raw(w, np.zeros((rows, n)))
        assert vnu.shape == (2, rows, 0)
        assert sigma.shape == rms.shape == (rows, 0)


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
