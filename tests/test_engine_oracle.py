"""The NumPy window engine against the scalar loop, bit for bit.

`scalar_eval_windows_raw` is the reference: one window position at a time,
every accumulator starting at 0.0 and taking its terms left to right over the
window with a plain float multiply and add, then var = ssd / W, sigma =
math.sqrt(var) and rms = math.sqrt(var + mean * mean). The properties at the
end bound the two things the runtime reads that are not the scalar loop's
own: v from the one collapsed row against the Horner collapse of the delay
rows' sums, and rms against the exact root mean square.
"""

import collections
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcpd import _engine, runtime
from algcpd._engine import eval_windows_raw
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import discretize
from algcpd.runtime import DetectConfig, detect_samples

# weights by row count: 1 is the runtime's one row, the step detector's
# delay rows collapsed at the window midpoint (w_mid)
MODELS = {1: ModelSpec.monomial(0, 0), 2: ModelSpec.monomial(0, 0), 5: ModelSpec.polynomial(3, 2)}


def scalar_eval_windows_raw(weights, signal):
    nv = weights.shape[0]
    window = weights.shape[1]
    npos = max(0, signal.shape[0] - window + 1)
    out_sums = np.empty((nv, npos))
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
            out_sums[v, k] = acc
        ssum = 0.0
        for i in range(window):
            ssum = ssum + sig[k + i]
        mean = ssum / window
        ssd = 0.0
        for i in range(window):
            dev = sig[k + i] - mean
            ssd = ssd + dev * dev
        var = ssd / window
        out_sigma[k] = math.sqrt(var)
        out_rms[k] = math.sqrt(var + mean * mean)
    return out_sums, out_sigma, out_rms


def weights_for(nv, window):
    dd = discretize(build_detector(MODELS[nv]), window=window, dt=0.01)
    weights = dd.w_mid[None] if nv == 1 else dd.weights
    assert weights.shape == (nv, window)
    return weights


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


@pytest.mark.parametrize("nv", [1, 2, 5])
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


@pytest.mark.parametrize("nv", [1, 2, 5])
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


@pytest.mark.parametrize("nv", [1, 2, 5])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_engine_rows_match_scalar_loop(rows, nv, monkeypatch, calls):
    """Each row of a (rows, n) block is the scalar loop over that row alone,
    bit for bit. A block takes the block path however few its positions:
    fewer than SHORT over all rows, one position per row, 300 in one block,
    and 300 under a small BLOCK, so that a block holds BLOCK // rows
    positions of every row and each row's positions split across blocks.
    The spies check the path taken."""
    window = 64
    w = weights_for(nv, window)
    few = max(1, (_engine.SHORT - 1) // rows)
    cases = [  # (positions per row, BLOCK, calls of each path)
        (few, _engine.BLOCK, {"_eval_block": 1}),
        (1, _engine.BLOCK, {"_eval_block": 1}),
        (300, _engine.BLOCK, {"_eval_block": 1}),
        (300, 100, {"_eval_block": -(-300 // (100 // rows))}),
    ]
    for npos, block, want_calls in cases:
        monkeypatch.setattr(_engine, "BLOCK", block)
        calls.clear()
        y = np.stack([hard_signal(npos + window - 1, window, seed=7 * r + npos) for r in range(rows)])
        sums, sigma, rms = eval_windows_raw(w, y)
        assert sums.shape == (nv, rows, npos)
        assert sigma.shape == rms.shape == (rows, npos)
        for r in range(rows):
            assert_bit_identical((sums[:, r], sigma[r], rms[r]), scalar_eval_windows_raw(w, y[r]))
        assert calls == want_calls


def test_block_outputs_start_on_a_cache_line(monkeypatch):
    """Every output view the block path writes starts on a 64-byte boundary:
    one row over three blocks (the runtime's call) and one block of 4 rows
    (a campaign group, which run_campaign sizes to one block)."""
    starts = []

    def spy(wcols, seg, *outs, _real=_engine._eval_block):
        starts.extend(out.ctypes.data % 64 for out in outs)
        return _real(wcols, seg, *outs)

    monkeypatch.setattr(_engine, "_eval_block", spy)
    for rows, npos, window, blocks in ((1, 2 * _engine.BLOCK + 5, 128, 3), (4, 3000, 384, 1)):
        starts.clear()
        y = np.random.default_rng(rows).standard_normal((rows, npos + window - 1))
        eval_windows_raw(weights_for(1, window), y[0] if rows == 1 else y)
        assert starts == [0] * 3 * blocks


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("npos", [1, 2, 10])
@pytest.mark.parametrize("rows", [1, 3])
def test_reduce_over_leading_axis_is_a_row_loop(k, npos, rows):
    """The short path's order: np.add.reduce over the outer axis of a
    C-contiguous (window, k, npos, rows) array from initial 0.0 adds whole
    rows, offset 0 first, the same bits as a loop of np.add over the rows,
    whenever the trailing block k * npos * rows holds at least 2 elements.
    Pass 1 of the short path reduces such an array of rows 1 with
    k = nv + 1; pass 2 reduces (window, m) squared deviations, m >= 2, the
    trailing block of k = 2, npos = 1, rows = 1 where m is 2. Rows 3 holds
    the rule on a deeper trailing block as well."""
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
        sums, sigma, rms = eval_windows_raw(w, np.zeros((rows, n)))
        assert sums.shape == (2, rows, 0)
        assert sigma.shape == rms.shape == (rows, 0)


def test_engine_writes_nothing_without_positions():
    w = weights_for(2, 64)
    for n in (0, 10, 63):
        sums, sigma, rms = eval_windows_raw(w, np.zeros(n))
        assert sums.shape == (2, 0)
        assert sigma.shape == rms.shape == (0,)


def test_empty_position_range():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=64, dt=0.01)
    sums, sigma, rms = eval_windows_raw(dd.weights, np.zeros(10))
    assert sums.shape == (2, 0)
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


U = 2.0 ** -53  # the unit roundoff of float64
# floats whose products with the weights and whose squared deviations stay
# clear of underflow, where the relative error bounds below do not hold
MODERATE = st.floats(min_value=-1e30, max_value=1e30).map(lambda x: x if abs(x) >= 1e-30 else 0.0)


def gamma(n):
    """gamma_n = n u / (1 - n u), the relative error bound of n roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1)."""
    return n * U / (1 - n * U)


@lru_cache(maxsize=None)
def detector(nv, window):
    return discretize(build_detector(MODELS[nv]), window=window, dt=0.01)


@settings(max_examples=60, deadline=None)
@given(nv=st.sampled_from([2, 5]), window=st.integers(8, 96), npos=st.integers(1, 30), data=st.data())
def test_one_row_v_matches_the_horner_collapse(nv, window, npos, data):
    """The runtime's v, the window sum of the one row w_mid, against the
    Horner collapse at t_mid of the window sums of the delay rows. Both are
    the exact sum_r t_mid^r sum_i w_r[i] x[i] to within gamma_n A, where
    A = sum_r |t_mid|^r sum_i |w_r[i] x[i]| and n = W + 2 nv + 2: W roundings
    in a window sum, and at most 2 nv in forming t_mid^r w_r[i] or in Horner's
    steps. So they differ by at most 2 gamma_n A."""
    dd = detector(nv, window)
    y = np.array(data.draw(st.lists(MODERATE, min_size=window + npos - 1, max_size=window + npos - 1)))
    sums = eval_windows_raw(dd.weights, y)[0]
    horner = sums[-1]
    for r in range(nv - 2, -1, -1):
        horner = horner * dd.t_mid + sums[r]
    v = eval_windows_raw(dd.w_mid[None], y)[0][0]
    windows = np.lib.stride_tricks.sliding_window_view(np.abs(y), window)
    a = windows @ np.abs(dd.weights).T @ (abs(dd.t_mid) ** np.arange(nv))
    n = window + 2 * nv + 2
    assert np.all(np.abs(v - horner) <= 2 * gamma(n) * a * (1 + gamma(n)))


def exact_rms(y, window):
    """sqrt(sum x^2 / W) of every window of y, each as a Fraction within a
    relative 2^-100 of the real value: the samples are integers over one
    power of two, so the sums of squares are exact integer differences."""
    k = max(x.as_integer_ratio()[1] for x in y.tolist()).bit_length() - 1
    squares = [(n << (k - d.bit_length() + 1)) ** 2 for n, d in map(float.as_integer_ratio, y.tolist())]
    prefix = [0]
    for s in squares:
        prefix.append(prefix[-1] + s)
    out = []
    for p in range(y.size - window + 1):
        q = (prefix[p + window] - prefix[p]) * window  # sqrt(Q / W) = sqrt(Q W) / W
        s = max(0, 220 - q.bit_length()) // 2
        out.append(Fraction(math.isqrt(q << 2 * s), (window << s) << k))
    return out


@settings(max_examples=60, deadline=None)
@given(window=st.integers(2, 400), npos=st.integers(1, 12), data=st.data())
def test_rms_is_within_gamma_of_the_exact_rms(window, npos, data):
    """rms = sqrt(var + mean^2) against the exact root mean square r. The
    mean is within gamma_W r of its exact value (sum |x| / W <= r), the mean
    of squared deviations from it is r^2 - mean^2 + (computed mean - mean)^2
    in exact arithmetic, so var + mean^2 before its roundings is r^2 within
    2 gamma_W r^2, and W + 4 more roundings and a sqrt halve to a relative
    error of at most (3W/2 + 4) u."""
    y = np.array(data.draw(st.lists(MODERATE, min_size=window + npos - 1, max_size=window + npos - 1)))
    rms = eval_windows_raw(np.ones((1, window)), y)[2]
    bound = Fraction(3 * window + 8, 2) * Fraction(U)
    for got, want in zip(rms.tolist(), exact_rms(y, window)):
        assert abs(Fraction(got) - want) <= bound * want


def test_rms_of_a_noisy_level_is_within_a_few_ulp():
    """On a level of 5 in unit normal noise at W 384, each window RMS is
    within 10 ulp of the correctly rounded exact value (at most 8 on these
    samples), far inside the (3W/2 + 4) u bound of the property above, some
    360 ulp here."""
    window = 384
    y = 5.0 + np.random.default_rng(5).standard_normal(window + 299)
    rms = eval_windows_raw(np.ones((1, window)), y)[2]
    want = np.array([float(r) for r in exact_rms(y, window)])
    assert np.abs(rms.view(np.int64) - want.view(np.int64)).max() <= 10
