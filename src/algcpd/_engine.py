"""The sliding-window engine: every full window position of a signal, each
delay row of the weights plus the window deviation and RMS.

The contract is the accumulation order of the scalar loop kept as the
reference in tests/test_engine_oracle.py (scalar_eval_windows_raw): for every
window position each accumulator (one per delay row, then the window sum and
sum of squares, then the variance) starts at 0.0 and takes its terms left to
right over the window, each term one rounded multiply and one rounded add (no
FMA); the mean is sum / window and both statistics take a correctly rounded
sqrt last. The results are bit-identical to that loop.

Calls with fewer than SHORT positions (a single streamed sample, say) take
the short path, _eval_short: every accumulator's terms sit in one row behind
a leading 0.0 column, and np.add.accumulate runs the row's prefix sum. A
prefix sum is left to right by definition, so its last column is the scalar
loop's sum, bit for bit; the 0.0 column is the loop's 0.0 start, which keeps
the sign of zero on an all -0.0 window. It costs about a dozen NumPy calls
whatever the window, two prefix sums among them (the second over the squared
deviations, once the mean is known).

Longer calls keep the order while vectorizing across positions: a block of
positions shares one accumulator array per statistic, and window offset i
adds its terms to all of them at once (acc_v = acc_v + w[v, i] * y[lo+i:hi+i]),
offsets in increasing order. Separate np.multiply and np.add calls round each
step exactly as the scalar loop does; only the loop nesting changes. That is
(2 * nv + 5) * W NumPy calls however few the positions, while the short
path's arrays grow with the positions times W. The two cross near 256 positions at nv 2 and 5 and W 96 to 384 (measured
on a 2-CPU VM: the short path takes 0.6-0.75 of the block time at 256
positions, and 0.95-1.6 of it at 320-384), hence SHORT.
"""

from __future__ import annotations

import numpy as np

#: positions per block of the vectorized form (its arrays stay in L2)
BLOCK = 16384
#: calls with fewer positions than this take the prefix-sum short path
SHORT = 256


def eval_windows_raw(weights, signal):
    """Run the window engine over every full position of `signal`.

    Returns (vnu, sigma, rms): vnu has shape (degree+1, npos).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    signal = np.ascontiguousarray(signal, dtype=np.float64)
    window = weights.shape[1]
    npos = max(0, signal.shape[0] - window + 1)
    vnu = np.empty((weights.shape[0], npos), dtype=np.float64)
    sigma = np.empty(npos, dtype=np.float64)
    rms = np.empty(npos, dtype=np.float64)
    if npos < SHORT:
        _eval_short(weights, signal, vnu, sigma, rms)
        return vnu, sigma, rms
    wcols = weights.T.tolist()
    for lo in range(0, npos, BLOCK):
        hi = min(npos, lo + BLOCK)
        _eval_block(wcols, signal[lo : hi + window - 1], vnu[:, lo:hi],
                    sigma[lo:hi], rms[lo:hi])
    return vnu, sigma, rms


def _eval_block(wcols, seg, out_vnu, out_sigma, out_rms):
    """All positions of `seg`, one pass per window offset; the output views
    double as the delay-row, sum-of-squares and variance accumulators."""
    window = len(wcols)
    n = seg.shape[0] - window + 1
    sq = np.multiply(seg, seg)
    out_vnu[...] = 0.0
    ssum = np.zeros(n)
    ssq = out_rms
    ssq[...] = 0.0
    term = np.empty(n)
    for i in range(window):
        x = seg[i : i + n]
        for acc, w in zip(out_vnu, wcols[i]):
            np.multiply(x, w, out=term)
            np.add(acc, term, out=acc)
        np.add(ssum, x, out=ssum)
        np.add(ssq, sq[i : i + n], out=ssq)
    mean = np.divide(ssum, window, out=ssum)
    var = out_sigma
    var[...] = 0.0
    for i in range(window):
        np.subtract(seg[i : i + n], mean, out=term)
        np.multiply(term, term, out=term)
        np.add(var, term, out=var)
    np.sqrt(np.divide(var, window, out=var), out=var)
    np.sqrt(np.divide(ssq, window, out=ssq), out=ssq)


def _eval_short(weights, signal, out_vnu, out_sigma, out_rms):
    """Every position at once, each accumulator a prefix sum over one row of
    its terms: np.add.accumulate runs left to right by definition, so the
    last column is the scalar loop's sum, bit for bit. The leading 0.0
    column is the loop's 0.0 start (it turns an all -0.0 sum into +0.0)."""
    nv, window = weights.shape
    npos = out_sigma.shape[0]
    step = signal.strides[0]
    x = np.ndarray((npos, window), np.float64, signal, 0, (step, step))  # windows, no copy
    # rows: each delay row's w*x, then x, then x*x; later (x - mean)^2
    terms = np.zeros((nv + 2, npos, window + 1))
    np.multiply(weights[:, None, :], x, out=terms[:nv, :, 1:])
    terms[nv, :, 1:] = x
    np.multiply(x, x, out=terms[nv + 1, :, 1:])
    np.add.accumulate(terms, axis=2, out=terms)
    last = terms[:, :, window]
    out_vnu[...] = last[:nv]
    mean = np.divide(last[nv], window)
    dev = terms[nv]  # its 0.0 column survives the first prefix sum
    np.subtract(x, mean[:, None], out=dev[:, 1:])
    np.multiply(dev[:, 1:], dev[:, 1:], out=dev[:, 1:])
    np.add.accumulate(dev, axis=1, out=dev)
    out_sigma[...], out_rms[...] = np.sqrt(np.divide(last[nv:], window))
