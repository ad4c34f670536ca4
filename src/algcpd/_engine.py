"""The sliding-window engine: every full window position of a signal, each
delay row of the weights plus the window deviation and RMS.

The contract is the accumulation order of the scalar loop kept as the
reference in tests/test_engine_oracle.py (scalar_eval_windows_raw): for every
window position each accumulator (one per delay row, then the window sum and
sum of squares, then the variance) starts at 0.0 and takes its terms left to
right over the window, each term one rounded multiply and one rounded add (no
FMA); the mean is sum / window and both statistics take a correctly rounded
sqrt last. The results are bit-identical to that loop.

Long calls keep that order while vectorizing across positions: a block of
positions shares one accumulator array per statistic, and window offset i
adds its terms to all of them at once (acc_v = acc_v + w[v, i] * y[lo+i:hi+i]),
offsets in increasing order. Separate np.multiply and np.add calls round each
step exactly as the scalar loop does; only the loop nesting changes. Calls
with fewer than SHORT positions (a single streamed sample, say) run the scalar
loop itself: below that count it beats the few NumPy calls per window offset,
at W from 64 to 384.
"""

from __future__ import annotations

import math

import numpy as np

#: positions per block of the vectorized form (its arrays stay in L2)
BLOCK = 16384
#: calls with fewer positions than this run the scalar loop
SHORT = 32


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
        _eval_scalar(weights, signal, vnu, sigma, rms, npos)
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


def _eval_scalar(weights, signal, out_vnu, out_sigma, out_rms, npos):
    nv = weights.shape[0]
    window = weights.shape[1]
    wrows = weights.tolist()
    sig = signal.tolist()
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
