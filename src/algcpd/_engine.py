"""The sliding-window engine: every full window position of a signal, each
delay row of the weights plus the window deviation and RMS.

The input is one signal or a block of equal-length signals, one per row (the
trials of a Monte Carlo campaign, say); every output gets the block's row
axis, and each row's outputs are those of that signal alone.

The contract is the accumulation order of the scalar loop kept as the
reference in tests/test_engine_oracle.py (scalar_eval_windows_raw): for every
window position each accumulator (one per delay row, then the window sum and
sum of squares, then the variance) starts at 0.0 and takes its terms left to
right over the window, each term one rounded multiply and one rounded add (no
FMA); the mean is sum / window and both statistics take a correctly rounded
sqrt last. The results are bit-identical to that loop.

Calls with fewer than SHORT positions over all rows (a single streamed
sample, say) take the short path, _eval_short: every accumulator's terms sit
in one row behind a leading 0.0 column, and np.add.accumulate runs the row's
prefix sum. A prefix sum is left to right by definition, so its last column
is the scalar loop's sum, bit for bit; the 0.0 column is the loop's 0.0
start, which keeps the sign of zero on an all -0.0 window. It costs about a
dozen NumPy calls whatever the window, two prefix sums among them (the second
over the squared deviations, once the mean is known).

Longer calls keep the order while vectorizing across positions and rows. The
samples are laid out position-major (sample p of every row side by side), so
window offset i of a block of positions is one contiguous slab; a block holds
BLOCK // rows positions of every row, so its arrays are the same size however
the positions divide into rows. A block shares one accumulator array per
statistic, and window offset i adds its terms to all of them at once, offsets
in increasing order: one broadcast multiply of the slab by the offset's
(nv, 1, 1) weight column and one add for all nv delay rows, then one add each
for the window sum and sum of squares. Separate np.multiply and np.add calls
round each step exactly as the scalar loop does; only the loop nesting
changes. That is 7 * W NumPy calls per block however few the positions,
while the short path's arrays grow with the positions times W. The two cross
near 256 positions at nv 2, and between 192 and 256 at nv 5, for W 96 and
384 (measured on a 2-CPU VM: the short path takes 0.5-0.85 of the block time
at 128 positions and 1.2-1.8 of it at 320), hence SHORT.
"""

from __future__ import annotations

import numpy as np

#: positions per block of the vectorized form, over all rows (its arrays stay in L2)
BLOCK = 16384
#: calls with fewer positions than this, over all rows, take the prefix-sum short path
SHORT = 256


def eval_windows_raw(weights, signal):
    """Run the window engine over every full position of `signal`, one
    (n,) signal or a (rows, n) block of equal-length signals.

    Returns (vnu, sigma, rms): vnu has shape (degree+1, npos) and sigma and
    rms (npos,) for one signal; a block adds its row axis after vnu's first,
    vnu (degree+1, rows, npos) and sigma and rms (rows, npos).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    # position-major: cols[p] holds sample p of every row, so window offset
    # i of a block of positions is one contiguous slab (one row: no copy)
    cols = np.ascontiguousarray(signal[:, None] if signal.ndim == 1 else signal.T)
    nv, window = weights.shape
    n, rows = cols.shape
    npos = max(0, n - window + 1)
    vnu = np.empty((nv, npos, rows))
    sigma = np.empty((npos, rows))
    rms = np.empty((npos, rows))
    if rows * npos < SHORT:
        _eval_short(weights, cols, vnu, sigma, rms)
    else:
        wcols = np.ascontiguousarray(weights.T)[:, :, None, None]  # offset i: (nv, 1, 1)
        step = max(1, BLOCK // rows)
        for lo in range(0, npos, step):
            hi = min(npos, lo + step)
            _eval_block(wcols, cols[lo : hi + window - 1], vnu[:, lo:hi],
                        sigma[lo:hi], rms[lo:hi])
    if signal.ndim == 1:
        return vnu[..., 0], sigma[:, 0], rms[:, 0]
    # row-major again
    return tuple(np.ascontiguousarray(a) for a in (vnu.transpose(0, 2, 1), sigma.T, rms.T))


def _eval_block(wcols, seg, out_vnu, out_sigma, out_rms):
    """All positions of `seg` (samples by rows), one pass per window offset;
    the output views double as the delay-row, sum-of-squares and variance
    accumulators. Offset i adds w[:, i] * x to every delay row in one
    broadcast multiply and one add."""
    window = wcols.shape[0]
    n = seg.shape[0] - window + 1
    sq = np.multiply(seg, seg)
    out_vnu[...] = 0.0
    ssum = np.zeros(out_sigma.shape)
    ssq = out_rms
    ssq[...] = 0.0
    term = np.empty(out_vnu.shape)
    for i in range(window):
        x = seg[i : i + n]
        np.multiply(x, wcols[i], out=term)
        np.add(out_vnu, term, out=out_vnu)
        np.add(ssum, x, out=ssum)
        np.add(ssq, sq[i : i + n], out=ssq)
    mean = np.divide(ssum, window, out=ssum)
    var = out_sigma
    var[...] = 0.0
    dev = term[0]
    for i in range(window):
        np.subtract(seg[i : i + n], mean, out=dev)
        np.multiply(dev, dev, out=dev)
        np.add(var, dev, out=var)
    np.sqrt(np.divide(var, window, out=var), out=var)
    np.sqrt(np.divide(ssq, window, out=ssq), out=ssq)


def _eval_short(weights, cols, out_vnu, out_sigma, out_rms):
    """Every position of every row at once, each accumulator a prefix sum
    over one row of its terms: np.add.accumulate runs left to right by
    definition, so the last column is the scalar loop's sum, bit for bit.
    The leading 0.0 column is the loop's 0.0 start (it turns an all -0.0 sum
    into +0.0)."""
    nv, window = weights.shape
    npos, rows = out_sigma.shape
    step = cols.strides[0]
    # the windows of each row, no copy: (rows, npos, window)
    x = np.ndarray((rows, npos, window), np.float64, cols, 0, (cols.itemsize, step, step))
    # per delay row its w*x, then x, then x*x; later (x - mean)^2
    terms = np.zeros((nv + 2, rows, npos, window + 1))
    np.multiply(weights[:, None, None, :], x, out=terms[:nv, ..., 1:])
    terms[nv, ..., 1:] = x
    np.multiply(x, x, out=terms[nv + 1, ..., 1:])
    np.add.accumulate(terms, axis=3, out=terms)
    last = terms[..., window]
    out_vnu[...] = last[:nv].transpose(0, 2, 1)
    mean = np.divide(last[nv], window)
    dev = terms[nv]  # its 0.0 column survives the first prefix sum
    np.subtract(x, mean[..., None], out=dev[..., 1:])
    np.multiply(dev[..., 1:], dev[..., 1:], out=dev[..., 1:])
    np.add.accumulate(dev, axis=2, out=dev)
    out_sigma[...], out_rms[...] = np.sqrt(np.divide(last[nv:], window)).transpose(0, 2, 1)
