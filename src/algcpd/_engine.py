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

Calls with fewer than SHORT positions over all rows (a drain of a stream, say)
take the short path, _eval_short: the terms of every accumulator of every
position sit in one C-contiguous (window, k, npos, rows) array, window offset
first, and np.add.reduce(..., axis=0, initial=0.0) sums the leading axis. When
the reduced axis is the outer one and the trailing block holds at least 2
elements, NumPy fills the output with 0.0 and adds whole rows to it element by
element, offset 0 first: each accumulator takes its terms left to right from
0.0, the scalar loop's sum bit for bit, and the 0.0 start keeps the sign of
zero on an all -0.0 window. A trailing block of one element would turn the
reduction into NumPy's pairwise inner-loop sum, so every reduction carries
k >= 2 accumulators: the nv delay rows and the window sum in the first, the
squared deviations and the squares in the second (once the mean is known).
It costs about a dozen NumPy calls whatever the window, each over
window * k * npos * rows terms.

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
while the short path's arrays grow with the positions times W. Measured on a
2-CPU VM (NumPy 2.4.6), the short path takes this share of the block time:
    positions        10    128    256    320    512
    W 96,  nv 2    0.08   0.22   0.31   0.41   0.57
    W 96,  nv 5    0.09   0.29   0.50   0.60   0.76
    W 384, nv 2    0.06   0.28   0.56   0.68   1.04
    W 384, nv 5    0.07   0.44   0.70   0.81   1.10
so the two cross near 512 positions at W 384. SHORT stays at 256: no caller
makes calls of 256-512 positions, and the short path's array of
W * (nv + 1) * npos floats would grow with it at large W (W 4096, say).
"""

from __future__ import annotations

import numpy as np

#: positions per block of the vectorized form, over all rows (its arrays stay in L2)
BLOCK = 16384
#: calls with fewer positions than this, over all rows, take the one-reduction short path
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
    """Every position of every row at once, the terms laid out window offset
    first as one C-contiguous (window, k, npos, rows) array, each accumulator
    one np.add.reduce over the leading axis from initial 0.0. Reducing the
    outer axis of a block of k * npos * rows >= 2 elements, NumPy adds whole
    rows element by element, offset 0 first: the scalar loop's order from the
    same 0.0 start (which turns an all -0.0 sum into +0.0). Pass 1 sums w*x of
    each delay row and x (k = nv + 1); pass 2 pairs (x - mean)^2 with x*x
    (k = 2), since one accumulator alone, a block of one element, would be
    summed pairwise."""
    nv, window = weights.shape
    npos, rows = out_sigma.shape
    step = cols.strides[0]
    # window offset i of every position and row, no copy: (window, npos, rows)
    x = np.ndarray((window, npos, rows), np.float64, cols, 0, (step, step, cols.itemsize))
    terms = np.empty((window, nv + 1, npos, rows))
    np.multiply(weights.T[:, :, None, None], x[:, None], out=terms[:, :nv])
    terms[:, nv] = x
    acc = np.add.reduce(terms, axis=0, initial=0.0)
    out_vnu[...] = acc[:nv]
    mean = np.divide(acc[nv], window)
    # pass 2 reuses the front of the same buffer, again C-contiguous
    sq = terms.reshape(-1)[: 2 * x.size].reshape(window, 2, npos, rows)
    np.subtract(x, mean, out=sq[:, 0])
    np.multiply(sq[:, 0], sq[:, 0], out=sq[:, 0])
    np.multiply(x, x, out=sq[:, 1])
    acc = np.add.reduce(sq, axis=0, initial=0.0)
    out_sigma[...], out_rms[...] = np.sqrt(np.divide(acc, window))
