"""The sliding-window engine: every full window position of a signal, the sum
of each weight row plus the window deviation and RMS.

The input is one signal or a block of equal-length signals, one per row (the
trials of a Monte Carlo campaign, say); every output gets the block's row
axis, and each row's outputs are those of that signal alone. The runtime
passes one row, the delay rows collapsed at the window midpoint
(DiscreteDetector.w_mid); any number of rows is accepted.

The contract is the accumulation order of the scalar loop kept as the
reference in tests/test_engine_oracle.py (scalar_eval_windows_raw): for every
window position each accumulator (one per weight row, then the window sum,
then the sum of squared deviations from the mean) starts at 0.0 and takes its
terms left to right over the window, each term one rounded multiply and one
rounded add (no FMA). The mean is sum / window and var the deviation sum /
window; sigma = sqrt(var) and rms = sqrt(var + mean * mean), each sqrt
correctly rounded. rms equals the root mean square in exact arithmetic, so
no sum of squares is taken. The results are bit-identical to that loop.

A call on one signal with fewer than SHORT positions (a drain of a stream,
say) takes the short path, _eval_short: the terms of every accumulator of
every position sit in one C-contiguous (window, k, npos) array, window offset
first, and np.add.reduce(..., axis=0, initial=0.0) sums the leading axis. When
the reduced axis is the outer one and the trailing block holds at least 2
elements, NumPy fills the output with 0.0 and adds whole rows to it element by
element, offset 0 first: each accumulator takes its terms left to right from
0.0, the scalar loop's sum bit for bit, and the 0.0 start keeps the sign of
zero on an all -0.0 window. A trailing block of one element would turn the
reduction into NumPy's pairwise inner-loop sum. The first reduction carries
k = nv + 1 >= 2 accumulators (the weight rows and the window sum); the second
sums the squared deviations alone, so a call of one position pads it with a
column of zeros it then drops. It costs about a dozen NumPy calls whatever
the window, each over window * k * npos terms. It reads the signal itself
through a (window, npos) view and returns the reductions' own arrays, with no
row axis to add, drop or transpose. A block of signals takes the block path
however few its positions: blocks come from campaigns, and every trial of the
reference grid has at least 1155 positions.

Longer calls and blocks keep the order, vectorized across positions and rows.
The samples are laid out position-major (sample p of every row side by side),
so window offset i of a block of positions is one contiguous slab; a block
holds BLOCK // rows positions of every row, so its arrays are the same size
however the positions divide into rows. A block shares one accumulator array
per statistic, and window offset i adds its terms to all of them at once,
offsets in increasing order: one broadcast multiply of the slab by the
offset's (nv, 1, 1) weight column and one add for all nv rows, then one add
for the window sum; the deviation pass takes a subtract, a multiply and an add.
Separate np.multiply and np.add calls round each step exactly as the scalar
loop does; only the loop nesting changes. That is 6 * W NumPy calls per
block however few the positions, while the short path's arrays grow with the
positions times W.

The block path writes into arrays whose data starts on a 64-byte boundary
(_aligned): sums, sigma, rms and the block's term scratch. NumPy aligns its
allocations to 16 bytes only, and glibc's mmapped chunks start 16 bytes past a
page, so under np.empty the allocator's choice would set the block time. With
512-bit vectors each store off the boundary spans two cache lines: one row of
65,536 positions at W 128 took 13.5 ms with the four arrays on the boundary,
15.7 ms at 32 bytes past it and 18.1-18.6 ms at 16 or 48 bytes past it (2-CPU
Xeon VM with AVX-512, NumPy 2.4.6, best of 9, same bits in every case). The
four stay separate allocations: one large buffer for all of them, freed after
each call, would raise glibc's dynamic mmap threshold, as one did for the
double-double Horner's work arrays in kernels. The short path takes its one
term array from np.empty: _aligned takes about 2 us per array against 0.26 us,
and it made short calls of 1 to 255 positions at W 96 slower by 8-10 us each
(medians of 30). With no row axis a short call takes 1-5 us less: at W 96,
21.4 -> 20.2 us at 1 position and 26.5 -> 24.0 us at 10; at W 384, 42.0 ->
38.6 us at 1 (medians of 41 interleaved timings of 200 calls).

Measured on the same VM (best of 7, the median of 4 such tables; single
tables moved entries by up to 0.13), the short path takes this share of the
block time:
    positions        10    128    256    320    512
    W 96,  nv 1    0.07   0.19   0.28   0.35   0.42
    W 96,  nv 5    0.10   0.34   0.54   0.69   0.86
    W 384, nv 1    0.04   0.16   0.32   0.41   0.58
    W 384, nv 5    0.07   0.40   0.73   0.81   1.08
so the short path is the faster up to 320 positions at least, and level with
the block path at 512 positions, W 384 and 5 rows. SHORT stays at 256: no
caller makes calls of 256-512 positions, and the short path's array of
W * (nv + 1) * npos floats would grow with it at large W (W 4096, say).
"""

from __future__ import annotations

import math

import numpy as np

#: positions per block of the vectorized form, over all rows (its arrays stay in L2)
BLOCK = 16384
#: one-signal calls with fewer positions than this take the one-reduction short path
SHORT = 256


def eval_windows_raw(weights, signal):
    """Run the window engine over every full position of `signal`, one
    (n,) signal or a (rows, n) block of equal-length signals, with the
    (nv, window) `weights`.

    Returns (sums, sigma, rms): sums, the window sum of each weight row, has
    shape (nv, npos) and sigma and rms (npos,) for one signal; a block adds
    its row axis after the first of sums, (nv, rows, npos), and sigma and rms
    are (rows, npos).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    nv, window = weights.shape
    npos = max(0, signal.shape[-1] - window + 1)
    if signal.ndim == 1 and npos < SHORT:
        return _eval_short(weights, np.ascontiguousarray(signal))
    # position-major: cols[p] holds sample p of every row, so window offset
    # i of a block of positions is one contiguous slab (one row: no copy)
    cols = np.ascontiguousarray(signal[:, None] if signal.ndim == 1 else signal.T)
    rows = cols.shape[1]
    sums = _aligned((nv, npos, rows))
    sigma = _aligned((npos, rows))
    rms = _aligned((npos, rows))
    wcols = np.ascontiguousarray(weights.T)[:, :, None, None]  # offset i: (nv, 1, 1)
    step = max(1, BLOCK // rows)
    for lo in range(0, npos, step):
        hi = min(npos, lo + step)
        _eval_block(wcols, cols[lo : hi + window - 1], sums[:, lo:hi],
                    sigma[lo:hi], rms[lo:hi])
    if signal.ndim == 1:
        return sums[..., 0], sigma[:, 0], rms[:, 0]
    # row-major again
    return tuple(np.ascontiguousarray(a) for a in (sums.transpose(0, 2, 1), sigma.T, rms.T))


def _aligned(shape):
    """An uninitialized float64 array of `shape` whose data starts on a
    64-byte boundary: 8 doubles more than it needs, sliced."""
    n = math.prod(shape)
    buf = np.empty(n + 8)
    skip = (-buf.ctypes.data % 64) // 8
    return buf[skip : skip + n].reshape(shape)


def _moments(mean, ssd, window, out_sigma, out_rms):
    """sigma = sqrt(ssd / window) and rms = sqrt(ssd / window + mean * mean)
    from the mean and the sum of squared deviations, one elementwise step at
    a time on both paths. ssd may be out_sigma and mean out_rms."""
    var = np.divide(ssd, window, out=out_sigma)
    np.add(var, np.multiply(mean, mean, out=out_rms), out=out_rms)
    np.sqrt(out_rms, out=out_rms)
    np.sqrt(var, out=var)


def _eval_block(wcols, seg, out_sums, out_sigma, out_rms):
    """All positions of `seg` (samples by rows), one pass per window offset;
    the output views double as the weight-row, window-sum and deviation-sum
    accumulators. Offset i adds w[:, i] * x to every weight row in one
    broadcast multiply and one add."""
    window = wcols.shape[0]
    n = seg.shape[0] - window + 1
    out_sums[...] = 0.0
    ssum = out_rms
    ssum[...] = 0.0
    term = _aligned(out_sums.shape)
    for i in range(window):
        x = seg[i : i + n]
        np.multiply(x, wcols[i], out=term)
        np.add(out_sums, term, out=out_sums)
        np.add(ssum, x, out=ssum)
    mean = np.divide(ssum, window, out=ssum)
    ssd = out_sigma
    ssd[...] = 0.0
    dev = term[0]
    for i in range(window):
        np.subtract(seg[i : i + n], mean, out=dev)
        np.multiply(dev, dev, out=dev)
        np.add(ssd, dev, out=ssd)
    _moments(mean, ssd, window, out_sigma, out_rms)


def _eval_short(weights, y):
    """(sums, sigma, rms) at every position of the contiguous signal y at
    once, the terms laid out window offset first as one C-contiguous array,
    each accumulator one np.add.reduce over the leading axis from initial
    0.0. Reducing the outer axis of a trailing block of at least 2 elements,
    NumPy adds whole rows element by element, offset 0 first: the scalar
    loop's order from the same 0.0 start (which turns an all -0.0 sum into
    +0.0). Pass 1 sums w*x of each weight row and x, (window, nv + 1, npos);
    pass 2 the squared deviations, (window, npos), with a zero column more
    where npos is 1, since one accumulator alone would be summed pairwise."""
    nv, window = weights.shape
    npos = max(0, y.size - window + 1)
    # window offset i of every position, no copy: (window, npos)
    x = np.ndarray((window, npos), np.float64, y, 0, (y.itemsize, y.itemsize))
    terms = np.empty((window, nv + 1, npos))
    np.multiply(weights.T[:, :, None], x[:, None], out=terms[:, :nv])
    terms[:, nv] = x
    acc = np.add.reduce(terms, axis=0, initial=0.0)
    mean = np.divide(acc[nv], window)
    # pass 2 reuses the front of the same buffer, again C-contiguous
    dev = terms.reshape(-1)[: window * max(npos, 2)].reshape(window, -1)
    dev[:, npos:] = 0.0
    np.subtract(x, mean, out=dev[:, :npos])
    np.multiply(dev, dev, out=dev)
    ssd = np.add.reduce(dev, axis=0, initial=0.0)[:npos]
    _moments(mean, ssd, window, ssd, mean)  # in place: ssd becomes sigma, mean rms
    return acc[:nv], ssd, mean
