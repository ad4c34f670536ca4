"""Deterministic noise generation with exact SNR calibration.

The uniform source is splitmix64 (public domain construction): draw i of
stream `seed` mixes the counter state seed + i * GOLDEN, so it is a function
of the seed and i alone, and a stream is drawn whole, vectorized, from draw 1.
Normal variates come from the Box-Muller transform over consecutive uniform
pairs. Gradient noise is a one-dimensional Perlin lattice with the quintic
fade, gradients hashed from (seed, octave, cell) so every sample is
reproducible in isolation.

Additive noise is scaled so the realized noise power hits the SNR target
exactly for every seed (not just in expectation); multiplicative noise
(mean-one uniform factor) solves its amplitude from the same realized-power
relation.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

NOISE_KINDS = ("none", "normal", "uniform", "perlin", "mult_uniform")
# Perlin noise: samples per lattice cell at octave 0, octaves, and the
# amplitude factor from one octave to the next
_LATTICE_PERIOD = 6
_OCTAVES = 2
_PERSISTENCE = 0.5


def _mix_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, tag: int) -> int:
    """Independent substream seed for a purpose tag. The finalizer runs on a
    1-element array: uint64 arrays wrap silently, NumPy scalars warn."""
    z = np.array([(seed + tag * GOLDEN) & _MASK], dtype=np.uint64)
    return int(_mix_u64(z)[0])


def uniforms(seed: int, n: int) -> np.ndarray:
    """Draws 1 .. n of the stream, each in [0, 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    idx = np.arange(1, n + 1, dtype=np.uint64)
    state = np.uint64(seed & _MASK) + idx * np.uint64(GOLDEN)
    return (_mix_u64(state) >> np.uint64(11)) * (2.0 ** -53)


def normals(seed: int, n: int) -> np.ndarray:
    """Box-Muller over consecutive uniform pairs; consumes 2*ceil(n/2) draws."""
    pairs = (n + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log finite
    ang = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


def _fade(u: np.ndarray) -> np.ndarray:
    return u * u * u * (u * (u * 6.0 - 15.0) + 10.0)


def _gradients(seed: int, octave: int, cells: np.ndarray) -> np.ndarray:
    """Deterministic gradient in [-1, 1] per (seed, octave, lattice index)."""
    so = np.uint64(derive_seed(seed, octave))
    h = _mix_u64(so + cells.astype(np.uint64) * np.uint64(GOLDEN))
    return ((h >> np.uint64(11)) * (2.0 ** -53)) * 2.0 - 1.0


def perlin(seed: int, n: int) -> np.ndarray:
    """1-D gradient noise over sample indices 0..n-1.

    Octaves stack with doubling frequency and _PERSISTENCE amplitude decay;
    every octave is zero at the multiples of _LATTICE_PERIOD.
    """
    idx = np.arange(n, dtype=np.float64)
    out = np.zeros(n, dtype=np.float64)
    amp = 1.0
    for o in range(_OCTAVES):
        x = idx * (2.0 ** o) / _LATTICE_PERIOD
        cell = np.floor(x)
        frac = x - cell
        cells = cell.astype(np.int64)
        g_left = _gradients(seed, o, cells)
        g_right = _gradients(seed, o, cells + 1)
        left = g_left * frac
        right = g_right * (frac - 1.0)
        out += amp * (left + _fade(frac) * (right - left))
        amp *= _PERSISTENCE
    return out


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    """The realized SNR in dB: inf with no noise, -inf with no signal."""
    p_sig = float(np.mean(np.square(clean)))
    p_noise = float(np.mean(np.square(noisy - clean)))
    if p_noise == 0.0:
        return math.inf
    if p_sig == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_sig / p_noise)


def noise_power_ratio(snr_db: float) -> float:
    """The noise power per unit signal power at snr_db, 10 ** (-snr_db / 10):
    0.0 at +inf dB. A NaN SNR, or one so low that the ratio is no finite
    float (-inf, or below about -3083 dB), is a ValueError."""
    try:
        ratio = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"snr_db {snr_db!r} gives no finite noise power")
    return ratio


def apply_noise(clean: np.ndarray, kind: str, snr_db: float, seed: int) -> np.ndarray:
    """Corrupt `clean` at exactly `snr_db` (realized power, per seed)."""
    clean = np.asarray(clean, dtype=np.float64)
    ratio = noise_power_ratio(snr_db)
    if kind == "none":
        return clean.copy()
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; pick from {NOISE_KINDS}")
    n = clean.size
    p_sig = float(np.mean(np.square(clean)))
    if p_sig == 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    target = p_sig * ratio

    if kind == "mult_uniform":
        factor = uniforms(derive_seed(seed, 3), n) * 2.0 - 1.0
        component = clean * factor
        p_raw = float(np.mean(np.square(component)))
        if p_raw == 0.0:
            raise ValueError("multiplicative noise needs a nonzero signal")
        return clean * (1.0 + math.sqrt(target / p_raw) * factor)

    if kind == "normal":
        raw = normals(derive_seed(seed, 1), n)
    elif kind == "uniform":
        raw = uniforms(derive_seed(seed, 2), n) * 2.0 - 1.0
    else:  # perlin
        raw = perlin(derive_seed(seed, 4), n)
    p_raw = float(np.mean(np.square(raw)))
    if p_raw == 0.0:
        raise ValueError("noise realization has zero power; change the seed")
    return clean + raw * math.sqrt(target / p_raw)
