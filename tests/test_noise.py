"""Counter-based noise streams and exact-SNR corruption."""

import math

import numpy as np
import pytest

from algcpd.noise import (
    NOISE_KINDS,
    apply_noise,
    derive_seed,
    measured_snr_db,
    normals,
    perlin,
    uniforms,
)


def test_uniforms_empty_and_negative_n():
    assert uniforms(9, 0).size == 0
    with pytest.raises(ValueError):
        uniforms(9, -1)


def test_uniforms_range_and_determinism():
    u = uniforms(1234, 50_000)
    assert np.array_equal(u, uniforms(1234, 50_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert not np.array_equal(u, uniforms(1235, 50_000))


def test_normals_odd_count_is_a_prefix():
    """An odd count drops the second variate of the last Box-Muller pair."""
    assert np.array_equal(normals(77, 39), normals(77, 40)[:39])


def test_normals_moments():
    z = normals(3, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_derive_seed_substreams():
    seeds = {derive_seed(42, t) for t in range(8)}
    assert len(seeds) == 8
    assert derive_seed(42, 1) == derive_seed(42, 1)


@pytest.mark.parametrize("seed, tag, want", [
    (0, 0, 0),
    (1, 1, 10451216379200822465),
    (24245, 3, 1963349937482147691),
    (-1, 2, 16834447057089888969),
    (-123456789, 4, 17032626291543687442),
    (2 ** 63, 5, 903114586442990803),
    (2 ** 64, 1, 16294208416658607535),
    (2 ** 64 + 5, 0, 13168350753275463132),
    (3 * 2 ** 70 + 17, 7, 578614372503024644),
])
def test_derive_seed_pinned(seed, tag, want):
    """Substream seeds are splitmix64 of (seed + tag * GOLDEN) mod 2**64, a
    Python int; seeds below 0 or at and above 2**64 wrap."""
    got = derive_seed(seed, tag)
    assert type(got) is int and got == want


def test_perlin_lattice_zeros():
    """Every octave is zero at the multiples of the lattice period, 6."""
    z = perlin(5, 64)
    assert np.array_equal(z, perlin(5, 64))
    for k in range(0, 64, 6):
        assert z[k] == pytest.approx(0.0, abs=1e-15)
    assert np.abs(z).max() > 0
    assert not np.array_equal(z, perlin(6, 64))


def test_apply_noise_exact_snr():
    clean = np.sin(np.linspace(0, 20, 4000)) + 1.5
    for kind in ("normal", "uniform", "perlin", "mult_uniform"):
        for snr in (25.0, 0.0, -6.0):
            noisy = apply_noise(clean, kind, snr, seed=11)
            assert measured_snr_db(clean, noisy) == pytest.approx(snr, abs=1e-9)


def test_apply_noise_none_copies():
    clean = np.ones(100)
    out = apply_noise(clean, "none", 10.0, seed=0)
    assert np.array_equal(out, clean)
    out[0] = 5.0
    assert clean[0] == 1.0


def test_apply_noise_validation():
    clean = np.ones(100)
    with pytest.raises(ValueError):
        apply_noise(clean, "salt_pepper", 10.0, seed=0)
    with pytest.raises(ValueError):
        apply_noise(np.zeros(100), "normal", 10.0, seed=0)


def test_apply_noise_kinds_are_independent_streams():
    clean = np.ones(1000) * 2.0
    outs = {k: apply_noise(clean, k, 10.0, seed=7) for k in ("normal", "uniform", "perlin")}
    assert not np.array_equal(outs["normal"], outs["uniform"])
    assert not np.array_equal(outs["normal"], outs["perlin"])


def test_mult_noise_scales_with_signal():
    t = np.linspace(0, 1, 2000)
    clean = np.where(t > 0.5, 10.0, 0.1)
    noisy = apply_noise(clean, "mult_uniform", 15.0, seed=3)
    err = noisy - clean
    lo = float(np.sqrt(np.mean(err[t <= 0.5] ** 2)))
    hi = float(np.sqrt(np.mean(err[t > 0.5] ** 2)))
    assert hi > 10 * lo  # perturbation rides the local signal level


def test_measured_snr_identical_is_inf():
    x = np.arange(10.0)
    assert measured_snr_db(x, x.copy()) == math.inf


def test_measured_snr_of_noise_alone_is_minus_inf():
    assert measured_snr_db(np.zeros(10), np.arange(10.0)) == -math.inf


def test_noise_kinds_constant():
    assert set(NOISE_KINDS) == {"none", "normal", "uniform", "perlin", "mult_uniform"}
