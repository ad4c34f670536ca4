"""Counter-based noise streams and exact-SNR corruption."""

import math

import numpy as np
import pytest

from algcpd.noise import (
    NOISE_KINDS,
    PerlinParams,
    apply_noise,
    derive_seed,
    measured_snr_db,
    normals,
    perlin,
    uniforms,
)


def test_uniforms_offset_streaming():
    whole = uniforms(9, 100)
    parts = np.concatenate([uniforms(9, 30), uniforms(9, 50, offset=30), uniforms(9, 20, offset=80)])
    assert np.array_equal(whole, parts)
    assert uniforms(9, 0).size == 0
    with pytest.raises(ValueError):
        uniforms(9, -1)


def test_uniforms_range_and_determinism():
    u = uniforms(1234, 50_000)
    assert np.array_equal(u, uniforms(1234, 50_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert not np.array_equal(u, uniforms(1235, 50_000))


def test_normals_offset_streaming():
    whole = normals(77, 40)
    parts = np.concatenate([normals(77, 10), normals(77, 30, offset=10)])
    assert np.array_equal(whole, parts)
    with pytest.raises(ValueError):
        normals(77, 4, offset=3)


def test_normals_moments():
    z = normals(3, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_derive_seed_substreams():
    seeds = {derive_seed(42, t) for t in range(8)}
    assert len(seeds) == 8
    assert derive_seed(42, 1) == derive_seed(42, 1)


def test_perlin_lattice_zeros():
    params = PerlinParams(lattice_period=8, octaves=1)
    z = perlin(5, 64, params)
    assert np.array_equal(z, perlin(5, 64, params))
    for k in range(0, 64, 8):
        assert z[k] == pytest.approx(0.0, abs=1e-15)
    assert np.abs(z).max() > 0


def test_perlin_octaves_stack():
    base = perlin(5, 128, PerlinParams(lattice_period=8, octaves=1))
    rich = perlin(5, 128, PerlinParams(lattice_period=8, octaves=3))
    assert not np.array_equal(base, rich)
    assert not np.array_equal(rich, perlin(6, 128, PerlinParams(lattice_period=8, octaves=3)))


def test_perlin_params_validation():
    with pytest.raises(ValueError):
        PerlinParams(lattice_period=1)
    with pytest.raises(ValueError):
        PerlinParams(octaves=0)
    with pytest.raises(ValueError):
        PerlinParams(persistence=0.0)


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


def test_noise_kinds_constant():
    assert set(NOISE_KINDS) == {"none", "normal", "uniform", "perlin", "mult_uniform"}
