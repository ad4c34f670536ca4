"""Piecewise-polynomial signal rendering and the built-in suites."""

import math

import numpy as np
import pytest

from algcpd.signals import (
    SUITES,
    Carrier,
    Segment,
    SignalSpec,
    builtin_suite,
    render,
)


def test_render_piecewise_values():
    spec = SignalSpec(
        segments=(Segment(0.0, (1.0,)), Segment(0.5, (2.0, 3.0))),
        duration=1.0,
        dt=0.1,
    )
    times, values = render(spec)
    assert times.shape == values.shape == (10,)
    assert np.allclose(times, np.arange(10) * 0.1)
    assert np.all(values[:5] == 1.0)
    # local-time polynomial 2 + 3*(t - 0.5) from t = 0.5 on
    assert values[5] == pytest.approx(2.0)
    assert values[8] == pytest.approx(2.0 + 3.0 * 0.3)


def test_boundary_belongs_to_new_segment():
    spec = SignalSpec(
        segments=(Segment(0.0, (0.0,)), Segment(0.3, (1.0,))),
        duration=0.6,
        dt=0.1,
    )
    _, values = render(spec)
    assert values[2] == 0.0
    assert values[3] == 1.0  # sample exactly at the start takes the new level


def test_carrier_is_additive():
    base = SignalSpec(segments=(Segment(0.0, (2.0,)),), duration=1.0, dt=0.01)
    carrier = Carrier(amplitude=0.5, frequency=2.0, phase=0.25)
    withc = SignalSpec(
        segments=base.segments, duration=1.0, dt=0.01, carrier=carrier
    )
    t, plain = render(base)
    _, lifted = render(withc)
    expect = plain + 0.5 * np.sin(2 * math.pi * 2.0 * t + 0.25)
    assert np.allclose(lifted, expect, rtol=0, atol=1e-15)


def test_n_samples_floor():
    spec = SignalSpec(segments=(Segment(0.0, (0.0,)),), duration=1.0, dt=0.3)
    assert spec.n_samples == 3
    t, v = render(spec)
    assert t.size == 3


def test_change_times():
    spec = builtin_suite("pc5")
    assert spec.change_times() == (6.405, 12.805, 19.205, 25.605)


def test_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(segments=(), duration=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SignalSpec(segments=(Segment(0.5, (1.0,)),), duration=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SignalSpec(
            segments=(Segment(0.0, (1.0,)), Segment(0.0, (2.0,))),
            duration=1.0,
            dt=0.1,
        )
    with pytest.raises(ValueError):
        SignalSpec(segments=(Segment(0.0, (1.0,)),), duration=1.0, dt=0.0)
    with pytest.raises(ValueError):
        SignalSpec(segments=(Segment(0.0, (1.0,)),), duration=0.0, dt=0.1)
    with pytest.raises(ValueError):
        SignalSpec(segments=(Segment(0.0, ()),), duration=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SignalSpec(segments=(Segment(0.0, (math.nan,)),), duration=1.0, dt=0.1)
    # a non-finite grid fails here, not later in n_samples
    for duration, dt in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            SignalSpec(segments=(Segment(0.0, (1.0,)),), duration=duration, dt=dt)


def test_builtin_suites_frozen():
    assert set(SUITES) == {"pc5", "poly6", "sine3"}
    pc5 = builtin_suite("pc5")
    assert len(pc5.segments) == 5
    assert pc5.duration == 32.0 and pc5.dt == 0.01
    assert pc5.carrier is None
    poly6 = builtin_suite("poly6")
    assert len(poly6.segments) == 6
    assert all(len(s.coeffs) == 3 for s in poly6.segments)
    sine3 = builtin_suite("sine3")
    assert len(sine3.segments) == 3
    assert sine3.carrier == Carrier(amplitude=0.4, frequency=0.04, phase=0.4)
    with pytest.raises(ValueError):
        builtin_suite("pc7")


def test_boundaries_off_grid():
    # every suite boundary sits between samples of its dt grid
    for name in SUITES:
        spec = builtin_suite(name)
        for ct in spec.change_times():
            frac = (ct / spec.dt) % 1.0
            assert 0.25 < frac < 0.75
