"""Edge cases of the window engine's allocating entry point."""

import numpy as np

from algcpd._engine import eval_windows_raw
from algcpd.builder import ModelSpec, build_detector
from algcpd.kernels import discretize


def test_empty_position_range():
    det = build_detector(ModelSpec.monomial(0, 0))
    dd = discretize(det, window=64, dt=0.01)
    vnu, sigma, rms = eval_windows_raw(dd.weights, np.zeros(10))
    assert vnu.shape == (2, 0)
    assert sigma.shape == rms.shape == (0,)
