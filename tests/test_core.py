"""Spatial permutation symbol tests."""

import numpy as np

from f13.core import EPS


def test_eps_orientation():
    assert EPS[0, 1, 2] == 1.0
    assert EPS[1, 0, 2] == -1.0
    # total antisymmetry
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 0, 1))) == 0.0
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 1, 2))) == 0.0
