"""Spatial tensor algebra and state record tests."""

import numpy as np
import pytest

from f13.core import EPS, MatterState, SymThree, ThreeVector, TracefreeSymThree


def test_eps_orientation():
    assert EPS[0, 1, 2] == 1.0
    assert EPS[1, 0, 2] == -1.0
    # total antisymmetry
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 0, 1))) == 0.0
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 1, 2))) == 0.0


def test_tracefree_storage_is_structural():
    t = TracefreeSymThree(0.1, 0.2, 0.3, 0.4, 0.5)
    assert t.m33 == -(0.1 + 0.2)
    assert t.m11 + t.m22 + t.m33 == 0.0
    with pytest.raises(ValueError):
        TracefreeSymThree.from_matrix(np.diag([1.0, 1.0, 1.0]))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        ThreeVector(1.0, np.nan, 0.0)
    with pytest.raises(ValueError):
        SymThree.diag(np.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        TracefreeSymThree(np.nan, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MatterState(np.inf, 0.0, ThreeVector.zero(), TracefreeSymThree.zero())


def test_symthree_from_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymThree.from_matrix([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
