"""Spatial tensor algebra and state record tests."""

import numpy as np
import pytest

from f13.core import (
    EPS,
    ConnectionState,
    MatterState,
    SymThree,
    ThreeVector,
    TracefreeSymThree,
    commutation_from_connection,
    shear_magnitude_sq,
    spatial_commutation_compose,
    spatial_commutation_decompose,
    trace,
    tracefree_project,
    vorticity_magnitude_sq,
    vorticity_tensor_from_vector,
    vorticity_vector_from_tensor,
)


def test_eps_orientation():
    assert EPS[0, 1, 2] == 1.0
    assert EPS[1, 0, 2] == -1.0
    # total antisymmetry
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 0, 1))) == 0.0
    assert np.max(np.abs(EPS + np.swapaxes(EPS, 1, 2))) == 0.0


def test_trace_examples():
    assert trace(SymThree.identity()) == 3.0
    assert trace(SymThree.diag(1.0, -1.0, 0.0)) == 0.0
    assert trace(SymThree.diag(4.0, 1.0, 1.0)) == 6.0
    assert trace(TracefreeSymThree(1.0, 2.0, 0.5, 0.0, 0.0)) == 0.0


def test_tracefree_project():
    assert tracefree_project(SymThree.identity()).as_matrix().tolist() == np.zeros((3, 3)).tolist()
    m = SymThree.diag(4.0, 1.0, 1.0)
    proj = tracefree_project(m)
    assert np.allclose(proj.as_matrix(), np.diag([2.0, -1.0, -1.0]))
    # idempotence, exact
    again = tracefree_project(proj.as_sym())
    assert again == proj


def test_tracefree_storage_is_structural():
    t = TracefreeSymThree(0.1, 0.2, 0.3, 0.4, 0.5)
    assert t.m33 == -(0.1 + 0.2)
    assert trace(t) == 0.0
    with pytest.raises(ValueError):
        TracefreeSymThree.from_matrix(np.diag([1.0, 1.0, 1.0]))
    # projecting constructor accepts anything symmetric
    p = TracefreeSymThree.project(SymThree.diag(1.0, 1.0, 1.0))
    assert np.max(np.abs(p.as_matrix())) == 0.0


def test_shear_magnitude_examples():
    assert shear_magnitude_sq(TracefreeSymThree.zero()) == 0.0
    s = 0.7
    sig = TracefreeSymThree(s, s, 0.0, 0.0, 0.0)  # diag(s, s, -2s)
    # brute-force oracle: (1/2) sum_ab sigma_ab^2
    m = sig.as_matrix()
    brute = 0.5 * sum(m[i, j] ** 2 for i in range(3) for j in range(3))
    assert shear_magnitude_sq(sig) == pytest.approx(brute, rel=0, abs=0)
    assert shear_magnitude_sq(sig) == pytest.approx(3.0 * s * s, rel=1e-15)
    off = TracefreeSymThree(0.0, 0.0, 0.0, 1.0, 0.0)  # sigma_13 = 1
    assert shear_magnitude_sq(off) == 1.0


def test_vorticity_magnitude_examples():
    assert vorticity_magnitude_sq(ThreeVector.zero()) == 0.0
    assert vorticity_magnitude_sq(ThreeVector(0.0, 0.0, 2.0)) == 4.0
    assert vorticity_magnitude_sq(ThreeVector(1.0, 2.0, 2.0)) == 9.0


def test_vorticity_dual_examples():
    assert vorticity_vector_from_tensor(0.0, 0.0, 0.0) == ThreeVector.zero()
    assert vorticity_vector_from_tensor(0.0, 0.0, 1.0) == ThreeVector(0.0, 0.0, 1.0)


def test_magnitudes_nonnegative_and_definite():
    rng = np.random.default_rng(314)
    for _ in range(100):
        sig = TracefreeSymThree(*rng.uniform(-3.0, 3.0, 5))
        val = shear_magnitude_sq(sig)
        assert val >= 0.0
        assert (val == 0.0) == (np.max(np.abs(sig.as_matrix())) == 0.0)
        w = ThreeVector(*rng.uniform(-3.0, 3.0, 3))
        val = vorticity_magnitude_sq(w)
        assert val >= 0.0
        assert (val == 0.0) == (w == ThreeVector.zero())


def test_vorticity_dual_round_trip():
    rng = np.random.default_rng(20240805)
    for _ in range(100):
        w = rng.uniform(-5.0, 5.0, 3)
        omega = vorticity_vector_from_tensor(*w)
        back = vorticity_tensor_from_vector(omega)
        assert np.allclose(back, w, rtol=0, atol=0)


def test_commutation_compose_examples():
    zero = spatial_commutation_compose(ThreeVector.zero(), SymThree.zero())
    assert np.max(np.abs(zero)) == 0.0

    g = spatial_commutation_compose(ThreeVector(1.0, 0.0, 0.0), SymThree.zero())
    expected = np.zeros((3, 3, 3))
    expected[1, 0, 1] = 1.0   # gamma^2_12
    expected[2, 0, 2] = 1.0   # gamma^3_13
    expected[1, 1, 0] = -1.0  # gamma^2_21
    expected[2, 2, 0] = -1.0  # gamma^3_31
    assert np.array_equal(g, expected)

    g = spatial_commutation_compose(ThreeVector.zero(), SymThree.diag(0.0, 0.0, 1.0))
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 1] = 1.0   # gamma^3_12 = eps_12d n^d3 = n_33
    expected[2, 1, 0] = -1.0
    assert np.array_equal(g, expected)


def test_commutation_decompose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = ThreeVector(*rng.uniform(-2.0, 2.0, 3))
        raw = rng.uniform(-2.0, 2.0, (3, 3))
        n = SymThree.from_matrix(0.5 * (raw + raw.T))
        gamma = spatial_commutation_compose(a, n)
        a2, n2 = spatial_commutation_decompose(gamma)
        assert np.allclose(a2.as_array(), a.as_array(), atol=1e-13)
        assert np.allclose(n2.as_matrix(), n.as_matrix(), atol=1e-13)


def test_commutation_decompose_rejects_symmetric_pair():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = bad[0, 2, 1] = 1.0  # symmetric in the lower pair
    with pytest.raises(ValueError):
        spatial_commutation_decompose(bad)


def test_commutation_from_connection():
    G = np.zeros((4, 4, 4))
    G[1, 1, 2] = 3.0
    G[1, 2, 1] = 3.0  # symmetric lower pair contributes nothing
    assert np.max(np.abs(commutation_from_connection(G))) == 0.0

    G = np.zeros((4, 4, 4))
    G[1, 2, 3] = 1.0  # Gamma^1_23
    gamma = commutation_from_connection(G)
    assert gamma[1, 3, 2] == 1.0
    assert gamma[1, 2, 3] == -1.0

    rng = np.random.default_rng(3)
    G = rng.uniform(-1.0, 1.0, (4, 4, 4))
    gamma = commutation_from_connection(G)
    assert np.max(np.abs(gamma + np.swapaxes(gamma, 1, 2))) == 0.0


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


def test_connection_state_holds_kinematics():
    c = ConnectionState(
        Theta=2.0,
        udot=ThreeVector(0.0, 0.0, 1.0),
        sigma=TracefreeSymThree.zero(),
        omega=ThreeVector.zero(),
        Omega=ThreeVector.zero(),
        a=ThreeVector.zero(),
        n=SymThree.zero(),
    )
    assert c.Theta == 2.0
    assert c.udot.v3 == 1.0
