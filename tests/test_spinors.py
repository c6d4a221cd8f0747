"""Newman-Penrose bridge tests."""

import numpy as np
import pytest

from f13.core import MatterState, ThreeVector, TracefreeSymThree, WeylState
from f13.spinors import (
    diagonalizing_rotation,
    null_rotate_ricci,
    ricci_spinor,
    rotation_admissible,
    weyl_spinor,
)


def matter(mu=0.0, p=0.0, pi=None):
    return MatterState(mu, p, ThreeVector.zero(), pi or TracefreeSymThree.zero())


def random_ricci(rng):
    return ricci_spinor(
        matter(rng.uniform(-2, 2), rng.uniform(-2, 2), TracefreeSymThree(*rng.uniform(-2, 2, 5)))
    )


def test_ricci_spinor_vacuum():
    r = ricci_spinor(matter())
    assert (r.phi00, r.phi11, r.phi22, r.lam_np) == (0.0, 0.0, 0.0, 0.0)
    assert r.phi01 == r.phi02 == r.phi12 == 0.0


def test_ricci_spinor_perfect_fluid():
    r = ricci_spinor(matter(mu=1.7, p=0.4))
    assert r.phi00 == r.phi22 == pytest.approx(0.25 * 2.1, rel=1e-15)
    assert r.phi11 == pytest.approx(2.1 / 8.0, rel=1e-15)
    assert r.phi01 == 0.0 and r.phi02 == 0.0 and r.phi12 == 0.0
    assert r.lam_np == pytest.approx((1.7 - 1.2) / 24.0, rel=1e-15)


def test_ricci_spinor_elastic_example():
    # mu=3, p=1, pi=diag(1,1,-2); equals (2p-pi11)/2 and (p+pi11)/2
    r = ricci_spinor(matter(3.0, 1.0, TracefreeSymThree(1.0, 1.0, 0.0, 0.0, 0.0)))
    assert r.phi00 == r.phi22 == 0.5
    assert r.phi11 == 1.0
    assert r.lam_np == 0.0
    assert r.phi01 == r.phi02 == r.phi12 == 0.0


def test_ricci_spinor_offdiagonal_components():
    pi = TracefreeSymThree(0.6, -0.2, 0.3, 0.5, -0.7)
    r = ricci_spinor(matter(1.0, 0.2, pi))
    assert r.phi01 == 0.25 * complex(-0.5, -0.7)
    assert r.phi12 == 0.25 * complex(0.5, 0.7)
    assert r.phi02 == 0.25 * complex(0.6 + 0.2, -2.0 * 0.3)
    # hermitian partners materialize as conjugates
    assert r.phi10 == r.phi01.conjugate()
    assert r.phi21 == r.phi12.conjugate()


def test_weyl_spinor_zero_iff_zero():
    assert weyl_spinor(WeylState.zero()).max_abs() == 0.0
    w = WeylState(TracefreeSymThree(1.0, -1.0, 0.0, 0.0, 0.0), TracefreeSymThree.zero())
    s = weyl_spinor(w)
    assert s.psi0 == 1.0 and s.psi4 == 1.0
    assert s.psi1 == s.psi2 == s.psi3 == 0.0


def _q_from_psis(s):
    """Invert the Weyl spinor map (independent reconstruction oracle)."""
    Q = np.zeros((3, 3), dtype=complex)
    Q[2, 2] = 2.0 * s.psi2
    diff = s.psi0 + s.psi4          # Q11 - Q22
    Q[0, 0] = 0.5 * (diff - Q[2, 2])
    Q[1, 1] = 0.5 * (-diff - Q[2, 2])
    Q[0, 1] = Q[1, 0] = -0.5j * (s.psi4 - s.psi0)
    Q[0, 2] = Q[2, 0] = s.psi3 - s.psi1
    Q[1, 2] = Q[2, 1] = -1j * (s.psi1 + s.psi3)
    return Q


def test_weyl_spinor_reconstruction_and_injectivity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        E = TracefreeSymThree(*rng.uniform(-2, 2, 5))
        H = TracefreeSymThree(*rng.uniform(-2, 2, 5))
        s = weyl_spinor(WeylState(E, H))
        Q = E.as_matrix() + 1j * H.as_matrix()
        assert np.max(np.abs(_q_from_psis(s) - Q)) < 1e-13
        if np.max(np.abs(Q)) > 1e-12:
            assert s.max_abs() > 0.0


def test_weyl_spinor_real_q_symmetries():
    rng = np.random.default_rng(13)
    for _ in range(25):
        E = TracefreeSymThree(*rng.uniform(-2, 2, 5))
        s = weyl_spinor(WeylState(E, TracefreeSymThree.zero()))
        assert s.psi4 == s.psi0.conjugate()
        assert s.psi3 == -s.psi1.conjugate()
        assert s.psi2.imag == 0.0


def test_weyl_spinor_complex_linearity():
    rng = np.random.default_rng(17)
    lam = 0.37
    E1 = TracefreeSymThree(*rng.uniform(-1, 1, 5))
    E2 = TracefreeSymThree(*rng.uniform(-1, 1, 5))
    H = TracefreeSymThree(*rng.uniform(-1, 1, 5))
    comb = TracefreeSymThree(*(np.array([E1.m11, E1.m22, E1.m12, E1.m13, E1.m23])
                               + lam * np.array([E2.m11, E2.m22, E2.m12, E2.m13, E2.m23])))
    s = weyl_spinor(WeylState(comb, H))
    s1 = weyl_spinor(WeylState(E1, H))
    s2 = weyl_spinor(WeylState(E2, TracefreeSymThree.zero()))
    for name in ("psi0", "psi1", "psi2", "psi3", "psi4"):
        assert getattr(s, name) == pytest.approx(
            getattr(s1, name) + lam * getattr(s2, name), abs=1e-14
        )


def test_null_rotation_identity_and_invariants():
    rng = np.random.default_rng(8)
    r = random_ricci(rng)
    same = null_rotate_ricci(r, 0.0)
    assert same == r
    for _ in range(100):
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        rot = null_rotate_ricci(random_ricci(rng), alpha)
        # Phi00 and Lambda are exactly invariant; diagonal stays real by type
        assert isinstance(rot.phi00, float) and isinstance(rot.phi22, float)
    r2 = random_ricci(rng)
    rot = null_rotate_ricci(r2, complex(1.5, -2.5))
    assert rot.phi00 == r2.phi00
    assert rot.lam_np == r2.lam_np


def test_null_rotation_composition():
    rng = np.random.default_rng(21)
    for _ in range(20):
        r = random_ricci(rng)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = null_rotate_ricci(null_rotate_ricci(r, a), b)
        rhs = null_rotate_ricci(r, a + b)
        for name in ("phi00", "phi01", "phi02", "phi11", "phi12", "phi22"):
            assert getattr(lhs, name) == pytest.approx(getattr(rhs, name), abs=1e-12)


def test_diagonalizing_rotation():
    rng = np.random.default_rng(2)
    r = random_ricci(rng)
    while r.phi00 == 0.0 or abs(r.phi01) == 0.0:
        r = random_ricci(rng)
    alpha = diagonalizing_rotation(r)
    assert alpha == -r.phi01 / r.phi00
    rot = null_rotate_ricci(r, alpha)
    assert abs(rot.phi01) < 1e-15 * max(1.0, abs(r.phi01))
    flat = ricci_spinor(matter())
    with pytest.raises(ValueError):
        diagonalizing_rotation(flat)


def test_rotation_admissible_predicate():
    # mu + p < 0 with pi = diag(-3, -3, 6) satisfies all three conditions
    good = matter(-4.0, 0.0, TracefreeSymThree(-3.0, -3.0, 0.0, 0.0, 0.0))
    assert rotation_admissible(good)
    bad = matter(3.0, 1.0, TracefreeSymThree(1.0, 1.0, 0.0, 0.0, 0.0))
    assert not rotation_admissible(bad)
