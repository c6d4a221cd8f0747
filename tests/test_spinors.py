"""Newman-Penrose bridge tests."""

import numpy as np
import pytest

from f13.frame_equations import JetArrays
from f13.spinors import (
    diagonalizing_rotation,
    null_rotate_ricci,
    ricci_spinor,
    rotation_admissible,
    weyl_spinor,
)

ENTRIES = ("11", "22", "12", "13", "23")


def state(**values):
    """The value slot of the jet of the named variables, batched by their
    shape."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in values.values()))
    return JetArrays.build(shape, values).value


def tracefree(t, entries):
    """The variables t11, t22, t12, t13, t23 of a trace-free tensor, from
    its five entries in that order."""
    return {t + ij: x for ij, x in zip(ENTRIES, entries)}


def matter(mu=0.0, p=0.0, pi=(0.0,) * 5):
    return state(mu=mu, p=p, **tracefree("pi", pi))


def random_ricci(rng):
    return ricci_spinor(matter(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2, 5)))


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
    r = ricci_spinor(matter(3.0, 1.0, (1.0, 1.0, 0.0, 0.0, 0.0)))
    assert r.phi00 == r.phi22 == 0.5
    assert r.phi11 == 1.0
    assert r.lam_np == 0.0
    assert r.phi01 == r.phi02 == r.phi12 == 0.0


def test_ricci_spinor_offdiagonal_components():
    r = ricci_spinor(matter(1.0, 0.2, (0.6, -0.2, 0.3, 0.5, -0.7)))
    assert r.phi01 == 0.25 * complex(-0.5, -0.7)
    assert r.phi12 == 0.25 * complex(0.5, 0.7)
    assert r.phi02 == 0.25 * complex(0.6 + 0.2, -2.0 * 0.3)
    # hermitian partners materialize as conjugates
    assert r.phi10 == r.phi01.conjugate()
    assert r.phi21 == r.phi12.conjugate()


def test_spinor_maps_read_a_batch_as_its_points():
    """A batched jet maps, point by point, to the records of its single
    points exactly."""
    rng = np.random.default_rng(4)
    names = ["mu", "p", *tracefree("pi", ENTRIES), *tracefree("E", ENTRIES),
             *tracefree("H", ENTRIES)]
    values = dict(zip(names, rng.uniform(-2, 2, (len(names), 6))))
    batch = state(**values)
    for k in range(6):
        point = state(**{name: x[k] for name, x in values.items()})
        for maps in (ricci_spinor, weyl_spinor):
            for name, x in vars(maps(batch)).items():
                assert x[k] == getattr(maps(point), name), (maps.__name__, name)
        assert rotation_admissible(batch)[k] == rotation_admissible(point)


def test_weyl_spinor_zero_iff_zero():
    assert weyl_spinor(state()).max_abs() == 0.0
    s = weyl_spinor(state(E11=1.0, E22=-1.0))
    assert s.psi0 == 1.0 and s.psi4 == 1.0
    assert s.psi1 == s.psi2 == s.psi3 == 0.0


def q_entries(E, H):
    """The entries of Q = E + iH, the 33 one by trace-freedom."""
    q = {ij: e + 1j * h for ij, e, h in zip(ENTRIES, E, H)}
    q["33"] = -(q["11"] + q["22"])
    return q


def _q_from_psis(s):
    """Invert the Weyl spinor map (independent reconstruction oracle)."""
    q = {"33": 2.0 * s.psi2}
    diff = s.psi0 + s.psi4          # Q11 - Q22
    q["11"] = 0.5 * (diff - q["33"])
    q["22"] = 0.5 * (-diff - q["33"])
    q["12"] = -0.5j * (s.psi4 - s.psi0)
    q["13"] = s.psi3 - s.psi1
    q["23"] = -1j * (s.psi1 + s.psi3)
    return q


def test_weyl_spinor_reconstruction_and_injectivity():
    rng = np.random.default_rng(31)
    E, H = rng.uniform(-2, 2, (2, 5, 50))
    s = weyl_spinor(state(**tracefree("E", E), **tracefree("H", H)))
    q, back = q_entries(E, H), _q_from_psis(s)
    assert max(np.max(np.abs(back[ij] - q[ij])) for ij in q) < 1e-13
    nonzero = np.max(np.abs(list(q.values())), axis=0) > 1e-12
    assert np.all(s.max_abs()[nonzero] > 0.0)


def test_weyl_spinor_real_q_symmetries():
    rng = np.random.default_rng(13)
    s = weyl_spinor(state(**tracefree("E", rng.uniform(-2, 2, (5, 25)))))
    assert np.array_equal(s.psi4, s.psi0.conjugate())
    assert np.array_equal(s.psi3, -s.psi1.conjugate())
    assert np.all(s.psi2.imag == 0.0)


def test_weyl_spinor_complex_linearity():
    rng = np.random.default_rng(17)
    lam = 0.37
    E1, E2, H = rng.uniform(-1, 1, (3, 5))
    s = weyl_spinor(state(**tracefree("E", E1 + lam * E2), **tracefree("H", H)))
    s1 = weyl_spinor(state(**tracefree("E", E1), **tracefree("H", H)))
    s2 = weyl_spinor(state(**tracefree("E", E2)))
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
    # mu + p < 0 with pi = diag(-3, -3, 6) satisfies all three conditions;
    # mu = 3, p = 1 with pi = diag(1, 1, -2) does not
    both = matter(np.array([-4.0, 3.0]), np.array([0.0, 1.0]),
                  (np.array([-3.0, 1.0]), np.array([-3.0, 1.0]), 0.0, 0.0, 0.0))
    assert rotation_admissible(both).tolist() == [True, False]
