"""Shared builders for jet-based tests."""

import numpy as np

from f13 import frame_equations as fe
from f13.core import (
    ConnectionState,
    MatterState,
    State,
    StateJet,
    SymThree,
    ThreeVector,
    TracefreeSymThree,
    WeylState,
)
from f13.frame_equations import JetArrays


def random_tracefree(rng, scale=1.0):
    return TracefreeSymThree(*(scale * rng.uniform(-1.0, 1.0, 5)))


def random_sym(rng, scale=1.0):
    raw = scale * rng.uniform(-1.0, 1.0, (3, 3))
    return SymThree.from_matrix(0.5 * (raw + raw.T))


def random_vec(rng, scale=1.0):
    return ThreeVector(*(scale * rng.uniform(-1.0, 1.0, 3)))


def random_state(rng, scale=1.0):
    matter = MatterState(
        mu=rng.uniform(-1.0, 1.0) * scale,
        p=rng.uniform(-1.0, 1.0) * scale,
        q=random_vec(rng, scale),
        pi=random_tracefree(rng, scale),
        Lam=rng.uniform(-1.0, 1.0) * scale,
    )
    conn = ConnectionState(
        Theta=rng.uniform(-1.0, 1.0) * scale,
        udot=random_vec(rng, scale),
        sigma=random_tracefree(rng, scale),
        omega=random_vec(rng, scale),
        Omega=random_vec(rng, scale),
        a=random_vec(rng, scale),
        n=random_sym(rng, scale),
    )
    weyl = WeylState(random_tracefree(rng, scale), random_tracefree(rng, scale))
    return State(matter, conn, weyl)


def random_jet(rng, scale=1.0, deriv_scale=1.0):
    return StateJet(
        0.0,
        random_state(rng, scale),
        tuple(random_state(rng, deriv_scale) for _ in range(4)),
    )


def eds_jet_arrays(t: float) -> JetArrays:
    """Einstein-de Sitter dust: a(t) = t^(2/3), flat FLRW, p = 0.

    Oracle derived from the scale factor: Theta = 3 adot/a = 2/t and the
    flat Friedmann constraint mu = Theta^2 / 3 = 4/(3 t^2).
    """
    adot_over_a = (2.0 / 3.0) / t
    theta = 3.0 * adot_over_a
    mu = theta * theta / 3.0
    return JetArrays.build((), dict(Theta=theta, mu=mu),
                           e0=dict(Theta=-2.0 / t**2, mu=-8.0 / (3.0 * t**3)))


class DenseJet(JetArrays):
    """A jet whose every field is also a dense component-major array
    (``ja.mu``, ``ja.dsigma``, ...), zero at first.  Its entries are views
    of every component of those arrays, so what a test assigns into them
    (``ja.n[1, 2] = x``, ``ja.dq[...] = 0.0``) is what the jet holds; the
    einsum reference reads the arrays."""

    def __init__(self, shape=()):
        shape = tuple(shape)
        fields = {name: np.zeros(comp + shape) for name, comp in fe._COMPONENTS.items()}
        super().__init__(shape, {(name, index): arr[index + (...,)]
                                 for name, arr in fields.items()
                                 for index in np.ndindex(fe._COMPONENTS[name])})
        vars(self).update(fields)


def densified(ja: JetArrays) -> DenseJet:
    """The dense view of a jet: every field a component-major array, +0.0
    where the jet holds no entry."""
    dense = DenseJet(ja.shape)
    for (name, index), entry in ja.entries.items():
        getattr(dense, name)[index] = entry
    return dense
