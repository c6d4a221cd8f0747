"""Shared builders for jet-based tests."""

import numpy as np

from f13 import frame_equations as fe
from f13.core import ConnectionState, SymThree, ThreeVector, TracefreeSymThree
from f13.frame_equations import COMPONENT_NAMES, JetArrays


def random_vec(rng):
    return ThreeVector(*rng.uniform(-1.0, 1.0, 3))


def random_connection(rng):
    raw = rng.uniform(-1.0, 1.0, (3, 3))
    return ConnectionState(
        Theta=rng.uniform(-1.0, 1.0),
        udot=random_vec(rng),
        sigma=TracefreeSymThree(*rng.uniform(-1.0, 1.0, 5)),
        omega=random_vec(rng),
        Omega=random_vec(rng),
        a=random_vec(rng),
        n=SymThree.from_matrix(0.5 * (raw + raw.T)),
    )


def random_jet(rng):
    """A single jet of random variables in every slot; the 33 entry of each
    trace-free tensor is left for ``JetArrays.build`` to derive."""
    def slot(derivative):
        return {name: rng.uniform(-1.0, 1.0) for name in COMPONENT_NAMES
                if name not in ("pi33", "sigma33", "E33", "H33")
                and not (derivative and name == "Lam")}

    return JetArrays.build((), slot(False), *(slot(True) for _ in range(4)))


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
