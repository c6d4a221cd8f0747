"""Fixed-size spatial tensor algebra and the 1+3 orthonormal-frame state records.

Conventions used throughout the package:

* geometric units, G = c = 1; every quantity is a dimensionless 64-bit real;
* frame metric diag(-1, +1, +1, +1), so spatial frame indices (1..3) are
  raised and lowered with the Kronecker delta;
* spatial permutation symbol fixed by eps_{123} = +1;
* symmetrisation X_(ab) = (X_ab + X_ba)/2, antisymmetrisation
  X_[ab] = (X_ab - X_ba)/2.

NaN/Inf never enter a state record: constructors reject non-finite input.
The records describe a single point for the commutator checks, the
derivative providers and the ``spinor`` subcommand; residual reports read
jets held as arrays (``frame_equations.JetArrays``), not these records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "EPS",
    "ThreeVector",
    "SymThree",
    "TracefreeSymThree",
    "MatterState",
    "ConnectionState",
    "WeylState",
    "DerivativeProvider",
    "trace",
    "tracefree_project",
    "shear_magnitude_sq",
    "vorticity_magnitude_sq",
    "vorticity_vector_from_tensor",
    "vorticity_tensor_from_vector",
    "spatial_commutation_compose",
    "spatial_commutation_decompose",
    "commutation_from_connection",
]

# spatial permutation symbol, eps_{123} = +1
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0
EPS.setflags(write=False)


def _require_finite(kind, *components):
    for c in components:
        if not math.isfinite(c):
            raise ValueError(f"{kind} rejects non-finite component {c!r}")


@dataclass(frozen=True)
class ThreeVector:
    """Spatial frame vector with components v_alpha, alpha in {1,2,3}."""

    v1: float
    v2: float
    v3: float

    def __post_init__(self):
        _require_finite("ThreeVector", self.v1, self.v2, self.v3)

    @classmethod
    def zero(cls) -> "ThreeVector":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr) -> "ThreeVector":
        a = np.asarray(arr, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"expected shape (3,), got {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3])

    def dot(self, other: "ThreeVector") -> float:
        return self.v1 * other.v1 + self.v2 * other.v2 + self.v3 * other.v3


@dataclass(frozen=True)
class SymThree:
    """Symmetric 3x3 tensor; storage holds only the upper triangle."""

    m11: float
    m22: float
    m33: float
    m12: float
    m13: float
    m23: float

    def __post_init__(self):
        _require_finite(
            "SymThree", self.m11, self.m22, self.m33, self.m12, self.m13, self.m23
        )

    @classmethod
    def zero(cls) -> "SymThree":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def diag(cls, d1: float, d2: float, d3: float) -> "SymThree":
        return cls(d1, d2, d3, 0.0, 0.0, 0.0)

    @classmethod
    def identity(cls) -> "SymThree":
        return cls.diag(1.0, 1.0, 1.0)

    @classmethod
    def from_matrix(cls, m, atol: float = 1e-12) -> "SymThree":
        a = np.asarray(m, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"expected shape (3, 3), got {a.shape}")
        if np.max(np.abs(a - a.T)) > atol:
            raise ValueError("matrix is not symmetric")
        return cls(a[0, 0], a[1, 1], a[2, 2], a[0, 1], a[0, 2], a[1, 2])

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.m11, self.m12, self.m13],
                [self.m12, self.m22, self.m23],
                [self.m13, self.m23, self.m33],
            ]
        )


@dataclass(frozen=True)
class TracefreeSymThree:
    """Symmetric trace-free 3x3 tensor.

    Only five components are stored; m33 is reconstructed as -(m11 + m22),
    which makes trace-freedom structural rather than numerical.
    """

    m11: float
    m22: float
    m12: float
    m13: float
    m23: float

    def __post_init__(self):
        _require_finite(
            "TracefreeSymThree", self.m11, self.m22, self.m12, self.m13, self.m23
        )

    @property
    def m33(self) -> float:
        return -(self.m11 + self.m22)

    @classmethod
    def zero(cls) -> "TracefreeSymThree":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def project(cls, m: SymThree) -> "TracefreeSymThree":
        """Remove the trace part of a symmetric tensor."""
        t = (m.m11 + m.m22 + m.m33) / 3.0
        return cls(m.m11 - t, m.m22 - t, m.m12, m.m13, m.m23)

    @classmethod
    def from_matrix(cls, m, atol: float = 1e-12) -> "TracefreeSymThree":
        """Strict constructor: rejects matrices whose trace exceeds atol."""
        s = SymThree.from_matrix(m, atol=atol)
        tr = s.m11 + s.m22 + s.m33
        scale = max(1.0, abs(s.m11), abs(s.m22), abs(s.m33))
        if abs(tr) > atol * scale:
            raise ValueError(f"matrix has trace {tr!r}; project it explicitly")
        return cls(s.m11, s.m22, s.m12, s.m13, s.m23)

    def as_sym(self) -> SymThree:
        return SymThree(self.m11, self.m22, self.m33, self.m12, self.m13, self.m23)

    def as_matrix(self) -> np.ndarray:
        return self.as_sym().as_matrix()


def trace(m) -> float:
    """Trace m_11 + m_22 + m_33 of a symmetric tensor."""
    return m.m11 + m.m22 + m.m33


def tracefree_project(m: SymThree) -> TracefreeSymThree:
    """m - (trace(m)/3) delta; idempotent, annihilates pure-trace input."""
    return TracefreeSymThree.project(m)


def shear_magnitude_sq(sigma) -> float:
    """sigma^2 = (1/2) sigma_ab sigma^ab >= 0."""
    m = sigma.as_matrix()
    return 0.5 * float(np.sum(m * m))


def vorticity_magnitude_sq(omega: ThreeVector) -> float:
    """omega^2 = omega_a omega^a >= 0."""
    return omega.dot(omega)


def vorticity_vector_from_tensor(w23: float, w31: float, w12: float) -> ThreeVector:
    """Frame-adapted dual omega_a = (1/2) eps_abc w_bc of an antisymmetric tensor.

    The tensor is given by its independent components (w_23, w_31, w_12).
    """
    w = np.array([[0.0, w12, -w31], [-w12, 0.0, w23], [w31, -w23, 0.0]])
    omega = 0.5 * np.einsum("abc,bc->a", EPS, w)
    return ThreeVector.from_array(omega)


def vorticity_tensor_from_vector(omega: ThreeVector) -> tuple[float, float, float]:
    """Inverse dual: w_bc = eps_abc omega_a, returned as (w_23, w_31, w_12)."""
    w = np.einsum("abc,a->bc", EPS, omega.as_array())
    return float(w[1, 2]), float(w[2, 0]), float(w[0, 1])


def spatial_commutation_compose(a: ThreeVector, n: SymThree) -> np.ndarray:
    """Assemble gamma^alpha_{beta gamma} = 2 a_[beta delta^alpha_gamma] + eps_{beta gamma delta} n^{delta alpha}.

    Returns the rank-3 array gamma[alpha, beta, gamma], antisymmetric in the
    last two indices.
    """
    av = a.as_array()
    nm = n.as_matrix()
    delta = np.eye(3)
    gamma = (
        np.einsum("b,ag->abg", av, delta)
        - np.einsum("g,ab->abg", av, delta)
        + np.einsum("bgd,da->abg", EPS, nm)
    )
    return gamma


def spatial_commutation_decompose(gamma) -> tuple[ThreeVector, SymThree]:
    """Invert spatial_commutation_compose.

    a_beta = (1/2) gamma^alpha_{beta alpha}; n is the symmetric part of
    (1/2) eps^{beta gamma delta} gamma^alpha_{beta gamma}.
    """
    g = np.asarray(gamma, dtype=float)
    if g.shape != (3, 3, 3):
        raise ValueError(f"expected shape (3, 3, 3), got {g.shape}")
    anti = g + np.swapaxes(g, 1, 2)
    if np.max(np.abs(anti)) > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise ValueError("gamma is not antisymmetric in its lower index pair")
    a = 0.5 * np.einsum("aba->b", g)
    raw = 0.5 * np.einsum("bgd,abg->da", EPS, g)
    n = 0.5 * (raw + raw.T)
    return ThreeVector.from_array(a), SymThree.from_matrix(n)


def commutation_from_connection(Gamma) -> np.ndarray:
    """Commutation functions gamma^a_bc = Gamma^a_cb - Gamma^a_bc from rotation coefficients."""
    G = np.asarray(Gamma, dtype=float)
    if G.shape != (4, 4, 4):
        raise ValueError(f"expected shape (4, 4, 4), got {G.shape}")
    return np.swapaxes(G, 1, 2) - G


# ---------------------------------------------------------------------------
# 1+3 state records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatterState:
    """Fluid/elastic source variables {mu, p, q_a, pi_ab, Lambda}."""

    mu: float
    p: float
    q: ThreeVector
    pi: TracefreeSymThree
    Lam: float = 0.0

    def __post_init__(self):
        _require_finite("MatterState", self.mu, self.p, self.Lam)

    @classmethod
    def zero(cls) -> "MatterState":
        return cls(0.0, 0.0, ThreeVector.zero(), TracefreeSymThree.zero(), 0.0)


@dataclass(frozen=True)
class ConnectionState:
    """Kinematics plus spatial commutation variables.

    Theta: expansion; udot: acceleration; sigma: shear; omega: vorticity;
    Omega: triad angular velocity; (a, n): irreducible parts of the purely
    spatial commutation functions.
    """

    Theta: float
    udot: ThreeVector
    sigma: TracefreeSymThree
    omega: ThreeVector
    Omega: ThreeVector
    a: ThreeVector
    n: SymThree

    def __post_init__(self):
        _require_finite("ConnectionState", self.Theta)

    @classmethod
    def zero(cls) -> "ConnectionState":
        z3 = ThreeVector.zero()
        return cls(0.0, z3, TracefreeSymThree.zero(), z3, z3, z3, SymThree.zero())


@dataclass(frozen=True)
class WeylState:
    """Electric and magnetic Weyl curvature parts relative to u."""

    E: TracefreeSymThree
    H: TracefreeSymThree

    @classmethod
    def zero(cls) -> "WeylState":
        return cls(TracefreeSymThree.zero(), TracefreeSymThree.zero())


@runtime_checkable
class DerivativeProvider(Protocol):
    """Queryable source of field values and frame derivatives at a point.

    Contract: derivatives of constant fields vanish; queries are linear over
    field addition; implementations are safe for concurrent read-only use.
    Second mixed derivatives are only needed for commutator checks and an
    implementation may raise ValueError if it cannot supply them.
    """

    def value(self, point: float, field: str) -> float: ...

    def derivative(self, point: float, field: str, a: int) -> float: ...

    def second_derivative(self, point: float, field: str, a: int, b: int) -> float: ...

    def connection(self, point: float) -> ConnectionState: ...
