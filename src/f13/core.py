"""Fixed-size spatial tensor algebra and the 1+3 orthonormal-frame state records.

Conventions used throughout the package:

* geometric units, G = c = 1; every quantity is a dimensionless 64-bit real;
* frame metric diag(-1, +1, +1, +1), so spatial frame indices (1..3) are
  raised and lowered with the Kronecker delta;
* spatial permutation symbol fixed by eps_{123} = +1;
* symmetrisation X_(ab) = (X_ab + X_ba)/2, antisymmetrisation
  X_[ab] = (X_ab - X_ba)/2.

NaN/Inf never enter a state record: constructors reject non-finite input.
The records describe a single point for the ``spinor`` subcommand;
residual reports read jets held as arrays (``frame_equations.JetArrays``),
not these records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS",
    "ThreeVector",
    "SymThree",
    "TracefreeSymThree",
    "MatterState",
    "WeylState",
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
    def from_matrix(cls, m, atol: float = 1e-12) -> "TracefreeSymThree":
        """Strict constructor: rejects matrices whose trace exceeds atol."""
        s = SymThree.from_matrix(m, atol=atol)
        tr = s.m11 + s.m22 + s.m33
        scale = max(1.0, abs(s.m11), abs(s.m22), abs(s.m33))
        if abs(tr) > atol * scale:
            raise ValueError(f"matrix has trace {tr!r}, not 0")
        return cls(s.m11, s.m22, s.m12, s.m13, s.m23)

    def as_sym(self) -> SymThree:
        return SymThree(self.m11, self.m22, self.m33, self.m12, self.m13, self.m23)

    def as_matrix(self) -> np.ndarray:
        return self.as_sym().as_matrix()


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
class WeylState:
    """Electric and magnetic Weyl curvature parts relative to u."""

    E: TracefreeSymThree
    H: TracefreeSymThree

    @classmethod
    def zero(cls) -> "WeylState":
        return cls(TracefreeSymThree.zero(), TracefreeSymThree.zero())

