"""Newman-Penrose bridge: Ricci and Weyl spinor components from 1+3 data.

The null tetrad is adapted to the orthonormal frame by
l = (e_0 - e_3)/sqrt(2), k = (e_0 + e_3)/sqrt(2), m = (e_1 - i e_2)/sqrt(2),
and the curvature maps are purely algebraic in the matter and Weyl
variables.  ``ricci_spinor``, ``weyl_spinor`` and ``rotation_admissible``
read one slot of a jet (``JetArrays.value``, single or batched) by
variable name, and give numbers or arrays of its batch shape; pi, E and H
are trace-free, so their 33 entries are -(x11 + x22) whatever the slot
holds.  The hermitian partners Phi_10, Phi_20, Phi_21 are never stored,
they are materialised as conjugates where a null rotation needs them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RicciSpinor",
    "WeylSpinor",
    "ricci_spinor",
    "weyl_spinor",
    "null_rotate_ricci",
    "diagonalizing_rotation",
    "rotation_admissible",
]


@dataclass(frozen=True)
class RicciSpinor:
    """Ricci spinor components; the diagonal entries are real by hermiticity.

    lam_np is the NP curvature scalar (mu - 3p)/24, distinct from the
    cosmological constant.
    """

    phi00: float
    phi11: float
    phi22: float
    phi01: complex
    phi02: complex
    phi12: complex
    lam_np: float

    @property
    def phi10(self) -> complex:
        return self.phi01.conjugate()

    @property
    def phi20(self) -> complex:
        return self.phi02.conjugate()

    @property
    def phi21(self) -> complex:
        return self.phi12.conjugate()


@dataclass(frozen=True)
class WeylSpinor:
    psi0: complex
    psi1: complex
    psi2: complex
    psi3: complex
    psi4: complex

    def max_abs(self):
        """max |Psi_n|, nan where any Psi_n is nan."""
        return functools.reduce(np.maximum, map(abs, (self.psi0, self.psi1, self.psi2,
                                                      self.psi3, self.psi4)))


def _tracefree(x, t: str) -> dict:
    """The entries 11, 22, 12, 13, 23 and 33 of the trace-free tensor t of
    the jet slot x, as arrays, with t33 = -(t11 + t22)."""
    c = {ij: np.asarray(getattr(x, t + ij)) for ij in ("11", "22", "12", "13", "23")}
    c["33"] = -(c["11"] + c["22"])
    return c


def _complex(re, im) -> np.ndarray:
    """re + i im, set part by part: the arithmetic of re + 1j * im can
    change the sign of a zero part."""
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def _quarter(re, im) -> np.ndarray:
    """0.25 (re + i im) by the operations of the complex product
    (0.25 + 0i)(re + i im), unfused: where numpy's complex loop fuses a
    multiply and an add, a zero part of a product with a subnormal re or
    im takes the other sign."""
    return _complex(0.25 * re - 0.0 * im, 0.25 * im + 0.0 * re)


def ricci_spinor(x) -> RicciSpinor:
    """Map the matter variables of the jet slot x to the Ricci spinor
    components.

    Phi_00 = Phi_22 = (mu + p + pi_33)/4,
    Phi_11 = (mu + p + pi_11 + pi_22 - pi_33)/8,
    Phi_01 = (-pi_13 + i pi_23)/4,  Phi_12 = (pi_13 - i pi_23)/4,
    Phi_02 = (pi_11 - pi_22 - 2 i pi_12)/4,  Lambda_NP = (mu - 3p)/24.
    """
    pi = _tracefree(x, "pi")
    s = x.mu + x.p
    phi00 = 0.25 * (s + pi["33"])
    phi11 = 0.125 * (s + pi["11"] + pi["22"] - pi["33"])
    phi01 = _quarter(-pi["13"], pi["23"])
    phi12 = _quarter(pi["13"], -pi["23"])
    phi02 = _quarter(pi["11"] - pi["22"], -2.0 * pi["12"])
    lam_np = (x.mu - 3.0 * x.p) / 24.0
    return RicciSpinor(phi00, phi11, phi00, phi01, phi02, phi12, lam_np)


def weyl_spinor(x) -> WeylSpinor:
    """Weyl spinor components of the jet slot x from Q = E + iH.

    Psi_0 = (Q11 - Q22 - 2i Q12)/2, Psi_1 = (i Q23 - Q13)/2, Psi_2 = Q33/2,
    Psi_3 = (i Q23 + Q13)/2, Psi_4 = (Q11 - Q22 + 2i Q12)/2.
    """
    E, H = _tracefree(x, "E"), _tracefree(x, "H")
    # numpy's E + 1j * H, not set part by part: the signs of its zero parts
    # are those the Psi carry
    Q = {ij: E[ij] + 1j * H[ij] for ij in E}
    psi0 = 0.5 * (Q["11"] - Q["22"] - 2j * Q["12"])
    psi1 = 0.5 * (1j * Q["23"] - Q["13"])
    psi2 = 0.5 * Q["33"]
    psi3 = 0.5 * (1j * Q["23"] + Q["13"])
    psi4 = 0.5 * (Q["11"] - Q["22"] + 2j * Q["12"])
    return WeylSpinor(psi0, psi1, psi2, psi3, psi4)


def null_rotate_ricci(r: RicciSpinor, alpha: complex) -> RicciSpinor:
    """Null rotation about l with complex parameter alpha.

    Applies the transformation table verbatim, with Phi_10 = conj(Phi_01)
    etc. substituted; Phi_00 and Lambda_NP are invariant.  The imaginary
    parts of the transformed diagonal entries cancel exactly in floating
    point, so the hermiticity of the record is preserved bit-for-bit.
    """
    al = complex(alpha)
    ab = al.conjugate()
    a2 = al * al
    ab2 = ab * ab
    phi01 = r.phi01 + al * r.phi00
    phi02 = r.phi02 + 2.0 * al * r.phi01 + a2 * r.phi00
    phi11 = r.phi11 + al * r.phi10 + ab * r.phi01 + (al * ab) * r.phi00
    phi12 = (
        r.phi12
        + 2.0 * al * r.phi11
        + a2 * r.phi10
        + ab * r.phi02
        + 2.0 * (al * ab) * r.phi01
        + (a2 * ab) * r.phi00
    )
    phi22 = (
        r.phi22
        + (2.0 * al) * r.phi21
        + (2.0 * ab) * r.phi12
        + 4.0 * (al * ab) * r.phi11
        + ((2.0 * al) * ab2) * r.phi01
        + ((2.0 * ab) * a2) * r.phi10
        + a2 * r.phi20
        + ab2 * r.phi02
        + (ab2 * a2) * r.phi00
    )
    return RicciSpinor(
        r.phi00, phi11.real, phi22.real, phi01, phi02, phi12, r.lam_np
    )


def diagonalizing_rotation(r: RicciSpinor) -> complex:
    """Rotation parameter alpha = -Phi_01/Phi_00 that kills Phi_01."""
    if r.phi00 == 0.0:
        raise ValueError("diagonalizing rotation undefined for Phi_00 = 0")
    return -r.phi01 / r.phi00


def rotation_admissible(x):
    """Nonnegativity of the three quadratic right-hand sides that a basis
    with pi_13 = pi_23 = pi_12 = 0 requires, at each point of the jet slot x.

    The three expressions equated to pi_13^2, pi_23^2 and pi_12^2 must each
    be >= 0; this predicate does not assert that a single rotation realises
    the diagonal basis, it only screens the stated necessary conditions.
    """
    pi = _tracefree(x, "pi")
    s = x.mu + x.p
    u = s + pi["33"]
    v1 = pi["11"] - 2.0 * pi["22"] - s
    v2 = -2.0 * pi["11"] + pi["22"] - s
    rhs13 = u * v1 / 3.0
    rhs23 = u * v2 / 3.0
    rhs12 = v1 * (-pi["11"] + 2.0 * pi["22"] - s) / 9.0
    return (rhs13 >= 0.0) & (rhs23 >= 0.0) & (rhs12 >= 0.0)
