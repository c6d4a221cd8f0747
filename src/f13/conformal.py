"""Conformally flat elastic specialization: reduced systems and ODE cases.

Covers the specialized Bianchi system (17 entries), the gauge reduction,
the reduced Ricci/Einstein system, the two non-rotating ODE cases with
their algebraic closures and closed-form families, and the future-work
system as residuals only.

Every residual evaluator here accepts scalar fields or equally shaped
arrays, so a whole grid of states is checked in one call.  The frame
derivative along the inhomogeneity direction is e_3 = F(z) d/dz.

Entries (b1)-(b14) and (RE1)-(RE14b) are kernels that read the jet's slots
by variable name, evaluated through per-pattern plans that skip every term
with a factor the jet does not hold (``frame_equations._planned_view``):
the same bits as the kernel on the jet itself, up to the sign of a zero.
The plans read the jet's one scan (``JetArrays.scan``), which the general
report of the same jet reads too: ``embed_special`` hands the jet itself
to the general system.  ``signed_zeros`` runs the kernel on the jet
itself, for the ``residual`` CSV, which writes each sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_equations import JetArrays, ResidualReport, _planned_view
# quadrature is not called here: perfbench/tracing.py's LAYER_PATCHES look
# it up in this module, and its install() raises AttributeError without it
from .numerics import (Grid, NotAKnotSpline, check_frame_factor, cumulative_integral_refined,
                       quadrature)

__all__ = [
    "ScaleFactor",
    "SPECIAL_NAMES",
    "SpecialJet",
    "CaseA1ClosedForm",
    "BranchFamily",
    "BranchFields",
    "SHEARLESS",
    "A2_BRANCH2",
    "special_ricci",
    "bianchi_special_residuals",
    "gauge_reduce",
    "is_gauge_reduced",
    "ricci_einstein_residuals",
    "futurework_residuals",
    "case_a1_closure",
    "case_a1_rhs",
    "case_a1_first_integral",
    "case_a2_rhs",
    "case_a2_pi11",
    "shearless_branch_fields",
    "a2_branch2_fields",
    "branch_jet",
    "a1_trajectory_jet",
    "a2_trajectory_jet",
    "embed_special",
    "B_NAMES",
    "RE_NAMES",
    "FW_NAMES",
]

POLE_MARGIN = 1e-3  # clip distance ahead of a detected denominator sign change


class ScaleFactor:
    """Positive frame factor F(z); e_3 acts as F d/dz in the diagonal basis."""

    def __init__(self, value: Callable):
        self._value = value

    def __call__(self, z):
        return self._value(z)

    @classmethod
    def constant(cls, c: float) -> "ScaleFactor":
        c = float(c)
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError("constant frame factor must be positive and finite")
        return cls(lambda z: np.asarray(z, dtype=float) * 0.0 + c)

    @classmethod
    def from_table(cls, zs, values) -> "ScaleFactor":
        """The not-a-knot cubic spline through the table, equal to scipy's
        ``CubicSpline`` bit for bit.  Only the nodes are checked for
        positivity: the spline may dip below zero between them, which its
        users check where they evaluate it."""
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0.0):
            raise ValueError("tabulated frame factor must be positive")
        return cls(NotAKnotSpline(zs, values))


# The surviving variables of the conformally flat elastic ansatz.  The
# entries it pins (sigma12, n12, n33, omega3 and the sigma/n diagonal) can
# be set off their constrained values, so that violating data is
# representable and shows up in the (b15)-(b17) residual entries.
SPECIAL_NAMES = (
    "p", "pi11", "Theta", "sigma11", "udot3", "a1", "a2", "a3",
    "n11", "n13", "n23", "Omega3", "omega1", "omega2", "omega3",
    "sigma13", "sigma23", "Omega1", "Omega2", "udot1", "udot2",
    "sigma22", "sigma33", "sigma12", "n22", "n33", "n12",
)


def _ansatz(values: dict) -> dict:
    """The variables of one jet slot with the ansatz applied: mu = 3p and
    pi = diag(pi11, pi11, -2 pi11); sigma22 = sigma11, sigma33 = -2 sigma11
    and n22 = n11 unless given."""
    unknown = [name for name in values if name not in SPECIAL_NAMES]
    if unknown:
        raise TypeError(f"unknown special variables: {', '.join(unknown)}")
    out = dict(values)
    sigma11 = values.get("sigma11", 0.0)
    if "sigma22" not in values:
        out["sigma22"] = sigma11
    if "sigma33" not in values:
        out["sigma33"] = -2.0 * np.asarray(sigma11)
    if "n22" not in values:
        out["n22"] = values.get("n11", 0.0)
    pi11 = np.asarray(values.get("pi11", 0.0))
    out.update(mu=3.0 * np.asarray(values.get("p", 0.0)), pi11=pi11, pi22=pi11,
               pi33=-2.0 * pi11)
    return out


class SpecialJet(JetArrays):
    """A conformally flat elastic jet: a ``JetArrays`` built from the ansatz
    variables, with its z grid."""

    def __init__(self, z, shape: tuple, entries: dict):
        super().__init__(shape, entries)
        self.z = z

    @staticmethod
    def build(z, value: dict, e0=None, e1=None, e2=None, e3=None) -> "SpecialJet":
        """The jet of the named variables ``value`` (``SPECIAL_NAMES``) and
        their frame derivatives, with the ansatz applied in each slot and
        the batch shape of ``value`` (see ``JetArrays.build``)."""
        shape = np.broadcast_shapes(*(np.shape(x) for x in value.values()))
        slots = (_ansatz(values or {}) for values in (value, e0, e1, e2, e3))
        return SpecialJet(z, shape, JetArrays.build(shape, *slots).entries)

    def replace_value(self, **values) -> "SpecialJet":
        """The jet built again from its variables, with the named variables
        of its value replaced by ``values``."""
        value, *deriv = ({name: getattr(slot, name) for name in SPECIAL_NAMES}
                         for slot in (self.value, *self.deriv))
        return SpecialJet.build(self.z, value | values, *deriv)


# ---------------------------------------------------------------------------
# reduced curvature map and the specialized systems
# ---------------------------------------------------------------------------


def special_ricci(p, pi11):
    """Nonzero Ricci spinor entries of the ansatz: (Phi_00, Phi_11).

    Phi_00 = Phi_22 = (2p - pi_11)/2 and Phi_11 = (p + pi_11)/2, matching
    the general matter map at mu = 3p, pi = diag(pi11, pi11, -2 pi11).
    """
    return 0.5 * (2.0 * np.asarray(p) - pi11), 0.5 * (np.asarray(p) + pi11)


B_NAMES = tuple(f"b{i}" for i in range(1, 18))


@_planned_view
def _special_bianchi(jet):
    """(b1)-(b14): derivative equations 1-8 and algebraic constraints 9-14."""
    s = jet.value
    e0, e1, e2, e3 = jet.deriv
    third = 1.0 / 3.0
    return (
        e0.p - (-(4.0 * third) * s.p * s.Theta - 2.0 * s.sigma11 * s.pi11),
        e0.pi11 - (-4.0 * s.sigma11 * s.p + (s.sigma11 - third * s.Theta) * s.pi11),
        e1.p - (-(s.a1 - s.n23) * s.pi11),
        e1.pi11 - (s.a1 - s.n23) * s.pi11,
        e2.p - (-(s.a2 + s.n13) * s.pi11),
        e2.pi11 - (s.a2 + s.n13) * s.pi11,
        e3.p - (-(4.0 * third) * s.udot3 * s.p + (2.0 * third) * s.udot3 * s.pi11),
        e3.pi11
        - ((4.0 * third) * s.udot3 * s.p + (3.0 * s.a3 - (2.0 * third) * s.udot3) * s.pi11),
        4.0 * s.udot1 * s.p + (s.udot1 - 3.0 * s.a1 + 3.0 * s.n23) * s.pi11,
        4.0 * s.udot2 * s.p + (s.udot2 - 3.0 * s.a2 - 3.0 * s.n13) * s.pi11,
        -2.0 * s.sigma13 * s.p + 0.25 * (3.0 * s.omega2 - 6.0 * s.Omega2 + s.sigma13) * s.pi11,
        -2.0 * s.sigma23 * s.p - 0.25 * (3.0 * s.omega1 - 6.0 * s.Omega1 - s.sigma23) * s.pi11,
        -4.0 * s.omega1 * s.p + 0.5 * (s.omega1 - 3.0 * s.sigma23) * s.pi11,
        -4.0 * s.omega2 * s.p + 0.5 * (s.omega2 + 3.0 * s.sigma13) * s.pi11,
    )


def bianchi_special_residuals(jet: SpecialJet, signed_zeros: bool = False) -> ResidualReport:
    """Seventeen-entry residual vector of the specialized Bianchi system.

    Entries 1-8 are derivative equations, 9-14 algebraic constraints, and
    15-17 encode the structural conditions (vanishing of omega_3, n_33,
    n_12, sigma_12; sigma_22 = sigma_11 = -sigma_33/2; n_11 = n_22) as
    max-abs of their member variables and differences.  Entries 1-14 skip
    their zero terms, unless ``signed_zeros`` asks for the sign of each zero
    entry (see ``frame_equations._planned_view``).
    """
    s = jet.value
    planned = _special_bianchi(jet, signed_zeros)
    entries = [
        *planned,
        np.maximum.reduce(
            np.broadcast_arrays(
                np.abs(np.asarray(s.omega3, dtype=float)),
                np.abs(np.asarray(s.n33, dtype=float)),
                np.abs(np.asarray(s.n12, dtype=float)),
                np.abs(np.asarray(s.sigma12, dtype=float)),
            )
        ),
        np.maximum(
            np.abs(np.asarray(s.sigma22) - s.sigma11),
            np.abs(np.asarray(s.sigma11) + 0.5 * np.asarray(s.sigma33)),
        ),
        np.abs(np.asarray(s.n11) - s.n22),
    ]
    return ResidualReport.of_entries(jet.shape, B_NAMES, entries, planned.extremes)


_GAUGE_ZEROED = (
    "sigma13", "sigma23", "omega1", "omega2", "omega3",
    "Omega1", "Omega2", "udot1", "udot2",
)


def gauge_reduce(jet: SpecialJet) -> SpecialJet:
    """Fix the residual frame freedom of the ansatz.

    Forces sigma13 = sigma23 = omega_i = Omega_1 = Omega_2 = udot_1 =
    udot_2 = 0 together with n_23 = a_1 and n_13 = -a_2 in the jet's value,
    after which the algebraic constraints (entries 9-14) hold identically.
    """
    s = jet.value
    return jet.replace_value(n23=s.a1, n13=-np.asarray(s.a2),
                             **{name: 0.0 for name in _GAUGE_ZEROED})


def is_gauge_reduced(jet: SpecialJet) -> bool:
    s = jet.value
    checks = [np.asarray(getattr(s, name)) for name in _GAUGE_ZEROED]
    checks.append(np.asarray(s.n23) - s.a1)
    checks.append(np.asarray(s.n13) + s.a2)
    return all(np.all(c == 0.0) for c in checks)


RE_NAMES = (
    "RE1", "RE2", "RE3", "RE4", "RE5", "RE6", "RE7", "RE8", "RE9", "RE10",
    "RE11a", "RE11b", "RE12a", "RE12b", "RE13a", "RE13b", "RE14a", "RE14b",
)


@_planned_view
def _ricci_einstein(jet):
    """(RE1)-(RE14b); the two-sided zero equations give paired entries
    (suffix a for e_1, b for e_2)."""
    s = jet.value
    e0, e1, e2, e3 = jet.deriv
    third = 1.0 / 3.0
    return (
        e0.a3
        - (-third * s.udot3 * s.Theta - third * s.a3 * s.Theta
           - s.udot3 * s.sigma11 - s.a3 * s.sigma11),
        (e1.a1 + e2.a2 + e3.a3)
        - (1.5 * s.p - s.Theta ** 2 / 6.0 + 1.5 * s.sigma11 ** 2
           + 2.0 * s.a1 ** 2 + 2.0 * s.a2 ** 2 + 1.5 * s.a3 ** 2),
        (e3.a3 - e0.sigma11 - third * e3.udot3)
        - (s.Theta * s.sigma11 - s.pi11 + third * s.udot3 ** 2
           + third * s.a3 * s.udot3 + s.p - s.Theta ** 2 / 9.0
           + s.sigma11 ** 2 + s.a3 ** 2),
        (e3.sigma11 + third * e3.Theta) - 3.0 * s.a3 * s.sigma11,
        (e3.Omega3 + e0.n11)
        - (-s.udot3 * s.Omega3 + 2.0 * s.sigma11 * s.n11 - third * s.Theta * s.n11),
        (e0.Theta - e3.udot3)
        - (-s.Theta ** 2 / 3.0 - 6.0 * s.sigma11 ** 2
           - 3.0 * s.p + s.udot3 ** 2 - 2.0 * s.a3 * s.udot3),
        (e1.n11 - 2.0 * e3.a2) - (2.0 * s.a1 * s.n11 - 2.0 * s.a3 * s.a2),
        # 2 e3(a1) + e2(n11), written so that an absent e2(n11) (0.0) leaves
        # 2 e3(a1) as it is, the sign of a zero included
        -(-2.0 * e3.a1 - e2.n11) - (2.0 * s.a2 * s.n11 + 2.0 * s.a3 * s.a1),
        (e0.a1 - 0.5 * e2.Omega3)
        - (-third * s.a1 * s.Theta - s.a1 * s.sigma11 - s.a2 * s.Omega3),
        (e0.a2 + 0.5 * e1.Omega3)
        - (-third * s.a2 * s.Theta - s.a2 * s.sigma11 + s.a1 * s.Omega3),
        e1.udot3,
        e2.udot3,
        e1.a3,
        e2.a3,
        e1.sigma11,
        e2.sigma11,
        e1.Theta,
        e2.Theta,
    )


def ricci_einstein_residuals(jet: SpecialJet, signed_zeros: bool = False) -> ResidualReport:
    """Residuals of the reduced Ricci/Einstein system, skipping their zero
    terms unless ``signed_zeros`` asks for the sign of each zero entry (see
    ``frame_equations._planned_view``).

    Requires a gauge-reduced state.
    """
    if not is_gauge_reduced(jet):
        raise ValueError("ricci_einstein_residuals requires a gauge-reduced state")
    planned = _ricci_einstein(jet, signed_zeros)
    return ResidualReport.of_entries(jet.shape, RE_NAMES, planned, planned.extremes)


FW_NAMES = (
    "BS1", "BS2", "BS3",
    "BS4_e1p", "BS4_e2p", "BS4_e3p", "BS4_e1pi", "BS4_e2pi",
    "RES1", "RES2", "RES3", "RES4", "RES5",
    "RES6_e1", "RES6_e2", "RES7_e1", "RES7_e2", "RES8_e1", "RES8_e2",
    "RES10_e1", "RES10_e2", "RES10_e3",
)


def futurework_residuals(jet: SpecialJet) -> ResidualReport:
    """Residual-only evaluation of the future-work system.

    Non-rotating, non-accelerated data with n = 0, a = (0, 0, a3) and
    diagonal shear; solving this nonlinear PDE system is out of scope, any
    solve request must be rejected upstream.
    """
    s = jet.value
    e0, e1, e2, e3 = jet.deriv
    th2 = s.Theta ** 2
    entries = [
        e0.p + (4.0 / 3.0) * s.p * s.Theta + 2.0 * s.sigma11 * s.pi11,
        e0.pi11 + 4.0 * s.sigma11 * s.p - (s.sigma11 - s.Theta / 3.0) * s.pi11,
        e3.pi11 - 3.0 * s.a3 * s.pi11,
        e1.p,
        e2.p,
        e3.p,
        e1.pi11,
        e2.pi11,
        e0.a3 + s.a3 * s.Theta / 3.0 + s.a3 * s.sigma11,
        e3.a3 - (1.5 * s.p - th2 / 6.0 + 1.5 * s.sigma11 ** 2 + 1.5 * s.a3 ** 2),
        e0.sigma11
        - (0.5 * s.p + s.pi11 + 0.5 * s.sigma11 ** 2
           + 0.5 * s.a3 ** 2 - th2 / 18.0 - s.Theta * s.sigma11),
        e3.sigma11 + e3.Theta / 3.0 - 3.0 * s.a3 * s.sigma11,
        e0.Theta + th2 / 3.0 + 6.0 * s.sigma11 ** 2 + 3.0 * s.p,
        e1.a3,
        e2.a3,
        e1.sigma11,
        e2.sigma11,
        e1.Theta,
        e2.Theta,
        e1.Omega3,
        e2.Omega3,
        e3.Omega3,
    ]
    return ResidualReport.of_entries(jet.shape, FW_NAMES, entries)


# ---------------------------------------------------------------------------
# case A1
# ---------------------------------------------------------------------------


def case_a1_closure(sigma11, a3):
    """Algebraic closure of case A1: (pi11, p, udot3).

    pi11 = 12 sigma11^2 - (4/3) a3^2, p = -3 sigma11^2 + a3^2/3,
    udot3 = -a3.  The groupings are chosen so that pi11 + 4p = 0 holds
    exactly in floating point.
    """
    s2 = np.asarray(sigma11, dtype=float) * sigma11
    w = np.asarray(a3, dtype=float) * a3
    pi11 = 12.0 * s2 - 4.0 * (w / 3.0)
    p = -3.0 * s2 + w / 3.0
    return pi11, p, -np.asarray(a3, dtype=float)


def case_a1_rhs(sigma11, a3, Omega3):
    """e_3 = F d/dz of the case A1 state (sigma11, a3, Omega3), as a tuple.

    The one statement of the A1 system: RK4 calls it on floats, and the
    trajectory jets and the CLI's re-substitution checks on arrays.
    """
    return (a3 * sigma11, -9.0 * sigma11 * sigma11 + 2.0 * a3 * a3, a3 * Omega3)


# The array callers call the map by this name: a traced bench run
# (perfbench/tracing.py) patches case_a1_rhs by module attribute, and its
# call count is the RK4 stage count.
_A1_RHS = case_a1_rhs


def _a1_closure_slopes(s11, a3, ds11, da3):
    """Derivatives (pi11', p') of the A1 closure along the direction in which
    sigma11 and a3 change by ds11 and da3 (chain rule of case_a1_closure)."""
    return (24.0 * s11 * ds11 - (8.0 / 3.0) * a3 * da3,
            -6.0 * s11 * ds11 + (2.0 / 3.0) * a3 * da3)


def case_a1_first_integral(sigma11, a3):
    """Conserved quantity A = (a3^2 - 9 sigma11^2)/sigma11^4 of case A1.

    Undefined on the shearless branch (sigma11 = 0).
    """
    s = np.asarray(sigma11, dtype=float)
    if np.any(s == 0.0):
        raise ValueError("first integral undefined at sigma11 = 0; use the shearless branch")
    return (np.asarray(a3, dtype=float) ** 2 - 9.0 * s * s) / s**4


def _a1_e3_closure(sigma11, a3, Omega3):
    """e_3 of every case A1 field via the ODE system and the chain rule."""
    s11 = np.asarray(sigma11, dtype=float)
    a = np.asarray(a3, dtype=float)
    e3s, e3a, e3om = _A1_RHS(s11, a, np.asarray(Omega3, dtype=float))
    e3pi, e3p = _a1_closure_slopes(s11, a, e3s, e3a)
    return dict(p=e3p, pi11=e3pi, Theta=6.0 * e3s, sigma11=e3s,
                udot3=-e3a, a3=e3a, Omega3=e3om)


def a1_trajectory_jet(z, sigma11, a3, Omega3) -> SpecialJet:
    """Jet for case A1 data with e_3 entries supplied by the ODE closure.

    Valid for any (sigma11, a3, Omega3) arrays, e.g. an RK4 trajectory.
    """
    pi11, p, udot3 = case_a1_closure(sigma11, a3)
    value = dict(p=p, pi11=pi11, Theta=6.0 * np.asarray(sigma11),
                 sigma11=sigma11, udot3=udot3, a3=a3, Omega3=Omega3)
    return SpecialJet.build(z, value, e3=_a1_e3_closure(sigma11, a3, Omega3))


@dataclass(frozen=True)
class CaseA1ClosedForm:
    """The (solA1) family with sigma11 = e^z: a3 = sign sqrt(A sigma11^2 + 9)
    sigma11, F = a3 sigma11 / sigma11' and Omega3 = B exp(int a3/F dz),
    which is B exp(z - z0), since a3/F = sigma11'/sigma11 = 1."""

    A: float
    sign: int = 1
    B: float = 0.0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def radicand(self, z):
        return self.A * np.exp(z) ** 2 + 9.0

    def clip_grid(self, grid: Grid) -> tuple[Grid, str | None]:
        """Restrict the grid to the subinterval where the family exists.

        The radicand must stay nonnegative and sigma11' nonzero, which e^z
        is not where it underflows; following the pole-handling rule the
        clipped interval stops POLE_MARGIN before a detected sign change.
        """
        zs = grid.points()
        bad = (self.radicand(zs) <= 0.0) | (np.exp(zs) == 0.0)
        if not np.any(bad):
            return grid, None
        j = int(np.argmax(bad))
        if j == 0:
            raise ValueError("closed form undefined at the interval start")
        lo, hi = zs[j - 1], zs[j]
        for _ in range(80):  # bisect the radicand sign change
            mid = 0.5 * (lo + hi)
            if self.radicand(mid) > 0.0 and np.exp(mid) != 0.0:
                lo = mid
            else:
                hi = mid
        z_clip = lo - POLE_MARGIN
        if z_clip <= grid.z0:
            raise ValueError("valid subinterval is empty after clipping")
        note = (
            f"family boundary near z={hi:.6g}; interval clipped to "
            f"[{grid.z0:.6g}, {z_clip:.6g}]"
        )
        return Grid(grid.z0, z_clip, grid.N), note

    def evaluate(self, grid: Grid) -> dict:
        """Closed-form fields and their analytic z-derivatives on the grid.

        Raises on a negative radicand or a vanishing sigma11'; use
        clip_grid first for intervals that cross the family boundary.
        Omega3 = B exp(z - z0) equals B at the left endpoint; past the
        overflow of e^z it is inf and its derivative nan, as sigma11's
        fields are there.
        """
        zs = grid.points()
        s11 = ds11 = np.exp(zs)  # sigma11' = sigma11
        rad = self.radicand(zs)
        if np.any(rad < 0.0):
            raise ValueError("negative radicand: A sigma11^2 + 9 < 0 on the grid")
        if np.any(ds11 == 0.0):
            raise ValueError("sigma11 must be nonconstant with nonzero slope")
        root = np.sqrt(rad)
        a3 = self.sign * root * s11
        da3 = self.sign * ds11 * (2.0 * self.A * s11 * s11 + 9.0) / root
        F = a3 * s11 / ds11
        pi11, p, udot3 = case_a1_closure(s11, a3)
        dpi, dp = _a1_closure_slopes(s11, a3, ds11, da3)
        if self.B == 0.0:
            Omega3 = np.zeros_like(zs)
        else:
            Omega3 = self.B * np.exp(zs - grid.z0)
        dOmega3 = (ds11 / s11) * Omega3
        return {
            "z": zs,
            "sigma11": s11, "d_sigma11": ds11,
            "a3": a3, "d_a3": da3,
            "F": F,
            "Omega3": Omega3, "d_Omega3": dOmega3,
            "p": p, "d_p": dp,
            "pi11": pi11, "d_pi11": dpi,
            "udot3": udot3, "d_udot3": -da3,
            "Theta": 6.0 * s11, "d_Theta": 6.0 * ds11,
            "orientation_flipped": bool(np.any(F < 0.0)),
        }

    def jet(self, grid: Grid) -> tuple[SpecialJet, dict]:
        """Analytic jet of the family on the grid (e_3 = F d/dz applied to
        the closed forms)."""
        f = self.evaluate(grid)
        names = ("p", "pi11", "Theta", "sigma11", "udot3", "a3", "Omega3")
        F = f["F"]
        e3 = {name: F * f["d_" + name] for name in names}
        return SpecialJet.build(f["z"], {name: f[name] for name in names}, e3=e3), f


# ---------------------------------------------------------------------------
# shearless / case A2 branches
# ---------------------------------------------------------------------------


def _den_on_fine_grid(F: ScaleFactor, slope: float, const: float, grid: Grid):
    """Denominator int_{z0}^{z} (-slope/F) dz' + const on a refined grid.

    Returns (fine_grid, den_fine, stride) with original nodes at ::stride.
    F is evaluated once per doubling.  Raises ValueError naming the first
    point where F is not positive and finite, on the coarsest grid that
    has one.
    """
    first = True

    def integrand(z):
        nonlocal first
        Fz = np.asarray(F(z), dtype=float)
        try:
            check_frame_factor([z], [Fz])
        except ValueError:
            if first:  # the first call's even points are the coarse grid
                check_frame_factor([z[::2]], [Fz[::2]])
            raise
        first = False
        return -slope / Fz

    fine, vals, stride = cumulative_integral_refined(integrand, grid)
    return fine, vals + const, stride


def _clip_at_sign_change(grid: Grid, fine: Grid, den_fine: np.ndarray):
    """Detect a denominator sign change and clip the grid ahead of it."""
    sign0 = np.sign(den_fine[0])
    if sign0 == 0.0:
        raise ValueError("denominator vanishes at the interval start")
    flip = np.nonzero(np.sign(den_fine) != sign0)[0]
    if flip.size == 0:
        return grid, None
    # locate the zero inside the bracketing cell by linear interpolation
    j = flip[0]
    zl, zr = fine.points()[j - 1], fine.points()[j]
    dl, dr = den_fine[j - 1], den_fine[j]
    z_pole = zl - dl * (zr - zl) / (dr - dl)
    z_clip = z_pole - POLE_MARGIN
    if z_clip <= grid.z0:
        raise ValueError("denominator pole at the interval start")
    note = f"denominator sign change near z={z_pole:.6g}; clipped to [{grid.z0:.6g}, {z_clip:.6g}]"
    return Grid(grid.z0, z_clip, grid.N), note


@dataclass(frozen=True)
class BranchFamily:
    """A closed-form branch with e_3(a3) = slope a3^2, so that
    a3 = 1/(int_{z0}^{z} (-slope/F) dz' + const).

    udot3(a3) and p(a3) give the algebraic fields (pi11 = -4p on both
    branches); e3(a3, e3_a3) gives the e_3 entries of p, pi11 and udot3.
    udot3 is u a3 for a constant u, so e_3(Omega3) = -udot3 Omega3
    integrates in closed form: e_3 ln Omega3 = -u a3 = -(u/slope) e_3 ln a3,
    and Omega3 = B (a3/a3(z0))^q with q = -u/slope.
    """

    slope: float
    udot3: Callable
    p: Callable
    e3: Callable


# shearless case A1 = case A2 branch 1 (udot3 = -a3), and A2 branch 2
# (udot3 = a3/2, on which p vanishes identically)
SHEARLESS = BranchFamily(
    slope=2.0,
    udot3=lambda a3: -a3,
    p=lambda a3: a3 * a3 / 3.0,
    e3=lambda a3, e3a: dict(p=(2.0 / 3.0) * a3 * e3a, pi11=-(8.0 / 3.0) * a3 * e3a,
                            udot3=-e3a),
)
A2_BRANCH2 = BranchFamily(
    slope=1.5,
    udot3=lambda a3: 0.5 * a3,
    p=np.zeros_like,
    e3=lambda a3, e3a: dict(udot3=0.5 * e3a),
)


@dataclass(frozen=True)
class BranchFields:
    """Closed-form fields of a branch family on a grid."""

    family: BranchFamily
    grid: Grid
    z: np.ndarray
    a3: np.ndarray
    den: np.ndarray
    udot3: np.ndarray
    p: np.ndarray
    pi11: np.ndarray
    Omega3: np.ndarray
    e3_a3: np.ndarray
    note: str | None


def _branch_fields(F: ScaleFactor, family: BranchFamily, const: float, B: float,
                   grid: Grid) -> BranchFields:
    """The fields of a branch family on the grid, clipped ahead of a
    denominator sign change.  The denominator comes from the refined
    quadrature of -slope/F; every other field is a closed form in it,
    Omega3 = B (a3/a3[0])^q (see BranchFamily), which is B at z0."""
    fine, den_fine, stride = _den_on_fine_grid(F, family.slope, const, grid)
    clipped, note = _clip_at_sign_change(grid, fine, den_fine)
    if note is not None:
        fine, den_fine, stride = _den_on_fine_grid(F, family.slope, const, clipped)
    den = den_fine[::stride].copy()  # the grid's nodes, contiguous
    a3 = 1.0 / den
    udot3 = family.udot3(a3)
    # q = -u/slope with udot3 = u a3; the clip keeps den's sign, so
    # a3/a3[0] > 0
    Omega3 = B * (a3 / a3[0]) ** (-family.udot3(1.0) / family.slope)
    p = family.p(a3)
    return BranchFields(
        family=family,
        grid=clipped,
        z=fine.points()[::stride].copy(),
        a3=a3,
        den=den,
        udot3=udot3,
        p=p,
        pi11=-4.0 * p,
        Omega3=Omega3,
        e3_a3=family.slope / (den * den),
        note=note,
    )


def shearless_branch_fields(F: ScaleFactor, C: float, B: float, grid: Grid) -> BranchFields:
    """Shearless case A1 family (= case A2 branch 1) on a grid."""
    return _branch_fields(F, SHEARLESS, C, B, grid)


def a2_branch2_fields(F: ScaleFactor, D: float, B: float, grid: Grid) -> BranchFields:
    """Case A2 branch udot3 = a3/2 on a grid; p vanishes identically here."""
    return _branch_fields(F, A2_BRANCH2, D, B, grid)


def branch_jet(f: BranchFields) -> SpecialJet:
    """Analytic jet of a branch family (profile derivatives, not closures,
    except e_3(Omega3) = -udot3 Omega3 of the A2 system)."""
    value = dict(p=f.p, pi11=f.pi11, sigma11=0.0, Theta=0.0,
                 udot3=f.udot3, a3=f.a3, Omega3=f.Omega3)
    # the last component of case_a2_rhs, by its operations
    e3 = dict(**f.family.e3(f.a3, f.e3_a3), a3=f.e3_a3, Omega3=-f.udot3 * f.Omega3)
    return SpecialJet.build(f.z, value, e3=e3)


# ---------------------------------------------------------------------------
# case A2 general system
# ---------------------------------------------------------------------------


def case_a2_pi11(p, udot3, a3):
    """Anisotropic pressure relation pi11 = p/2 - a3^2/2 + a3 udot3."""
    a = np.asarray(a3, dtype=float)
    return 0.5 * np.asarray(p, dtype=float) - 0.5 * a * a + a * udot3


def case_a2_rhs(p, udot3, a3, Omega3):
    """e_3 = F d/dz of the case A2 state (p, udot3, a3, Omega3), as a tuple.

    The one statement of the A2 system, on floats and on arrays alike.
    2 a3 udot3 and -udot3 are formed once each, by the operations that each
    term would run, so the bits are those of the terms written out.
    """
    neg_u3 = -udot3
    two_a3_u3 = 2.0 * a3 * udot3
    return (
        neg_u3 * p - udot3 * a3 * a3 / 3.0 + two_a3_u3 * udot3 / 3.0,
        3.0 * p - udot3 * udot3 + two_a3_u3,
        1.5 * p + 1.5 * a3 * a3,
        neg_u3 * Omega3,
    )


_A2_RHS = case_a2_rhs  # see _A1_RHS


def _a2_e3_closure(p, udot3, a3, Omega3):
    p = np.asarray(p, dtype=float)
    u3 = np.asarray(udot3, dtype=float)
    a = np.asarray(a3, dtype=float)
    e3p, e3u, e3a, e3om = _A2_RHS(p, u3, a, np.asarray(Omega3, dtype=float))
    e3pi = 0.5 * e3p - a * e3a + e3a * u3 + a * e3u
    return dict(p=e3p, pi11=e3pi, udot3=e3u, a3=e3a, Omega3=e3om)


def a2_trajectory_jet(z, p, udot3, a3, Omega3) -> SpecialJet:
    """Jet for case A2 data with e_3 entries supplied by the ODE closure."""
    value = dict(p=p, pi11=case_a2_pi11(p, udot3, a3), udot3=udot3, a3=a3, Omega3=Omega3)
    return SpecialJet.build(z, value, e3=_a2_e3_closure(p, udot3, a3, Omega3))


# ---------------------------------------------------------------------------
# embedding into the full 1+3 system
# ---------------------------------------------------------------------------


def embed_special(jet: SpecialJet) -> JetArrays:
    """Embed a special jet into the full 1+3 variable set.

    Conformally flat elastic data: E = H = 0, q = 0, Lambda = 0 and
    mu = 3p (vanishing NP curvature scalar); pi = diag(pi11, pi11, -2 pi11).
    This is the input to the master cross-check against the general system:
    the jet itself, already a ``JetArrays`` over the full variable set,
    so that the general report reads the scan its reduced systems read.
    """
    return jet
