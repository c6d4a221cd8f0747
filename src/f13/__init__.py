"""1+3 orthonormal-frame equations for conformally flat elastic spacetimes.

Residual verification of the general Einstein/Jacobi/Bianchi frame system
(``residual_report``, which returns every block in one ``ResidualReport``),
the Newman-Penrose curvature bridge, relativistic elasticity kinematics,
and the non-rotating conformally flat ODE cases with their closed forms.
"""

from .core import (
    ConnectionState,
    DerivativeProvider,
    MatterState,
    State,
    StateJet,
    SymThree,
    ThreeVector,
    TracefreeSymThree,
    WeylState,
)
from .frame_equations import (
    JetArrays,
    NonFiniteResidual,
    ResidualReport,
    commutator_residual,
    commutator_structure,
    residual_report,
)
from .numerics import Grid, PoleError, Trajectory, fd_derivative, quadrature, rk4_integrate
from . import conformal, elasticity, providers, spinors  # noqa: F401

__version__ = "0.1.0"
