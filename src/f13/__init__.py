"""1+3 orthonormal-frame equations for conformally flat elastic spacetimes.

Residual verification of the general Einstein/Jacobi/Bianchi frame system
(``residual_report``, which returns every block in one ``ResidualReport``),
the Newman-Penrose curvature bridge, and the non-rotating conformally flat
ODE cases with their closed forms.
"""

from .frame_equations import (
    JetArrays,
    NonFiniteResidual,
    ResidualReport,
    residual_report,
)
from .numerics import Grid, PoleError, Trajectory, fd_derivative, quadrature, rk4_integrate
from . import conformal, spinors  # noqa: F401

__version__ = "0.1.0"
