"""Integration, differentiation and quadrature kernels.

Fixed-step classical RK4 for F(z) y' = rhs(y) (deterministic output grids
make residual cross-checks and CSV diffing trivial): rhs maps the state to
F dy/dz and takes no z, and F is evaluated once, vectorised, on each array
of stage abscissae.  Central finite differences of order 2 or 4 with
one-sided boundary stencils of the same order, and cumulative composite
Simpson quadrature.  All kernels are pure functions on uniform grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Trajectory",
    "PoleError",
    "rk4_integrate",
    "fd_derivative",
    "quadrature",
    "cumulative_integral_refined",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid of N cells on [z0, z1] (N + 1 nodes)."""

    z0: float
    z1: float
    N: int

    def __post_init__(self):
        if not (np.isfinite(self.z0) and np.isfinite(self.z1)):
            raise ValueError("grid endpoints must be finite")
        if self.z1 <= self.z0:
            raise ValueError("grid requires z1 > z0")
        if self.N < 4:
            raise ValueError("grid requires N >= 4")

    @property
    def h(self) -> float:
        return (self.z1 - self.z0) / self.N

    def points(self) -> np.ndarray:
        return np.linspace(self.z0, self.z1, self.N + 1)

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(self.z0, self.z1, self.N * factor)


@dataclass(frozen=True)
class Trajectory:
    """Per-node state vectors over a grid."""

    grid: Grid
    states: np.ndarray  # shape (N + 1, d)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.N + 1:
            raise ValueError("trajectory length does not match grid")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite entries")

    def column(self, i: int) -> np.ndarray:
        return self.states[:, i]


class PoleError(RuntimeError):
    """Integration produced a non-finite state; carries the usable prefix."""

    def __init__(self, last_good_z: float, partial_states: np.ndarray, grid: Grid):
        self.last_good_z = last_good_z
        self.partial_states = partial_states
        self.grid = grid
        super().__init__(
            f"non-finite state while integrating; last good point z = {last_good_z!r}"
        )


def rk4_integrate(rhs: Callable, y0, grid: Grid, F: Callable) -> Trajectory:
    """Classical fixed-step RK4 for F(z) y' = rhs(y); global error O(h^4).

    rhs maps the state (a sequence of floats) to F dy/dz; F is vectorised
    over z and must be positive and finite at every stage abscissa, which
    is checked before integrating (ValueError otherwise).  F is evaluated
    once per abscissa array and the stages run on Python floats.

    Raises PoleError (with the finite prefix of the trajectory) as soon as a
    step produces NaN/Inf or overflows, which is how pole crossings surface.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    h = grid.h
    n = grid.N
    # stage abscissae: z_k, z_k + h/2 (stages 2 and 3) and z_k + h, which
    # need not equal z_{k+1} bit for bit
    zk = grid.z0 + np.arange(n) * h
    zk[0] = grid.z0
    stages = (zk, zk + 0.5 * h, zk + h)
    Fs = [np.ascontiguousarray(np.broadcast_to(F(z), z.shape), dtype=float) for z in stages]
    good = np.stack([(Fz > 0.0) & np.isfinite(Fz) for Fz in Fs], axis=1)
    if not good.all():
        k, s = divmod(int(np.argmin(good)), 3)  # first bad abscissa in loop order
        raise ValueError(
            f"frame factor must be positive and finite at z={float(stages[s][k])!r}, "
            f"got {float(Fs[s][k])!r}"
        )
    h2 = 0.5 * h
    h6 = h / 6.0
    ys = np.empty((n + 1, len(y)))
    ys[0] = y
    # memoryviews hand out one Python float per step, not a list of them all
    for k, (f1, f2, f4) in enumerate(zip(*map(memoryview, Fs))):
        try:
            k1 = [e / f1 for e in rhs(y)]
            k2 = [e / f2 for e in rhs([a + h2 * b for a, b in zip(y, k1)])]
            k3 = [e / f2 for e in rhs([a + h2 * b for a, b in zip(y, k2)])]
            k4 = [e / f4 for e in rhs([a + h * b for a, b in zip(y, k3)])]
            y = [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            finite = all(map(math.isfinite, y))
        except OverflowError:
            finite = False
        if not finite:
            raise PoleError(float(zk[k]), ys[: k + 1].copy(), grid)
        ys[k + 1] = y
    return Trajectory(grid, ys)


# order 4 one-sided stencils (left edge; right edge uses the mirror image)
_EDGE4 = (
    np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
)


def fd_derivative(samples, grid: Grid, order: int = 4) -> np.ndarray:
    """Derivative of gridded samples: central stencils in the interior,
    one-sided stencils of the same order at the boundaries.

    samples may be (N+1,) or (N+1, k); differentiation runs along axis 0.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.N + 1:
        raise ValueError("sample count does not match grid")
    h = grid.h
    if order == 2:
        if f.shape[0] < 3:
            raise ValueError("order-2 stencil needs at least 3 points")
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
        return out
    if order == 4:
        if f.shape[0] < 5:
            raise ValueError("order-4 stencil needs at least 5 points")
        out = np.empty_like(f)
        out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
        for i, coeffs in enumerate(_EDGE4):
            out[i] = np.tensordot(coeffs, f[:5], axes=(0, 0)) / h
            out[-1 - i] = -np.tensordot(coeffs, f[-5:][::-1], axes=(0, 0)) / h
        return out
    raise ValueError("order must be 2 or 4")


def quadrature(samples, grid: Grid) -> np.ndarray:
    """Cumulative integral of gridded samples by composite Simpson.

    Even nodes are reached by exact Simpson pairs; odd interior nodes use the
    O(h^4) three-point half-panel rule.  An odd final cell (odd N) falls back
    to the trapezoid rule and is flagged with a warning.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.N + 1:
        raise ValueError("sample count does not match grid")
    h = grid.h
    n = grid.N
    out = np.zeros_like(f)
    # Simpson pairs: I[i] = I[i-2] + (h/3)(f[i-2] + 4 f[i-1] + f[i]); the
    # leading zero keeps the running sum in the loop's order, I[0] + inc[0]
    m = n - n % 2
    inc = (h / 3.0) * (f[0:m - 1:2] + 4.0 * f[1:m:2] + f[2:m + 1:2])
    out[0:m + 1:2] = np.cumsum(np.concatenate((out[:1], inc)), axis=0)
    # odd nodes from the quadratic through the neighbouring triple
    out[1:m:2] = out[0:m - 1:2] + (h / 12.0) * (
        5.0 * f[0:m - 1:2] + 8.0 * f[1:m:2] - f[2:m + 1:2])
    if n % 2:
        out[n] = out[n - 1] + 0.5 * h * (f[n - 1] + f[n])
        warnings.warn(
            "odd cell count: trapezoid fallback on the last cell",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def cumulative_integral_refined(
    fn: Callable, grid: Grid, tol: float = 1e-10, max_doublings: int = 12,
    fine: bool = False,
):
    """Cumulative integral of a callable on the grid nodes, grid-doubled
    until two successive refinements agree to tol at the shared nodes.

    Returns the values at the grid nodes or, with ``fine=True``, the tuple
    (fine_grid, values on it, stride) with the grid nodes at ``::stride``.
    Raises ValueError if max_doublings refinements do not reach tol.
    """
    factor = 1 if grid.N % 2 == 0 else 2
    g = grid if factor == 1 else grid.refined(2)
    vals = quadrature(fn(g.points()), g)
    for _ in range(max_doublings):
        g2 = g.refined(2)
        vals2 = quadrature(fn(g2.points()), g2)
        done = bool(np.max(np.abs(vals2[::2] - vals)) < tol)
        g, vals, factor = g2, vals2, factor * 2
        if done:
            return (g, vals, factor) if fine else vals[::factor]
    raise ValueError(f"cumulative quadrature did not reach tol={tol}")
