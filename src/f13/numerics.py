"""Integration, differentiation and quadrature kernels.

Fixed-step classical RK4 for F(z) y' = rhs(y) (deterministic output grids
make residual cross-checks and CSV diffing trivial): rhs maps the state to
F dy/dz and takes no z, and F is evaluated once, vectorised, on each array
of stage abscissae.  The step runs on Python floats and is generated once
per state dimension, unrolled over the components; it performs the
operations of the list-based step written out above ``_RK4_LOOP`` in the
same order, so it gives the same bits.  Order-4 central finite
differences with order-4 one-sided boundary stencils, and cumulative
composite Simpson quadrature.  All kernels are pure functions
on uniform grids.
"""

from __future__ import annotations

import functools
import linecache
import math
import warnings
from array import array
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

    def refined(self) -> "Grid":
        """The grid with every interval halved."""
        return Grid(self.z0, self.z1, 2 * self.N)


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


# The RK4 loop is generated once per state dimension d from the template
# below, unrolled over the components i = 0 .. d-1 (as dataclasses builds
# its methods), so that a step runs no comprehension, zip or generator.  Its
# operation order is that of the list-based step (tests/test_numerics.py
# keeps it as ``rk4_list_reference``)
#     k1 = [e / f1 for e in rhs(y)]
#     k2 = [e / f2 for e in rhs([a + h2 * b for a, b in zip(y, k1)])]
#     k3 = [e / f2 for e in rhs([a + h2 * b for a, b in zip(y, k2)])]
#     k4 = [e / f4 for e in rhs([a + h * b for a, b in zip(y, k3)])]
#     y = [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4) for ...]
# so every float comes out bit for bit the same.  rhs is called four times
# per step (a traced run counts these calls), with a tuple; an output of the
# wrong length is a TypeError.
_RK4_LOOP = """\
def rk4_loop(rhs, y, append, Fs, h, h2, h6):
    {y}, = y
    # memoryviews hand out one Python float per step, not a list of them all
    for k, (f1, f2, f4) in enumerate(zip(*map(memoryview, Fs))):
        try:
{stages}
            {update}
            finite = {finite}
        except OverflowError:
            finite = False
        if not finite:
            return k
        {append}
    return None
"""
_RK4_STAGE = """\
            out = rhs(({arg},))
            try:
                {e}, = out
            except ValueError:
                check_length(out, {d})
                raise
            {slope}"""
_RK4_STAGES = (  # (stage input, slope) of component i
    ("y{i}", "k1_{i} = e{i} / f1"),
    ("y{i} + h2 * k1_{i}", "k2_{i} = e{i} / f2"),
    ("y{i} + h2 * k2_{i}", "k3_{i} = e{i} / f2"),
    ("y{i} + h * k3_{i}", "k4_{i} = e{i} / f4"),
)
_RK4_UPDATE = "y{i} = y{i} + h6 * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"


def _check_length(out, d: int) -> None:
    """Turn a failed unpacking of rhs's output into a TypeError naming both
    lengths; returns when the length was not the cause."""
    n = len(out) if hasattr(out, "__len__") else d
    if n != d:
        raise TypeError(f"rhs returned {n} components for a state of {d}") from None


@functools.cache
def _rk4_loop(d: int) -> Callable:
    """The RK4 loop for a state of d components: ``rk4_loop(rhs, y, append,
    Fs, h, h2, h6)`` steps from the state y, passes each new component to
    append, and returns the index of the step that went non-finite or
    overflowed (its state is not appended), or None."""
    def each(fmt: str, sep: str) -> str:
        return sep.join(fmt.format(i=i) for i in range(d))

    line = "\n" + " " * 12
    source = _RK4_LOOP.format(
        y=each("y{i}", ", "),
        stages="\n".join(
            _RK4_STAGE.format(arg=each(arg, ", "), e=each("e{i}", ", "), d=d,
                              slope=each(slope, line))
            for arg, slope in _RK4_STAGES),
        update=each(_RK4_UPDATE, line),
        finite=each("isfinite(y{i})", " and "),
        append=each("append(y{i})", "; "),
    )
    filename = f"<rk4 loop, d={d}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"isfinite": math.isfinite, "check_length": _check_length}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["rk4_loop"]


def rk4_integrate(rhs: Callable, y0, grid: Grid, F: Callable) -> Trajectory:
    """Classical fixed-step RK4 for F(z) y' = rhs(y); global error O(h^4).

    rhs maps the state (a tuple of floats) to F dy/dz, a sequence of the
    same length (TypeError otherwise), and is called four times per step.
    F is vectorised over z and must be positive and finite at every stage
    abscissa, which is checked before integrating (ValueError otherwise).
    F is evaluated once per abscissa array and the stages run on Python
    floats.

    Raises PoleError (with the finite prefix of the trajectory) as soon as a
    step produces NaN/Inf or overflows, which is how pole crossings surface.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    if not y:
        raise ValueError("rk4_integrate needs a state of at least one component")
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
    buf = array("d", y)  # the trajectory, row-major; ys views it
    k = _rk4_loop(len(y))(rhs, y, buf.append, Fs, h, 0.5 * h, h / 6.0)
    ys = np.frombuffer(buf).reshape(-1, len(y))
    if k is not None:
        raise PoleError(float(zk[k]), ys.copy(), grid)
    return Trajectory(grid, ys)


# order 4 one-sided stencils (left edge; right edge uses the mirror image)
_EDGE4 = (
    np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
)


def fd_derivative(samples, grid: Grid) -> np.ndarray:
    """Order-4 derivative of gridded samples: central stencils in the
    interior, one-sided order-4 stencils at the boundaries.

    samples may be (N+1,) or (N+1, k); differentiation runs along axis 0.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.N + 1:
        raise ValueError("sample count does not match grid")
    if f.shape[0] < 5:
        raise ValueError("order-4 stencil needs at least 5 points")
    h = grid.h
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    for i, coeffs in enumerate(_EDGE4):
        out[i] = np.tensordot(coeffs, f[:5], axes=(0, 0)) / h
        out[-1 - i] = -np.tensordot(coeffs, f[-5:][::-1], axes=(0, 0)) / h
    return out


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


def cumulative_integral_refined(fn: Callable, grid: Grid, tol: float = 1e-10,
                                fine: bool = False):
    """Cumulative integral of a callable on the grid nodes, grid-doubled
    until two successive refinements agree to tol at the shared nodes.

    Returns the values at the grid nodes or, with ``fine=True``, the tuple
    (fine_grid, values on it, stride) with the grid nodes at ``::stride``.
    Raises ValueError if 12 doublings do not reach tol.
    """
    factor = 1 if grid.N % 2 == 0 else 2
    g = grid if factor == 1 else grid.refined()
    vals = quadrature(fn(g.points()), g)
    for _ in range(12):
        g2 = g.refined()
        vals2 = quadrature(fn(g2.points()), g2)
        done = bool(np.max(np.abs(vals2[::2] - vals)) < tol)
        g, vals, factor = g2, vals2, factor * 2
        if done:
            return (g, vals, factor) if fine else vals[::factor]
    raise ValueError(f"cumulative quadrature did not reach tol={tol}")
