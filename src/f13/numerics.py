"""Integration, differentiation and quadrature kernels.

Fixed-step classical RK4 for F(z) y' = rhs(*y) (deterministic output grids
make residual cross-checks and CSV diffing trivial): rhs takes the state
components as positional arguments, returns F dy/dz and takes no z, and F
is evaluated once, vectorised, on each array of stage abscissae.  The step
runs on Python floats and is generated once per state dimension, unrolled
over the components; it performs the operations of the list-based step
written out above ``_RK4_LOOP`` in the same order, so it gives the same
bits.  Order-4 central finite differences with order-4 one-sided boundary
stencils, and cumulative composite Simpson quadrature, which
``cumulative_integral_refined`` repeats on doubled grids until two agree,
evaluating its integrand once per doubling.  All kernels are pure
functions on uniform grids.  ``NotAKnotSpline`` interpolates a tabulated
frame factor; it equals scipy's ``CubicSpline`` bit for bit.
"""

from __future__ import annotations

import functools
import linecache
import math
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
    "check_frame_factor",
    "NotAKnotSpline",
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
    states: np.ndarray  # shape (N + 1, d), finite


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
#     k1 = [e / f1 for e in rhs(*y)]
#     k2 = [e / f2 for e in rhs(*[a + h2 * b for a, b in zip(y, k1)])]
#     k3 = [e / f2 for e in rhs(*[a + h2 * b for a, b in zip(y, k2)])]
#     k4 = [e / f4 for e in rhs(*[a + h * b for a, b in zip(y, k3)])]
#     y = [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4) for ...]
# so every float comes out bit for bit the same.  rhs is called four times
# per step (a traced run counts these calls), with the components as
# positional arguments, so no call builds a tuple; an rhs of another arity
# fails at its first call, and an output of the wrong length is a TypeError.
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
            out = rhs({arg})
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
    """Classical fixed-step RK4 for F(z) y' = rhs(*y); global error O(h^4).

    rhs takes the state components (Python floats) as positional arguments
    and returns F dy/dz, a sequence of the same length (TypeError
    otherwise); it is called four times per step.  An rhs that takes
    another number of arguments raises TypeError at its first call, and no
    trajectory comes back.
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
    check_frame_factor(stages, Fs)
    buf = array("d", y)  # the trajectory, row-major; ys views it
    k = _rk4_loop(len(y))(rhs, y, buf.append, Fs, h, 0.5 * h, h / 6.0)
    ys = np.frombuffer(buf).reshape(-1, len(y))
    if k is not None:
        raise PoleError(float(zk[k]), ys.copy(), grid)
    return Trajectory(grid, ys)


def check_frame_factor(zs, Fs) -> None:
    """Raise ValueError naming the first abscissa at which the frame factor
    is not positive and finite.  zs and Fs are sequences of equally long 1-d
    arrays of abscissae and F values, taken as RK4 takes its stages: entry
    k of each array in turn."""
    good = np.stack([(F > 0.0) & np.isfinite(F) for F in Fs], axis=1)
    if not good.all():
        k, s = divmod(int(np.argmin(good)), len(Fs))
        raise ValueError(
            f"frame factor must be positive and finite at z={float(zs[s][k])!r}, "
            f"got {float(Fs[s][k])!r}"
        )


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
    """Cumulative integral of gridded samples by composite Simpson, on a
    grid of an even number of cells (ValueError otherwise).

    Even nodes are reached by exact Simpson pairs; odd nodes use the
    O(h^4) three-point half-panel rule.  samples may be (N+1,) or
    (N+1, k), integrated along axis 0.  Each value has the bits of the
    node-by-node loop (tests/test_numerics.py keeps it as
    ``quadrature_loop_reference``): the operations run in its order, in
    place in two arrays, the result and one zero-led buffer.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape[0] != grid.N + 1:
        raise ValueError("sample count does not match grid")
    n = grid.N
    if n % 2:
        raise ValueError("Simpson quadrature needs an even number of cells")
    h = grid.h
    left, mid, right = f[0:n - 1:2], f[1:n:2], f[2:n + 1:2]
    out = np.empty_like(f)
    # Simpson pairs: I[i] = I[i-2] + (h/3)(f[i-2] + 4 f[i-1] + f[i]); the
    # leading zero keeps the running sum in the loop's order, I[0] + inc[0]
    acc = np.empty((n // 2 + 1,) + f.shape[1:])
    acc[0] = 0.0
    inc = acc[1:]
    np.multiply(4.0, mid, out=inc)
    np.add(left, inc, out=inc)
    inc += right
    inc *= h / 3.0
    np.cumsum(acc, axis=0, out=out[0:n + 1:2])
    # odd nodes from the quadratic through the neighbouring triple,
    # I[i-1] + (h/12)(5 f[i-1] + 8 f[i] - f[i+1]), built in their own slots
    odd = np.multiply(8.0, mid, out=out[1:n:2])
    np.add(np.multiply(5.0, left, out=inc), odd, out=odd)
    odd -= right
    odd *= h / 12.0
    np.add(out[0:n - 1:2], odd, out=odd)
    return out


def cumulative_integral_refined(fn: Callable, grid: Grid, tol: float = 1e-10):
    """Cumulative integral of a callable, grid-doubled until two successive
    refinements agree to tol at the shared nodes.

    fn acts elementwise and is called once per doubling, on the points of
    the refined grid: a grid's points are the even points of its
    refinement, bit for bit where its step is a normal double, so the first
    comparison takes its coarse samples from the first call.
    Returns (fine_grid, values on it, stride), with the grid nodes at
    ``::stride``.  Raises ValueError if 12 doublings do not reach tol.
    """
    factor = 1 if grid.N % 2 == 0 else 2
    g = grid if factor == 1 else grid.refined()
    vals = None
    for _ in range(12):
        g2 = g.refined()
        f2 = fn(g2.points())
        if vals is None:
            vals = quadrature(f2[::2], g)
        vals2 = quadrature(f2, g2)
        done = bool(np.max(np.abs(vals2[::2] - vals)) < tol)
        g, vals, factor = g2, vals2, factor * 2
        if done:
            return g, vals, factor
    raise ValueError(f"cumulative quadrature did not reach tol={tol}")


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system (sub-, main and super-diagonal, right-hand
    side) by LAPACK dgtsv's Gaussian elimination with partial pivoting, in
    its operation order, so the solution has its bits."""
    n = len(d)
    du2 = [0.0] * n  # second super-diagonal, filled by row interchanges
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[-1] = b[-1] / d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


class NotAKnotSpline:
    """Not-a-knot cubic spline through (x, y), equal to scipy's
    ``CubicSpline(x, y)`` bit for bit: the same input checks, slopes,
    coefficients ``c`` (shape (4, n - 1), highest power first) and values,
    the end cubics extrapolating.  n = 2 gives the line, bit for bit too,
    and n = 3 the parabola through the points, to rounding: scipy solves
    that 3x3 system with LAPACK's dense solver."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1:
            raise ValueError("`x` must be 1-dimensional.")
        if x.shape[0] < 2:
            raise ValueError("`x` must contain at least 2 elements.")
        if y.shape != x.shape:
            raise ValueError("The length of `y` along `axis`=0 doesn't match the length of `x`")
        if not np.all(np.isfinite(x)):
            raise ValueError("`x` must contain only finite values.")
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        n = len(x)
        slope = np.diff(y) / dx
        if n == 2:
            s = np.array([slope[0], slope[0]])
        elif n == 3:  # the parabola: its slope at x[1] weighs the chords
            s1 = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
            s = np.array([2 * slope[0] - s1, s1, 2 * slope[1] - s1])
        else:  # CubicSpline's banded system, with both not-a-knot end rows
            d = np.empty(n)
            d[1:-1] = 2 * (dx[:-1] + dx[1:])
            du = np.empty(n - 1)
            du[1:] = dx[:-1]
            dl = np.empty(n - 1)
            dl[:-1] = dx[1:]
            b = np.empty(n)
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            d[0], du[0] = dx[1], x[2] - x[0]
            w = x[2] - x[0]
            b[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / w
            d[-1], dl[-1] = dx[-2], x[-1] - x[-3]
            w = x[-1] - x[-3]
            b[-1] = (dx[-1]**2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
            s = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
        # the Hermite form of CubicHermiteSpline
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        # scipy's power sum starts from 0.0, which turns a -0.0 in y into 0.0
        self._terms = (x[:-1], self.c[3] + 0.0, self.c[2], self.c[1], self.c[0])

    def __call__(self, z) -> np.ndarray:
        """Spline values at z, in z's shape (a 0-d array for a scalar).

        Interval i holds x[i] <= z < x[i + 1], the end intervals open
        outwards, and the power sum runs in scipy's order.  For
        non-decreasing 1-D z (grid points, RK4 stage abscissae) each
        interval's points are counted, as scipy's find_interval walks them,
        and its terms repeated that often; any other z (scalars, unsorted or
        n-d, NaN) looks each point up."""
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        inner = self.x[1:-1]
        if z.ndim == 1 and (z[1:] >= z[:-1]).all():
            edges = np.zeros(len(self.x), dtype=np.intp)
            edges[1:-1] = np.searchsorted(flat, inner, "left")
            edges[-1] = len(flat)
            counts = np.diff(edges)
            x0, c3, c2, c1, c0 = (np.repeat(t, counts) for t in self._terms)
        else:
            i = np.searchsorted(inner, flat, "right")
            x0, c3, c2, c1, c0 = (t.take(i) for t in self._terms)
        s = np.subtract(flat, x0, out=x0)
        res = c2 * s
        res += c3
        w = np.multiply(s, s, out=c2)
        c1 *= w
        res += c1
        w *= s
        c0 *= w
        res += c0
        return res.reshape(z.shape)
