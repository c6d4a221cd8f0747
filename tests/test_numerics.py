"""Integration, differentiation and quadrature kernel tests."""

import warnings

import numpy as np
import pytest

from f13 import conformal as cf
from f13.numerics import (
    Grid,
    PoleError,
    cumulative_integral_refined,
    fd_derivative,
    quadrature,
    rk4_integrate,
)


def unit_frame(z):
    return np.ones_like(z)


def measured_orders(errors):
    return [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def test_grid_invariants():
    g = Grid(0.0, 1.0, 10)
    assert g.h == 0.1
    assert len(g.points()) == 11
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 3)


def test_rk4_constant_and_exponential():
    g = Grid(0.0, 1.0, 1000)
    t = rk4_integrate(lambda y: [0.0] * len(y), [2.0, -3.0], g, unit_frame)
    assert np.max(np.abs(t.states - [2.0, -3.0])) == 0.0
    t = rk4_integrate(lambda y: y, [1.0], g, unit_frame)
    assert abs(t.column(0)[-1] - np.e) < 1e-10


def test_rk4_order():
    errs = []
    for N in (100, 200, 400):
        t = rk4_integrate(lambda y: y, [1.0], Grid(0.0, 1.0, N), unit_frame)
        errs.append(abs(t.column(0)[-1] - np.e))
    orders = measured_orders(errs)
    print("rk4 orders:", orders)
    assert min(orders) > 3.9


def test_rk4_pole_detection():
    # y' = y^2 from y(0) = 1 blows up at z = 1
    with pytest.raises(PoleError) as err:
        rk4_integrate(lambda y: [y[0] * y[0]], [1.0], Grid(0.0, 2.0, 200), unit_frame)
    assert np.all(np.isfinite(err.value.partial_states))
    assert 0.9 < err.value.last_good_z <= 1.1


def test_fd_constant_and_linear():
    g = Grid(0.0, 1.0, 50)
    for order in (2, 4):
        # boundary stencils leave rounding-level residue on constants
        assert np.max(np.abs(fd_derivative(np.full(51, 3.3), g, order))) < 5e-14
        d = fd_derivative(2.0 * g.points() + 1.0, g, order)
        assert np.max(np.abs(d - 2.0)) < 1e-12


def test_fd_order4_accuracy_interior():
    g = Grid(0.0, 1.0, 100)  # h = 1e-2
    d = fd_derivative(np.sin(g.points()), g, order=4)
    interior = np.abs(d - np.cos(g.points()))[2:-2]
    assert np.max(interior) < 1e-8


def test_fd_measured_orders():
    for order in (2, 4):
        errs = []
        for N in (100, 200, 400):
            g = Grid(0.0, 1.0, N)
            d = fd_derivative(np.sin(g.points()), g, order)
            errs.append(np.max(np.abs(d - np.cos(g.points()))))
        orders = measured_orders(errs)
        print(f"fd order-{order} measured:", orders)
        assert min(orders) > order - 0.1


def test_fd_grid_too_small():
    with pytest.raises(ValueError):
        fd_derivative(np.zeros(4), Grid(0.0, 1.0, 4), order=4)  # length mismatch
    g = Grid(0.0, 1.0, 4)
    fd_derivative(np.zeros(5), g, order=4)  # 5 points is the minimum


def test_quadrature_polynomial_and_exponential():
    g = Grid(0.0, 1.0, 100)
    assert np.max(np.abs(quadrature(np.zeros(101), g))) == 0.0
    q = quadrature(2.0 * g.points(), g)
    assert abs(q[-1] - 1.0) < 1e-12
    q = quadrature(np.exp(g.points()), g)
    assert abs(q[-1] - (np.e - 1.0)) < 1e-9


def test_quadrature_order():
    errs = []
    for N in (100, 200, 400):
        g = Grid(0.0, 1.0, N)
        errs.append(abs(quadrature(np.exp(g.points()), g)[-1] - (np.e - 1.0)))
    orders = measured_orders(errs)
    print("simpson orders:", orders)
    assert min(orders) > 3.9


def test_quadrature_odd_cell_flagged():
    g = Grid(0.0, 1.0, 101)
    # a warning of its own: numpy's error state, which the CLI silences, keeps it
    with pytest.warns(RuntimeWarning, match="trapezoid"), np.errstate(all="ignore"):
        q = quadrature(np.exp(g.points()), g)
    assert abs(q[-1] - (np.e - 1.0)) < 1e-6  # trapezoid tail costs accuracy


def test_cumulative_refined_matches_log():
    g = Grid(1.0, 3.0, 40)
    vals = cumulative_integral_refined(lambda z: 1.0 / z, g, tol=1e-12)
    assert vals.shape == (41,)
    assert np.max(np.abs(vals - np.log(g.points()))) < 1e-11


def test_trajectory_shape_checks():
    g = Grid(0.0, 1.0, 10)
    from f13.numerics import Trajectory

    with pytest.raises(ValueError):
        Trajectory(g, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        Trajectory(g, np.full((11, 1), np.nan))


# ---------------------------------------------------------------------------
# bit-identity with the per-stage numpy RK4 and the looped Simpson sum
# ---------------------------------------------------------------------------


def rk4_per_stage_reference(rhs, y0, grid):
    """The RK4 loop with one numpy RHS call per stage and rhs(z, y) = dy/dz."""
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    h = grid.h
    ys = np.empty((grid.N + 1, y.size))
    ys[0] = y
    z = grid.z0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.N):
            k1 = np.asarray(rhs(z, y))
            k2 = np.asarray(rhs(z + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(z + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(z + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise PoleError(z, ys[: k + 1].copy(), grid)
            z = grid.z0 + (k + 1) * h
            ys[k + 1] = y
    return ys


def a1_rhs_reference(z, y, F):
    Fv = float(F(z))
    if not (Fv > 0.0):
        raise ValueError(f"frame factor must be positive at z={z!r}, got {Fv!r}")
    s11, a3, Om3 = y
    return np.array(
        [a3 * s11 / Fv, (-9.0 * s11 * s11 + 2.0 * a3 * a3) / Fv, a3 * Om3 / Fv]
    )


def a2_rhs_reference(z, y, F):
    Fv = float(F(z))
    if not (Fv > 0.0):
        raise ValueError(f"frame factor must be positive at z={z!r}, got {Fv!r}")
    p, u3, a3, Om3 = y
    return np.array(
        [
            (-u3 * p - u3 * a3 * a3 / 3.0 + 2.0 * a3 * u3 * u3 / 3.0) / Fv,
            (3.0 * p - u3 * u3 + 2.0 * a3 * u3) / Fv,
            (1.5 * p + 1.5 * a3 * a3) / Fv,
            -u3 * Om3 / Fv,
        ]
    )


def spline_frame():
    z = np.linspace(0.0, 1.0, 101)
    return cf.ScaleFactor.from_table(z, 1.0 + 0.1 * np.sin(2.0 * np.pi * z + 0.3))


FRAMES = {"spline": spline_frame, "constant": lambda: cf.ScaleFactor.constant(1.07)}
CASES = {
    "a1": (cf.case_a1_rhs, a1_rhs_reference, [0.1, 0.1 * np.sqrt(0.01 + 9.0), 1.0]),
    "a2": (cf.case_a2_rhs, a2_rhs_reference, [0.1, 0.2, 0.3, 1.0]),
}


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_rk4_matches_per_stage_reference(case, frame):
    rhs, ref_rhs, y0 = CASES[case]
    F = FRAMES[frame]()
    grid = Grid(0.0, 1.0, 2000)
    ref = rk4_per_stage_reference(lambda z, y: ref_rhs(z, y, F), y0, grid)
    assert np.array_equal(rk4_integrate(rhs, y0, grid, F).states, ref)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_rk4_pole_matches_per_stage_reference(frame):
    # sigma11_0 = 0.5, A = 1 blows up near z = 0.565 F
    F = FRAMES[frame]()
    y0 = [0.5, 0.5 * np.sqrt(0.25 + 9.0), 1.0]
    grid = Grid(0.0, 1.0, 400)
    with pytest.raises(PoleError) as ref:
        rk4_per_stage_reference(lambda z, y: a1_rhs_reference(z, y, F), y0, grid)
    with pytest.raises(PoleError) as new:
        rk4_integrate(cf.case_a1_rhs, y0, grid, F)
    assert 0.5 < new.value.last_good_z < 0.7
    assert new.value.last_good_z == ref.value.last_good_z
    assert str(new.value) == str(ref.value)
    assert np.array_equal(new.value.partial_states, ref.value.partial_states)


def test_rk4_overflow_is_a_pole():
    with pytest.raises(PoleError) as err:
        rk4_integrate(lambda y: [y[0] ** 3], [1.0], Grid(0.0, 2.0, 200), unit_frame)
    assert 0.4 < err.value.last_good_z < 0.6  # y' = y^3 blows up at z = 1/2


def test_rk4_rejects_frame_factor_below_zero_between_nodes():
    """The spline through positive nodes dips below zero; the check runs before
    integrating and names the first bad stage abscissa the loop would reach."""
    F = cf.ScaleFactor.from_table([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.02, 0.02, 1.0, 1.0])
    y0 = [0.1, 0.2, 0.3, 1.0]
    grid = Grid(0.0, 1.0, 200)
    with pytest.raises(ValueError, match="positive") as ref:
        rk4_per_stage_reference(lambda z, y: a2_rhs_reference(z, y, F), y0, grid)
    with pytest.raises(ValueError, match="positive and finite") as new:
        rk4_integrate(cf.case_a2_rhs, y0, grid, F)
    z_of = lambda err: str(err.value).split("z=")[1].split(",")[0]
    assert z_of(new) == z_of(ref)
    with pytest.raises(ValueError, match="nan"):
        rk4_integrate(cf.case_a2_rhs, y0, grid, lambda z: np.where(z > 0.5, np.nan, 1.0))


def quadrature_loop_reference(samples, grid):
    f = np.asarray(samples, dtype=float)
    h = grid.h
    n = grid.N
    out = np.zeros_like(f)
    for i in range(2, n + 1, 2):
        out[i] = out[i - 2] + (h / 3.0) * (f[i - 2] + 4.0 * f[i - 1] + f[i])
    for i in range(1, n + 1, 2):
        if i == n:
            out[i] = out[i - 1] + 0.5 * h * (f[i - 1] + f[i])
        else:
            out[i] = out[i - 1] + (h / 12.0) * (5.0 * f[i - 1] + 8.0 * f[i] - f[i + 1])
    return out


@pytest.mark.parametrize("N", [4, 5, 6, 101, 1000, 100_000])
def test_quadrature_matches_loop_reference(N):
    g = Grid(-0.3, 2.0, N)
    z = g.points()
    cases = [np.exp(z) * np.sin(7.0 * z), np.full(N + 1, -0.0),
             np.stack([np.cos(z), 1.0 / (1.0 + z * z)], axis=1)]
    for f in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = quadrature(f, g)
        want = quadrature_loop_reference(f, g)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too
