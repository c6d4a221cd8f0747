"""Integration, differentiation and quadrature kernel tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f13 import conformal as cf
from f13.numerics import (
    Grid,
    PoleError,
    Trajectory,
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


def test_grid_refined_halves_every_interval():
    g = Grid(0.5, 2.0, 6)
    fine = g.refined()
    assert (fine.z0, fine.z1, fine.N) == (0.5, 2.0, 12)
    assert np.array_equal(fine.points()[::2], g.points())


def test_rk4_constant_and_exponential():
    g = Grid(0.0, 1.0, 1000)
    t = rk4_integrate(lambda *y: [0.0] * len(y), [2.0, -3.0], g, unit_frame)
    assert np.max(np.abs(t.states - [2.0, -3.0])) == 0.0
    t = rk4_integrate(lambda *y: y, [1.0], g, unit_frame)
    assert abs(t.states[-1, 0] - np.e) < 1e-10


def test_rk4_order():
    errs = []
    for N in (100, 200, 400):
        t = rk4_integrate(lambda *y: y, [1.0], Grid(0.0, 1.0, N), unit_frame)
        errs.append(abs(t.states[-1, 0] - np.e))
    orders = measured_orders(errs)
    print("rk4 orders:", orders)
    assert min(orders) > 3.9


def test_rk4_pole_detection():
    # y' = y^2 from y(0) = 1 blows up at z = 1
    with pytest.raises(PoleError) as err:
        rk4_integrate(lambda y: [y * y], [1.0], Grid(0.0, 2.0, 200), unit_frame)
    assert np.all(np.isfinite(err.value.partial_states))
    assert 0.9 < err.value.last_good_z <= 1.1


def test_fd_constant_and_linear():
    g = Grid(0.0, 1.0, 50)
    # boundary stencils leave rounding-level residue on constants
    assert np.max(np.abs(fd_derivative(np.full(51, 3.3), g))) < 5e-14
    d = fd_derivative(2.0 * g.points() + 1.0, g)
    assert np.max(np.abs(d - 2.0)) < 1e-12


def test_fd_order4_accuracy_interior():
    g = Grid(0.0, 1.0, 100)  # h = 1e-2
    d = fd_derivative(np.sin(g.points()), g)
    interior = np.abs(d - np.cos(g.points()))[2:-2]
    assert np.max(interior) < 1e-8


def test_fd_measured_orders():
    errs = []
    for N in (100, 200, 400):
        g = Grid(0.0, 1.0, N)
        d = fd_derivative(np.sin(g.points()), g)
        errs.append(np.max(np.abs(d - np.cos(g.points()))))
    orders = measured_orders(errs)
    print("fd order-4 measured:", orders)
    assert min(orders) > 4 - 0.1


def test_fd_grid_too_small():
    with pytest.raises(ValueError):
        fd_derivative(np.zeros(4), Grid(0.0, 1.0, 4))  # length mismatch
    g = Grid(0.0, 1.0, 4)
    fd_derivative(np.zeros(5), g)  # 5 points is the minimum


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


@pytest.mark.parametrize("N", [5, 101])
def test_quadrature_rejects_an_odd_cell_count(N):
    g = Grid(0.0, 1.0, N)
    with pytest.raises(ValueError, match="even number of cells"):
        quadrature(np.exp(g.points()), g)


def test_cumulative_refined_matches_log():
    g = Grid(1.0, 3.0, 40)
    fine, vals, stride = cumulative_integral_refined(lambda z: 1.0 / z, g, tol=1e-12)
    assert vals.shape == (fine.N + 1,) and fine.N == 40 * stride
    assert np.array_equal(fine.points()[::stride], g.points())
    assert np.max(np.abs(vals[::stride] - np.log(g.points()))) < 1e-11


def never_settling(sizes):
    """An integrand whose cumulative integral grows with every doubling,
    and which Simpson does not integrate exactly on any grid; it records
    the size of each grid it is evaluated on."""
    def fn(z):
        sizes.append(z.size)
        return z.size * z**4

    return fn


def test_cumulative_refined_gives_up_after_twelve_doublings():
    """One evaluation per doubling, the first on the grid of 2N cells."""
    sizes = []
    with pytest.raises(ValueError, match="did not reach tol=1e-10"):
        cumulative_integral_refined(never_settling(sizes), Grid(0.0, 1.0, 4))
    assert sizes == [4 * 2**k + 1 for k in range(1, 13)]


# ---------------------------------------------------------------------------
# one integrand evaluation per doubling: the grid invariant it rests on, and
# bit-identity with the two-evaluation refinement
# ---------------------------------------------------------------------------

# grids whose step is a normal double: a subnormal step rounds differently
# at N and 2N cells
REFINABLE_GRIDS = st.builds(
    lambda z0, width, N: (z0, z0 + width, N),
    st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.integers(4, 50_000),
) | st.builds(
    lambda a, b, N: (min(a, b), max(a, b), N),
    st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.integers(4, 5_000),
).filter(lambda g: g[1] - g[0] >= 2 * g[2] * np.finfo(float).tiny)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(REFINABLE_GRIDS)
def test_grid_points_are_the_even_points_of_its_refinement(g):
    z0, z1, N = g
    grid = Grid(z0, z1, N)
    assert grid.points().tobytes() == grid.refined().points()[::2].tobytes()


def cumulative_refined_reference(fn, grid, tol=1e-10):
    """cumulative_integral_refined as it was before it reused the even
    points of each refined evaluation: fn evaluated on the starting grid
    and again on every refinement."""
    factor = 1 if grid.N % 2 == 0 else 2
    g = grid if factor == 1 else grid.refined()
    vals = quadrature(fn(g.points()), g)
    for _ in range(12):
        g2 = g.refined()
        vals2 = quadrature(fn(g2.points()), g2)
        done = bool(np.max(np.abs(vals2[::2] - vals)) < tol)
        g, vals, factor = g2, vals2, factor * 2
        if done:
            return g, vals, factor
    raise ValueError(f"cumulative quadrature did not reach tol={tol}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(z0=st.floats(-5.0, 5.0), width=st.floats(0.01, 5.0), N=st.integers(4, 600),
       c=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       tol=st.sampled_from([1e-6, 1e-10, 1e-13]))
def test_cumulative_refined_matches_the_two_evaluation_reference(z0, width, N, c, tol):
    """The same grid, stride and value bytes as the reference, on smooth
    integrands that settle after one or several doublings or not at all."""
    def fn(z):
        return c[0] * np.sin(c[1] * z) + c[2] * np.exp(-c[3] * z * z) + 1.5

    grid = Grid(z0, z0 + width, N)
    try:
        want = cumulative_refined_reference(fn, grid, tol)
    except ValueError as ref:
        with pytest.raises(ValueError) as new:
            cumulative_integral_refined(fn, grid, tol)
        assert str(new.value) == str(ref)
        return
    fine, vals, stride = cumulative_integral_refined(fn, grid, tol)
    assert (fine, stride) == want[::2]
    assert vals.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("N", [4, 5, 40])
def test_cumulative_refined_never_settling_matches_the_reference(N):
    """Both give up with the same error; the reference evaluated the
    starting grid too."""
    sizes, ref_sizes = [], []
    with pytest.raises(ValueError) as new:
        cumulative_integral_refined(never_settling(sizes), Grid(0.0, 1.0, N))
    with pytest.raises(ValueError) as ref:
        cumulative_refined_reference(never_settling(ref_sizes), Grid(0.0, 1.0, N))
    assert str(new.value) == str(ref.value)
    assert sizes == ref_sizes[1:]


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
        rk4_integrate(lambda y: [y ** 3], [1.0], Grid(0.0, 2.0, 200), unit_frame)
    assert 0.4 < err.value.last_good_z < 0.6  # y' = y^3 blows up at z = 1/2


# ---------------------------------------------------------------------------
# bit-identity of the generated RK4 loop with the list-based loop it replaced
# ---------------------------------------------------------------------------


def rk4_list_reference(rhs, y0, grid, F):
    """rk4_integrate as it was before its step was generated per state
    dimension: the same checks, one list comprehension per stage, and rhs
    called as the generated loop calls it, with the components as
    positional arguments."""
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
            k1 = [e / f1 for e in rhs(*y)]
            k2 = [e / f2 for e in rhs(*[a + h2 * b for a, b in zip(y, k1)])]
            k3 = [e / f2 for e in rhs(*[a + h2 * b for a, b in zip(y, k2)])]
            k4 = [e / f4 for e in rhs(*[a + h * b for a, b in zip(y, k3)])]
            y = [a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            finite = all(map(math.isfinite, y))
        except OverflowError:
            finite = False
        if not finite:
            raise PoleError(float(zk[k]), ys[: k + 1].copy(), grid)
        ys[k + 1] = y
    return Trajectory(grid, ys)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def assert_matches_list_reference(rhs, y0, grid, F) -> bool:
    """Same states, or the same pole; returns whether a pole was hit."""
    try:
        want = rk4_list_reference(rhs, y0, grid, F).states
    except PoleError as ref:
        with pytest.raises(PoleError) as new:
            rk4_integrate(rhs, y0, grid, F)
        assert new.value.last_good_z == ref.last_good_z
        assert str(new.value) == str(ref)
        assert_same_bits(new.value.partial_states, ref.partial_states)
        return True
    assert_same_bits(rk4_integrate(rhs, y0, grid, F).states, want)
    return False


def quadratic_rhs(c, L, Q, as_tuple):
    """e_i = c_i + sum_j L_ij y_j + sum_jk Q_ijk y_j y_k, as a list or a tuple."""
    d = len(c)

    def rhs(*y):
        out = []
        for i in range(d):
            e = c[i]
            for j in range(d):
                e += L[i][j] * y[j]
                for k in range(d):
                    e += Q[i][j][k] * y[j] * y[k]
            out.append(e)
        return tuple(out) if as_tuple else out

    return rhs


@st.composite
def rk4_problems(draw):
    """A random quadratic system of 1-5 components, a constant or spline F
    in about [0.8, 1.7], and either data that stay finite or data whose
    first component obeys F y0' = y0^2 from y0(0) >= 1.

    Finite case: coefficients and |y(0)| are at most 1, so |F y'| <= 111
    while |y| <= 2 (d <= 5), and an interval of 0.004 keeps |y| < 2.
    Pole case: with F <= 2 the first component blows up before z = 2.
    The coefficients come from one drawn seed, which keeps shrinking cheap."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, L, Q = (rng.uniform(-1.0, 1.0, (d,) * n).tolist() for n in (1, 2, 3))
    y0 = rng.uniform(-1.0, 1.0, d).tolist()
    pole = draw(st.booleans())
    if pole:
        c[0] = 0.0
        L[0] = [0.0] * d
        Q[0] = [[0.0] * d for _ in range(d)]
        Q[0][0][0] = 1.0
        y0[0] = draw(st.floats(1.0, 2.0))
    z1 = 4.0 if pole else 0.004
    grid = Grid(0.0, z1, draw(st.integers(4, 60)))
    if draw(st.booleans()):
        F = cf.ScaleFactor.constant(draw(st.floats(1.0, 1.5)))
    else:
        nodes = draw(st.lists(st.floats(1.0, 1.5), min_size=4, max_size=9))
        F = cf.ScaleFactor.from_table(np.linspace(0.0, z1, len(nodes)), nodes)
    return quadratic_rhs(c, L, Q, draw(st.booleans())), y0, grid, F, pole


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rk4_problems())
def test_rk4_matches_list_reference_on_quadratic_systems(problem):
    rhs, y0, grid, F, pole = problem
    assert assert_matches_list_reference(rhs, y0, grid, F) == pole


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_rk4_case_rhs_matches_list_reference(case, frame):
    """The A1 and A2 systems step bit for bit as the list-based loop steps
    them, on a clean run and, for A1, into its pole."""
    rhs, _, y0 = CASES[case]
    F = FRAMES[frame]()
    assert not assert_matches_list_reference(rhs, y0, Grid(0.0, 1.0, 2000), F)
    if case == "a1":
        y0 = [0.5, 0.5 * np.sqrt(0.25 + 9.0), 1.0]  # pole near z = 0.565 F
        assert assert_matches_list_reference(rhs, y0, Grid(0.0, 1.0, 400), F)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rk4_identity_rhs_matches_list_reference(d):
    """An rhs that returns its input, the tuple of its arguments."""
    y0 = [1.0, -0.5, 0.25][:d]
    for F in FRAMES.values():
        assert not assert_matches_list_reference(lambda *y: y, y0, Grid(0.0, 1.0, 1000), F())


def test_rk4_overflow_matches_list_reference():
    assert assert_matches_list_reference(
        lambda y: [y ** 3], [1.0], Grid(0.0, 2.0, 200), unit_frame)


@pytest.mark.parametrize("returned", [1, 2, 4])
def test_rk4_rhs_of_the_wrong_length_is_a_type_error(returned):
    """A 3-component state and an rhs of another length: the list-based loop
    truncated the state to the shorter length (and broadcast one value into
    every column) or failed inside numpy; now the first call fails."""
    calls = []

    def rhs(*y):
        calls.append(y)
        return [0.5] * returned

    with pytest.raises(TypeError, match=f"rhs returned {returned} components "
                                        "for a state of 3"):
        rk4_integrate(rhs, [1.0, 2.0, 3.0], Grid(0.0, 1.0, 10), unit_frame)
    assert len(calls) == 1


@pytest.mark.parametrize("rhs, y0", [
    (lambda s11, a3: (s11, a3, 0.0), [1.0, 2.0, 3.0]),
    (lambda p, u3, a3, om3: (p, u3, a3), [1.0, 2.0, 3.0]),
    (cf.case_a1_rhs, [0.1, 0.2, 0.3, 1.0]),
    (cf.case_a2_rhs, [0.1, 0.2, 0.3]),
], ids=["2-for-3", "4-for-3", "a1-for-4", "a2-for-3"])
def test_rk4_rhs_of_another_arity_is_a_type_error_before_the_first_step(rhs, y0):
    """rhs takes the state components as positional arguments: one of
    another arity fails at the first call, before its body runs, and no
    trajectory, partial or whole, comes back."""
    calls = []

    def counted(*y):
        calls.append(y)
        return rhs(*y)

    with pytest.raises(TypeError, match="positional argument"):
        rk4_integrate(counted, y0, Grid(0.0, 1.0, 10), unit_frame)
    assert calls == [tuple(y0)]  # the first stage of the first step
    with pytest.raises(TypeError, match="positional argument"):
        rk4_integrate(rhs, y0, Grid(0.0, 1.0, 10), unit_frame)


def test_rk4_empty_state_is_a_value_error():
    with pytest.raises(ValueError, match="at least one component"):
        rk4_integrate(lambda *y: y, [], Grid(0.0, 1.0, 10), unit_frame)


def test_rk4_value_error_inside_rhs_is_not_a_length_error():
    with pytest.raises(ValueError, match="math domain error"):
        rk4_integrate(lambda y: [math.sqrt(-y)], [1.0], Grid(0.0, 1.0, 10), unit_frame)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_rk4_calls_rhs_four_times_per_step(frame):
    calls = [0]

    def counted(*y):
        calls[0] += 1
        return cf.case_a1_rhs(*y)

    F = FRAMES[frame]()
    rk4_integrate(counted, [0.1, 0.1 * np.sqrt(0.01 + 9.0), 1.0], Grid(0.0, 1.0, 500), F)
    assert calls[0] == 4 * 500
    calls[0] = 0
    with pytest.raises(PoleError) as err:
        rk4_integrate(counted, [0.5, 0.5 * np.sqrt(0.25 + 9.0), 1.0], Grid(0.0, 1.0, 400), F)
    # the failed step is step number len(partial_states), and it ran in full
    assert calls[0] == 4 * len(err.value.partial_states)


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
    for i in range(1, n, 2):
        out[i] = out[i - 1] + (h / 12.0) * (5.0 * f[i - 1] + 8.0 * f[i] - f[i + 1])
    return out


@pytest.mark.parametrize("N", [4, 6, 1000, 100_000])
def test_quadrature_matches_loop_reference(N):
    g = Grid(-0.3, 2.0, N)
    z = g.points()
    # a column that meets inf, -inf and nan, alone and in one Simpson pair
    special = np.cos(z)
    special[[1, 2, N // 2 + 1, N]] = [np.inf, -np.inf, np.nan, -np.inf]
    cases = [np.exp(z) * np.sin(7.0 * z), np.full(N + 1, -0.0),
             np.stack([np.cos(z), 1.0 / (1.0 + z * z)], axis=1),
             # the even points of a refinement, as cumulative_integral_refined
             # passes them: a strided view
             np.exp(Grid(-0.3, 2.0, 2 * N).points())[::2],
             np.stack([np.sin(z), special], axis=1)]
    for f in cases:
        with np.errstate(invalid="ignore"):
            got = quadrature(f, g)
            want = quadrature_loop_reference(f, g)
        assert np.array_equal(got, want, equal_nan=True)
        # signed zeros too; the sign and payload of a nan follow the order in
        # which the CPU's vector loop takes two nan operands, and no output
        # writes them
        nan = np.isnan(want)
        assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()
