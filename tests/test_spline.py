"""The not-a-knot spline against scipy's ``CubicSpline``, its reference.

scipy is a test-only dependency: this module is skipped where it is not
installed.  For n >= 4 the spline builds the same banded system, solves it
in LAPACK dgtsv's order and forms the same Hermite coefficients, so its
coefficients and values are compared bit for bit.  For n = 3 scipy solves
a dense 3x3 system through the BLAS build, whose rounding the closed-form
parabola cannot reproduce; both sit within about ten ulp of the exact
parabola, and the comparison allows 32 ulp of the largest table value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f13 import conformal as cf
from f13.numerics import Grid, NotAKnotSpline

CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline

EXACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def tables(draw, n_min=4, n_max=60, spread=(1e-3, 10.0)):
    """A strictly increasing table of n nodes: uniform (linspace with
    spacing h) or with spacings h * u, each u drawn from ``spread``."""
    n = draw(st.integers(n_min, n_max))
    x0 = draw(st.floats(-10.0, 10.0))
    h = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        x = np.linspace(x0, x0 + h * (n - 1), n)
    else:
        steps = draw(st.lists(st.floats(*spread), min_size=n - 1, max_size=n - 1))
        x = x0 + np.concatenate(([0.0], np.cumsum(h * np.array(steps))))
    values = st.floats(-1e6, 1e6, allow_subnormal=False)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return x, y


def probes(x, seed):
    """Random points up to 20% outside the range, then the nodes."""
    width = x[-1] - x[0]
    rng = np.random.default_rng(seed)
    inside_and_out = rng.uniform(x[0] - 0.2 * width, x[-1] + 0.2 * width, 300)
    return np.concatenate((inside_and_out, x))


@EXACT
@given(tables(), st.integers(0, 2**32 - 1))
def test_coefficients_and_values_equal_scipy_bit_for_bit(table, seed):
    x, y = table
    ref, spline = CubicSpline(x, y), NotAKnotSpline(x, y)
    assert spline.c.shape == ref.c.shape
    assert np.array_equal(bits(spline.c), bits(ref.c))
    q = probes(x, seed)
    for z in (q, np.sort(q), np.sort(q)[::-1], x, x[-1:], q[:300].reshape(20, 15)):
        assert np.array_equal(bits(spline(z)), bits(ref(z)))


def test_non_decreasing_and_general_probes_give_the_same_bits():
    """Sorted 1-D abscissae take the interval-count path, every other probe
    the searchsorted one; repeated nodes, the right endpoint and points
    outside the range come out as scipy's on both."""
    x = np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.0])
    spline, ref = NotAKnotSpline(x, np.exp(x)), CubicSpline(x, np.exp(x))
    z = np.sort(np.concatenate((np.linspace(-0.3, 1.3, 1001), x, x, [1.0, 1.0])))
    for probe in (z, z[::-1], z[:1012].reshape(4, -1), z[::3]):
        assert np.array_equal(bits(spline(probe)), bits(ref(probe)))
    for point in (1.0, 0.35, -0.5, 2.0, np.nan, np.inf):
        value = spline(point)
        assert value.shape == () and value.dtype == np.float64
        assert np.array_equal(bits(value), bits(ref(point)))
    assert spline(np.empty(0)).shape == (0,)
    with_nan = np.concatenate((z[:5], [np.nan], z[5:]))
    assert np.array_equal(bits(spline(with_nan)), bits(ref(with_nan)))


def test_rk4_stage_abscissae_of_a_long_grid_equal_scipy():
    """A tabulated F at each RK4 stage's 20,001 abscissae on [0, 1], as
    ``rk4_integrate`` forms them, ascending and then shuffled: every value
    equals scipy's, bit for bit, on both evaluation paths."""
    zs = np.linspace(0.0, 1.0, 41)
    values = 1.0 + 0.3 * np.sin(5.0 * zs) ** 2
    F, ref = cf.ScaleFactor.from_table(zs, values), CubicSpline(zs, values)
    grid = Grid(0.0, 1.0, 20001)
    zk = grid.z0 + np.arange(grid.N) * grid.h
    shuffled = np.random.default_rng(0).permutation(grid.N)
    for stage in (zk, zk + 0.5 * grid.h, zk + grid.h):
        for probe in (stage, stage[shuffled]):
            assert np.array_equal(bits(F(probe)), bits(ref(probe)))


def test_negative_zero_value_sums_as_scipy_does():
    """scipy's power sum starts from 0.0: at a node holding -0.0, on an
    interval whose other coefficients are negative, it gives +0.0."""
    x = np.arange(5.0)
    y = np.array([1.0, -0.0, -1.0, -3.0, -6.0])
    ref = CubicSpline(x, y)
    assert np.signbit(ref.c[:, 1]).all() and not np.signbit(ref(1.0))
    z = np.concatenate((np.linspace(-1.0, 5.0, 25), x))
    for probe in (z, z[::-1], 1.0):
        assert np.array_equal(bits(NotAKnotSpline(x, y)(probe)), bits(ref(probe)))


@EXACT
@given(tables(n_min=2, n_max=3, spread=(0.5, 1.5)), st.integers(0, 2**32 - 1))
def test_two_and_three_nodes_agree_with_scipy_to_rounding(table, seed):
    x, y = table
    ref, spline = CubicSpline(x, y), NotAKnotSpline(x, y)
    q = probes(x, seed)
    if len(x) == 2:  # the line: both take the chord slope at each end
        assert np.array_equal(bits(spline.c), bits(ref.c))
        assert np.array_equal(bits(spline(q)), bits(ref(q)))
    else:
        ulp = np.spacing(np.max(np.abs(y)))
        assert np.max(np.abs(spline(q) - ref(q)), initial=0.0) <= 32 * ulp


@pytest.mark.parametrize("x, y", [
    ([0.0, np.nan, 1.0, 2.0], [1.0, np.nan, 1.0, 1.0]),
    ([0.0, 2.0, 1.0, 3.0], [1.0, 1.0, np.inf, 1.0]),
    ([0.0, 1.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0, 2.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0], [1.0]),
    ([[0.0, 1.0]], [[1.0, 1.0]]),
], ids=["x-not-finite-first", "y-not-finite-next", "repeated-x", "decreasing-x",
        "one-node", "two-dimensional"])
def test_input_errors_match_scipy_in_order(x, y):
    with pytest.raises(ValueError) as ref:
        CubicSpline(x, y)
    with pytest.raises(ValueError) as ours:
        NotAKnotSpline(x, y)
    assert str(ours.value) == str(ref.value)


def test_frame_table_checks_positivity_first():
    with pytest.raises(ValueError, match="^tabulated frame factor must be positive$"):
        cf.ScaleFactor.from_table([0.0, np.nan, 0.5, 1.0], [1.0, 1.0, -1.0, 1.0])
    F = cf.ScaleFactor.from_table([0.0, 0.3, 0.5, 1.0], [1.0, 1.2, 1.1, 1.0])
    assert np.array_equal(bits(F(0.4)), bits(CubicSpline([0.0, 0.3, 0.5, 1.0],
                                                         [1.0, 1.2, 1.1, 1.0])(0.4)))
