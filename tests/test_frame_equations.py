"""General 1+3 system: residual evaluators, their kernels and their plans."""

import math

import einsum_reference
import numpy as np
import pytest
from conftest import (ELISION_POINTS, PLAN_SHAPES, DenseJet, densified, eds_jet_arrays,
                      random_jet)
from hypothesis import given, settings, strategies as st

from f13 import conformal as cf
from f13 import frame_equations as fe
from f13.frame_equations import ZERO, JetArrays, NonFiniteResidual, residual_report
from f13.numerics import Grid, rk4_integrate


def zero_jet():
    return JetArrays.build((), {})


def curvature(kernel, comp, **values):
    """The dense result of ``kernel`` on the tables of the single jet of
    ``values``."""
    return fe._dense(kernel(fe._Sparse.of(JetArrays.build((), values)).tables), comp, ())


def b_tensor(c):
    return fe._b_tensor_arr(c.n)


def curly_S(jet):
    """The curly-S kernel on the component tables of ``jet``."""
    return fe._curly_S_arr(fe._Sparse.of(jet).tables)


def curly_R(jet):
    """The curly-R kernel on the component tables of ``jet``."""
    return fe._curly_R_arr(fe._Sparse.of(jet).tables)


def test_b_tensor_examples():
    assert np.max(np.abs(curvature(b_tensor, (3, 3)))) == 0.0
    assert np.allclose(curvature(b_tensor, (3, 3), n11=1.0, n22=1.0, n33=1.0), -np.eye(3))
    assert np.max(np.abs(curvature(b_tensor, (3, 3), n11=1.0, n22=1.0))) == 0.0


def test_curly_S_examples():
    assert np.max(np.abs(curvature(fe._curly_S_arr, (3, 3)))) == 0.0
    # a = 0, n = identity, derivatives zero: trace-free part of b(n) = 0
    assert np.max(np.abs(curvature(fe._curly_S_arr, (3, 3), n11=1.0, n22=1.0, n33=1.0))) < 1e-15


def test_curly_R_examples():
    assert curvature(fe._curly_R_arr, ()) == 0.0
    a3 = 0.7
    assert curvature(fe._curly_R_arr, (), a3=a3) == pytest.approx(-6.0 * a3 * a3, rel=1e-15)
    assert curvature(fe._curly_R_arr, (), n11=1.0, n22=1.0, n33=1.0) == pytest.approx(1.5, rel=1e-15)


def test_minkowski_all_zero():
    rep = residual_report(zero_jet())
    assert rep.worst()[2] == 0.0


def test_einstein_de_sitter_nullity():
    for t in (0.5, 1.0, 2.0):
        rep = residual_report(eds_jet_arrays(t))
        norms = rep.block_worst()
        assert norms["field1"][1] < 1e-12
        assert norms["field3"][1] < 1e-12
        assert norms["bianchi1"][1] < 1e-12
        assert rep.worst()[2] < 1e-12


def test_report_blocks_on_eds():
    rep = residual_report(eds_jet_arrays(1.0))
    assert abs(rep.block("field1")) < 1e-15
    assert abs(rep.block("field3")) < 1e-15
    assert np.max(np.abs(rep.block("field2"))) < 1e-15
    assert np.max(np.abs(rep.block("jacobi1"))) == 0.0
    assert rep.block("jacobi5") == 0.0
    assert abs(rep.block("bianchi1")) < 1e-15
    assert np.max(np.abs(rep.block("divH"))) == 0.0


@pytest.mark.parametrize("evaluate", [residual_report, curly_S, curly_R])
@pytest.mark.parametrize("jet", [None, 0.0, {"mu": 1.0}], ids=["None", "float", "dict"])
def test_evaluators_take_jet_arrays_only(evaluate, jet):
    with pytest.raises(TypeError, match=f"expected JetArrays, got {type(jet).__name__}$"):
        evaluate(jet)


def test_build_derives_the_trace_free_33_entry_in_every_slot():
    """In each slot, x33 = -(x11 + x22) for pi, sigma, E and H when the slot
    names x11 or x22 but not x33; a given x33 is kept, and n is left as
    it is."""
    x11, x22 = np.array([0.5, -0.0, 2.0]), np.array([0.25, -0.0, -2.0])
    for slot in range(5):
        given = {"pi11": x11, "pi22": x22, "sigma11": x11, "E22": x22,
                 "H11": x11, "H33": x22, "n11": x11, "n22": x22}
        ja = JetArrays.build((3,), *([{}] * slot), given)
        view = (ja.value, *ja.deriv)[slot]
        assert view.pi33.tobytes() == (-(x11 + x22)).tobytes()
        assert view.sigma33.tobytes() == (-(x11 + 0.0)).tobytes()
        assert view.E33.tobytes() == (-(0.0 + x22)).tobytes()
        assert view.H33 is x22
        assert view.n33 == 0.0
    # a derived zero number is not held, a nonzero one is
    ja = JetArrays.build((), dict(pi11=0.0, sigma11=1.5, sigma22=-1.5),
                         e3=dict(E11=1.5, E22=0.5))
    assert ja.entries.keys() == {("sigma", (0, 0)), ("sigma", (1, 1)),
                                 ("dE", (3, 0, 0)), ("dE", (3, 1, 1)), ("dE", (3, 2, 2))}
    assert ja.deriv[3].E33 == -2.0
    # a tensor with no diagonal entry named gets no 33 entry
    ja = JetArrays.build((), dict(sigma12=1.0, H13=2.0))
    assert ("sigma", (2, 2)) not in ja.entries and ("H", (2, 2)) not in ja.entries


def test_perfect_fluid_reduction():
    """With q = pi = E = H = omega = sigma = udot = 0 and no spatial
    derivatives, field1 must reduce to the Raychaudhuri form and bianchi1
    to the energy form; a and n may stay arbitrary."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        ja = DenseJet(())
        ja.mu[...] = rng.uniform(-2.0, 2.0)
        ja.p[...] = rng.uniform(-2.0, 2.0)
        ja.Lam[...] = rng.uniform(-2.0, 2.0)
        ja.Theta[...] = rng.uniform(-2.0, 2.0)
        ja.a[...] = rng.uniform(-2.0, 2.0, 3)
        raw = rng.uniform(-2.0, 2.0, (3, 3))
        ja.n[...] = 0.5 * (raw + raw.T)
        rep = residual_report(ja)
        raychaudhuri = (-ja.Theta**2 / 3.0 - 0.5 * (ja.mu + 3.0 * ja.p) + ja.Lam)
        assert float(rep.block("field1")) == pytest.approx(-float(raychaudhuri), abs=1e-14)
        energy = -(ja.mu + ja.p) * ja.Theta
        assert float(rep.block("bianchi1")) == pytest.approx(-float(energy), abs=1e-14)


def test_residuals_affine_in_derivative_slots():
    """Every equation is affine in the derivative entries: scaling all
    derivatives by lam scales the derivative contribution by lam."""
    rng = np.random.default_rng(4)
    lam = 2.5
    jA = random_jet(rng)
    j0 = JetArrays((), {(name, index): x for (name, index), x in jA.entries.items()
                        if not name.startswith("d")})
    jL = JetArrays((), {(name, index): lam * x if name.startswith("d") else x
                        for (name, index), x in jA.entries.items()})
    rA, r0, rL = (residual_report(x) for x in (jA, j0, jL))
    for (label, a), (_, z), (_, l) in zip(rA.blocks(), r0.blocks(), rL.blocks()):
        lhs = l - z
        rhs = lam * (a - z)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale, label


def test_trace_consistency_of_tracefree_blocks():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rep = residual_report(random_jet(rng))
        sigma, E = rep.block("field2"), rep.block("bianchi3")
        tr_sigma = abs(np.trace(sigma))
        tr_E = abs(np.trace(E))
        scale = max(1.0, np.max(np.abs(sigma)), np.max(np.abs(E)))
        assert tr_sigma < 1e-14 * scale
        assert tr_E < 1e-14 * scale


def rotating_congruence_jet(r, w):
    """Rigidly rotating congruence in flat spacetime (vacuum, E = H = 0).

    u = gamma (d_t + w d_phi) with the co-rotating cylindrical triad
    {d_r, gamma w r d_t + (gamma/r) d_phi, d_z}.  Expanding the frame
    brackets by hand gives, with gamma = (1 - w^2 r^2)^(-1/2):

        Theta = sigma = 0,
        udot = (-gamma^2 w^2 r, 0, 0),
        omega = Omega = (0, 0, -gamma^2 w),
        a_1 = n_23 = -gamma^2 / (2 r),   all other a, n zero.

    Every field depends on r alone and e_1 = d_r, so only the e_1 slot of
    the jet is populated.  This exercises the omega/udot/a/n sectors of the
    field and Jacobi equations on data that never occurs in the elastic
    families.
    """
    gam2 = 1.0 / (1.0 - w * w * r * r)
    dgam2 = 2.0 * gam2 * gam2 * w * w * r  # d(gamma^2)/dr
    da1 = -0.5 * (dgam2 * r - gam2) / (r * r)
    value = dict(udot1=-gam2 * w * w * r, omega3=-gam2 * w, Omega3=-gam2 * w,
                 a1=-gam2 / (2.0 * r), n23=-gam2 / (2.0 * r))
    e1 = dict(udot1=-w * w * (gam2 + r * dgam2), omega3=-dgam2 * w, Omega3=-dgam2 * w,
              a1=da1, n23=da1)
    return JetArrays.build((), value, e1=e1)


def test_rotating_congruence_satisfies_all_blocks():
    for r in (0.3, 1.0, 2.0):
        for w in (0.1, 0.35):
            rep = residual_report(rotating_congruence_jet(r, w))
            assert rep.worst()[2] < 1e-13, (r, w, rep.block_worst())


def boosted_shear_jet(phi1, phi2):
    """Boosted congruence in flat spacetime: u = cosh(phi(y)) d_t + sinh(phi(y)) d_x.

    Expanding the frame brackets by hand for the natural boosted triad:
    Theta = 0, udot = a = n = 0, sigma_12 = omega_3 = phi'/2, Omega = 0,
    with all fields functions of y (frame direction 2).  phi1 = phi'(y0),
    phi2 = phi''(y0) at the probe point.
    """
    return JetArrays.build((), dict(sigma12=0.5 * phi1, omega3=0.5 * phi1),
                           e2=dict(sigma12=0.5 * phi2, omega3=0.5 * phi2))


def test_boosted_shear_congruence_satisfies_all_blocks():
    """Pins the relative signs of the gradient terms in jacobi1/jacobi2 and
    field4, which no static or irrotational exact data exercises."""
    for phi1 in (0.4, -1.1):
        for phi2 in (0.0, 0.8, -2.3):
            rep = residual_report(boosted_shear_jet(phi1, phi2))
            assert rep.worst()[2] < 1e-14, (phi1, phi2, rep.block_worst())


# ---------------------------------------------------------------------------
# fixed-index kernels against the einsum form, and the report's reductions
# ---------------------------------------------------------------------------

REPORT_FIELDS = list(fe.GENERAL_BLOCKS)


def random_jet_arrays(rng, *shape):
    ja = DenseJet(shape)
    for name in fe._COMPONENTS:
        arr = getattr(ja, name)
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    return ja


def report_pairs(ja):
    rep = residual_report(ja)
    return zip(REPORT_FIELDS, (rep.block(f) for f in REPORT_FIELDS),
               einsum_reference.report_arrays(densified(ja)))


def dense_kernel_report(ja):
    """The report arrays of a dense jet with every component live, so that
    no table entry is ``ZERO``: the kernels then form every term, zero
    factors included, as a dense evaluation does."""
    sub = fe._Sparse(ja.shape, ja.entries, ja.entries)
    return [fe._dense(res, fe.GENERAL_BLOCKS[name], ja.shape)
            for name, res in zip(REPORT_FIELDS, fe._report_arrays(sub))]


def test_kernels_match_einsum_on_random_jets():
    # sums over a contiguous axis may round differently from einsum's SIMD
    # loop, by an ulp or so
    ja = random_jet_arrays(np.random.default_rng(7), 10_000)
    for name, new, ref in report_pairs(ja):
        assert new.shape == ref.shape, name
        assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def test_kernels_bit_identical_on_closed_form_a1_jets():
    for A, sign, B in ((0.0, 1, 1.0), (1.0, -1, 0.0), (-5.0, 1, 1.0)):
        form = cf.CaseA1ClosedForm(A, sign, B)
        grid, _ = form.clip_grid(Grid(0.0, 1.0, 4999))
        jet, _ = form.jet(grid)
        for name, new, ref in report_pairs(cf.embed_special(jet)):
            assert np.array_equal(new, ref), (A, sign, B, name)


def test_name_views_read_a_general_jet():
    """``value.x`` and ``deriv[a].x`` of a jet of every named variable:
    every named variable of every slot, 0.0 where the jet holds nothing."""
    ja = random_jet(np.random.default_rng(31))
    dense = densified(ja)
    for slot, view in enumerate((ja.value, *ja.deriv)):
        for var, (field, indices) in fe.COMPONENT_NAMES.items():
            if slot and field == "Lam":
                assert getattr(view, var) == 0.0
                continue
            for index in indices:
                ref = (getattr(dense, field)[index] if slot == 0
                       else getattr(dense, "d" + field)[(slot - 1,) + index])
                assert getattr(view, var) == ref, (slot, var)
    assert ja.value.Lam == ja.entries[("Lam", ())]
    assert ja.value.sigma12 == dense.sigma[1, 0]
    assert ja.deriv[2].E13 == dense.dE[2, 2, 0]
    assert ja.deriv[3].pi33 == -(ja.deriv[3].pi11 + ja.deriv[3].pi22)
    with pytest.raises(AttributeError):
        ja.value.sigma21


def test_jet_rejects_unknown_fields_components_and_names():
    one = np.ones(())
    for key in (("mu", (0,)), ("sigma", (3, 0)), ("dLam", (0,)), ("rho", ()), ("da", (0,))):
        with pytest.raises(TypeError, match="unknown jet components"):
            JetArrays((), {key: one})
    with pytest.raises(TypeError, match="unknown jet variable: sigma21"):
        JetArrays.build((), {"sigma21": 1.0})
    with pytest.raises(TypeError, match="unknown jet components"):
        JetArrays.build((), {}, e1={"Lam": 1.0})


def test_report_reductions_agree_per_point_and_per_block():
    rep = residual_report(random_jet_arrays(np.random.default_rng(5), 7))
    rowmax = rep.block_point_max()
    assert list(rowmax) == [label for label, _ in rep.blocks()]
    for label, arr in rep.blocks():
        points = [np.max(np.abs(arr[..., j])) for j in range(arr.shape[-1])]
        assert np.array_equal(rowmax[label], points), label
        assert np.max(rowmax[label]) == rep.block_worst()[label][1]
        # the stored maxima, not a second reduction of the block
        assert rep.block_point_max()[label] is rowmax[label], label
    assert np.array_equal(rep.per_point_max(), np.max(list(rowmax.values()), axis=0))
    assert np.max(rep.per_point_max()) == rep.worst()[2]


@pytest.mark.parametrize("shape", [(), (37,), (4, 5)])
def test_stored_maxima_are_the_max_abs_over_components(shape):
    """A single jet, a 1-D and a 2-D batch."""
    rep = residual_report(random_jet_arrays(np.random.default_rng(21), *shape))
    rowmax = rep.block_point_max()
    for label, arr in rep.blocks():
        ref = np.max(np.abs(arr), axis=tuple(range(arr.ndim - len(shape))))
        assert rowmax[label].shape == shape, label
        assert rowmax[label].tobytes() == ref.tobytes(), label


def outcome(read):
    """read(), or the type and message of the exception it raises."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


class AbsMaxReference:
    """The report's reductions by max-abs at every point: each block's
    max-abs over its distinct components per batch entry, and from those
    its norm, its first worst batch index and the maximum over blocks."""

    def __init__(self, shape, blocks):
        self.shape = shape
        self.point_max, self.norms = {}, {}
        for label, (comp, result) in blocks.items():
            live = list({id(e): e for _, e in fe._nonzero_components(result, comp)}.values())
            pm = None
            if live:
                pm = np.empty(np.shape(live[0]))
                np.abs(live[0], out=pm)
                for e in live[1:]:
                    np.maximum(pm, np.abs(e), out=pm)
            norm = 0.0 if pm is None or math.prod(shape) == 0 else float(np.max(pm))
            if not np.isfinite(norm):
                raise NonFiniteResidual(f"non-finite residual in block {label}")
            self.point_max[label], self.norms[label] = pm, norm

    def block_point_max(self):
        return {label: np.zeros(self.shape) if pm is None else pm
                for label, pm in self.point_max.items()}

    def worst_at(self, label):
        pm = self.point_max[label]
        j = 0 if pm is None else int(np.argmax(np.broadcast_to(pm, self.shape)))
        return j, self.norms[label]

    def per_point_max(self):
        out = np.zeros(self.shape)
        for pm in self.point_max.values():
            if pm is not None:
                np.maximum(out, pm, out=out)
        return out


# few values, so that components and points tie; zeros of either sign
TIE_VALUES = (0.0, -0.0, 0.5, -0.5, 2.0, -2.0)


@st.composite
def report_blocks(draw):
    """(shape, blocks, extremes): blocks of shape (), (3,) or (3, 3) on a
    batch that may be empty, their components ``ZERO``, fresh arrays of
    few values, arrays of earlier components, or 0-d (an array, a numpy
    scalar or a number), sometimes one holding a nan or an inf; and the
    extremes a replay would give for some of the arrays."""
    shape = draw(st.sampled_from([(), (1,), (6,), (3, 4), (0,), (2, 0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []

    def entry(zero_d):
        kind = draw(st.sampled_from(("zero", "fresh", "fresh", "shared")))
        if kind == "zero":
            return ZERO
        same = [x for x in arrays if (np.ndim(x) == 0) == zero_d]
        if kind == "shared" and same:
            return same[draw(st.integers(0, len(same) - 1))]
        if zero_d:
            x = float(rng.choice(TIE_VALUES))
            x = draw(st.sampled_from((x, np.float64(x), np.array(x))))
        else:
            x = rng.choice(TIE_VALUES, shape)
        arrays.append(x)
        return x

    blocks = {}
    for b in range(draw(st.integers(1, 6))):
        comp = draw(st.sampled_from([(), (3,), (3, 3)]))
        zero_d = draw(st.booleans()) if shape else True
        c = np.empty(comp, dtype=object)
        for index in np.ndindex(comp):
            c[index] = entry(zero_d)
        blocks[f"block{b}"] = (comp, c[()] if not comp else fe._table(c))
    bad = draw(st.sampled_from((None, None, np.nan, np.inf, -np.inf)))
    held = [x for x in arrays if isinstance(x, np.ndarray) and x.size]
    if bad is not None and held:
        x = held[draw(st.integers(0, len(held) - 1))]
        x.flat[rng.integers(x.size)] = bad
    extremes = {id(x): fe._extremes(x) for x in held + [x for x in arrays if type(x) is np.float64]
                if draw(st.booleans())}
    return shape, blocks, extremes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(report_blocks())
def test_reductions_from_the_extremes_equal_the_max_abs_reductions(case):
    """Norms (+0.0 for a block of zeros), worst points, the per-point maxima
    bytes and the named non-finite block, with the extremes of a replay and
    with the report taking them itself."""
    shape, blocks, extremes = case
    with np.errstate(all="ignore"):
        try:
            ref = AbsMaxReference(shape, blocks)
        except NonFiniteResidual as exc:
            for given_extremes in (extremes, None):
                with pytest.raises(NonFiniteResidual, match=f"^{exc}$"):
                    fe.ResidualReport(shape, blocks, given_extremes)
            return
        for given_extremes in (extremes, None):
            rep = fe.ResidualReport(shape, blocks, given_extremes)
            assert outcome(lambda: {k: v.hex() for k, (_, v) in rep.block_worst().items()}) == (
                outcome(lambda: {label: ref.worst_at(label)[1].hex() for label in blocks}))
            assert outcome(rep.block_worst) == outcome(
                lambda: {label: ref.worst_at(label) for label in blocks})
            label = max(ref.norms, key=ref.norms.get)
            assert outcome(rep.worst) == outcome(lambda: (label, *ref.worst_at(label)))
            assert rep.per_point_max().tobytes() == ref.per_point_max().tobytes()
            got, want = rep.block_point_max(), ref.block_point_max()
            assert list(got) == list(want)
            for label in blocks:
                assert got[label].shape == want[label].shape, label
                assert got[label].tobytes() == want[label].tobytes(), label


def test_replay_takes_the_extremes_of_each_result_array():
    """Each array a replay makes for a result, and no input it passes
    through, carries its first argmax and argmin."""
    form = cf.CaseA1ClosedForm(A=1.0, sign=-1, B=1.0)
    ja = cf.embed_special(form.jet(Grid(0.0, 0.5, 300))[0])
    results = fe._report_arrays(fe._Sparse.of(ja))
    made = {id(e): e for r, comp in zip(results, fe.GENERAL_BLOCKS.values(), strict=True)
            for _, e in fe._nonzero_components(r, comp)}
    inputs = {id(e) for e in ja.entries.values()}
    assert results.extremes.keys() == made.keys() - inputs
    for key, (i, j) in results.extremes.items():
        assert (i, j) == (np.argmax(made[key]), np.argmin(made[key]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
# the ids name the corrupted derivative: e_0(mu) enters bianchi1 alone,
# e_0(sigma) field2 alone
@pytest.mark.parametrize("field, entry, block", [
    pytest.param("dmu", (0,), "bianchi1", id="dmu-entry0-e0_mu"),
    pytest.param("dsigma", (0, 1, 2), "field2", id="dsigma-entry1-e0_sigma"),
])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_non_finite_residual_names_its_block(bad, field, entry, block, shape):
    """In a 1-D and a 2-D batch, at the next-to-last point."""
    ja = random_jet_arrays(np.random.default_rng(6), *shape)
    getattr(ja, field)[entry + tuple(m - 1 for m in shape[:-1]) + (shape[-1] - 2,)] = bad
    with pytest.raises(NonFiniteResidual, match=f"in block {block}$"):
        residual_report(ja)


TABLE_OPS = {
    "T + T^t": lambda T, x: T + T.swapaxes(0, 1),
    "T - x": lambda T, x: T - x,
    "T * x": lambda T, x: T * x,
    "x * T": lambda T, x: x * T,
    "T / x": lambda T, x: T / x,
    "-T": lambda T, x: -T,
}


@pytest.mark.parametrize("name", list(TABLE_OPS))
def test_table_operators_leave_their_operands_unchanged(name):
    """Each entry of a fresh table is referred to by the table alone, the
    case in which numpy would reuse it as a result's buffer."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, ELISION_POINTS)
    T = fe._Components.build((3, 3), lambda _: rng.uniform(-1.0, 1.0, ELISION_POINTS))
    held = [e.tobytes() for e in T.c.flat]
    TABLE_OPS[name](T, x)
    assert [e.tobytes() for e in T.c.flat] == held


def test_report_is_the_same_for_any_batch_shape():
    """A batch large enough for numpy's temporary elision, as (2**15,) and
    as (2, 2**14) points: the same bytes, block by block."""
    ja = random_jet_arrays(np.random.default_rng(13), ELISION_POINTS)
    flat = residual_report(ja)
    shape = (2, ELISION_POINTS // 2)
    rep = residual_report(JetArrays(shape, {key: e.reshape(shape)
                                            for key, e in ja.entries.items()}))
    for name in REPORT_FIELDS:
        ref = flat.block(name)
        assert rep.block(name).reshape(ref.shape).tobytes() == ref.tobytes(), name
    for label, pm in rep.block_point_max().items():
        assert pm.shape == shape, label
        assert pm.tobytes() == flat.block_point_max()[label].tobytes(), label


def test_zero_blocks_report_zero_maxima():
    form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=1.0)
    ja = cf.embed_special(form.jet(Grid(0.0, 0.5, 3000))[0])
    results = fe._report_arrays(fe._Sparse.of(ja))
    zero = [name for name, res in zip(REPORT_FIELDS, results) if res is ZERO]
    assert "jacobi5" in zero
    rep = residual_report(ja)
    rowmax = rep.block_point_max()
    for label in zero:
        assert rowmax[label].shape == ja.shape and not rowmax[label].any(), label
        assert rep.block_worst()[label][1] == 0.0 and not rep.block(label).any(), label
    nonzero = [rowmax[label] for label in rowmax if label not in zero]
    assert np.array_equal(rep.per_point_max(), np.max(nonzero, axis=0))
    # the worst point of each block: a ZERO block's is its first, with 0.0
    for label, pm in rowmax.items():
        j = int(np.argmax(pm))
        assert rep.block_worst()[label] == (j, float(pm[j])), label


# ---------------------------------------------------------------------------
# structural zeros
# ---------------------------------------------------------------------------

JET_FIELDS = list(fe._COMPONENTS)


def test_structural_zero_algebra():
    x = np.arange(1.0, 4.0)
    assert x + ZERO is x and ZERO + x is x and x - ZERO is x
    assert np.array_equal(ZERO - x, -x)
    assert 2.5 + ZERO == 2.5 and np.float64(2.5) - ZERO == 2.5
    for term in (ZERO * x, x * ZERO, 2.0 * ZERO, ZERO / 3.0, ZERO**2, -ZERO,
                 ZERO[1:], ZERO[:, None], ZERO.swapaxes(0, 1), ZERO + ZERO, ZERO - ZERO):
        assert term is ZERO
    M = np.arange(9.0).reshape(3, 3)
    for kernel in (fe._iso, fe._eps_vec, fe._eps_sym, fe._tr, fe._sym):
        assert kernel(ZERO) is ZERO, kernel.__name__
    assert fe._mm(ZERO, M) is ZERO and fe._mm(M, ZERO) is ZERO
    assert fe._ddot(M, ZERO) is ZERO and fe._outer(ZERO, x) is ZERO
    with pytest.raises(TypeError):
        x / ZERO


def test_skipping_zeros_matches_einsum_on_conformally_flat_jets():
    """Bit-identical up to the sign of a zero, with 11 (a1), 15 (branch 1
    and a2) and 21 (branch 2) of the 27 fields zero, and at most 24 of the
    316 components nonzero."""
    F = cf.ScaleFactor.from_table(np.linspace(0.0, 1.0, 11),
                                  1.0 + 0.1 * np.sin(np.linspace(0.0, 3.0, 11)))
    form = cf.CaseA1ClosedForm(A=1.0, sign=-1, B=0.5)
    grid, _ = form.clip_grid(Grid(0.0, 1.0, 3001))
    grid2 = Grid(0.0, 0.5, 2500)
    a1 = rk4_integrate(cf.case_a1_rhs, [0.1, 1.0, 1.0], grid2, F).states
    a2 = rk4_integrate(cf.case_a2_rhs, [0.2, -0.3, 0.4, 1.0], grid2, F).states
    jets = {
        "a1 closed form": form.jet(grid)[0],
        "branch 1": cf.branch_jet(cf.shearless_branch_fields(F, 1.0, 1.0, Grid(0.0, 0.4, 400))),
        "branch 2": cf.branch_jet(cf.a2_branch2_fields(F, 1.0, 0.5, Grid(0.0, 0.6, 401))),
        "a1 rk4": cf.a1_trajectory_jet(grid2.points(), *a1.T),
        "a2 rk4": cf.a2_trajectory_jet(grid2.points(), *a2.T),
        "a2 single jet": cf.a2_trajectory_jet(0.0, 0.3, -0.2, 0.7, 0.1),
    }
    for tag, jet in jets.items():
        ja = cf.embed_special(jet)
        held = dict(ja.entries)
        tables = fe._Sparse.of(ja).tables
        zero = {name for name in JET_FIELDS if getattr(tables, name) is ZERO}
        assert len(zero) >= 11, tag
        nonzero = sum(len(fe._nonzero_components(getattr(tables, name), comp))
                      for name, comp in fe._COMPONENTS.items())
        assert nonzero <= 24, tag
        for name, new, ref in report_pairs(ja):
            assert np.array_equal(new, ref), (tag, name)
        # the handed-over components and their dense copy: the same bytes
        rep, ref = residual_report(ja), residual_report(densified(ja))
        for name in REPORT_FIELDS:
            assert rep.block(name).tobytes() == ref.block(name).tobytes(), (tag, name)
        assert rep.per_point_max().tobytes() == ref.per_point_max().tobytes(), tag
        # the caller's jet keeps its entries
        assert ja.entries.keys() == held.keys(), tag
        assert all(ja.entries[key] is entry for key, entry in held.items()), tag


def test_skipping_zeros_matches_dense_kernels_on_random_jets():
    """Random jets with a random subset of their arrays zero.  The einsum
    form rounds their double contractions differently from the fixed-index
    kernels (see test_kernels_match_einsum_on_random_jets), so the dense
    evaluation of the same kernels is the reference here."""
    rng = np.random.default_rng(17)
    for trial in range(20):
        ja = random_jet_arrays(rng, 300)
        for name in rng.choice(JET_FIELDS, rng.integers(1, len(JET_FIELDS) + 1), replace=False):
            getattr(ja, name)[...] = 0.0
        rep = residual_report(ja)
        dense = dense_kernel_report(ja)
        for name, ref in zip(REPORT_FIELDS, dense):
            assert np.array_equal(rep.block(name), ref), (trial, name)
        for name, new, ref in report_pairs(ja):
            assert np.max(np.abs(new - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), name


def test_skipping_zero_components_matches_dense_kernels_on_random_jets():
    """Random jets with a random subset of their components zero, not whole
    fields: the values of the dense evaluation of the same kernels, and the
    einsum form's within rounding."""
    rng = np.random.default_rng(29)
    n = 2 * 64 + 37
    for trial in range(8):
        ja = random_jet_arrays(rng, n)
        for name, comp in fe._COMPONENTS.items():
            for index in np.ndindex(comp):
                if rng.random() < 0.6:
                    getattr(ja, name)[index] = 0.0
        dense = dense_kernel_report(ja)
        rep = residual_report(ja)
        for name, ref in zip(REPORT_FIELDS, dense):
            assert np.array_equal(rep.block(name), ref), (trial, name)
        for name, new, ref in report_pairs(ja):
            assert np.max(np.abs(new - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), name


def test_zero_scalar_field_is_a_structural_zero():
    ja = random_jet_arrays(np.random.default_rng(4), 10)
    ja.mu[...] = 0.0
    assert fe._Sparse.of(ja).tables.mu is ZERO
    assert isinstance(ja.mu, np.ndarray)


@pytest.mark.parametrize("case", ["a1", "branch 2"])
def test_non_finite_entry_raises_with_zero_fields(case):
    """An inf in any one of the 316 components, ``ZERO`` ones included,
    still fails the report, although the jet has components that are zero
    throughout (0 * inf is nan).  The exceptions are e_0(p), e_0(udot) and
    e_0(Omega), which enter no equation of the system."""
    if case == "a1":
        form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=1.0)
        jet = form.jet(Grid(0.0, 0.5, 60))[0]
    else:
        jet = cf.branch_jet(cf.a2_branch2_fields(cf.ScaleFactor.constant(1.0), 1.0, 0.5,
                                                 Grid(0.0, 0.6, 60)))
    rng = np.random.default_rng(9)
    for name, comp in fe._COMPONENTS.items():
        for index in np.ndindex(comp):
            # the embedding holds the jet's own arrays: put a copy in its place
            entries = dict(cf.embed_special(jet).entries)
            held = entries.get((name, index))
            bad = np.zeros(jet.shape) if held is None else np.array(held)
            bad[rng.integers(bad.size)] = np.inf
            entries[(name, index)] = bad
            ja = JetArrays(jet.shape, entries)
            with np.errstate(over="ignore", invalid="ignore"):
                if name in ("dp", "dudot", "dOmega") and index[0] == 0:
                    assert residual_report(ja).worst()[2] < 1e-10, (name, index)
                    continue
                with pytest.raises(NonFiniteResidual):
                    residual_report(ja)


def test_non_finite_entry_times_zero_fields_only_still_raises():
    """Omega enters every equation multiplied by another field; with all
    of those zero, only the dense evaluation forms its 0 * inf = nan."""
    ja = DenseJet((5,))
    ja.Omega[0, 2] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteResidual):
            residual_report(ja)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

PLANNED_BLOCKS = (fe._efe_arr, fe._jacobi_arr, fe._bianchi_arr)


def direct_report(ja):
    """The report of the undecorated block kernels on the tables of ``ja``."""
    c = fe._Sparse.of(ja).tables
    results = [r for block in PLANNED_BLOCKS for r in block.__wrapped__(c)]
    return fe.ResidualReport(ja.shape, {label: (comp, r) for (label, comp), r
                                        in zip(fe.GENERAL_BLOCKS.items(), results, strict=True)})


@st.composite
def plan_jets(draw):
    """A jet holding a random subset of the 316 components: each a fresh
    random array, the array of an earlier component, or zeros; sometimes
    one array holds a nan or an inf at one point."""
    shape = draw(st.sampled_from(PLAN_SHAPES))
    keys = draw(st.lists(st.sampled_from(fe._FLAT), min_size=1, unique=True,
                         max_size=8 if math.prod(shape) >= ELISION_POINTS else 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays, entries = [], {}
    for key in keys:
        kind = draw(st.sampled_from(("fresh", "zeros", "shared")[:3 if arrays else 2]))
        if kind == "shared":
            entries[key] = arrays[draw(st.integers(0, len(arrays) - 1))]
            continue
        entries[key] = np.array(rng.uniform(-1.0, 1.0, shape) if kind == "fresh" else np.zeros(shape))
        arrays.append(entries[key])
    bad = draw(st.sampled_from((None, None, None, np.nan, np.inf, -np.inf)))
    if bad is not None:
        arrays[draw(st.integers(0, len(arrays) - 1))].flat[rng.integers(math.prod(shape))] = bad
    return JetArrays(shape, entries)


def table_sparsity(tables):
    """(pattern, inputs) walked from component tables, field by field and
    component by component: the reference for ``_Sparse.sparsity``, which
    reads the jet's entries."""
    pattern, inputs, ids = [], [], {}
    k = 0
    for name, comp in fe._COMPONENTS.items():
        x = getattr(tables, name)
        cells = ([ZERO] * math.prod(comp) if x is ZERO
                 else list(x.c.flat) if isinstance(x, fe._Components) else [x])
        for e in cells:
            if e is not ZERO:
                i = ids.setdefault(id(e), len(inputs))
                if i == len(inputs):
                    inputs.append(e)
                pattern.append((k, i))
            k += 1
    return tuple(pattern), inputs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(plan_jets())
def test_sparsity_read_from_the_entries_equals_the_table_walk(ja):
    """The live components are those with a nonzero entry; their pattern
    and inputs, by identity, are those of the walk over their tables; and a
    report builds the tables of a non-finite jet only."""
    c = fe._Sparse.of(ja)
    assert c.live.keys() == {key for key, e in ja.entries.items() if np.any(e)}
    pattern, inputs = c.sparsity
    ref_pattern, ref_inputs = table_sparsity(fe._tables(ja.shape, c.live))
    assert pattern == ref_pattern
    assert len(inputs) == len(ref_inputs)
    assert all(a is b for a, b in zip(inputs, ref_inputs, strict=True))
    with np.errstate(all="ignore"):
        fe._report_arrays(c)
    assert ("tables" in vars(c)) == c.dense


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(plan_jets())
def test_planned_report_equals_the_direct_kernels(ja):
    """Every block, norm, per-point maximum and worst index, bit for bit; a
    non-finite jet fails both, naming the same block."""
    with np.errstate(all="ignore"):
        try:
            ref = direct_report(ja)
        except NonFiniteResidual as exc:
            with pytest.raises(NonFiniteResidual, match=f"^{exc}$"):
                residual_report(ja)
            return
        rep = residual_report(ja)
    assert rep.block_worst() == ref.block_worst()
    for label in fe.GENERAL_BLOCKS:
        assert rep.block(label).tobytes() == ref.block(label).tobytes(), label
        assert (rep.block_point_max()[label].tobytes()
                == ref.block_point_max()[label].tobytes()), label


def test_plans_are_traced_once_per_pattern():
    """A report of a known pattern, on another batch shape and other
    values, replays its plan; a new pattern is traced; each block keeps at
    most ``PLAN_CACHE`` plans."""
    rng = np.random.default_rng(41)

    def jet(n, sigma23):
        names = ("mu", "Theta", "sigma11", "sigma23") if sigma23 else ("mu", "Theta", "sigma11")
        return JetArrays.build((n,), {name: rng.uniform(-1.0, 1.0, n) for name in names},
                               e3={"sigma11": rng.uniform(-1.0, 1.0, n)})

    def misses():
        return [block.plan.cache_info().misses for block in PLANNED_BLOCKS]

    for block in PLANNED_BLOCKS:
        block.plan.cache_clear()
    residual_report(jet(5, False))
    assert misses() == [1, 1, 1]
    residual_report(jet(7, False))
    assert misses() == [1, 1, 1]
    residual_report(jet(7, True))
    assert misses() == [2, 2, 2]
    one = np.ones(())
    for key in fe._FLAT[:fe.PLAN_CACHE + 4]:
        residual_report(JetArrays((), {key: one}))
    for block in PLANNED_BLOCKS:
        info = block.plan.cache_info()
        assert info.maxsize == fe.PLAN_CACHE and info.currsize == fe.PLAN_CACHE


def test_a_scan_is_taken_for_its_own_jet_only():
    """A report given the scan of its jet equals one that scans the jet
    itself; the scan of another jet, even an equal one, is refused."""
    form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=1.0)
    jet = form.jet(Grid(0.0, 0.5, 60))[0]
    scan = fe.scan_jet(jet)
    ref = residual_report(jet)
    rep = residual_report(cf.embed_special(jet), scan)
    assert rep.block_worst() == ref.block_worst()
    twin = JetArrays(jet.shape, dict(jet.entries))
    for report in (lambda: residual_report(twin, scan),
                   lambda: cf.bianchi_special_residuals(twin, scan=scan),
                   lambda: cf.ricci_einstein_residuals(twin, scan=scan)):
        with pytest.raises(ValueError, match="the scan is of another jet"):
            report()


def test_non_finite_report_leaves_the_plans_as_they_are():
    """A non-finite jet is evaluated on its dense tables by the kernels
    themselves: it traces no plan and evicts none, wherever its non-finite
    entry is."""
    form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=1.0)
    ja = cf.embed_special(form.jet(Grid(0.0, 0.5, 60))[0])
    residual_report(ja)

    def plans():
        return [(info.currsize, info.misses)
                for info in (block.plan.cache_info() for block in PLANNED_BLOCKS)]

    before = plans()
    for key in (("Theta", ()), ("n", (0, 1)), ("dE", (3, 2, 2))):
        bad = np.array(ja.entries.get(key, np.zeros(ja.shape)))
        bad[7] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteResidual):
                residual_report(JetArrays(ja.shape, ja.entries | {key: bad}))
    assert plans() == before


def test_trace_records_each_operation_once():
    """The same operator on the same operands is one entry; a number is
    keyed by its type and bits; any other operation is a TypeError."""
    trace = fe._Trace(2)
    x, y = fe._Entry(trace, 0), fe._Entry(trace, 1)
    assert x * y is x * y and -x is -x and x**2 is x**2 and x - 0.5 is x - 0.5
    assert x * y is not y * x
    assert x * 2.0 is x * 2.0 and x * 2 is not x * 2.0 and x + 0.0 is not x + -0.0
    assert x + ZERO is x and ZERO - x is -x and ZERO * x is ZERO
    recorded = len(trace.ops)
    for op in (lambda: x + np.ones(3), lambda: np.ones(3) * x, lambda: np.float64(2.0) * x,
               lambda: 2.0 / x, lambda: 0.5 + x, lambda: 0.5 - x, lambda: x / ZERO,
               lambda: abs(x), lambda: x < y, lambda: bool(x), lambda: np.sin(x), lambda: x[0], lambda: x + "1"):
        with pytest.raises(TypeError):
            op()
    assert len(trace.ops) == recorded


def test_general_report_flags_single_variable_violations():
    """ROADMAP item 7: on the a1 closed form, after a clean report has
    cached the plan of its pattern, each violation is flagged in the block
    that the equations put it in.  Theta + 0.1 keeps the pattern, so the
    cached plan replays on the new array; each other adds a component."""
    form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=0.5)
    grid, _ = form.clip_grid(Grid(0.0, 1.0, 20_000))
    ja = cf.embed_special(form.jet(grid)[0])
    assert residual_report(ja).worst()[2] < 1e-10
    for var, value, block in (("Theta", ja.value.Theta + 0.1, "bianchi1"),
                              ("a1", 0.1, "bianchi2"), ("a2", 0.1, "bianchi2"),
                              ("n13", 0.1, "bianchi2"), ("n23", 0.1, "bianchi2"),
                              ("n33", 0.1, "bianchi4"), ("omega3", 0.1, "jacobi3")):
        violated = JetArrays(ja.shape, ja.entries | JetArrays.build(ja.shape, {var: value}).entries)
        label, _, worst = residual_report(violated).worst()
        assert label == block and worst > 1e-2, var

