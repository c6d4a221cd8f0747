"""General 1+3 system: residual evaluators and commutator machinery."""

import dataclasses

import einsum_reference
import numpy as np
import pytest
from conftest import DenseJet, densified, eds_jet_arrays, random_jet

from f13 import conformal as cf
from f13 import frame_equations as fe
from f13.core import (
    State,
    StateJet,
    SymThree,
    ThreeVector,
)
from f13.frame_equations import (
    ZERO,
    JetArrays,
    NonFiniteResidual,
    ResidualReport,
    b_tensor,
    commutator_residual,
    commutator_structure,
    curly_R,
    curly_S,
    residual_report,
)
from f13.numerics import Grid, rk4_integrate
from f13.providers import AnalyticLineProvider, FieldLine


def zero_jet():
    return StateJet(0.0, State.zero(), (State.zero(),) * 4)


def test_b_tensor_examples():
    assert np.max(np.abs(b_tensor(SymThree.zero()).as_matrix())) == 0.0
    assert np.allclose(b_tensor(SymThree.identity()).as_matrix(), -np.eye(3))
    assert np.max(np.abs(b_tensor(SymThree.diag(1.0, 1.0, 0.0)).as_matrix())) == 0.0


def test_curly_S_examples():
    assert np.max(np.abs(curly_S(zero_jet()).as_matrix())) == 0.0
    # a = 0, n = identity, derivatives zero: trace-free part of b(n) = 0
    conn = dataclasses.replace(State.zero().connection, n=SymThree.identity())
    st = dataclasses.replace(State.zero(), connection=conn)
    jet = StateJet(0.0, st, (State.zero(),) * 4)
    assert np.max(np.abs(curly_S(jet).as_matrix())) < 1e-15


def test_curly_S_requires_spatial_derivatives():
    jet = StateJet(0.0, State.zero(), (State.zero(), None, None, None))
    with pytest.raises(ValueError, match="e_1"):
        curly_S(jet)


def test_curly_R_examples():
    assert curly_R(zero_jet()) == 0.0
    a3 = 0.7
    conn = dataclasses.replace(State.zero().connection, a=ThreeVector(0.0, 0.0, a3))
    jet = StateJet(0.0, dataclasses.replace(State.zero(), connection=conn),
                   (State.zero(),) * 4)
    assert curly_R(jet) == pytest.approx(-6.0 * a3 * a3, rel=1e-15)
    conn = dataclasses.replace(State.zero().connection, n=SymThree.identity())
    jet = StateJet(0.0, dataclasses.replace(State.zero(), connection=conn),
                   (State.zero(),) * 4)
    assert curly_R(jet) == pytest.approx(1.5, rel=1e-15)


def test_curly_S_and_curly_R_take_single_jets_only():
    ja = JetArrays.build((3,), dict(n11=np.ones(3), a3=np.full(3, 0.5)))
    for f in (curly_S, curly_R):
        with pytest.raises(ValueError, match="single jets only"):
            f(ja)


def test_minkowski_all_zero():
    rep = residual_report(zero_jet())
    assert rep.max_residual() == 0.0


def test_einstein_de_sitter_nullity():
    for t in (0.5, 1.0, 2.0):
        rep = residual_report(eds_jet_arrays(t))
        norms = rep.block_norms()
        assert norms["field1"] < 1e-12
        assert norms["field3"] < 1e-12
        assert norms["bianchi1"] < 1e-12
        assert rep.max_residual() < 1e-12


def test_report_blocks_on_eds():
    t = 1.0
    matter = dataclasses.replace(State.zero().matter, mu=4.0 / 3.0)
    conn = dataclasses.replace(State.zero().connection, Theta=2.0)
    value = State(matter, conn, State.zero().weyl)
    d0 = State(
        dataclasses.replace(State.zero().matter, mu=-8.0 / 3.0),
        dataclasses.replace(State.zero().connection, Theta=-2.0),
        State.zero().weyl,
    )
    jet = StateJet(t, value, (d0, State.zero(), State.zero(), State.zero()))
    rep = residual_report(jet)
    assert abs(rep.e0_theta) < 1e-15
    assert abs(rep.gauss) < 1e-15
    assert np.max(np.abs(rep.e0_sigma)) < 1e-15
    assert np.max(np.abs(rep.e0_a)) == 0.0
    assert rep.jacobi5 == 0.0
    assert abs(rep.e0_mu) < 1e-15
    assert np.max(np.abs(rep.div_H)) == 0.0


def test_incomplete_jet_raises_with_slot_name():
    jet = StateJet(0.0, State.zero(), (State.zero(), State.zero(), None, State.zero()))
    with pytest.raises(ValueError, match="e_2"):
        residual_report(jet)


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
        assert float(rep.e0_theta) == pytest.approx(-float(raychaudhuri), abs=1e-14)
        energy = -(ja.mu + ja.p) * ja.Theta
        assert float(rep.e0_mu) == pytest.approx(-float(energy), abs=1e-14)


def test_residuals_affine_in_derivative_slots():
    """Every equation is affine in the derivative entries: scaling all
    derivatives by lam scales the derivative contribution by lam."""
    rng = np.random.default_rng(4)
    lam = 2.5
    jet = random_jet(rng)
    jA = JetArrays.from_jet(jet)
    j0 = JetArrays.from_jet(StateJet(0.0, jet.value, (State.zero(),) * 4))
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
        rep = residual_report(JetArrays.from_jet(random_jet(rng)))
        tr_sigma = abs(np.trace(rep.e0_sigma))
        tr_E = abs(np.trace(rep.e0_E_pi))
        scale = max(1.0, np.max(np.abs(rep.e0_sigma)), np.max(np.abs(rep.e0_E_pi)))
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
            assert rep.max_residual() < 1e-13, (r, w, rep.block_norms())


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
            assert rep.max_residual() < 1e-14, (phi1, phi2, rep.block_norms())


# ---------------------------------------------------------------------------
# fixed-index kernels against the einsum form, and the report's reductions
# ---------------------------------------------------------------------------

REPORT_FIELDS = list(ResidualReport.BLOCKS)


def random_jet_arrays(rng, *shape):
    ja = DenseJet(shape)
    for name in fe._COMPONENTS:
        arr = getattr(ja, name)
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    return ja


def report_pairs(ja):
    rep = residual_report(ja)
    return zip(REPORT_FIELDS, (getattr(rep, f) for f in REPORT_FIELDS),
               einsum_reference.report_arrays(densified(ja)))


def dense_kernel_report(ja):
    """The report arrays of a dense jet read as component tables with no
    ``ZERO`` entry: the kernels then form every term, zero factors
    included, as a dense evaluation does."""
    sub = fe._Tables(ja.shape, {
        name: fe._Components.build(comp, getattr(ja, name).__getitem__) if comp
        else getattr(ja, name) for name, comp in fe._COMPONENTS.items()})
    return [fe._dense(res, ResidualReport.BLOCKS[name][1], ja.shape)
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
        form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A, sign, B)
        grid, _ = form.clip_grid(Grid(0.0, 1.0, 4999))
        jet, _ = form.jet(grid)
        for name, new, ref in report_pairs(cf.embed_special(jet)):
            assert np.array_equal(new, ref), (A, sign, B, name)


def test_name_views_read_a_general_jet():
    """``value.x`` and ``deriv[a].x`` of a jet built from a ``StateJet``:
    every named variable of every slot, 0.0 where the jet holds nothing."""
    jet = random_jet(np.random.default_rng(31))
    ja = JetArrays.from_jet(jet)
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
    assert ja.value.Lam == jet.value.matter.Lam
    assert ja.value.sigma12 == jet.value.connection.sigma.as_matrix()[0, 1]
    assert ja.deriv[2].E13 == jet.deriv[2].weyl.E.as_matrix()[0, 2]
    assert ja.deriv[3].pi33 == jet.deriv[3].matter.pi.as_matrix()[2, 2]
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
        assert np.max(rowmax[label]) == rep.block_norms()[label]
        # the stored maxima, not a second reduction of the block
        assert rep.block_point_max()[label] is rowmax[label], label
    assert np.array_equal(rep.per_point_max(), np.max(list(rowmax.values()), axis=0))
    assert np.max(rep.per_point_max()) == rep.max_residual()


@pytest.mark.parametrize("shape", [(), (37,), (4, 5)])
def test_stored_maxima_are_the_max_abs_over_components(shape):
    """A single jet, a 1-D and a 2-D batch."""
    rep = residual_report(random_jet_arrays(np.random.default_rng(21), *shape))
    rowmax = rep.block_point_max()
    for label, arr in rep.blocks():
        ref = np.max(np.abs(arr), axis=tuple(range(arr.ndim - len(shape))))
        assert rowmax[label].shape == shape, label
        assert rowmax[label].tobytes() == ref.tobytes(), label


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, entry, block", [
    ("dmu", (0,), "e0_mu"),  # e_0(mu) enters bianchi1 alone
    ("dsigma", (0, 1, 2), "e0_sigma"),  # e_0(sigma) enters field2 alone
])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_non_finite_residual_names_its_block(bad, field, entry, block, shape):
    """In a 1-D and a 2-D batch, at the next-to-last point."""
    ja = random_jet_arrays(np.random.default_rng(6), *shape)
    getattr(ja, field)[entry + tuple(m - 1 for m in shape[:-1]) + (shape[-1] - 2,)] = bad
    with pytest.raises(NonFiniteResidual, match=f"in block {block}$"):
        residual_report(ja)


# numpy writes a result into an operand of 2**15 float64 points or more
# that nothing else refers to (temporary elision)
ELISION_POINTS = 2**15


TABLE_OPS = {
    "T + T^t": lambda T, x: T + T.swapaxes(0, 1),
    "T - x": lambda T, x: T - x,
    "x - T": lambda T, x: x - T,
    "x + T": lambda T, x: x + T,
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
        ref = getattr(flat, name)
        assert getattr(rep, name).reshape(ref.shape).tobytes() == ref.tobytes(), name
    for label, pm in rep.block_point_max().items():
        assert pm.shape == shape, label
        assert pm.tobytes() == flat.block_point_max()[label].tobytes(), label


def test_zero_blocks_report_zero_maxima():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=1, B=1.0)
    ja = cf.embed_special(form.jet(Grid(0.0, 0.5, 3000))[0])
    results = fe._report_arrays(fe._component_tables(ja))
    zero = [name for name, res in zip(REPORT_FIELDS, results) if res is ZERO]
    assert "jacobi5" in zero
    rep = residual_report(ja)
    rowmax = rep.block_point_max()
    for name in zero:
        label = ResidualReport.BLOCKS[name][0]
        assert rowmax[label].shape == ja.shape and not rowmax[label].any(), name
        assert rep.block_norms()[label] == 0.0 and not getattr(rep, name).any(), name
    nonzero = [rowmax[label] for label, _ in rep.blocks() if label not in
               {ResidualReport.BLOCKS[name][0] for name in zero}]
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
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=-1, B=0.5)
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
        tables = fe._component_tables(ja)
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
            assert getattr(rep, name).tobytes() == getattr(ref, name).tobytes(), (tag, name)
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
            assert np.array_equal(getattr(rep, name), ref), (trial, name)
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
            assert np.array_equal(getattr(rep, name), ref), (trial, name)
        for name, new, ref in report_pairs(ja):
            assert np.max(np.abs(new - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), name


def test_zero_scalar_field_is_a_structural_zero():
    ja = random_jet_arrays(np.random.default_rng(4), 10)
    ja.mu[...] = 0.0
    assert fe._component_tables(ja).mu is ZERO
    assert isinstance(ja.mu, np.ndarray)


@pytest.mark.parametrize("case", ["a1", "branch 2"])
def test_non_finite_entry_raises_with_zero_fields(case):
    """An inf in any one of the 316 components, ``ZERO`` ones included,
    still fails the report, although the jet has components that are zero
    throughout (0 * inf is nan).  The exceptions are e_0(p), e_0(udot) and
    e_0(Omega), which enter no equation of the system."""
    if case == "a1":
        form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=1, B=1.0)
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
                    assert residual_report(ja).max_residual() < 1e-10, (name, index)
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
# commutators
# ---------------------------------------------------------------------------


def test_commutator_structure_examples():
    zero = commutator_structure(State.zero().connection)
    assert np.max(np.abs(zero)) == 0.0

    conn = dataclasses.replace(State.zero().connection, Theta=3.0)
    g = commutator_structure(conn)
    assert np.allclose(g[1:, 0, 1:], -np.eye(3))
    g[1:, 0, 1:] = 0.0
    g[1:, 1:, 0] = 0.0
    assert np.max(np.abs(g)) == 0.0

    conn = dataclasses.replace(State.zero().connection, omega=ThreeVector(0.0, 0.0, 1.0))
    g = commutator_structure(conn)
    assert g[0, 1, 2] == -2.0
    assert g[0, 2, 1] == 2.0
    assert g[1, 0, 2] == -1.0  # -eps_123 omega^3 with the fixed orientation

    rng = np.random.default_rng(5)
    from conftest import random_state

    g = commutator_structure(random_state(rng).connection)
    assert np.max(np.abs(g + np.swapaxes(g, 1, 2))) == 0.0


class _RotatingTriadProvider:
    """Flat spacetime, spatial triad rotating about z at rate w.

    e_1 = cos(wt) dx + sin(wt) dy rotates with [e_0, e_1] = +w e_2, which
    pins the triad angular velocity to Omega_3 = -w under eps_123 = +1.
    The probe field is f = x at a fixed spatial point.
    """

    def __init__(self, w):
        self.w = w

    def value(self, t, field):
        return 0.3

    def derivative(self, t, field, a):
        return {1: np.cos(self.w * t), 2: -np.sin(self.w * t)}.get(a, 0.0)

    def second_derivative(self, t, field, a, b):
        if a == 0 and b == 1:
            return -self.w * np.sin(self.w * t)
        if a == 0 and b == 2:
            return -self.w * np.cos(self.w * t)
        return 0.0

    def connection(self, t):
        return dataclasses.replace(
            State.zero().connection, Omega=ThreeVector(0.0, 0.0, -self.w)
        )


def test_commutator_residual_rotating_triad():
    provider = _RotatingTriadProvider(w=0.9)
    for t in (0.0, 0.4, 1.3):
        for pair in ((0, 1), (0, 2), (1, 0), (1, 2)):
            assert abs(commutator_residual(provider, "f", *pair, t)) < 1e-15
    # flipping the documented sign of Omega_3 breaks consistency
    bad = _RotatingTriadProvider(w=0.9)
    bad.connection = lambda t: dataclasses.replace(
        State.zero().connection, Omega=ThreeVector(0.0, 0.0, +0.9)
    )
    assert abs(commutator_residual(bad, "f", 0, 1, 0.4)) > 0.1


class _FlrwGradientProvider:
    """EdS frame e_1 = (1/a) dx probing f = x: [e_0, e_1]f = -(Theta/3) e_1 f."""

    def __init__(self):
        self.a = lambda t: t ** (2.0 / 3.0)
        self.adot = lambda t: (2.0 / 3.0) * t ** (-1.0 / 3.0)

    def value(self, t, field):
        return 0.0

    def derivative(self, t, field, a):
        return 1.0 / self.a(t) if a == 1 else 0.0

    def second_derivative(self, t, field, a, b):
        if a == 0 and b == 1:
            return -self.adot(t) / self.a(t) ** 2
        return 0.0

    def connection(self, t):
        return dataclasses.replace(
            State.zero().connection, Theta=3.0 * self.adot(t) / self.a(t)
        )


def test_commutator_residual_flrw_gradient():
    provider = _FlrwGradientProvider()
    for t in (0.5, 1.0, 2.0):
        assert abs(commutator_residual(provider, "f", 0, 1, t)) < 1e-15
        assert abs(commutator_residual(provider, "f", 1, 0, t)) < 1e-15


def test_commutator_residual_constant_field():
    provider = AnalyticLineProvider(
        {"c": FieldLine(lambda z: 4.0, lambda z: 0.0, lambda z: 0.0)},
        connection=lambda z: dataclasses.replace(
            State.zero().connection, Theta=1.3, a=ThreeVector(0.0, 0.0, 0.5)
        ),
        direction=3,
        F=lambda z: 2.0,
        F_slope=lambda z: 0.0,
    )
    for a in range(4):
        for b in range(4):
            assert commutator_residual(provider, "c", a, b, 0.2) == 0.0


class _TwoAxisFdProvider:
    """f(t, z) sampled on a (t, z) grid of an EdS frame; e_0 = FD_t,
    e_3 = (1/a(t)) FD_z, second derivatives by repeated stencils.

    The exact commutator residual vanishes; the finite-difference one must
    shrink at the stencil order because the t-dependent frame factor does
    not commute with the t stencil.
    """

    def __init__(self, n):
        from f13.numerics import fd_derivative

        self.tg = Grid(0.8, 1.8, n)
        self.zg = Grid(0.2, 1.2, n)
        t = self.tg.points()[:, None]
        z = self.zg.points()[None, :]
        self.a_of_t = self.tg.points() ** (2.0 / 3.0)
        f = np.sin(z) * np.exp(-t)
        ft = fd_derivative(f, self.tg)           # FD along t (axis 0)
        fz = fd_derivative(f.T, self.zg).T       # FD along z (axis 1)
        self._d = {0: ft, 3: fz / self.a_of_t[:, None]}
        e3f = self._d[3]
        e0f = self._d[0]
        self._dd = {
            (0, 3): fd_derivative(e3f, self.tg),
            (3, 0): fd_derivative(e0f.T, self.zg).T / self.a_of_t[:, None],
            (0, 0): fd_derivative(e0f, self.tg),
            (3, 3): fd_derivative(e3f.T, self.zg).T / self.a_of_t[:, None],
        }
        self.f = f

    def _ij(self, point):
        t, z = point
        i = int(round((t - self.tg.z0) / self.tg.h))
        j = int(round((z - self.zg.z0) / self.zg.h))
        return i, j

    def value(self, point, field):
        i, j = self._ij(point)
        return self.f[i, j]

    def derivative(self, point, field, a):
        i, j = self._ij(point)
        return float(self._d[a][i, j]) if a in self._d else 0.0

    def second_derivative(self, point, field, a, b):
        if (a, b) not in self._dd:
            return 0.0
        i, j = self._ij(point)
        return float(self._dd[(a, b)][i, j])

    def connection(self, point):
        t, _ = point
        return dataclasses.replace(
            State.zero().connection, Theta=2.0 / t
        )


def test_commutator_residual_fd_convergence_order():
    errs = []
    for n in (40, 80, 160):
        provider = _TwoAxisFdProvider(n)
        # interior probe point shared by all grids
        t = provider.tg.z0 + 0.5
        z = provider.zg.z0 + 0.5
        errs.append(abs(commutator_residual(provider, "f", 0, 3, (t, z))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    print("fd commutator errors:", errs, "orders:", orders)
    assert errs[-1] < errs[0]
    assert min(orders) > 3.5
