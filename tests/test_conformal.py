"""Conformally flat specialization: reduced systems, ODE cases, closed forms."""

import itertools
import math

import numpy as np
import pytest
from conftest import ELISION_POINTS, PLAN_SHAPES, densified
from hypothesis import given, settings, strategies as st

from f13 import conformal as cf
from f13 import frame_equations as fe
from f13.cli import _perturbed
from f13.frame_equations import ZERO, JetArrays, NonFiniteResidual, ResidualReport, residual_report
from f13.numerics import (Grid, check_frame_factor, cumulative_integral_refined, quadrature,
                          rk4_integrate)
from f13.spinors import ricci_spinor

F1 = cf.ScaleFactor.constant(1.0)


def zero_jet(n=1):
    z = np.zeros(n)
    return cf.SpecialJet.build(z, dict(p=z))


# ---------------------------------------------------------------------------
# reduced curvature and systems
# ---------------------------------------------------------------------------


def test_special_ricci_examples():
    assert cf.special_ricci(0.0, 0.0) == (0.0, 0.0)
    phi00, phi11 = cf.special_ricci(1.0, 1.0)
    assert (phi00, phi11) == (0.5, 1.0)


def test_special_ricci_matches_general_map():
    """The null tetrad Ricci components of the general matter map, in one
    call on a whole A1 closed-form jet, against the ansatz's own relation to
    the pressures and the energy density at every point."""
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=-1, B=1.0)
    jet, fields = form.jet(Grid(-1.0, 1.0, 400))
    r = ricci_spinor(jet.value)
    phi00, phi11 = cf.special_ricci(fields["p"], fields["pi11"])
    assert np.shape(r.phi00) == np.shape(r.phi11) == (401,)
    assert np.all(np.abs(r.phi00 - phi00) <= 1e-15 * np.maximum(1.0, np.abs(phi00)))
    assert np.all(np.abs(r.phi11 - phi11) <= 1e-15 * np.maximum(1.0, np.abs(phi11)))
    assert np.array_equal(r.phi22, r.phi00)
    assert np.all(r.lam_np == 0.0)
    assert np.all(r.phi01 == 0.0) and np.all(r.phi02 == 0.0) and np.all(r.phi12 == 0.0)


def test_bianchi_special_zero_state():
    vec = cf.bianchi_special_residuals(zero_jet())
    assert vec.max_residual() == 0.0
    assert tuple(vec.block_norms()) == cf.B_NAMES
    assert len(cf.B_NAMES) == 17


def test_bianchi_special_b16_entry():
    s = dict(sigma11=0.3, sigma22=0.5)
    vec = cf.bianchi_special_residuals(cf.SpecialJet.build(0.0, s))
    assert vec.block_norms()["b16"] == pytest.approx(0.2, rel=1e-14)
    s = dict(omega3=0.7)
    vec = cf.bianchi_special_residuals(cf.SpecialJet.build(0.0, s))
    assert vec.block_norms()["b15"] == 0.7


def test_gauge_reduce():
    rng = np.random.default_rng(5)
    raw = cf.SpecialJet.build(0.0, dict(
        p=0.4, pi11=-0.3, Theta=1.0, sigma11=0.2, udot3=0.5,
        a1=rng.uniform(), a2=rng.uniform(), a3=rng.uniform(),
        n11=0.1, n13=0.9, n23=-0.4, Omega3=0.2,
        omega1=0.3, omega2=-0.2, omega3=0.1,
        sigma13=0.6, sigma23=-0.5, Omega1=0.7, Omega2=-0.8,
        udot1=0.25, udot2=-0.15,
    ))
    red = cf.gauge_reduce(raw)
    assert red.value.n23 == red.value.a1 and red.value.n13 == -red.value.a2
    assert cf.is_gauge_reduced(red)
    assert not cf.is_gauge_reduced(raw)
    # already reduced input passes through unchanged
    again = cf.gauge_reduce(red)
    assert all(np.array_equal(getattr(again.value, name), getattr(red.value, name))
               for name in cf.SPECIAL_NAMES)
    # (b9)-(b14) vanish identically on reduced states
    vec = cf.bianchi_special_residuals(red)
    for name in ("b9", "b10", "b11", "b12", "b13", "b14"):
        assert vec.block_norms()[name] == 0.0


def test_ricci_einstein_requires_reduction():
    s = dict(sigma13=0.1)
    with pytest.raises(ValueError, match="gauge-reduced"):
        cf.ricci_einstein_residuals(cf.SpecialJet.build(0.0, s))


def test_ricci_einstein_zero_jet():
    vec = cf.ricci_einstein_residuals(zero_jet())
    assert vec.max_residual() == 0.0
    assert tuple(vec.block_norms()) == cf.RE_NAMES
    assert len(cf.RE_NAMES) == 18


# the variables (b15)-(b17) pin: left at their ansatz values
_PINNED = ("omega3", "n33", "n12", "sigma12", "sigma22", "sigma33", "n22")


def random_special_jet(rng, n, reduced=False):
    """A random special jet of n points that holds (b15)-(b17) in every
    slot.  ``reduced``: gauge-reduced in every slot, not only in its value,
    and with the e_1 and e_2 derivatives of udot3, a3, sigma11 and Theta
    zero, so that (RE11)-(RE14) hold too."""
    free = [name for name in cf.SPECIAL_NAMES if name not in _PINNED
            and not (reduced and name in cf._GAUGE_ZEROED)]
    slots = []
    for slot in range(5):
        values = {name: rng.uniform(-1.0, 1.0, n) for name in free}
        if reduced:
            values.update(n23=values["a1"], n13=-values["a2"])
            if slot in (2, 3):
                for name in ("udot3", "a3", "sigma11", "Theta"):
                    del values[name]
        slots.append(values)
    return cf.SpecialJet.build(np.zeros(n), *slots)


# Every projectable reduced entry as its combination of general residual
# components: [(coefficient, block label, component index), ...].  The
# special Bianchi entries hold on jets that hold (b15)-(b17)
# (random_special_jet), the RE entries on jets that are gauge-reduced in
# every slot and hold (RE11)-(RE14) (random_special_jet(reduced=True)).
# b15-b17, RE11-RE14 and the ansatz checks are the reduction's own content.
PROJECTIONS = {
    "b1": [(1 / 3, "bianchi1", ())],
    "b2": [(1 / 3, "bianchi3", (0, 0)), (1 / 3, "bianchi3", (1, 1)),
           (-2 / 3, "bianchi3", (2, 2))],
    "b3": [(-1 / 3, "bianchi4", (1, 2)), (-1 / 3, "bianchi4", (2, 1)), (-1, "bianchi5", (0,))],
    "b4": [(-2 / 3, "bianchi4", (1, 2)), (-2 / 3, "bianchi4", (2, 1))],
    "b5": [(1 / 3, "bianchi4", (0, 2)), (1 / 3, "bianchi4", (2, 0)), (-1, "bianchi5", (1,))],
    "b6": [(2 / 3, "bianchi4", (0, 2)), (2 / 3, "bianchi4", (2, 0))],
    "b7": [(1 / 3, "bianchi2", (2,)), (-2 / 3, "bianchi5", (2,))],
    "b8": [(-1 / 3, "bianchi2", (2,)), (-1 / 3, "bianchi5", (2,))],
    "b9": [(1, "bianchi2", (0,)), (1, "bianchi4", (1, 2)), (1, "bianchi4", (2, 1)),
           (1, "bianchi5", (0,))],
    "b10": [(1, "bianchi2", (1,)), (-1, "bianchi4", (0, 2)), (-1, "bianchi4", (2, 0)),
            (1, "bianchi5", (1,))],
    "b11": [(-1 / 2, "bianchi3", (0, 2)), (-1 / 2, "bianchi3", (2, 0))],
    "b12": [(-1 / 2, "bianchi3", (1, 2)), (-1 / 2, "bianchi3", (2, 1))],
    "b13": [(1, "divH", (0,))],
    "b14": [(1, "divH", (1,))],
    "RE1": [(1 / 2, "field4", (2,)), (1, "jacobi1", (2,))],
    "RE2": [(-1 / 2, "field3", ())],
    "RE3": [(-1 / 6, "field2", (0, 0)), (-1 / 6, "field2", (1, 1)), (1 / 3, "field2", (2, 2)),
            (-1 / 3, "field3", ())],
    "RE4": [(-1 / 2, "field4", (2,))],
    "RE5": [(1 / 2, "jacobi2", (0, 0)), (1 / 2, "jacobi2", (1, 1))],
    "RE6": [(1, "field1", ())],
    "RE7": [(-1 / 3, "field2", (1, 2)), (-1 / 3, "field2", (2, 1)), (2 / 3, "jacobi4", (0,))],
    "RE8": [(1 / 3, "field2", (0, 2)), (1 / 3, "field2", (2, 0)), (2 / 3, "jacobi4", (1,))],
    "RE9": [(1 / 3, "jacobi1", (0,)), (1 / 3, "jacobi2", (1, 2)), (1 / 3, "jacobi2", (2, 1))],
    "RE10": [(1 / 3, "jacobi1", (1,)), (-1 / 3, "jacobi2", (0, 2)),
             (-1 / 3, "jacobi2", (2, 0))],
}


def assert_projections(reduced: ResidualReport, general: ResidualReport, names):
    """Each named reduced entry equals its combination of general residuals."""
    for name in names:
        combination = sum(c * general.block(label)[index]
                          for c, label, index in PROJECTIONS[name])
        err = np.max(np.abs(reduced.block(name) - combination))
        assert err <= 1e-14 * np.max(np.abs(combination)), (name, err)


def test_special_bianchi_entries_are_projections_of_the_general_system():
    jet = random_special_jet(np.random.default_rng(41), 4000)
    assert_projections(cf.bianchi_special_residuals(jet), residual_report(cf.embed_special(jet)),
                       cf.B_NAMES[:14])


def ricci_einstein_and_general(seed):
    jet = random_special_jet(np.random.default_rng(seed), 4000, reduced=True)
    reduced = cf.ricci_einstein_residuals(jet)
    assert not any(reduced.block(name).any() for name in cf.RE_NAMES[10:])  # RE11-RE14
    return reduced, residual_report(cf.embed_special(jet))


def test_ricci_einstein_entries_are_projections_of_the_general_system():
    assert_projections(*ricci_einstein_and_general(43),
                       [name for name in cf.RE_NAMES[:10] if name != "RE8"])


def test_re8_is_a_projection_of_the_general_system():
    """RE8 reads 2 e3(a1) + e2(n11); e2(n11) is nonzero on these jets."""
    reduced, general = ricci_einstein_and_general(47)
    assert reduced.block_norms()["RE8"] > 0.1
    assert_projections(reduced, general, ["RE8"])


def test_re8_without_an_e2_slot_keeps_the_bytes_of_2_e3_a1_minus_e2_n11():
    """With no e2(n11) entry (every table, solve and verify jet), RE8 gives
    the bits of the form it replaced, 2 e3(a1) - e2(n11), signed zeros
    included."""
    rng = np.random.default_rng(53)
    n = 2000
    value, e3 = ({name: np.where(rng.random(n) < 0.3, rng.choice([0.0, -0.0], n),
                                 rng.uniform(-1.0, 1.0, n))
                  for name in ("a1", "a2", "a3", "n11")} for _ in range(2))
    value.update(n23=value["a1"], n13=-value["a2"])
    jet = cf.SpecialJet.build(np.zeros(n), value, e3=e3)
    s, e2 = jet.value, jet.deriv[2]
    old = ((2.0 * np.asarray(jet.deriv[3].a1) - e2.n11)
           - (2.0 * s.a2 * s.n11 + 2.0 * s.a3 * s.a1))
    assert (np.signbit(old) & (old == 0.0)).any()  # -0.0 cells
    assert cf.ricci_einstein_residuals(jet).block("RE8").tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# the planned reduced systems
# ---------------------------------------------------------------------------

REDUCED = {"bianchi": cf.bianchi_special_residuals, "ricci-einstein": cf.ricci_einstein_residuals}
REDUCED_KERNELS = (cf._special_bianchi, cf._ricci_einstein)


@st.composite
def reduced_jets(draw):
    """A special jet holding a random subset of the variables in each slot:
    each a fresh random array with some zeros of either sign, the array of
    an earlier variable, or all +0.0 or all -0.0; sometimes gauge-reduced
    in its value (the gauge variables absent or zero, n23 the array of a1
    and n13 = -a2), and sometimes one array holds a nan or an inf."""
    shape = draw(st.sampled_from(PLAN_SHAPES))
    big = math.prod(shape) >= ELISION_POINTS
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []

    def entry():
        kind = draw(st.sampled_from(("fresh", "zeros", "-zeros", "shared")[:4 if arrays else 3]))
        if kind == "shared":
            return arrays[draw(st.integers(0, len(arrays) - 1))]
        if kind == "fresh":
            x = np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], shape),
                         rng.uniform(-1.0, 1.0, shape))
        else:
            x = np.full(shape, 0.0 if kind == "zeros" else -0.0)
        arrays.append(x)
        return x

    slots = [{name: entry() for name in draw(st.lists(
        st.sampled_from(cf.SPECIAL_NAMES), unique=True, max_size=4 if big else 20))}
        for _ in range(5)]
    if draw(st.booleans()):
        value = slots[0]
        for name in cf._GAUGE_ZEROED + ("n23", "n13"):
            if value.pop(name, None) is not None and draw(st.booleans()):
                value[name] = np.full(shape, draw(st.sampled_from((0.0, -0.0))))
        if "a1" in value:
            value["n23"] = value["a1"]
        if "a2" in value:
            value["n13"] = -value["a2"]
    bad = draw(st.sampled_from((None, None, None, np.nan, np.inf, -np.inf)))
    if bad is not None and arrays:
        arrays[draw(st.integers(0, len(arrays) - 1))].flat[rng.integers(math.prod(shape))] = bad
    return cf.SpecialJet(None, shape, JetArrays.build(shape, *slots).entries)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(reduced_jets())
def test_planned_reduced_systems_equal_the_kernels_on_the_jet(jet):
    """Every norm and worst entry, and every entry up to the sign of its
    zeros, bit for bit, whether the plan's components come from a scan of
    the kernel's own or from one scan of the whole jet; a non-finite jet
    fails all, naming the same entry."""
    scan = fe.scan_jet(jet)
    for name, system in REDUCED.items():
        if system is cf.ricci_einstein_residuals and not cf.is_gauge_reduced(jet):
            continue
        with np.errstate(all="ignore"):
            try:
                ref = system(jet, signed_zeros=True)
            except NonFiniteResidual as exc:
                for given_scan in (None, scan):
                    with pytest.raises(NonFiniteResidual, match=f"^{exc}$"):
                        system(jet, scan=given_scan)
                continue
            reports = [system(jet), system(jet, scan=scan)]
        for rep in reports:
            assert rep.block_norms() == ref.block_norms(), name
            assert rep.block_worst() == ref.block_worst(), name
            for label, block in ref.blocks():
                assert (np.abs(rep.block(label)).tobytes()
                        == np.abs(block).tobytes()), (name, label)


def gauge_reduced_jet(n, *names, e3=("sigma11",)):
    rng = np.random.default_rng(n)
    return cf.SpecialJet.build(np.zeros(n), {name: rng.uniform(-1.0, 1.0, n) for name in names},
                               e3={name: rng.uniform(-1.0, 1.0, n) for name in e3})


def test_reduced_plans_are_traced_once_per_pattern():
    """A jet of a known pattern, on another batch shape and other values,
    replays its plan, as does one that adds only a component the kernel
    does not read; a new pattern of read components is traced; each
    kernel keeps at most ``PLAN_CACHE`` plans."""
    def misses():
        return [kernel.plan.cache_info().misses for kernel in REDUCED_KERNELS]

    def reports(jet):
        for system in REDUCED.values():
            system(jet)

    for kernel in REDUCED_KERNELS:
        kernel.plan.cache_clear()
    reports(gauge_reduced_jet(5, "p", "Theta", "sigma11"))
    assert misses() == [1, 1]
    reports(gauge_reduced_jet(7, "p", "Theta", "sigma11"))
    assert misses() == [1, 1]
    # neither system reads e_1(mu)
    jet = gauge_reduced_jet(7, "p", "Theta", "sigma11")
    assert ("dmu", (1,)) not in cf._special_bianchi.keys_read | cf._ricci_einstein.keys_read
    reports(cf.SpecialJet(None, jet.shape, jet.entries | {("dmu", (1,)): np.ones(7)}))
    assert misses() == [1, 1]
    reports(gauge_reduced_jet(7, "p", "Theta", "sigma11", "a3"))
    assert misses() == [2, 2]
    one = np.ones(())
    for kernel in REDUCED_KERNELS:
        pairs = itertools.combinations(sorted(kernel.keys_read), 2)
        for pair in itertools.islice(pairs, fe.PLAN_CACHE + 4):
            kernel(JetArrays((), dict.fromkeys(pair, one)))
        info = kernel.plan.cache_info()
        assert info.maxsize == fe.PLAN_CACHE and info.currsize == fe.PLAN_CACHE


def test_non_finite_reduced_reports_leave_the_plans_as_they_are():
    """A jet with a non-finite component that a kernel reads is evaluated
    by the kernel itself: it traces no plan and evicts none.  One that a
    kernel does not read leaves its entries as they were."""
    jet = gauge_reduced_jet(60, "p", "pi11", "Theta", "sigma11", "a3", "udot3",
                            e3=("p", "pi11", "sigma11", "a3"))
    reports = [system(jet) for system in REDUCED.values()]

    def plans():
        return [(info.currsize, info.misses)
                for info in (kernel.plan.cache_info() for kernel in REDUCED_KERNELS)]

    before = plans()
    for key in (("Theta", ()), ("sigma", (0, 0)), ("dpi", (3, 0, 0)), ("dsigma", (3, 0, 0))):
        bad = np.array(jet.entries[key])
        bad[7] = np.inf
        bad_jet = cf.SpecialJet(None, jet.shape, jet.entries | {key: bad})
        for kernel, system, rep in zip(REDUCED_KERNELS, REDUCED.values(), reports, strict=True):
            if key not in kernel.keys_read:
                assert system(bad_jet).block_norms() == rep.block_norms(), key
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteResidual):
                    system(bad_jet)
    assert plans() == before


# ---------------------------------------------------------------------------
# case A1
# ---------------------------------------------------------------------------


def test_case_a1_closure_examples():
    assert cf.case_a1_closure(0.0, 0.0) == (0.0, 0.0, 0.0)
    s0 = 0.1
    a30 = s0 * np.sqrt(1.0 * s0**2 + 9.0)
    pi11, p, udot3 = cf.case_a1_closure(s0, a30)
    assert pi11 == pytest.approx(-1.3333e-4, rel=1e-4)
    assert p == pytest.approx(3.3333e-5, rel=1e-4)
    assert udot3 == -a30
    assert pi11 + 4.0 * p == 0.0


def test_case_a1_closure_identity_exact():
    rng = np.random.default_rng(77)
    for _ in range(200):
        pi11, p, _ = cf.case_a1_closure(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert pi11 + 4.0 * p == 0.0


def test_trajectory_jet_values():
    st = cf.a1_trajectory_jet(0.0, 0.2, 0.5, 1.5).value
    assert st.pi11 + 4.0 * st.p == 0.0
    assert st.udot3 == -0.5
    assert st.Theta == 6.0 * 0.2
    assert st.a1 == 0.0 and st.a2 == 0.0 and st.n11 == 0.0
    st2 = cf.a2_trajectory_jet(0.0, 0.3, 0.4, 0.6, 0.0).value
    assert st2.pi11 == cf.case_a2_pi11(0.3, 0.4, 0.6)
    assert st2.sigma11 == 0.0 and st2.Theta == 0.0


def test_trajectory_jets_take_e3_from_the_rhs():
    """The e_3 entries of the free fields are case_a*_rhs on the arrays, and
    the map gives the same bits on floats as on arrays."""
    rng = np.random.default_rng(11)
    s11, a3, om3, p, u3 = rng.uniform(-2.0, 2.0, (5, 300))
    e3 = cf.a1_trajectory_jet(np.zeros(300), s11, a3, om3).deriv[3]
    rhs = cf.case_a1_rhs(s11, a3, om3)
    for name, expected in zip(("sigma11", "a3", "Omega3"), rhs):
        assert np.array_equal(getattr(e3, name), expected), name
    e3 = cf.a2_trajectory_jet(np.zeros(300), p, u3, a3, om3).deriv[3]
    rhs2 = cf.case_a2_rhs(p, u3, a3, om3)
    for name, expected in zip(("p", "udot3", "a3", "Omega3"), rhs2):
        assert np.array_equal(getattr(e3, name), expected), name
    for i in range(0, 300, 37):
        assert cf.case_a1_rhs(float(s11[i]), float(a3[i]), float(om3[i])) == tuple(
            float(r[i]) for r in rhs)
        assert cf.case_a2_rhs(float(p[i]), float(u3[i]), float(a3[i]), float(om3[i])) == tuple(
            float(r[i]) for r in rhs2)


def a2_rhs_terms(p, u3, a3, Om3):
    """case_a2_rhs with every term written out in full."""
    return (
        -u3 * p - u3 * a3 * a3 / 3.0 + 2.0 * a3 * u3 * u3 / 3.0,
        3.0 * p - u3 * u3 + 2.0 * a3 * u3,
        1.5 * p + 1.5 * a3 * a3,
        -u3 * Om3,
    )


def test_case_a2_rhs_has_the_bits_of_its_terms_written_out():
    """Forming 2 a3 udot3 and -udot3 once leaves every bit as it is, on
    arrays and on floats, signed zeros, overflow and NaN included, and
    floats and arrays agree.  On floats the sign of a NaN is left out: the
    product of two NaNs takes the sign of one of them, and which one
    changes when CPython's specialising interpreter warms a function up."""
    rng = np.random.default_rng(23)
    cols = rng.uniform(-3.0, 3.0, (4, 400))
    hit = rng.random(cols.shape) < 0.3
    cols[hit] = rng.choice([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan, 1e-320],
                           hit.sum())
    with np.errstate(all="ignore"):
        got = np.array(cf.case_a2_rhs(*cols))
        want = np.array(a2_rhs_terms(*cols))
    assert got.tobytes() == want.tobytes()
    points = [[float(x) for x in point] for point in cols.T]
    got_f = np.array([cf.case_a2_rhs(*point) for point in points]).T
    want_f = np.array([a2_rhs_terms(*point) for point in points]).T
    unsigned_nan = lambda a: np.where(np.isnan(a), np.nan, a).tobytes()
    assert unsigned_nan(got_f) == unsigned_nan(want_f) == unsigned_nan(got)


def test_case_a1_rhs_examples():
    assert np.array_equal(cf.case_a1_rhs(0.0, 0.0, 0.0), np.zeros(3))
    dy = cf.case_a1_rhs(0.1, 0.3, 1.0)
    assert dy == pytest.approx([0.03, -0.09 + 0.18, 0.3], rel=1e-15)
    dy = cf.case_a1_rhs(0.0, 1.0, 0.0)
    assert dy[1] == 2.0
    bad = cf.ScaleFactor(lambda z: -1.0)
    with pytest.raises(ValueError, match="positive"):
        rk4_integrate(cf.case_a1_rhs, np.zeros(3), Grid(0.0, 1.0, 4), bad)


def test_first_integral_inversion_and_errors():
    s0 = 0.1
    for A in (1.0, -2.0, 7.5):
        a3 = s0 * np.sqrt(A * s0**2 + 9.0)
        assert cf.case_a1_first_integral(s0, a3) == pytest.approx(A, rel=1e-10)
    assert abs(cf.case_a1_first_integral(0.4, 3 * 0.4)) < 1e-12
    with pytest.raises(ValueError):
        cf.case_a1_first_integral(0.0, 1.0)


def test_first_integral_ode_reduction_oracle():
    """w = A sigma^4 + 9 sigma^2 solves dw/dsigma = 4w/sigma - 18 sigma,
    the reduction of the (sigma11, a3) subsystem."""
    rng = np.random.default_rng(40)
    for _ in range(50):
        A = rng.uniform(-5.0, 5.0)
        s = rng.uniform(0.05, 2.0)
        w = A * s**4 + 9.0 * s**2
        dw = 4.0 * A * s**3 + 18.0 * s
        assert dw == pytest.approx(4.0 * w / s - 18.0 * s, rel=1e-12)


def test_first_integral_conserved_along_rk4_flow():
    s0, A = 0.1, 1.0
    a30 = s0 * np.sqrt(A * s0**2 + 9.0)
    traj = rk4_integrate(cf.case_a1_rhs, [s0, a30, 1.0], Grid(0.0, 1.0, 1000), F1)
    vals = cf.case_a1_first_integral(traj.column(0), traj.column(1))
    assert np.max(np.abs(vals - A)) < 1e-8


def test_case_a1_parameterizations_agree():
    """Choosing sigma11(z) and deriving F must agree with choosing that F
    and integrating the ODE system from matching initial data."""
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=0.0, sign=1, B=1.0)
    grid = Grid(0.0, 1.0, 1000)
    f = form.evaluate(grid)
    F = cf.ScaleFactor(lambda z: 3.0 * np.exp(z))
    traj = rk4_integrate(cf.case_a1_rhs,
                         [f["sigma11"][0], f["a3"][0], f["Omega3"][0]], grid, F)
    assert np.max(np.abs(traj.column(0) - f["sigma11"])) < 1e-8
    assert np.max(np.abs(traj.column(1) - f["a3"])) < 1e-8
    assert np.max(np.abs(traj.column(2) - f["Omega3"])) < 1e-8


def test_case_a1_forbids_perfect_fluid():
    """pi11 = 0 forces p = 0 through pi11 + 4p = 0: no perfect-fluid case."""
    s = 0.4
    a3 = 3.0 * s  # makes 12 sigma^2 = (4/3) a3^2
    pi11, p, _ = cf.case_a1_closure(s, a3)
    assert abs(pi11) < 1e-15
    assert abs(p) < 1e-16
    rng = np.random.default_rng(91)
    for _ in range(50):
        pi11, p, _ = cf.case_a1_closure(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if pi11 == 0.0:
            assert p == 0.0


def test_closed_form_exp_profile():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=0.0, sign=1, B=0.0)
    grid = Grid(0.0, 1.0, 100)
    f = form.evaluate(grid)
    zs = grid.points()
    assert np.allclose(f["a3"], 3.0 * np.exp(zs), rtol=1e-14)
    assert np.allclose(f["F"], 3.0 * np.exp(zs), rtol=1e-14)
    assert np.max(np.abs(f["Omega3"])) == 0.0
    assert not f["orientation_flipped"]


def test_closed_form_omega3_quadrature_vs_log_identity():
    # for sigma11 = e^z the integral of a3/F is z, so Omega3 = B e^z exactly
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=1, B=2.0)
    grid = Grid(0.0, 1.0, 200)
    f = form.evaluate(grid)
    assert np.max(np.abs(f["Omega3"] - 2.0 * np.exp(grid.points()))) < 1e-9


def test_closed_form_negative_radicand():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=-5.0, sign=1, B=0.0)
    grid = Grid(0.0, 1.0, 500)
    with pytest.raises(ValueError, match="radicand"):
        form.evaluate(grid)
    clipped, note = form.clip_grid(grid)
    assert note is not None
    # boundary where 9 - 5 e^{2z} = 0 is z* = ln(9/5)/2, minus the margin
    zstar = 0.5 * np.log(9.0 / 5.0)
    assert clipped.z1 < zstar
    assert clipped.z1 == pytest.approx(zstar - 1e-3, abs=1e-6)
    form.evaluate(clipped)  # now valid


def test_closed_form_flat_profile_rejected():
    prof = cf.ScalarProfile(value=np.cos, slope=lambda z: -np.sin(z))
    form = cf.CaseA1ClosedForm(prof, A=0.0, sign=1, B=0.0)
    with pytest.raises(ValueError, match="slope|nonconstant"):
        form.evaluate(Grid(-0.5, 0.5, 100))  # slope vanishes at z = 0
    clipped, note = form.clip_grid(Grid(-0.5, 0.5, 100))
    assert note is not None and clipped.z1 < 0.0


def test_closed_form_negative_sign_flags_orientation():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=0.0, sign=-1, B=0.0)
    f = form.evaluate(Grid(0.0, 1.0, 100))
    assert f["orientation_flipped"]
    assert np.all(f["F"] < 0.0)


def test_closed_form_feeds_rhs_consistently():
    # points of the family satisfy the ODE system: residuals at closure level
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=1, B=1.0)
    grid = Grid(0.0, 1.0, 200)
    f = form.evaluate(grid)
    e3_sigma = f["F"] * f["d_sigma11"]
    e3_a3 = f["F"] * f["d_a3"]
    assert np.max(np.abs(e3_sigma - f["a3"] * f["sigma11"])) < 1e-10
    assert np.max(np.abs(e3_a3 - (-9.0 * f["sigma11"]**2 + 2.0 * f["a3"]**2))) < 1e-10


# ---------------------------------------------------------------------------
# shearless branch and case A2
# ---------------------------------------------------------------------------


def test_branch_fields_values_and_pole():
    # a3 = 1/(C - 2z) through z = 0, on a grid starting left of it at
    # z0 = -0.25 where the denominator is C + 0.5
    f = cf.shearless_branch_fields(F1, 1.5, 0.0, Grid(-0.25, 0.25, 200))
    assert f.a3[0] == 1.0 / 1.5
    assert f.a3[100] == pytest.approx(1.0, rel=1e-12)
    assert f.a3[-1] == pytest.approx(2.0, rel=1e-12)
    f2 = cf.a2_branch2_fields(F1, 1.3, 0.0, Grid(-0.2, 0.2, 200))
    assert f2.a3[0] == pytest.approx(1.0 / 1.3, rel=1e-12)
    assert f2.a3[-1] == pytest.approx(1.0 / 0.7, rel=1e-12)
    # blow-up where the denominator vanishes: z = 1/2 and z = 2/3
    for fields, z_pole in ((cf.shearless_branch_fields(F1, 1.0, 0.0, Grid(0.0, 0.6, 120)), 0.5),
                           (cf.a2_branch2_fields(F1, 1.0, 0.0, Grid(0.0, 0.8, 160)), 2.0 / 3.0)):
        assert "sign change near z=" in fields.note
        assert fields.grid.z1 == pytest.approx(z_pole - cf.POLE_MARGIN, abs=1e-9)
        assert np.all(np.isfinite(fields.a3))


def two_evaluation_branch_fields(F, family, const, B, grid):
    """The branch fields with F evaluated once more on the fine grid for the
    Omega3 integrand: the reference for reusing the values of the last
    evaluation of the denominator's integrand."""
    def den(g):
        def integrand(z):
            Fz = np.asarray(F(z), dtype=float)
            check_frame_factor([z], [Fz])
            return -family.slope / Fz

        fine, vals, stride = cumulative_integral_refined(integrand, g)
        return fine, vals + const, stride

    fine, den_fine, stride = den(grid)
    clipped, note = cf._clip_at_sign_change(grid, fine, den_fine)
    if note is not None:
        fine, den_fine, stride = den(clipped)
    a3_fine = 1.0 / den_fine
    omega_integrand = -family.udot3(a3_fine) / np.asarray(F(fine.points()), dtype=float)
    Omega3_fine = B * np.exp(quadrature(omega_integrand, fine))
    sl = slice(None, None, stride)
    a3, den = a3_fine[sl], den_fine[sl]
    p = family.p(a3)
    return cf.BranchFields(family=family, grid=clipped, z=fine.points()[sl], a3=a3, den=den,
                           udot3=family.udot3(a3), p=p, pi11=-4.0 * p, Omega3=Omega3_fine[sl],
                           e3_a3=family.slope / (den * den), note=note)


@pytest.mark.parametrize("family, const, B, z1", [
    (cf.SHEARLESS, 1.0, 1.0, 0.4),      # unclipped
    (cf.SHEARLESS, 1.0, 0.5, 0.9),      # clipped ahead of the pole at z = 1/2
    (cf.A2_BRANCH2, -1.5, 1.2, 1.0),    # unclipped
    (cf.A2_BRANCH2, 1.0, 0.7, 0.9),     # clipped ahead of the pole at z = 2/3
])
@pytest.mark.parametrize("frame", ["constant", "table"])
def test_branch_fields_reuse_the_fine_grid_values_of_F(family, const, B, z1, frame):
    """The branch fields, byte for byte, of the reference that evaluates F
    once more on the fine grid, with one call of F fewer per denominator."""
    zs = np.linspace(0.0, 1.0, 21)
    F = (cf.ScaleFactor.constant(0.9) if frame == "constant"
         else cf.ScaleFactor.from_table(zs, 1.0 + 0.1 * np.sin(3.0 * zs)))
    calls = []
    counted = cf.ScaleFactor(lambda z: calls.append(1) or F(z))
    grid = Grid(0.0, z1, 150)
    got = cf._branch_fields(counted, family, const, B, grid)
    n_got = len(calls)
    calls.clear()
    ref = two_evaluation_branch_fields(counted, family, const, B, grid)
    assert (got.note is None) == (z1 in (0.4, 1.0))
    assert got.grid == ref.grid and got.note == ref.note and got.family is ref.family
    for name in ("z", "a3", "den", "udot3", "p", "pi11", "Omega3", "e3_a3"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert n_got == len(calls) - 1


def test_scale_factor_from_table():
    zs = np.linspace(0.0, 1.0, 201)
    F = cf.ScaleFactor.from_table(zs, 1.0 + zs * zs / 4.0)
    probe = np.array([0.1037, 0.55, 0.925])
    assert np.max(np.abs(F(probe) - (1.0 + probe**2 / 4.0))) < 1e-9
    with pytest.raises(ValueError, match="positive"):
        cf.ScaleFactor.from_table(zs, zs - 0.5)
    # tabulated frame factor drives the ODE integration at full order
    Fexact = cf.ScaleFactor(lambda z: 1.0 + np.asarray(z)**2 / 4.0)
    grid = Grid(0.0, 1.0, 400)
    t1 = rk4_integrate(cf.case_a1_rhs, [0.1, 0.3, 1.0], grid, F)
    t2 = rk4_integrate(cf.case_a1_rhs, [0.1, 0.3, 1.0], grid, Fexact)
    assert np.max(np.abs(t1.states - t2.states)) < 1e-9


def test_shearless_branch_satisfies_ode():
    grid = Grid(0.0, 0.4, 400)
    f = cf.shearless_branch_fields(F1, 1.0, 1.0, grid)
    exact = 1.0 / (1.0 - 2.0 * f.z)
    assert np.max(np.abs(f.a3 - exact)) < 1e-10
    # analytic-derivative residual of e3(a3) = 2 a3^2
    assert np.max(np.abs(f.e3_a3 - 2.0 * f.a3**2)) < 1e-12
    assert f.note is None


def test_case_a2_rhs_and_pi11():
    dy = cf.case_a2_rhs(0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(dy, np.zeros(4)) and cf.case_a2_pi11(0.0, 0.0, 0.0) == 0.0
    assert cf.case_a2_pi11(1.0, 0.5, 2.0) == 0.5 - 2.0 + 1.0
    with pytest.raises(ValueError, match="positive"):
        rk4_integrate(cf.case_a2_rhs, np.zeros(4), Grid(0.0, 1.0, 4),
                      cf.ScaleFactor(lambda z: 0.0))


def test_case_a2_dust_reduction_a3_zero():
    """a3 = 0 forces p = pi11 = 0 and leaves only the udot3 equation."""
    u30 = 0.8
    grid = Grid(0.0, 0.5, 500)
    traj = rk4_integrate(cf.case_a2_rhs, [0.0, u30, 0.0, 1.0], grid, F1)
    p, u3, a3 = traj.column(0), traj.column(1), traj.column(2)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(a3)) == 0.0
    assert np.max(np.abs(cf.case_a2_pi11(p, u3, a3))) == 0.0
    # du3/dz = -u3^2 has solution 1/(z + 1/u30)
    exact = 1.0 / (grid.points() + 1.0 / u30)
    assert np.max(np.abs(u3 - exact)) < 1e-9


def test_case_a2_zero_acceleration_reduction():
    """udot3 = 0 forces p = 0; only the a3 equation survives."""
    a30 = 0.6
    grid = Grid(0.0, 0.5, 500)
    traj = rk4_integrate(cf.case_a2_rhs, [0.0, 0.0, a30, 0.0], grid, F1)
    p, u3, a3 = traj.column(0), traj.column(1), traj.column(2)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(u3)) == 0.0
    exact = 1.0 / (1.0 / a30 - 1.5 * grid.points())
    assert np.max(np.abs(a3 - exact)) < 1e-9


def test_case_a2_branches():
    grid = Grid(0.0, 0.4, 400)
    # branch 1 is the shearless family; the slope of each branch is its
    # record's
    assert cf.shearless_branch_fields(F1, 1.0, 0.0, grid).family is cf.SHEARLESS
    assert (cf.SHEARLESS.slope, cf.A2_BRANCH2.slope) == (2.0, 1.5)
    # branch 2: a3 = 1/(1 - 3z/2) for F = 1, D = 1
    a = cf.a2_branch2_fields(F1, 1.0, 0.0, Grid(0.0, 0.2, 200)).a3[-1]
    assert a == pytest.approx(1.0 / 0.7, rel=1e-12)
    f2 = cf.a2_branch2_fields(F1, 1.0, 0.0, grid)
    assert f2.family is cf.A2_BRANCH2
    assert np.max(np.abs(f2.a3 - 1.0 / (1.0 - 1.5 * f2.z))) < 1e-10
    assert np.max(np.abs(f2.e3_a3 - 1.5 * f2.a3**2)) < 1e-12
    # p vanishes identically on branch 2, and equals a3^2/3 on branch 1
    assert np.max(np.abs(f2.p)) == 0.0
    f1 = cf.shearless_branch_fields(F1, 1.0, 0.0, grid)
    assert np.allclose(f1.p, f1.a3**2 / 3.0, rtol=1e-14)


def test_branch_clipping_reports_pole():
    f = cf.shearless_branch_fields(F1, 1.0, 0.0, Grid(0.0, 0.9, 200))
    assert f.note is not None and "sign change" in f.note
    assert f.grid.z1 < 0.5


# ---------------------------------------------------------------------------
# embeddings: the master cross-check machinery
# ---------------------------------------------------------------------------


def test_a1_trajectory_embedding_zeroes_all_systems():
    rng = np.random.default_rng(2024)
    n = 40
    jet = cf.a1_trajectory_jet(
        np.zeros(n), rng.uniform(-1.5, 1.5, n), rng.uniform(-2.0, 2.0, n),
        rng.uniform(-1.0, 1.0, n),
    )
    assert cf.bianchi_special_residuals(jet).max_residual() < 1e-12
    assert cf.ricci_einstein_residuals(jet).max_residual() < 1e-12
    assert residual_report(cf.embed_special(jet)).max_residual() < 1e-12


def test_a2_trajectory_embedding_zeroes_all_systems():
    rng = np.random.default_rng(2025)
    n = 40
    jet = cf.a2_trajectory_jet(
        np.zeros(n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.5, 1.5, n),
        rng.uniform(-1.5, 1.5, n), rng.uniform(-1.0, 1.0, n),
    )
    assert cf.bianchi_special_residuals(jet).max_residual() < 1e-12
    assert cf.ricci_einstein_residuals(jet).max_residual() < 1e-12
    assert residual_report(cf.embed_special(jet)).max_residual() < 1e-12


def stacked_embedding(jet):
    """The embedding as batch-first arrays built by stacking broadcast
    components, the way ``embed_special`` built it before ``JetArrays``
    became component-major."""
    fields = [getattr(jet.value, name) for name in cf.SPECIAL_NAMES]
    shape = np.broadcast_shapes(*(np.shape(np.asarray(x)) for x in fields))

    def b(x):
        return np.broadcast_to(np.asarray(x, dtype=float), shape)

    def sym(m11, m22, m33, m12, m13, m23):
        rows = ((m11, m12, m13), (m12, m22, m23), (m13, m23, m33))
        return np.stack([np.stack([b(x) for x in r], axis=-1) for r in rows], axis=-2)

    def values(st):
        out = {"mu": b(3.0 * np.asarray(st.p)), "p": b(st.p), "Theta": b(st.Theta)}
        for name in ("udot", "omega", "Omega", "a"):
            out[name] = np.stack([b(getattr(st, f"{name}{i}")) for i in (1, 2, 3)], axis=-1)
        out["pi"] = sym(st.pi11, st.pi11, -2.0 * np.asarray(st.pi11), 0.0, 0.0, 0.0)
        out["sigma"] = sym(st.sigma11, st.sigma22, st.sigma33,
                           st.sigma12, st.sigma13, st.sigma23)
        out["n"] = sym(st.n11, st.n22, st.n33, st.n12, st.n13, st.n23)
        return out

    ref = values(jet.value)
    derivs = [values(st) for st in jet.deriv]
    for name in list(ref):
        ref["d" + name] = np.stack([d[name] for d in derivs], axis=len(shape))
    return ref


def test_embed_special_matches_stacked_batch_first_embedding():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=-1, B=0.5)
    grid, _ = form.clip_grid(Grid(0.0, 1.0, 3001))
    F = cf.ScaleFactor.from_table(np.linspace(0.0, 1.0, 11),
                                  1.0 + 0.1 * np.sin(np.linspace(0.0, 3.0, 11)))
    jets = [
        form.jet(grid)[0],
        cf.branch_jet(cf.shearless_branch_fields(F, 1.0, 1.0, Grid(0.0, 0.4, 400))),
        cf.branch_jet(cf.a2_branch2_fields(F, 1.0, 0.5, Grid(0.0, 0.6, 401))),
        cf.a2_trajectory_jet(0.0, 0.3, -0.2, 0.7, 0.1),  # a single jet
    ]
    # every entry set, off-diagonal shear and commutation entries included
    rng = np.random.default_rng(5)
    states = [{k: rng.uniform(-1.0, 1.0, 50) for k in cf.SPECIAL_NAMES} for _ in range(5)]
    jets.append(cf.SpecialJet.build(np.zeros(50), *states))
    for jet in jets:
        ja = cf.embed_special(jet)
        ref = stacked_embedding(jet)
        k = len(ja.shape)
        for name, arr in vars(densified(ja)).items():
            if isinstance(arr, np.ndarray):
                batch_first = np.moveaxis(arr, range(arr.ndim - k, arr.ndim), range(k))
                # q, E, H and Lambda stay zero
                expected = ref.get(name, np.zeros(batch_first.shape))
                assert np.array_equal(batch_first, expected), (ja.shape, name)
                # a component set by a zero number is ZERO, and reads +0.0;
                # every other one is the jet's values, signed zeros included
                expected = np.moveaxis(expected, range(k), range(arr.ndim - k, arr.ndim))
                for index in [i for field, i in ja.entries if field == name]:
                    assert np.array_equal(np.signbit(arr[index]),
                                          np.signbit(expected[index])), (name, index)


def test_embed_special_hands_over_the_a1_components_by_reference():
    """12 components in the value and 12 in the e_3 slot, each the jet's
    own array or one computed from it (mu = 3p, pi33 = -2 pi11); every
    other component, e_0 to e_2 included, is ``ZERO``."""
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=1.0, sign=1, B=1.0)
    jet = form.jet(Grid(0.0, 0.5, 100))[0]
    ja = fe._Sparse.of(cf.embed_special(jet)).tables
    held = {name: fe._nonzero_components(getattr(ja, name), comp)
            for name, comp in fe._COMPONENTS.items()}
    assert sum(len(held[name]) for name in fe._COMPONENTS if not name.startswith("d")) == 12
    slots = [index[0] for name in fe._COMPONENTS if name.startswith("d")
             for index, _ in held[name]]
    assert slots == [3] * 12
    assert ja.q is ZERO and ja.E is ZERO and ja.H is ZERO and ja.Lam is ZERO
    assert ja.p is jet.value.p and ja.a.c[2] is jet.value.a3
    assert ja.sigma.c[2, 2] is jet.value.sigma33 and ja.pi.c[1, 1] is jet.value.pi11
    assert ja.dsigma.c[3, 0, 0] is jet.deriv[3].sigma11
    assert ja.dOmega.c[3, 2] is jet.deriv[3].Omega3


SPECIAL_JETS = {
    "a1-closed-form": lambda: cf.CaseA1ClosedForm(
        cf.ScalarProfile.exp(), A=1.0, sign=1, B=1.0).jet(Grid(0.0, 0.5, 100))[0],
    "shearless": lambda: cf.branch_jet(cf.shearless_branch_fields(F1, 1.0, 1.0, Grid(0.0, 0.4, 400))),
    "branch2": lambda: cf.branch_jet(cf.a2_branch2_fields(F1, 1.0, 0.5, Grid(0.0, 0.6, 401))),
    "a1-trajectory": lambda: cf.a1_trajectory_jet(
        np.zeros(60), *np.random.default_rng(3).uniform(-1.0, 1.0, (3, 60))),
    "a2-trajectory": lambda: cf.a2_trajectory_jet(
        np.zeros(60), *np.random.default_rng(4).uniform(-1.0, 1.0, (4, 60))),
}


def component(ja, field, index):
    """Component ``index`` of a field of a handed-over jet, or ``ZERO``."""
    return ja.entries.get((field, index), ZERO)


@pytest.mark.parametrize("name", sorted(SPECIAL_JETS))
def test_special_jet_views_read_the_arrays_embed_special_hands_over(name):
    """Every named variable of every slot reads the very array that
    embed_special hands over for its components, and 0.0 where the
    component is ``ZERO``."""
    jet = SPECIAL_JETS[name]()
    ja = cf.embed_special(jet)
    held = 0
    for slot, view in enumerate((jet.value, *jet.deriv)):
        for var, (field, indices) in fe.COMPONENT_NAMES.items():
            x = getattr(view, var)
            if slot and field == "Lam":  # constant: no derivative slot
                assert type(x) is float and x == 0.0
                continue
            for index in indices:
                entry = (component(ja, field, index) if slot == 0
                         else component(ja, "d" + field, (slot - 1,) + index))
                if entry is ZERO:
                    assert type(x) is float and x == 0.0, (slot, var)
                else:
                    assert entry is x, (slot, var)
                    held += 1
    assert held == len(jet.entries)


def test_special_jet_build_rejects_an_unknown_name():
    with pytest.raises(TypeError, match="unknown special variables: mu$"):
        cf.SpecialJet.build(0.0, dict(p=1.0, mu=3.0))
    with pytest.raises(TypeError, match="pi22"):
        cf.SpecialJet.build(0.0, {}, e3=dict(pi22=1.0))
    with pytest.raises(TypeError, match="a4"):
        zero_jet().replace_value(a4=1.0)


def test_special_variables_are_the_ansatz_variables():
    """The 27 variables of the ansatz, each a named component of the
    general system."""
    assert len(cf.SPECIAL_NAMES) == 27
    assert set(cf.SPECIAL_NAMES) == {
        "p", "pi11", "Theta", "sigma11", "udot3", "a1", "a2", "a3", "n11", "n13", "n23",
        "Omega3", "omega1", "omega2", "omega3", "sigma13", "sigma23", "Omega1", "Omega2",
        "udot1", "udot2", "sigma22", "sigma33", "sigma12", "n22", "n33", "n12"}
    assert set(cf.SPECIAL_NAMES) <= set(fe.COMPONENT_NAMES)


def test_replace_value_keeps_every_other_entry():
    jet = SPECIAL_JETS["a1-closed-form"]()
    moved = jet.replace_value(a3=jet.value.a3 + 1e-3)
    assert moved.shape == jet.shape and moved.entries.keys() == jet.entries.keys()
    for key, x in jet.entries.items():
        if key == ("a", (2,)):
            assert np.array_equal(moved.entries[key], x + 1e-3)
        else:
            assert np.array_equal(moved.entries[key], x), key


def test_perturbed_a3_breaks_residuals():
    form = cf.CaseA1ClosedForm(cf.ScalarProfile.exp(), A=0.0, sign=1, B=1.0)
    grid = Grid(0.0, 1.0, 100)
    jet, _ = form.jet(grid)
    assert cf.ricci_einstein_residuals(jet).max_residual() < 1e-10
    assert cf.ricci_einstein_residuals(_perturbed(jet, 1e-3)).max_residual() > 1e-4


def test_omega3_equation_consistency_across_cases():
    """On the udot3 = -a3 branch the A2 angular-velocity equation
    e3(Omega3) = -udot3 Omega3 coincides with the A1 form a3 Omega3."""
    grid = Grid(0.0, 0.3, 120)
    f = cf.shearless_branch_fields(F1, 1.0, 1.0, grid)
    assert np.max(np.abs(-f.udot3 - f.a3)) == 0.0
    jet = cf.branch_jet(f)
    e3 = jet.deriv[3]
    assert np.max(np.abs(np.asarray(e3.Omega3) - f.a3 * f.Omega3)) < 1e-14


# ---------------------------------------------------------------------------
# future-work system
# ---------------------------------------------------------------------------


def test_futurework_zero_jet():
    vec = cf.futurework_residuals(zero_jet())
    assert vec.max_residual() == 0.0
    assert tuple(vec.block_norms()) == cf.FW_NAMES


def test_futurework_flrw_reduction():
    """On an FLRW-like jet RES5 reduces to e0(Theta) + Theta^2/3 + 3p."""
    theta, p, dtheta = 1.7, 0.21, -0.9
    value = dict(p=p, Theta=theta)
    e0 = dict(Theta=dtheta)
    jet = cf.SpecialJet.build(0.0, value, e0=e0)
    vec = cf.futurework_residuals(jet)
    expected = dtheta + theta**2 / 3.0 + 3.0 * p
    assert vec.block_norms()["RES5"] == pytest.approx(abs(expected), rel=1e-14)


def test_futurework_res3_is_re3_with_res2_substituted():
    """RES3 is RE3 (with udot = 0) after e_3(a3) is replaced through RES2:
    e_0(sigma11) = p/2 + pi11 + sigma11^2/2 + a3^2/2 - Theta^2/18 - Theta sigma11."""
    rng = np.random.default_rng(31)
    names = ("p", "pi11", "Theta", "sigma11", "a3")
    value, e0, e3 = ({name: rng.uniform(-1.0, 1.0, 50) for name in names} for _ in range(3))
    jet = cf.SpecialJet.build(np.zeros(50), value, e0=e0, e3=e3)
    fw = dict(cf.futurework_residuals(jet).blocks())
    re = dict(cf.ricci_einstein_residuals(jet).blocks())
    np.testing.assert_allclose(fw["RES3"], fw["RES2"] - re["RE3"], rtol=0.0, atol=1e-14)
    s11, theta = value["sigma11"], value["Theta"]
    expected = e0["sigma11"] - (0.5 * value["p"] + value["pi11"] + 0.5 * s11**2
                                + 0.5 * value["a3"] ** 2 - theta**2 / 18.0 - theta * s11)
    np.testing.assert_allclose(fw["RES3"], expected, rtol=1e-14, atol=1e-15)


def test_futurework_flags_spatial_gradients():
    jet = cf.SpecialJet.build(0.0, {}, e1=dict(Theta=0.33))
    vec = cf.futurework_residuals(jet)
    assert vec.block_norms()["RES8_e1"] == 0.33
    assert vec.max_residual() == 0.33


# ---------------------------------------------------------------------------
# SpecialJet structural behaviour
# ---------------------------------------------------------------------------


def test_special_state_constrained_defaults():
    s = cf.SpecialJet.build(0.0, dict(sigma11=0.4, n11=0.2)).value
    assert s.sigma22 == 0.4
    assert s.sigma33 == -0.8
    assert s.n22 == 0.2
    assert s.n33 == 0.0 and s.n12 == 0.0 and s.sigma12 == 0.0
    over = cf.SpecialJet.build(0.0, dict(sigma11=0.4, sigma22=0.1)).value
    assert over.sigma22 == 0.1


# A residual vector: a report of one scalar block per named entry, as the
# special systems return it.


def residual_vector(names, entries):
    shape = np.broadcast_shapes(*(np.shape(e) for e in entries))
    return ResidualReport.of_entries(shape, names, entries)


def test_residual_vector_worst_location():
    vals = np.zeros((2, 5))
    vals[1, 3] = -2.5
    vec = residual_vector(("x", "y"), vals)
    assert vec.worst() == ("y", 3, 2.5)
    assert vec.max_residual() == 2.5


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
def test_residual_vector_worst_matches_flat_argmax_with_ties(batch):
    """Integer entries of both signs tie often; the flat argmax takes the
    first entry holding the largest |value| and its first batch index."""
    rng = np.random.default_rng(8)
    names = tuple("abcde")
    for _ in range(40):
        vals = rng.integers(-3, 4, size=(len(names),) + batch).astype(float)
        flat = np.abs(vals.reshape(len(names), -1))
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        vec = residual_vector(names, vals)
        assert vec.worst() == (names[i], int(j), float(flat[i, j]))
        assert vec.max_residual() == np.max(flat)
        assert vec.block_norms() == {n: float(np.max(flat[k])) for k, n in enumerate(names)}
    assert residual_vector(names, np.zeros((len(names),) + batch)).worst() == ("a", 0, 0.0)


def test_residual_vector_names_first_non_finite_entry():
    vals = np.zeros((4, 6))
    vals[3, 0] = np.nan
    vals[1, 5] = -np.inf
    with pytest.raises(NonFiniteResidual, match="in block y$"):
        residual_vector(("w", "y", "x", "z"), vals)


def stacked_reductions(names, entries):
    """The reductions of the entries stacked to (len(names),) + batch: the
    reference for the per-entry forms of a residual vector."""
    values = np.stack(np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in entries)))
    flat = np.abs(values.reshape(len(names), -1))
    top = np.max(flat, axis=1, initial=0.0)
    worst = None
    if flat.size:
        i = int(np.argmax(top))
        worst = (names[i], int(np.argmax(flat[i])), top[i])
    return values, top, np.max(np.abs(values), axis=0), worst


@pytest.mark.parametrize("batch, shapes", [
    ((), [()]),
    ((7,), [(), (1,), (7,)]),
    ((3, 4), [(), (1, 4), (3, 1), (3, 4)]),
    ((0,), [(), (0,)]),
])
def test_residual_vector_reduces_each_entry_like_the_stacked_form(batch, shapes):
    """Scalar entries, entries that broadcast along one batch axis and full
    entries, mixed; small integers of both signs and signed zeros tie often,
    and the first entry and first flat index holding the largest value win.
    The blocks read back as the signed entries, as the residual CSV writes
    them."""
    rng = np.random.default_rng(14)
    names = tuple("abcdef")
    for _ in range(60):
        entries = []
        for _ in names:
            shape = shapes[rng.integers(len(shapes))]
            e = rng.integers(-3, 4, size=shape).astype(float)
            e[...] = np.where(rng.random(shape) < 0.2, -0.0, e)
            entries.append(e[()] if shape == () and rng.random() < 0.5 else e)
        vec = residual_vector(names, entries)
        values, top, per_point, worst = stacked_reductions(names, entries)
        blocks = np.stack([arr for _, arr in vec.blocks()])
        assert blocks.tobytes() == values.tobytes() and blocks.shape == values.shape
        assert vec.block_norms() == dict(zip(names, top.tolist()))
        assert vec.max_residual() == np.max(top)
        assert np.asarray(vec.per_point_max()).tobytes() == np.asarray(per_point).tobytes()
        if worst is not None:
            assert vec.worst() == worst


def test_residual_vector_worst_of_a_scalar_and_of_a_broadcast_entry():
    zero = np.zeros((3, 4))
    col = np.zeros((3, 1))
    col[2, 0] = -2.0
    assert residual_vector(("a", "b", "c"), [zero, 2.0, col]).worst() == ("b", 0, 2.0)
    # flat index of the column entry broadcast to (3, 4): row 2, column 0
    assert residual_vector(("a", "c", "b"), [zero, col, 2.0]).worst() == ("c", 8, 2.0)
    row = np.array([[0.0, 1.0, -5.0, 5.0]])
    assert residual_vector(("a", "r"), [zero, row]).worst() == ("r", 2, 5.0)


def test_residual_vector_names_first_non_finite_scalar_or_broadcast_entry():
    col = np.zeros((3, 1))
    col[1, 0] = np.inf
    with pytest.raises(NonFiniteResidual, match="in block x$"):
        residual_vector(("w", "x", "y"), [np.zeros((3, 4)), np.nan, col])
    with pytest.raises(NonFiniteResidual, match="in block x$"):
        residual_vector(("w", "x", "y"), [np.zeros((3, 4)), col, np.nan])


def test_residual_vector_keeps_a_0d_maximum_for_a_0d_entry():
    """A 0-d entry is reduced on its own: no buffer of the batch shape."""
    vec = residual_vector(("a", "b"), [np.full(1000, -0.5), np.float64(-2.0)])
    point_max = vec.block_point_max()
    assert point_max["a"].shape == (1000,) and point_max["b"].shape == ()
    assert vec.worst() == ("b", 0, 2.0)
    assert vec.block("b").shape == (1000,) and vec.block("b").strides == (0,)
