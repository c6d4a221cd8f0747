"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, nothing is calibrated at runtime.

Criterion 6 (the elasticity invariant identity) was retired with
``f13.elasticity``, which no subcommand reached.  Criterion 7 (the commutator
argument) is checked through the general report: on the z-only jets the
program builds, the commutators reduce to algebraic conditions on the
connection, which the residual blocks enforce.
"""

import time

import numpy as np
import pytest
from conftest import eds_jet_arrays

from f13 import conformal as cf
from f13.cli import main
from f13.frame_equations import JetArrays, residual_report
from f13.numerics import Grid, fd_derivative, quadrature, rk4_integrate
from f13.spinors import (
    diagonalizing_rotation,
    null_rotate_ricci,
    ricci_spinor,
    weyl_spinor,
)

F1 = cf.ScaleFactor.constant(1.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_closed_form_master_check():
    """(solA1) with sigma11 = e^z embeds into the full 1+3 system with all
    residual blocks below 1e-10 on 1000 grid points, within 5 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    base = Grid(0.0, 1.0, 999)  # 1000 grid points
    combos = 0
    for A in (0.0, 1.0, -5.0):
        for sign in (1, -1):
            for B in (0.0, 1.0):
                form = cf.CaseA1ClosedForm(A, sign, B)
                grid, _ = form.clip_grid(base)
                jet, _ = form.jet(grid)
                m = max(
                    cf.bianchi_special_residuals(jet).worst()[2],
                    cf.ricci_einstein_residuals(jet).worst()[2],
                    residual_report(cf.embed_special(jet)).worst()[2],
                )
                worst = max(worst, m)
                combos += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0 and combos == 12
    report(1, ok,
           f"closed-form master check: max residual {worst:.3e} (< 1e-10) "
           f"over 12 families, runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_first_integral_conservation():
    """RK4 at h = 1e-3 keeps (a3^2 - 9 sigma11^2)/sigma11^4 within 1e-8."""
    s0, A = 0.1, 1.0
    a30 = s0 * np.sqrt(A * s0 * s0 + 9.0)
    traj = rk4_integrate(cf.case_a1_rhs, [s0, a30, 1.0], Grid(0.0, 1.0, 1000), F1)
    vals = cf.case_a1_first_integral(traj.states[:, 0], traj.states[:, 1])
    drift = float(np.max(np.abs(vals - A)))
    # oracle: the reduction dw/dsigma = 4w/sigma - 18 sigma, w = a3^2,
    # is solved by w = A sigma^4 + 9 sigma^2 for every A
    sig = np.linspace(0.05, 1.5, 7)
    oracle = np.max(np.abs((4.0 * A * sig**3 + 18.0 * sig)
                           - (4.0 * (A * sig**4 + 9.0 * sig**2) / sig - 18.0 * sig)))
    ok = drift < 1e-8 and oracle < 1e-12
    report(2, ok, f"first-integral drift {drift:.3e} (< 1e-8), "
                  f"reduction oracle residual {oracle:.3e}")


def test_criterion_3_shearless_branches():
    """a3 = 1/(1-2z) and a3 = 1/(1-3z/2) satisfy their ODEs analytically
    (< 1e-12) and are reproduced by RK4 to < 1e-8 on [0, 0.4]."""
    grid = Grid(0.0, 0.4, 400)
    f1 = cf.shearless_branch_fields(F1, 1.0, 0.0, grid)[1]
    res1 = float(np.max(np.abs(f1.deriv[3].a3 - 2.0 * f1.value.a3**2)))
    exact1 = 1.0 / (1.0 - 2.0 * f1.z)
    form_err1 = float(np.max(np.abs(f1.value.a3 - exact1)))
    rk1 = rk4_integrate(lambda y: [2.0 * y * y], [1.0], grid, F1)
    rk_err1 = float(np.max(np.abs(rk1.states[:, 0] - exact1)))

    f2 = cf.a2_branch2_fields(F1, 1.0, 0.0, grid)[1]
    res2 = float(np.max(np.abs(f2.deriv[3].a3 - 1.5 * f2.value.a3**2)))
    exact2 = 1.0 / (1.0 - 1.5 * f2.z)
    form_err2 = float(np.max(np.abs(f2.value.a3 - exact2)))
    rk2 = rk4_integrate(lambda y: [1.5 * y * y], [1.0], grid, F1)
    rk_err2 = float(np.max(np.abs(rk2.states[:, 0] - exact2)))

    ok = (max(res1, res2) < 1e-12 and max(form_err1, form_err2) < 1e-10
          and max(rk_err1, rk_err2) < 1e-8)
    report(3, ok,
           f"branch ODE residuals {res1:.2e}/{res2:.2e} (< 1e-12), "
           f"RK4 reproduction {rk_err1:.2e}/{rk_err2:.2e} (< 1e-8)")


def test_criterion_4_case_a2_branch_properties():
    """Branch udot3 = a3/2 has p identically 0; a3 = 0 reduces to dust with
    only the udot3 equation active."""
    grid = Grid(0.0, 0.4, 400)
    f2 = cf.a2_branch2_fields(F1, 1.0, 1.0, grid)[1]
    p_branch = float(np.max(np.abs(f2.value.p)))
    # trajectory started on the branch stays pressure-free
    a30 = 1.0
    traj = rk4_integrate(cf.case_a2_rhs, [0.0, 0.5 * a30, a30, 1.0], grid, F1)
    p_traj = float(np.max(np.abs(traj.states[:, 0])))
    branch_rel = float(np.max(np.abs(traj.states[:, 1] - 0.5 * traj.states[:, 2])))

    dust = rk4_integrate(cf.case_a2_rhs, [0.0, 0.7, 0.0, 1.0], grid, F1)
    p_dust = float(np.max(np.abs(dust.states[:, 0])))
    a3_dust = float(np.max(np.abs(dust.states[:, 2])))
    u3_exact = 1.0 / (grid.points() + 1.0 / 0.7)
    u3_err = float(np.max(np.abs(dust.states[:, 1] - u3_exact)))

    ok = (p_branch < 1e-12 and p_traj < 1e-12 and branch_rel < 1e-10
          and p_dust == 0.0 and a3_dust == 0.0 and u3_err < 1e-9)
    report(4, ok,
           f"branch-2 pressure {max(p_branch, p_traj):.2e} (< 1e-12), "
           f"dust reduction p={p_dust:.1e} a3={a3_dust:.1e} "
           f"udot3 oracle error {u3_err:.2e}")


def test_criterion_5_spinor_maps():
    # the general matter map on a whole A1 closed-form trajectory, in one call
    form = cf.CaseA1ClosedForm(1.0, -1, 1.0)
    jet, fields = form.jet(Grid(-1.0, 1.0, 400))
    r = ricci_spinor(jet.value)
    phi00, phi11 = cf.special_ricci(fields["p"], fields["pi11"])
    worst_special = max(np.max(np.abs(r.phi00 - phi00)), np.max(np.abs(r.phi11 - phi11)),
                        np.max(np.abs(r.phi22 - phi00)), np.max(np.abs(r.lam_np)))
    offdiagonal_ok = all(np.all(x == 0.0) for x in (r.phi01, r.phi02, r.phi12))

    rng = np.random.default_rng(55)
    zero_map_ok = weyl_spinor(JetArrays.build((), {}).value).max_abs() == 0.0
    names = [t + ij for t in "EH" for ij in ("11", "22", "12", "13", "23")]
    EH = rng.uniform(-1, 1, (len(names), 50))
    weyl = weyl_spinor(JetArrays.build((50,), dict(zip(names, EH))).value)
    nonzero_ok = bool(np.all(weyl.max_abs()[np.max(np.abs(EH), axis=0) > 1e-6] > 0.0))

    invariance_ok = True
    kill_worst = 0.0
    for _ in range(100):
        pi = dict(zip(("pi11", "pi22", "pi12", "pi13", "pi23"), rng.uniform(-2, 2, 5)))
        r = ricci_spinor(JetArrays.build((), dict(mu=rng.uniform(0.5, 3.0),
                                                  p=rng.uniform(-1, 1), **pi)).value)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        invariance_ok &= null_rotate_ricci(r, alpha).phi00 == r.phi00
        if r.phi00 != 0.0:
            killed = null_rotate_ricci(r, diagonalizing_rotation(r))
            kill_worst = max(kill_worst, abs(killed.phi01))

    ok = (worst_special < 1e-15 and offdiagonal_ok and zero_map_ok and nonzero_ok
          and invariance_ok and kill_worst < 1e-15)
    report(5, ok,
           f"special-ricci agreement {worst_special:.1e} (< 1e-15) on {np.size(phi00)} "
           f"trajectory points, zero map ok, Phi00 invariant, rotation kills Phi01 to "
           f"{kill_worst:.1e}")


def test_criterion_7_commutator_argument():
    """Case A1 data with sigma11 = e^z has Theta = 6 sigma11, and the general
    report on it vanishes; shifting Theta by 0.1 violates the condition the
    commutator [e_0, e_3] puts on the connection, and the report flags it at
    every grid point."""
    form = cf.CaseA1ClosedForm(0.0, 1, 0.0)
    grid, _ = form.clip_grid(Grid(0.0, 1.0, 999))
    good = cf.embed_special(form.jet(grid)[0])
    theta_ok = np.max(np.abs(good.value.Theta - 6.0 * good.value.sigma11)) < 1e-12
    worst_good = residual_report(good).worst()[2]
    shifted = JetArrays.build(good.shape, {"Theta": good.value.Theta + 0.1})
    bad = residual_report(JetArrays(good.shape, good.entries | shifted.entries))
    label, _, _ = bad.worst()
    best_bad = np.min(np.abs(bad.block(label)))
    ok = theta_ok and worst_good < 1e-10 and best_bad > 1e-3
    report(7, ok, f"consistent data residual {worst_good:.2e} (< 1e-10), "
                  f"perturbed Theta residual {best_bad:.2e} (> 1e-3) in {label}")


def test_criterion_8_einstein_de_sitter_oracle():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        rep = residual_report(eds_jet_arrays(t))
        norms = rep.block_worst()
        worst = max(worst, *(norms[label][1] for label in ("field1", "field3", "bianchi1")))
    ok = worst < 1e-12
    report(8, ok, f"EdS dust residuals {worst:.3e} (< 1e-12) at t in {{0.5, 1, 2}}")


def test_criterion_9_numerics_quality():
    orders = {}
    errs = []
    for N in (100, 200, 400):
        t = rk4_integrate(lambda *y: y, [1.0], Grid(0.0, 1.0, N), F1)
        errs.append(abs(t.states[-1, 0] - np.e))
    orders["rk4"] = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    errs = []
    for N in (100, 200, 400):
        g = Grid(0.0, 1.0, N)
        d = fd_derivative(np.sin(g.points()), g)
        errs.append(np.max(np.abs(d - np.cos(g.points()))))
    orders["fd4"] = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    errs = []
    for N in (100, 200, 400):
        g = Grid(0.0, 1.0, N)
        errs.append(abs(quadrature(np.exp(g.points()), g)[-1] - (np.e - 1.0)))
    orders["simpson"] = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))

    # gridded (finite-difference jet) verification refines at 4th order
    errs = []
    for N in (400, 800, 1600):
        g = Grid(0.5, 2.5, N)
        t = g.points()
        value = dict(Theta=2.0 / t, mu=4.0 / (3.0 * t * t))
        ja = JetArrays.build((N + 1,), value,
                             e0={name: fd_derivative(x, g) for name, x in value.items()})
        errs.append(residual_report(ja).worst()[2])
    orders["gridded"] = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))

    ok = all(v >= 3.9 for v in orders.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
    report(9, ok, f"measured convergence orders {detail} (all >= 3.9)")


def test_criterion_10_cli_contract(tmp_path, capsys):
    cfg_text = f"""\
[scenario]
case = a1
output = {tmp_path / 'out.csv'}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 1.0
N = 500

[initial]
sigma11 = 0.1
Omega3 = 1.0

[constants]
A = 1.0
"""
    cfg = tmp_path / "a1.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    code_ok = main(["solve", "--config", str(cfg)])
    first = (tmp_path / "out.csv").read_bytes()
    main(["solve", "--config", str(cfg)])
    second = (tmp_path / "out.csv").read_bytes()
    deterministic = first == second

    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg_text + "\nstray = 1\n", encoding="utf-8")
    code_bad = main(["solve", "--config", str(bad)])

    pole = tmp_path / "pole.cfg"
    pole.write_text(f"""\
[scenario]
case = a1-shearless
output = {tmp_path / 'pole.csv'}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.9
N = 200

[constants]
C = 1.0
""", encoding="utf-8")
    code_pole = main(["solve", "--config", str(pole)])

    verify = tmp_path / "verify.cfg"
    verify.write_text("""\
[scenario]
case = a1

[constants]
A = 1.0
B = 1.0

[grid]
z0 = 0.0
z1 = 1.0
N = 200
""", encoding="utf-8")
    code_verify = main(["verify", "--config", str(verify)])
    perturbed = tmp_path / "perturbed.cfg"
    perturbed.write_text(verify.read_text(encoding="utf-8")
                         + "\n[perturb]\na3 = 1e-3\n", encoding="utf-8")
    code_perturbed = main(["verify", "--config", str(perturbed)])
    capsys.readouterr()

    ok = (code_ok == 0 and deterministic and code_bad == 2 and code_pole == 3
          and code_verify == 0 and code_perturbed == 4)
    with capsys.disabled():
        report(10, ok,
               f"exit codes solve={code_ok} config-error={code_bad} "
               f"pole={code_pole} verify={code_verify} perturbed={code_perturbed}, "
               f"byte-identical CSV={deterministic}")
