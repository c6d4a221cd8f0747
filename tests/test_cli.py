"""Command-line contract tests: config validation, exit codes, CSV output."""

import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f13 import conformal as cf
from f13 import csvtext
from f13 import frame_equations as fe
from f13.cli import (_STATE_KEYS, RESIDUAL_SYSTEMS, _fmt, _parser, _read_table,
                     _serve_temporaries_from_the_heap, _write_csv, main, run_verify)
from f13.numerics import Grid, rk4_integrate

EXACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)

A1_SOLVE = """\
[scenario]
case = a1
output = {out}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 1.0
N = 1000

[initial]
sigma11 = 0.1
Omega3 = 1.0

[constants]
A = 1.0
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


# every check line that solve, verify and residual print
CHECK_LINE = re.compile(
    r"check (?P<label>\S(?:.*?\S)?) +max=(?P<max>\S+)(?: at (?P<coord>[zt])=(?P<at>\S+))?"
    r"(?: \((?P<entry>[^)]+)\))? (?P<verdict>pass|FAIL|\(not gated\))")


def checks(out):
    """{label: CHECK_LINE match} of the check lines of a report."""
    found = {}
    for line in out.splitlines():
        if line.startswith("check "):
            m = CHECK_LINE.fullmatch(line)
            assert m, line
            found[m["label"]] = m
    return found


def check_maxima(out):
    return {label: float(m["max"]) for label, m in checks(out).items()}


# the lines of a report besides its check lines
REPORT_LINE = re.compile(r"(?:solve case|verify case|residual system)=.*|note: .*"
                         r"|(?:residual )?csv written to .*|pole encountered; .*|RESULT .*")


def check_and_note_lines(lines):
    """The check and note lines of a report, which must hold no line but
    these, its title, CSV line and RESULT line."""
    for line in lines:
        assert REPORT_LINE.fullmatch(line) or CHECK_LINE.fullmatch(line), line
    return "\n".join(l for l in lines if l.startswith(("check ", "note: ")))


def test_solve_a1_csv_columns_and_conservation(tmp_path, capsys):
    out = tmp_path / "a1.csv"
    cfg = write(tmp_path / "a1.cfg", A1_SOLVE.format(out=out))
    assert main(["solve", "--config", cfg]) == 0
    header, cols = read_csv(out)
    assert header == ["z", "sigma11", "a3", "Omega3", "F", "pi11", "p", "udot3",
                      "firstintegral_A"]
    assert len(cols["z"]) == 1001
    assert np.max(np.abs(cols["firstintegral_A"] - 1.0)) < 1e-8
    assert np.allclose(cols["udot3"], -cols["a3"])
    assert np.max(np.abs(cols["pi11"] + 4.0 * cols["p"])) == 0.0
    assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT pass")


def test_solve_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cfg1 = write(tmp_path / "c1.cfg", A1_SOLVE.format(out=out1))
    cfg2 = write(tmp_path / "c2.cfg", A1_SOLVE.format(out=out2))
    assert main(["solve", "--config", cfg1]) == 0
    assert main(["solve", "--config", cfg2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_config_errors(tmp_path, capsys):
    bad = A1_SOLVE.format(out=tmp_path / "x.csv") + "\n[extra]\nfoo = 1\n"
    cfg = write(tmp_path / "bad.cfg", bad)
    assert main(["solve", "--config", cfg]) == 2
    assert "unknown section" in capsys.readouterr().err

    both = A1_SOLVE.format(out=tmp_path / "x.csv").replace(
        "[constants]\nA = 1.0", "[constants]\nA = 1.0"
    ) + "\n"
    cfg = write(tmp_path / "both.cfg",
                both.replace("sigma11 = 0.1", "sigma11 = 0.1\na3 = 0.5"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err

    missing = A1_SOLVE.format(out=tmp_path / "x.csv").replace("z1 = 1.0\n", "")
    cfg = write(tmp_path / "missing.cfg", missing)
    assert main(["solve", "--config", cfg]) == 2
    assert "grid.z1" in capsys.readouterr().err


def test_solve_shearless_matches_sol(tmp_path, capsys):
    out = tmp_path / "sh.csv"
    cfg = write(tmp_path / "sh.cfg", f"""\
[scenario]
case = a1-shearless
output = {out}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 400

[constants]
C = 1.0
""")
    assert main(["solve", "--config", cfg]) == 0
    header, cols = read_csv(out)
    assert header == ["z", "sigma11", "a3", "Omega3", "F", "pi11", "p", "udot3"]
    assert np.max(np.abs(cols["a3"] - 1.0 / (1.0 - 2.0 * cols["z"]))) < 1e-10
    capsys.readouterr()


def test_solve_branch2_pressure_free(tmp_path, capsys):
    out = tmp_path / "b2.csv"
    cfg = write(tmp_path / "b2.cfg", f"""\
[scenario]
case = a2-branch2
output = {out}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 400

[constants]
D = 1.0
B = 1.0
""")
    assert main(["solve", "--config", cfg]) == 0
    header, cols = read_csv(out)
    assert header == ["z", "p", "udot3", "a3", "Omega3", "pi11"]
    assert np.max(np.abs(cols["p"])) < 1e-12
    assert np.max(np.abs(cols["udot3"] - 0.5 * cols["a3"])) < 1e-13
    capsys.readouterr()


def test_solve_with_frame_table(tmp_path, capsys):
    zs = np.linspace(0.0, 1.0, 101)
    with open(tmp_path / "frame.csv", "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "F"])
        for zi in zs:
            w.writerow([f"{zi:.17g}", f"{1.0 + zi * zi / 4.0:.17g}"])
    out = tmp_path / "ft.csv"
    cfg = write(tmp_path / "ft.cfg", f"""\
[scenario]
case = a1
output = {out}

[frame]
F_table = {tmp_path / 'frame.csv'}

[grid]
z0 = 0.0
z1 = 1.0
N = 500

[initial]
sigma11 = 0.1
a3 = 0.3
Omega3 = 0.0
""")
    assert main(["solve", "--config", cfg]) == 0
    _, cols = read_csv(out)
    assert np.max(np.abs(cols["F"] - (1.0 + cols["z"] ** 2 / 4.0))) < 1e-9
    capsys.readouterr()


def test_solve_pole_exit_code_and_partial_csv(tmp_path, capsys):
    out = tmp_path / "pole.csv"
    cfg = write(tmp_path / "pole.cfg", f"""\
[scenario]
case = a1-shearless
output = {out}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.9
N = 300

[constants]
C = 1.0
""")
    assert main(["solve", "--config", cfg]) == 3
    _, cols = read_csv(out)
    assert cols["z"][-1] < 0.5  # clipped before the blow-up at z = 1/2
    assert np.all(np.isfinite(cols["a3"]))
    capsys.readouterr()



def test_solve_a1_pole_rows_raise_no_numpy_warnings(tmp_path, capsys):
    """The rows RK4 reaches just before a pole overflow in the closure
    columns; the partial CSV carries them as inf/nan without warnings."""
    out = tmp_path / "pole.csv"
    text = (A1_SOLVE.format(out=out)
            .replace("sigma11 = 0.1", "sigma11 = 0.5").replace("N = 1000", "N = 20000"))
    cfg = write(tmp_path / "pole.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg]) == 3
    _, cols = read_csv(out)
    assert not np.isfinite(cols["pi11"][-1]) and not np.isfinite(cols["firstintegral_A"][-1])
    assert capsys.readouterr().out.splitlines()[-1] == "RESULT fail max_residual=inf"


@pytest.mark.parametrize("a3, N, code", [(-5.0, 4, 3), (-6.0, 4, 4), (-7.0, 4, 3),
                                         (-20.0, 16, 3)])
def test_solve_a1_with_sigma11_underflowing_to_zero_writes_its_csv(tmp_path, capsys, a3, N,
                                                                   code):
    """sigma11 = 5e-324 is 0 after the first step, where the first integral
    is inf, as it is where sigma11^4 underflows: the CSV is written, and the
    run ends in a RESULT fail line without a warning.  It exits 4 with the
    drift check nan FAIL, or 3 where RK4 overflows on these coarse steps of
    a3' = 2 a3^2 before the interval ends."""
    out = tmp_path / "u.csv"
    text = (A1_SOLVE.format(out=out).replace("sigma11 = 0.1", f"sigma11 = 5e-324\na3 = {a3}")
            .replace("N = 1000", f"N = {N}").replace("\n[constants]\nA = 1.0\n", ""))
    cfg = write(tmp_path / "u.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg]) == code
    _, cols = read_csv(out)
    assert np.all(cols["sigma11"][1:] == 0.0) and np.all(cols["firstintegral_A"] == np.inf)
    lines = capsys.readouterr().out.splitlines()
    if code == 4:
        assert "check first-integral-drift   max=nan FAIL" in lines
    else:
        assert lines[0] == f"pole encountered; partial CSV written to {out}"
    assert lines[-1].startswith("RESULT fail max_residual=")


VERIFY_A1 = """\
[scenario]
case = a1

[constants]
A = {A}
B = 1.0

[grid]
z0 = 0.0
z1 = 1.0
N = 500
{extra}
"""


def test_verify_pass_and_perturbed_fail(tmp_path, capsys):
    cfg = write(tmp_path / "v.cfg", VERIFY_A1.format(A=0.0, extra=""))
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("RESULT pass")
    assert {"special-bianchi", "frame-divH"} <= set(checks(out))

    cfg = write(tmp_path / "vp.cfg",
                VERIFY_A1.format(A=0.0, extra="\n[perturb]\na3 = 1e-3\n"))
    assert main(["verify", "--config", cfg]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert out.splitlines()[-1].startswith("RESULT fail")


def test_verify_and_full_check_build_no_dense_array(tmp_path, capsys, monkeypatch):
    """verify and solve full_check print maxima and their locations only:
    no block array of any report, general or special."""
    built = []
    dense = fe._dense
    monkeypatch.setattr(fe, "_dense", lambda *args: built.append("block") or dense(*args))
    assert run_verify(write(tmp_path / "v.cfg", VERIFY_A1.format(A=0.0, extra=""))) == 0
    cfg = write(tmp_path / "fc.cfg", A1_SOLVE.format(out=tmp_path / "fc.csv").replace(
        "output = ", "full_check = true\noutput = "))
    assert main(["solve", "--config", cfg]) == 0
    assert "frame-suite" in capsys.readouterr().out
    assert built == []
    # a block read does build it
    fe.residual_report(fe.JetArrays((3,), {})).block("field1")
    assert built == ["block"]


def counted_scans(monkeypatch) -> list:
    """The jets ``_Sparse.of`` scans from now on, in order."""
    scans, of = [], fe._Sparse.of
    monkeypatch.setattr(fe._Sparse, "of", staticmethod(lambda ja: scans.append(ja) or of(ja)))
    return scans


def test_verify_scans_its_jet_once_and_builds_no_per_point_maxima(tmp_path, monkeypatch):
    """The three reports of verify read one scan of the jet, and read
    their maxima from the extremes alone."""
    scans, maxima = counted_scans(monkeypatch), []
    block_max = fe.ResidualReport._block_max
    monkeypatch.setattr(fe.ResidualReport, "_block_max",
                        lambda rep, label: maxima.append(label) or block_max(rep, label))
    cfg = write(tmp_path / "v.cfg", VERIFY_A1.format(A=1.0, extra="\n[perturb]\na3 = 1e-3\n"))
    assert run_verify(cfg) == 4
    assert len(scans) == 1 and isinstance(scans[0], cf.SpecialJet) and maxima == []


def test_solve_full_check_and_residual_general_scan_their_jet_once(tmp_path, monkeypatch):
    """solve with full_check and residual --system general each scan their
    one jet once; embed_special hands over the special jet itself."""
    scans = counted_scans(monkeypatch)
    out = tmp_path / "fc.csv"
    cfg = write(tmp_path / "fc.cfg", A1_SOLVE.format(out=out).replace(
        "output = ", "full_check = true\noutput = "))
    assert main(["solve", "--config", cfg]) == 0
    assert len(scans) == 1 and isinstance(scans[0], cf.SpecialJet)
    assert main(["residual", "--table", str(out), "--system", "general"]) == 0
    assert len(scans) == 2 and type(scans[1]) is fe.JetArrays
    from f13.numerics import Grid
    jet = cf.CaseA1ClosedForm(A=1.0).jet(Grid(0.0, 0.5, 8))[0]
    assert cf.embed_special(jet) is jet


def test_verify_branch_cases_agree(tmp_path, capsys):
    shear = write(tmp_path / "vs.cfg", """\
[scenario]
case = a1-shearless

[frame]
F = 1.0

[constants]
C = 1.0
B = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 200
""")
    assert main(["verify", "--config", shear]) == 0
    out1 = capsys.readouterr().out
    branch1 = write(tmp_path / "vb1.cfg", """\
[scenario]
case = a2-branch1

[frame]
F = 1.0

[constants]
C = 1.0
B = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 200
""")
    assert main(["verify", "--config", branch1]) == 0
    out2 = capsys.readouterr().out
    # identical verification apart from the case label
    strip = lambda s: s.splitlines()[1:]
    assert strip(out1) == strip(out2)

    branch2 = write(tmp_path / "vb2.cfg", """\
[scenario]
case = a2-branch2

[frame]
F = 1.0

[constants]
D = 1.0
B = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 200
""")
    assert main(["verify", "--config", branch2]) == 0
    capsys.readouterr()


def test_verify_rejects_unsupported_case(tmp_path, capsys):
    cfg = write(tmp_path / "va2.cfg", """\
[scenario]
case = a2

[grid]
z0 = 0.0
z1 = 1.0
N = 100
""")
    assert main(["verify", "--config", cfg]) == 2
    capsys.readouterr()


def test_spinor_elastic_example(tmp_path, capsys):
    state = write(tmp_path / "s.cfg", """\
[state]
mu = 3.0
p = 1.0
pi11 = 1.0
pi22 = 1.0
""")
    assert main(["spinor", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "Phi00 0.5" in out
    assert "Phi11 1" in out
    assert "Lambda_NP 0" in out
    assert "conformally_flat true" in out


def test_spinor_weyl_and_malformed(tmp_path, capsys):
    state = write(tmp_path / "w.cfg", """\
[state]
E11 = 1.0
E22 = -1.0
""")
    assert main(["spinor", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "Psi0 1+0i" in out
    assert "Psi4 1+0i" in out
    assert "conformally_flat false" in out

    bad = write(tmp_path / "bad.cfg", "[state]\nnonsense = 1\n")
    assert main(["spinor", "--state", bad]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tensor", ["pi", "E", "H"])
def test_spinor_overflowing_state_prints_inf_and_nan(tmp_path, capsys, tensor):
    """x11 = x22 = 1e308 are finite, and x33 = -(x11 + x22) overflows: the
    spinor components are inf or nan, and the run still ends in exit 0."""
    state = write(tmp_path / "s.cfg", f"[state]\n{tensor}11 = 1e308\n{tensor}22 = 1e308\n")
    assert main(["spinor", "--state", state]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "inf" in captured.out or "nan" in captured.out


@pytest.mark.parametrize("state, psi", [
    ("H11 = 1e308\nH22 = 1e308\n", "Psi2"),  # H33 overflows
    ("E13 = -1e308\nE23 = -1e308\nH13 = 1e308\nH23 = -1e308\n", "Psi1"),  # inf - inf
], ids=["H33-overflow", "inf-minus-inf"])
def test_spinor_nan_weyl_spinor_is_not_conformally_flat(tmp_path, capsys, state, psi):
    assert main(["spinor", "--state", write(tmp_path / "s.cfg", f"[state]\n{state}")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"{psi} nan+nani" in out
    assert "conformally_flat false" in out


def test_spinor_non_finite_state_is_config_error(tmp_path, capsys):
    """The config parser is the one check on non-finite state values."""
    state = write(tmp_path / "s.cfg", "[state]\nmu = nan\np = 0.1\n")
    assert main(["spinor", "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: bad value for state.mu: not a finite number: 'nan'\n"


def eds_table(path, N, t0=0.5, t1=2.5):
    t = np.linspace(t0, t1, N + 1)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "F", "Theta", "mu"])
        for i in range(N + 1):
            w.writerow([f"{t[i]:.17g}", "1.0", f"{2.0 / t[i]:.17g}",
                        f"{4.0 / (3.0 * t[i] ** 2):.17g}"])
    return str(path)


def test_residual_general_eds_refinement(tmp_path, capsys):
    worst = []
    for N in (200, 400):
        table = eds_table(tmp_path / f"eds{N}.csv", N)
        out = tmp_path / f"res{N}.csv"
        assert main(["residual", "--table", table, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        worst.append(float(text.splitlines()[-1].split("max_residual=")[1]))
        header, cols = read_csv(out)
        assert header[0] == "t" and header[-1] == "max"
        assert "field1" in header and "divH" in header
    assert worst[1] < worst[0] / 8.0  # clearly better than cubic shrink


def test_residual_special_flags_spurious_omega3(tmp_path, capsys):
    N = 60
    z = np.linspace(0.0, 0.3, N + 1)
    with open(tmp_path / "sp.csv", "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "omega3"])
        for i in range(N + 1):
            w.writerow([f"{z[i]:.17g}", "0.25"])
    assert main(["residual", "--table", str(tmp_path / "sp.csv"),
                 "--system", "special"]) == 0
    out = capsys.readouterr().out
    assert checks(out)["b15"]["max"] == "2.500000e-01"


def a1_closed_form_table(path, N, extra=None):
    """Case A1 closed-form family sampled as a general state table in z,
    with ``extra`` columns {name: function of z} appended."""
    from f13 import conformal as cf
    from f13.numerics import Grid

    form = cf.CaseA1ClosedForm(A=1.0, sign=1, B=1.0)
    f = form.evaluate(Grid(0.0, 1.0, N))
    names = ["z", "F", "Theta", "sigma11", "sigma22", "udot3", "a3", "p",
             "pi11", "pi22", "Omega3", "mu"]
    cols = [f["z"], f["F"], f["Theta"], f["sigma11"], f["sigma11"], f["udot3"],
            f["a3"], f["p"], f["pi11"], f["pi11"], f["Omega3"], 3.0 * f["p"]]
    for name, of_z in (extra or {}).items():
        names.append(name)
        cols.append(of_z(f["z"]))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for i in range(N + 1):
            w.writerow([f"{c[i]:.17g}" for c in cols])
    return str(path)


def test_residual_gridded_closed_form_refines_at_4th_order(tmp_path, capsys):
    worst = {}
    for N in (250, 500, 1000):
        table = a1_closed_form_table(tmp_path / f"a1_{N}.csv", N)
        for system in ("general", "special"):
            assert main(["residual", "--table", table, "--system", system]) == 0
            text = capsys.readouterr().out
            worst.setdefault(system, []).append(
                float(text.splitlines()[-1].split("max_residual=")[1]))
    for system, errs in worst.items():
        order = np.log2(errs[-2] / errs[-1])
        print(system, errs, order)
        assert order > 3.5, (system, errs)


def test_residual_futurework_system(tmp_path, capsys):
    table = eds_table(tmp_path / "fw.csv", 50)
    assert main(["residual", "--table", table, "--system", "futurework"]) == 0
    out = capsys.readouterr().out
    assert "RES5" in out


def test_residual_insufficient_grid(tmp_path, capsys):
    with open(tmp_path / "tiny.csv", "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "p"])
        for i in range(3):
            w.writerow([str(0.1 * i), "0.0"])
    assert main(["residual", "--table", str(tmp_path / "tiny.csv")]) == 2
    assert "insufficient grid" in capsys.readouterr().err


def test_residual_unknown_column(tmp_path, capsys):
    with open(tmp_path / "unk.csv", "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "bogus"])
        for i in range(6):
            w.writerow([str(0.1 * i), "0.0"])
    assert main(["residual", "--table", str(tmp_path / "unk.csv")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_residual_tol_gates_result(tmp_path, capsys):
    table = eds_table(tmp_path / "tol.csv", 200)
    assert main(["residual", "--table", table, "--tol", "1e-3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT pass")
    assert main(["residual", "--table", table, "--tol", "1e-12"]) == 4
    assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT fail")


def test_residual_tol_gates_each_block(tmp_path, capsys):
    """With --tol each block line carries its own verdict: on this table
    divH alone exceeds 0.6, and the run exits 4."""
    table = a1_closed_form_table(tmp_path / "state.csv", 40, RESIDUAL_EXTRA["general"])
    assert main(["residual", "--table", table, "--tol", "0.6"]) == 4
    out = capsys.readouterr().out
    verdicts = {label: m["verdict"] for label, m in checks(out).items()}
    assert verdicts.pop("divH") == "FAIL"
    assert len(verdicts) == 14 and set(verdicts.values()) == {"pass"}
    assert out.splitlines()[-1] == "RESULT fail max_residual=0.81291923793609722"


def test_residual_lines_name_the_worst_point_in_the_table_coordinate(tmp_path, capsys):
    """A t-table's check lines give the worst point as t=..., not gated
    without --tol; a block that is zero everywhere names no point."""
    table = eds_table(tmp_path / "eds.csv", 50)
    assert main(["residual", "--table", table]) == 0
    found = checks(capsys.readouterr().out)
    assert len(found) == 15
    assert {m["verdict"] for m in found.values()} == {"(not gated)"}
    located = {label for label, m in found.items() if float(m["max"]) != 0.0}
    assert located == {"field1", "field3", "bianchi1"}
    for label, m in found.items():
        if label in located:
            assert m["coord"] == "t" and 0.5 <= float(m["at"]) <= 2.5, label
        else:
            assert m["coord"] is None and m["entry"] is None, label


@pytest.mark.parametrize("argv", [["--tol=nan"], ["--tol=inf"], ["--tol=-inf"],
                                  ["--tol", "abc"], ["--tol", "-inf"]])
def test_residual_non_finite_tol_is_config_error(tmp_path, capsys, argv):
    table = eds_table(tmp_path / "tol.csv", 20)
    assert main(["residual", "--table", table, *argv]) == 2
    out, err = capsys.readouterr()
    tol = argv[-1].removeprefix("--tol=")
    assert out == "" and err == f"config error: --tol must be a finite number, got {tol}\n"


@pytest.mark.parametrize("system", ["general", "special"])
def test_residual_duplicate_column_is_config_error(tmp_path, capsys, system):
    table = write(tmp_path / "dup.csv",
                  "z,p,mu,p\n" + "".join(f"{0.1 * i},1.0,0.5,{i}\n" for i in range(6)))
    assert main(["residual", "--table", table, "--system", system]) == 2
    assert capsys.readouterr().err == "config error: duplicate table columns: p\n"


@pytest.mark.parametrize("header, column", [("z,p,", 3), ("z,p,,", 3), ("z, ,p", 2)])
def test_residual_empty_column_name_is_config_error(tmp_path, capsys, header, column):
    row = ",".join(["{}"] + ["1.0"] * header.count(","))
    table = write(tmp_path / "empty.csv",
                  "\n".join([header] + [row.format(0.1 * i) for i in range(6)]) + "\n")
    assert main(["residual", "--table", table]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: table header has an empty column name (column {column})\n"


@pytest.mark.parametrize("command", ["solve", "spinor", "residual"])
def test_a_byte_order_mark_reads_as_its_plain_twin(tmp_path, capsys, command):
    """A UTF-8 byte-order mark in front of a config, a state file or a
    table changes no output byte."""
    out = tmp_path / "out.csv"
    text, flag, extra = {
        "solve": (A1_SOLVE.format(out=out), "--config", []),
        "spinor": ("[state]\nmu = 3.0\np = 1.0\npi11 = 1.0\n", "--state", []),
        "residual": ("z,p,mu\n" + "".join(f"{0.1 * i},1.0,{0.5 * i}\n" for i in range(6)),
                     "--table", ["--out", str(out)]),
    }[command]
    runs = []
    for bom in ("", "\ufeff"):
        code = main([command, flag, write(tmp_path / "input", bom + text), *extra])
        runs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0][0] != 2 and runs[1] == runs[0]


def test_residual_special_absent_sigma22_and_n22_take_the_ansatz(tmp_path, capsys):
    z = [0.025 * i for i in range(21)]
    rows = "".join(f"{zi!r},{0.1 + zi!r},{0.3 - zi * zi!r}\n" for zi in z)
    table = write(tmp_path / "ansatz.csv", "z,sigma11,n11\n" + rows)
    assert main(["residual", "--table", table, "--system", "special"]) == 0
    blocks = check_maxima(capsys.readouterr().out)
    assert blocks["b16"] == 0.0 and blocks["b17"] == 0.0
    # a sigma22 column off the ansatz shows in b16
    rows = "".join(f"{zi!r},{0.1 + zi!r},{0.3 - zi * zi!r},{0.25 + zi!r}\n" for zi in z)
    table = write(tmp_path / "off.csv", "z,sigma11,n11,sigma22\n" + rows)
    assert main(["residual", "--table", table, "--system", "special"]) == 0
    blocks = check_maxima(capsys.readouterr().out)
    assert blocks["b16"] == pytest.approx(0.15) and blocks["b17"] == 0.0


def test_residual_special_reads_the_csv_solve_a1_writes(tmp_path, capsys):
    """Every column of the a1 CSV is accepted, firstintegral_A is ignored,
    and the absent pi22 reads as its ansatz value."""
    out = tmp_path / "a1.csv"
    assert main(["solve", "--config", write(tmp_path / "a1.cfg", A1_SOLVE.format(out=out))]) == 0
    capsys.readouterr()
    assert main(["residual", "--table", str(out), "--system", "general"]) == 0
    capsys.readouterr()
    assert main(["residual", "--table", str(out), "--system", "special"]) == 0
    blocks = check_maxima(capsys.readouterr().out)
    assert blocks["ansatz_pi22"] == 0.0 and blocks["ansatz_mu3p"] == 0.0
    assert blocks["b8"] < 1e-8  # the FD e_3(pi11) equation on RK4 data


@pytest.mark.parametrize("pi22", [None, 0.1])
def test_residual_special_absent_pi22_takes_the_ansatz(tmp_path, capsys, pi22):
    """No pi22 column reads as pi22 = pi11 (no deviation); a given one is
    checked against pi11."""
    z = [0.025 * i for i in range(21)]
    header = "z,p,pi11" + ("" if pi22 is None else ",pi22")
    rows = "".join(f"{zi!r},{0.2 + zi!r},{0.5 - zi * zi!r}"
                   + ("" if pi22 is None else f",{0.5 - zi * zi + pi22!r}") + "\n" for zi in z)
    table = write(tmp_path / "pi.csv", header + "\n" + rows)
    assert main(["residual", "--table", table, "--system", "special"]) == 0
    blocks = check_maxima(capsys.readouterr().out)
    assert blocks["ansatz_pi22"] == (0.0 if pi22 is None else pytest.approx(0.1, rel=1e-12))


# the state columns residual accepted before the named-component map
STATE_COLUMNS = (
    "mu p Theta q1 q2 q3 udot1 udot2 udot3 omega1 omega2 omega3 Omega1 Omega2 Omega3 a1 a2 a3 "
    "pi11 pi22 pi12 pi13 pi23 sigma11 sigma22 sigma12 sigma13 sigma23 n11 n22 n33 n12 n13 n23 "
    "E11 E22 E12 E13 E23 H11 H22 H12 H13 H23").split()


def test_residual_accepts_the_44_state_columns(tmp_path, capsys):
    from f13.cli import _TABLE_COLS

    assert len(STATE_COLUMNS) == 44 and set(_TABLE_COLS) == set(STATE_COLUMNS)
    header = ["z", *STATE_COLUMNS, "Lambda", "F", "firstintegral_A"]
    rows = "".join(",".join([repr(0.05 * i)] + [repr(0.01 * (k + 1) * (1.0 + 0.05 * i))
                                                 for k in range(len(header) - 1)]) + "\n"
                   for i in range(8))
    table = write(tmp_path / "all.csv", ",".join(header) + "\n" + rows)
    for system in RESIDUAL_SYSTEMS:
        assert main(["residual", "--table", table, "--system", system]) == 0, system
        assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT pass")
    for name in ("pi33", "sigma33", "E33", "H33", "Lam"):
        bad = write(tmp_path / f"{name}.csv", f"z,{name}\n" + "".join(f"{i},0.0\n" for i in range(6)))
        assert main(["residual", "--table", bad]) == 2
        assert capsys.readouterr().err == f"config error: unknown table columns: {name}\n"


def test_residual_general_differentiates_each_column_once(tmp_path, capsys, monkeypatch):
    import f13.cli

    calls = []
    fd = f13.cli.fd_derivative
    monkeypatch.setattr(f13.cli, "fd_derivative",
                        lambda samples, grid: calls.append(1) or fd(samples, grid))
    table = write(tmp_path / "offdiag.csv", "z,F,p,n12,sigma13\n" + "".join(
        f"{0.1 * i},1.5,{0.5 + i},{0.1 * i * i},{1.0 - 0.2 * i}\n" for i in range(8)))
    assert main(["residual", "--table", table]) == 0
    assert len(calls) == 3  # p, n12 and sigma13; z and F are not state columns


@pytest.mark.parametrize("coord, slot", [("z", 3), ("t", 0)])
def test_residual_general_jet_holds_only_column_derived_entries(tmp_path, coord, slot):
    """The table jet holds each state column itself, its frame derivative,
    the 33 entries of the trace-free tensors given by a diagonal column, and
    Lambda; no zero array stands in for an absent column."""
    from f13.cli import _e_derivatives, _jet_arrays_from_table

    names = ("mu", "sigma11", "sigma12", "pi22", "E11", "E22", "a3")
    table = write(tmp_path / "jet.csv", ",".join((coord, "F", "Lambda", *names)) + "\n" + "".join(
        ",".join(repr(x) for x in (0.1 * i, 1.5 + 0.01 * i, -0.25, *(
            (k + 1) * 0.1 + 0.02 * i * i * (k - 2) for k in range(len(names))))) + "\n"
        for i in range(9)))
    _, grid, cols = _read_table(table)
    ja = _jet_arrays_from_table(coord, grid, cols)
    e = _e_derivatives(grid, cols["F"], {name: cols[name] for name in names})
    expected = {("Lam", ()): cols["Lambda"]}
    for name in names:
        field, indices = fe.COMPONENT_NAMES[name]
        for index in indices:
            expected[(field, index)] = cols[name]
            expected[("d" + field, (slot,) + index)] = e[name]
    zero = np.zeros(grid.N + 1)
    for base, (x11, x22) in {"pi": (zero, cols["pi22"]), "sigma": (cols["sigma11"], zero),
                             "E": (cols["E11"], cols["E22"])}.items():
        expected[(base, (2, 2))] = -(x11 + x22)
        d11, d22 = (e.get(f"{base}{i}{i}", zero) for i in (1, 2))
        expected[("d" + base, (slot, 2, 2))] = -(d11 + d22)
    assert ja.entries.keys() == expected.keys()
    for key, x in expected.items():
        assert np.array_equal(ja.entries[key], x), key
        assert ja.entries[key].any(), key
        if not key[0].startswith("d") and key[1] != (2, 2):
            assert ja.entries[key] is x, key  # the column itself, a view of the table
    # the name views read the general jet: the same arrays, 0.0 where unset
    assert ja.value.sigma12 is cols["sigma12"] and ja.value.Lam is cols["Lambda"]
    assert ja.deriv[slot].sigma12 is ja.entries[("dsigma", (slot, 1, 0))]
    assert ja.deriv[slot].pi33 is ja.entries[("dpi", (slot, 2, 2))]
    assert ja.value.q1 == 0.0 and ja.deriv[3 - slot].mu == 0.0 and ja.value.H23 == 0.0


def test_solve_full_check_runs_frame_suite(tmp_path, capsys):
    out = tmp_path / "fc.csv"
    cfg = write(tmp_path / "fc.cfg",
                A1_SOLVE.format(out=out).replace(
                    "output = ", "full_check = true\noutput = "))
    assert main(["solve", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "frame-suite" in text


# ---------------------------------------------------------------------------
# CSV writer and config-error regressions
# ---------------------------------------------------------------------------


def write_csv_per_value(path, header, columns):
    """The writer with one _fmt call per value."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(columns[0])):
            writer.writerow([_fmt(col[i]) for col in columns])


def assert_writes_like_per_value(directory, columns, header=None):
    header = header or [f"c{i}" for i in range(len(columns))]
    _write_csv(str(directory / "new.csv"), header, columns)
    write_csv_per_value(str(directory / "ref.csv"), header, columns)
    assert (directory / "new.csv").read_bytes() == (directory / "ref.csv").read_bytes()


@EXACT
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60), st.integers(1, 4))
def test_write_csv_matches_per_value_writer(bits, ncols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    rows = -(-values.size // ncols)
    table = np.resize(values, (rows, ncols))
    with tempfile.TemporaryDirectory() as directory:
        assert_writes_like_per_value(Path(directory), list(table.T))


def below_powers_of_ten():
    """The doubles nearest to 10**j that lie below it; some print as 10**j."""
    nearest = [float(f"1e{j}") for j in range(-300, 300)]
    return [x for x in nearest if Fraction(x) < Fraction(10) ** int(f"{x:e}".split("e")[1])]


def write_csv_fixed_cases():
    """Values chosen at the edges of the block formatter."""
    rng = np.random.default_rng(5)
    m = rng.integers(4 * 10**15, 9 * 10**15, 2000) | 1
    ties = m / 4.0  # exact, fraction .25 or .75: a tie at 17 digits
    powers = np.array([float(f"1e{j}") for j in range(-7, 18)])
    carries = below_powers_of_ten()
    # the only ties below 1e-6: odd m * 2**-j with m * 5**j of 18 digits
    inexact_ties = np.array([m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25])
    bounds = np.array([1e-6, 1e16, 1e17, 1e-280, 1e290])
    integers = rng.integers(1, 10**6, 2000) * 10.0 ** rng.integers(0, 12, 2000)
    subnormal = rng.integers(1, 2**52, 500).astype(np.int64).view(np.float64)
    values = np.concatenate([
        ties, inexact_ties, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), carries,
        bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf), integers,
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308],
        subnormal, np.ldexp(1.0, np.arange(-1074, 1024)), np.ldexp(3.0, np.arange(-1074, 1022)),
    ])
    return np.concatenate([values, -values]), carries, inexact_ties


def test_write_csv_matches_per_value_writer_at_the_edges(tmp_path):
    values, carries, inexact_ties = write_csv_fixed_cases()
    # some doubles below a power of ten print as that power: the carry is taken
    assert any(_fmt(x).startswith("1e") for x in carries)
    # a tie the inexact product cannot settle is left to '%.17g'
    assert csvtext._decimal(inexact_ties)[3].tolist() == list(range(inexact_ties.size))
    assert_writes_like_per_value(tmp_path, [values, values[::-1]])


def test_write_csv_matches_per_value_writer_special_and_strided(tmp_path):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308 / 3.0, 1e300, -1e300, 1e-300,
                        -1e-300, 0.1, 1.0 / 3.0, -123456789.123456789, 2.0**53 + 1])
    rng = np.random.default_rng(3)
    wide = rng.uniform(-1.0, 1.0, special.size) * 10.0 ** rng.integers(-300, 300, special.size)
    table = np.stack([special, special[::-1], wide], axis=1)
    columns = [special, table[:, 1], wide, np.arange(special.size)]  # strided, int
    assert_writes_like_per_value(tmp_path, columns, ["z", "rev", "wide", "idx"])


# values outside the exact range 1e-6 < |x| < 1e16: a zero keeps its block
# on the exact-range path, each other value sends it down the general path
OUTSIDERS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, 1e16, 5e-324,
             *(x for x in below_powers_of_ten() if _fmt(x).startswith("1e"))]


@EXACT
@given(st.sampled_from([1, 3 * 7, 4 * 64, csvtext.BLOCK_VALUES]), st.integers(1, 4),
       st.integers(1, 200), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.sampled_from(OUTSIDERS)), st.floats(0.0, 1.0, exclude_max=True),
       st.sampled_from([0, 1, 5, "column"]))
def test_write_csv_exact_range_blocks_with_one_outsider(block_values, ncols, rows, seed,
                                                        outsider, where, zeros):
    """Exact-range values with at most one outsider, and with none, a few
    or a column of signed zeros besides."""
    rng = np.random.default_rng(seed)
    shape = (rows, ncols)
    # |x| = m * 10**k with m in [1, 10) and k from -6 to 15, random signs
    table = (rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape)
             * 10.0 ** rng.integers(-6, 16, shape))
    at = (np.arange(0, table.size, ncols) if zeros == "column"
          else rng.integers(0, table.size, zeros))
    table.flat[at] = rng.choice([0.0, -0.0], at.size)
    if outsider is not None:
        table.flat[int(where * table.size)] = outsider
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as directory:
        patch.setattr(csvtext, "BLOCK_VALUES", block_values)
        assert_writes_like_per_value(Path(directory), list(table.T))


def test_write_csv_zeros_keep_a_block_on_the_exact_range_path(tmp_path, monkeypatch):
    """A block of exact-range values and signed zeros takes the exact-range
    path, which writes the zeros by index as special values: the first
    block of a solve CSV, whose z column starts at 0.0."""
    paths = []
    scaled = csvtext._scaled
    monkeypatch.setattr(csvtext, "_scaled",
                        lambda a, ah, al, k, exact=False: paths.append(exact)
                        or scaled(a, ah, al, k, exact))
    x = np.array([0.0, 0.5, -0.0, 123.25, -7e-6, 0.0])
    D, k, special, slow = csvtext._decimal(x)
    assert paths and all(paths)
    assert special.tolist() == [0, 2, 5] and slow.size == 0
    assert D[special].tolist() == [0, 0, 0] and k[special].tolist() == [0, 0, 0]
    # the smallest nonzero |x| decides, at the edge of the open range too;
    # a block of zeros alone takes the exact-range path
    lo = csvtext._EXACT_LO
    for block, exact in (([0.0, 0.5, 1e-7], False), ([0.0, 0.5, lo], False),
                         ([0.0, -np.nextafter(lo, 1.0), 0.5], True), ([-0.0, 5e-324], False),
                         ([0.0, -0.0], True)):
        paths.clear()
        csvtext._decimal(np.array(block))
        assert paths and all(path == exact for path in paths), block
    assert_writes_like_per_value(tmp_path, [x, x[::-1]])


@pytest.mark.parametrize("rows", [511, 512, 513])
def test_write_csv_rows_across_a_block_edge(tmp_path, rows):
    ncols = csvtext.BLOCK_VALUES // 512  # a block of 512 rows
    rng = np.random.default_rng(rows)
    z = np.linspace(0.0, 1.0, rows)
    assert_writes_like_per_value(tmp_path, [z, *rng.standard_normal((ncols - 1, rows)) * 1e-9])


def width_blocks(rows):
    """Blocks of rows x 3 values that need different slot widths, with the
    widest value first in some blocks and last in others."""
    rng = np.random.default_rng(22)

    def block(wide=None, at=0):
        values = rng.uniform(1.0, 10.0, (rows, 3))
        if wide is not None:
            values.flat[at] = wide
        return values

    blocks = [
        block(),  # [1, 10): a one-word head, no exponent
        -rng.uniform(1e-4, 1e-3, (rows, 3)),  # '-0.000' leaders
        block(1.2345678901234567e16), block(-9.87654321e16, -1),  # 17 integer digits
        block(3.5e-200), block(-7.25e123, -1), block(1e-5, -1),  # exponents
        block(0.0), block(-0.0, -1), block(np.inf), block(-np.inf, -1), block(np.nan, -1),
        block(at=-1),
    ]
    tiny = blocks[1].copy()  # two-word heads and a three-digit exponent
    tiny.flat[-1] = -3.5e-200
    mixed = block(123.25)  # a two-word head, integer words and an exponent
    mixed.flat[[1, -1]] = -1.25e-4, -2.5e-250
    return [*blocks, tiny, mixed]


@pytest.mark.parametrize("block_rows", [1, 7, 512, csvtext.BLOCK_VALUES // 3])
def test_write_csv_blocks_of_different_widths(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(csvtext, "BLOCK_VALUES", 3 * block_rows)
    blocks = width_blocks(block_rows)
    widths = [len(csvtext._slots(b.ravel(), 3)[0]) for b in blocks]
    assert widths == [7, 7, 11, 11, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 10]
    assert_writes_like_per_value(tmp_path, list(np.concatenate(blocks).T))


def test_write_csv_same_bytes_for_any_block_size(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    blocks = width_blocks(150)
    table = np.concatenate(blocks)[rng.permutation(len(blocks) * 150)]
    columns = list(table.T)
    write_csv_per_value(str(tmp_path / "ref.csv"), ["a", "b", "c"], columns)
    # 1, 7, 512 and the default number of rows a block, the first from a
    # BLOCK_VALUES below the row's width
    for block_values in (1, 3 * 7, 3 * 512, csvtext.BLOCK_VALUES):
        monkeypatch.setattr(csvtext, "BLOCK_VALUES", block_values)
        _write_csv(str(tmp_path / "new.csv"), ["a", "b", "c"], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_block_of_values_left_to_format(tmp_path):
    """Subnormals are left to '%.17g', and their text fits the slot."""
    tiny = -np.array([2.2250738585072014e-308, 5e-324, 1.2345678901234567e-310])
    assert len(csvtext._slots(tiny, 1)[0]) == 7
    assert csvtext._decimal(tiny)[3].tolist() == [0, 1, 2]
    assert_writes_like_per_value(tmp_path, [tiny])


def test_write_csv_without_rows_writes_the_header(tmp_path):
    assert_writes_like_per_value(tmp_path, [np.zeros(0), np.zeros(0)])


def test_solve_unwritable_output_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "a1.csv"
    cfg = write(tmp_path / "a1.cfg", A1_SOLVE.format(out=out))
    assert main(["solve", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write csv {str(out)!r}: ")
    assert "RESULT" not in captured.out


def test_residual_out_directory_is_config_error(tmp_path, capsys):
    table = eds_table(tmp_path / "eds.csv", 60)
    assert main(["residual", "--table", table, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write csv {str(tmp_path)!r}: ")


def frame_table(path, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("z,F\n" + "".join(f"{z!r},{F!r}\n" for z, F in rows))
    return str(path)


def test_solve_frame_factor_below_zero_is_config_error(tmp_path, capsys):
    """Positive F nodes whose cubic spline dips to about -0.13 between them."""
    table = frame_table(tmp_path / "dip.csv", [(0.0, 1.0), (0.25, 0.02), (0.5, 0.02),
                                               (0.75, 1.0), (1.0, 1.0)])
    cfg = write(tmp_path / "dip.cfg", f"""\
[scenario]
case = a2
output = {tmp_path / 'dip_out.csv'}

[frame]
F_table = {table}

[grid]
z0 = 0.0
z1 = 1.0
N = 200

[initial]
p = 0.1
udot3 = 0.2
a3 = 0.3
Omega3 = 1.0
""")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: frame factor must be positive and finite at z=")


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("case, constant", [("a2-branch1", "C = 1.0"),
                                            ("a2-branch2", "D = -1.0"),
                                            ("a1-shearless", "C = 1.0")],
                         ids=["a2-branch1", "a2-branch2", "a1-shearless"])
def test_branch_on_a_frame_factor_below_zero_is_config_error(tmp_path, capsys, command,
                                                             case, constant):
    """The branches integrate 1/F; where the spline dips below zero they name
    the first bad grid point, as the RK4 cases do, instead of reporting a
    quadrature that does not converge."""
    table = frame_table(tmp_path / "dip.csv", [(0.0, 1.0), (0.25, 0.02), (0.5, 0.02),
                                               (0.75, 1.0), (1.0, 1.0)])
    output = f"output = {tmp_path / 'dip_out.csv'}\n" if command == "solve" else ""
    cfg = write(tmp_path / "dip.cfg", f"""\
[scenario]
case = {case}
{output}
[frame]
F_table = {table}

[constants]
{constant}

[grid]
z0 = 0.0
z1 = 1.0
N = 200
""")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: frame factor must be positive and finite "
                                   "at z=0.26, got -0.00207")
    assert not (tmp_path / "dip_out.csv").exists()


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("case, constant", [("a2-branch1", "C = 1.0"),
                                            ("a2-branch2", "D = -1.0"),
                                            ("a1-shearless", "C = 1.0")],
                         ids=["a2-branch1", "a2-branch2", "a1-shearless"])
def test_branch_frame_factor_error_names_the_first_bad_grid_point(tmp_path, capsys, command,
                                                                  case, constant):
    """The spline dips below zero from z = 0.259.  On N = 40 cells the first
    bad grid point is z = 0.275, and the grid of 80 cells, on which the
    refined quadrature evaluates F first, has a bad point before it, at
    z = 0.2625: the error names the grid point."""
    table = frame_table(tmp_path / "dip.csv", [(0.0, 1.0), (0.25, 0.02), (0.5, 0.02),
                                               (0.75, 1.0), (1.0, 1.0)])
    output = f"output = {tmp_path / 'dip_out.csv'}\n" if command == "solve" else ""
    cfg = write(tmp_path / "dip.cfg", f"""\
[scenario]
case = {case}
{output}
[frame]
F_table = {table}

[constants]
{constant}

[grid]
z0 = 0.0
z1 = 1.0
N = 40
""")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: frame factor must be positive and finite "
                            "at z=0.275, got -0.03218500000000003\n")
    assert not (tmp_path / "dip_out.csv").exists()


def run_python(args, cwd):
    """A fresh interpreter that imports f13 from this checkout."""
    src = str(Path(fe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_solve_and_verify_with_a_frame_table_run_without_scipy(tmp_path):
    """scipy is a test-only dependency: a tabulated frame factor needs only numpy."""
    table = frame_table(tmp_path / "F.csv", [(z, 1.0 + 0.1 * z * z) for z in
                                             np.linspace(0.0, 1.0, 11).tolist()])
    solve = write(tmp_path / "a1.cfg", A1_SOLVE.format(out=tmp_path / "a1.csv")
                  .replace("F = 1.0", f"F_table = {table}"))
    verify = write(tmp_path / "b1.cfg", f"""\
[scenario]
case = a2-branch1

[frame]
F_table = {table}

[constants]
C = 1.0

[grid]
z0 = 0.0
z1 = 0.4
N = 200
""")
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from f13.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["solve", "--config", solve], ["verify", "--config", verify]):
        proc = run_python(["-c", code, *argv], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1].startswith("RESULT pass max_residual=")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_main_lets_numpy_temporaries_reuse_heap_pages(tmp_path):
    """After main, twelve live 1 MiB arrays at a time come from the heap and
    stay there when freed: allocating them again faults no fresh pages in.
    glibc's default thresholds map and unmap each one afresh, and a trim
    threshold below 12 MiB hands the freed top of the heap back to the
    kernel after every round."""
    code = textwrap.dedent("""\
        import resource
        import numpy as np
        from f13.cli import main
        main(["spinor", "--state", "missing.txt"])
        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 17) for _ in range(12)]
        del arrays
        before = faults()
        for _ in range(10):
            arrays = [np.ones(1 << 17) for _ in range(12)]
            del arrays
        print(faults() - before)
    """)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100  # about 2,000 a round with an 8 MiB trim threshold


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_second_verify_reuses_the_heap_pages_of_the_first(tmp_path):
    """A verify report on 2*10^4 points frees more than 8 MiB at the top of
    the heap; a second verify in the same process finds those pages still
    mapped, where an 8 MiB trim threshold made it fault them in again."""
    cfg = write(tmp_path / "v.cfg",
                VERIFY_A1.format(A=1.9, extra="").replace("N = 500", "N = 20000"))
    code = textwrap.dedent(f"""\
        import contextlib, io, resource
        from f13.cli import main
        def verify():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["verify", "--config", {str(cfg)!r}]) == 0
        verify()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verify()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100  # about 2,850 with an 8 MiB trim threshold


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux sets the thresholds")
def test_main_sets_the_heap_thresholds_once_per_process(tmp_path, capsys, monkeypatch):
    """The mallopt settings hold for the whole process, so a second main
    call does not open the C library again."""
    opened = []
    real = ctypes.CDLL

    def counting(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting)
    _serve_temporaries_from_the_heap.cache_clear()
    for _ in range(2):
        assert main(["spinor", "--state", str(tmp_path / "missing.txt")]) == 2
    assert "config error" in capsys.readouterr().err
    assert opened == [(None,)]


def test_grid_outside_frame_table_is_config_error(tmp_path, capsys):
    table = frame_table(tmp_path / "half.csv", [(0.0, 1.0), (0.25, 1.1), (0.5, 1.2),
                                                (0.75, 1.1), (0.8, 1.0)])
    cfg = write(tmp_path / "out.cfg",
                A1_SOLVE.format(out=tmp_path / "o.csv").replace("F = 1.0", f"F_table = {table}"))
    assert main(["solve", "--config", cfg]) == 2
    assert "outside the frame table range" in capsys.readouterr().err
    # inside the table range the same config solves
    text = Path(cfg).read_text(encoding="utf-8")
    inside = write(tmp_path / "in.cfg", text.replace("z1 = 1.0", "z1 = 0.8")
                   + "\n[tolerances]\nresidual_tol = 1e-6\n")
    assert main(["solve", "--config", inside]) == 0
    capsys.readouterr()

    verify = write(tmp_path / "vb.cfg", f"""\
[scenario]
case = a2-branch1

[frame]
F_table = {table}

[constants]
C = 1.0

[grid]
z0 = -0.1
z1 = 0.4
N = 200
""")
    assert main(["verify", "--config", verify]) == 2
    assert capsys.readouterr().err == ("config error: grid [-0.1, 0.4] extends outside the "
                                       "frame table range [0.0, 0.8]\n")
    # a table the spline cannot take is a config error too
    frame_table(tmp_path / "half.csv", [(0.0, 1.0), (0.5, 1.2), (0.25, 1.1), (0.8, 1.0)])
    assert main(["verify", "--config", verify]) == 2
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [[], [(0.0, 1.0)]], ids=["header-only", "one-row"])
def test_frame_table_with_fewer_than_two_rows_is_config_error(tmp_path, capsys, rows):
    table = frame_table(tmp_path / "short.csv", rows)
    cfg = write(tmp_path / "b2.cfg", f"""\
[scenario]
case = a2-branch2
output = {tmp_path / 'b2.csv'}

[frame]
F_table = {table}

[grid]
z0 = 0.0
z1 = 0.5
N = 100

[constants]
D = -1.0
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: frame table needs at least two rows: {table}\n"


@pytest.mark.parametrize("row", ["0.5,abc", "0.5,1.0,2.0"], ids=["non-numeric", "ragged"])
def test_frame_table_bad_row_is_config_error(tmp_path, capsys, row):
    table = tmp_path / "bad.csv"
    table.write_text(f"z,F\n0.0,1.0\n{row}\n1.0,1.0\n", encoding="utf-8")
    cfg = write(tmp_path / "b2.cfg", f"""\
[scenario]
case = a2-branch2
output = {tmp_path / 'b2.csv'}

[frame]
F_table = {table}

[grid]
z0 = 0.0
z1 = 0.5
N = 100

[constants]
D = -1.0
""")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: bad frame table {str(table)!r}: ")


def test_verify_branch_clipped_at_a_pole_prints_the_clipped_grid(tmp_path, capsys):
    """The title line names the grid the jet is evaluated on, as for case a1."""
    cfg = write(tmp_path / "clip.cfg", """\
[scenario]
case = a1-shearless

[frame]
F = 1.0

[constants]
C = 1.0

[grid]
z0 = 0.0
z1 = 0.9
N = 90
""")
    main(["verify", "--config", cfg])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verify case=a1-shearless grid=[0,0.499] N=90"
    assert lines[1] == "note: denominator sign change near z=0.5; clipped to [0, 0.499]"


def test_read_table_matches_per_cell_float_parse(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-300, 300, (40, 4))
    values[:, 0] = np.arange(40) * 0.125
    values[3, 2] = -0.0
    lines = ["z, p,mu ,Theta"] + [",".join(repr(float(x)) for x in row) for row in values]
    lines.insert(7, "")  # blank rows are skipped
    lines[9] = lines[9].replace(",", " , ")
    path = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
    coord, grid, cols = _read_table(path)
    assert coord == "z" and grid.N == 39 and list(cols) == ["z", "p", "mu", "Theta"]
    with open(path, encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    expected = np.array([[float(x) for x in row] for row in rows[1:]])
    data = np.stack(list(cols.values()), axis=1)
    assert np.array_equal(data, expected) and data.tobytes() == expected.tobytes()


def test_residual_table_errors_name_the_row_width_or_the_entry(tmp_path, capsys):
    good = [f"{0.1 * i},0.5,1.5" for i in range(6)]
    ragged = write(tmp_path / "ragged.csv", "\n".join(["z,p,mu"] + good[:3] + ["0.3,0.5"]
                                                       + good[4:]) + "\n")
    assert main(["residual", "--table", ragged]) == 2
    assert capsys.readouterr().err == "config error: table rows have 2 cells, header has 3\n"
    bad = write(tmp_path / "bad.csv", "\n".join(["z,p,mu"] + good[:2] + ["0.2,abc,1.5"]
                                                 + good[3:]) + "\n")
    assert main(["residual", "--table", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: non-numeric table entry: ") and "abc" in err


def test_residual_nan_cell_is_config_error(tmp_path, capsys):
    """The entry reads as Python prints the float, as in the frame factor's
    error, not as numpy's repr (np.float64(inf))."""
    for cell in ("nan", "inf", "-inf"):
        with open(tmp_path / "nan.csv", "w", newline="\n", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["z", "p", "mu"])
            for i in range(6):
                w.writerow([str(0.1 * i), cell if i == 3 else "0.5", "1.5"])
        assert main(["residual", "--table", str(tmp_path / "nan.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: non-finite table entry {cell} in column 'p', data row 4\n")
    # rows shorter than the header
    with open(tmp_path / "short.csv", "w", newline="\n", encoding="utf-8") as fh:
        fh.write("z,p,mu\n" + "".join(f"{0.1 * i},0.5\n" for i in range(6)))
    assert main(["residual", "--table", str(tmp_path / "short.csv")]) == 2
    assert "header has 3" in capsys.readouterr().err


def test_verify_a1_non_finite_constant_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "nan.cfg", VERIFY_A1.format(A="nan", extra=""))
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad value for constants.A: not a finite number")


def test_verify_a1_overflowing_residual_fails_without_traceback(tmp_path, capsys):
    cfg = write(tmp_path / "huge.cfg",
                VERIFY_A1.format(A="1e308", extra="").replace("B = 1.0", "B = 1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the note reports the overflow, numpy does not warn
        assert main(["verify", "--config", cfg]) == 4
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[-2].startswith("note: non-finite residual in block ")
    assert lines[-1] == "RESULT fail max_residual=inf"
    assert err == ""


@pytest.mark.parametrize("B", ["0.0", "1.0"])
def test_verify_a1_past_the_overflow_of_e_z_fails_on_a_non_finite_residual(tmp_path, capsys, B):
    """e^z overflows past z = 709.78: sigma11 and, for B != 0, Omega3 =
    B e^(z - z0) are inf there, and the residuals report it.  Both B end
    alike (B != 0 integrated Omega3 before, which did not converge and
    gave a config error)."""
    cfg = write(tmp_path / "over.cfg", VERIFY_A1.format(A="1.0", extra="").replace(
        "B = 1.0", f"B = {B}").replace("z1 = 1.0", "z1 = 800.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg]) == 4
    out, err = capsys.readouterr()
    assert out.splitlines()[-2:] == ["note: non-finite residual in block b1",
                                     "RESULT fail max_residual=inf"]
    assert err == ""


def test_residual_overflowing_cell_fails_without_traceback(tmp_path, capsys):
    rows = ["z,p,mu"] + [f"{0.1 * i},{'1e308' if i == 3 else '0.5'},1.5" for i in range(8)]
    table = write(tmp_path / "huge.csv", "\n".join(rows) + "\n")
    notes = {"general": "note: non-finite residual in block field1",
             "special": "note: non-finite residual in block b7",
             "futurework": "note: non-finite residual in block BS4_e3p"}
    for system, note in notes.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["residual", "--table", table, "--system", system]) == 4, system
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[-2] == note, system
        assert lines[-1] == "RESULT fail max_residual=inf", system
        assert err == "", system


def test_solve_branch2_infinite_constant_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "b2.cfg", f"""\
[scenario]
case = a2-branch2
output = {tmp_path / 'b2.csv'}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.5
N = 100

[constants]
D = inf
""")
    assert main(["solve", "--config", cfg]) == 2
    assert "constants.D: not a finite number: 'inf'" in capsys.readouterr().err
    assert not (tmp_path / "b2.csv").exists()


def test_solve_a1_nan_initial_value_is_config_error(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    cfg = write(tmp_path / "nan.cfg",
                A1_SOLVE.format(out=out).replace("sigma11 = 0.1", "sigma11 = nan"))
    assert main(["solve", "--config", cfg]) == 2
    assert "initial.sigma11: not a finite number: 'nan'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# characterization: exit code, CSV bytes and RESULT line of every case
# ---------------------------------------------------------------------------


def config_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def grid(z1, N, z0=0.0):
    return {"z0": z0, "z1": z1, "N": N}


CHARACTERIZED = {
    # (command, sections, exit code, sha256 of the CSV (solve) or of the
    # check and note lines (verify), RESULT line)
    "solve-a1-A": ("solve", {
        "scenario": {"case": "a1", "full_check": "true"}, "frame": {"F": 1.0},
        "grid": grid(1.0, 200), "initial": {"sigma11": 0.1, "Omega3": 1.0},
        "constants": {"A": 1.0, "sign": -1}},
        0, "55911ccd8cbeb2ee9bdb14c392c7649bcf054e41e475972b9799f3edeaab10ce",
        "RESULT pass max_residual=3.624078814823406e-11"),
    "solve-a1-a3": ("solve", {
        "scenario": {"case": "a1"}, "frame": {"F_table": "{table}"},
        "grid": grid(1.0, 160), "initial": {"sigma11": 0.2, "a3": 0.4, "Omega3": -0.5},
        "tolerances": {"residual_tol": 1e-7}},
        0, "65371590c10324f12a6dabb9945fb3c3385e388434e7f8a14bae2b2d597c5c3a",
        "RESULT pass max_residual=3.4225101530616087e-08"),
    "solve-a1-shearless": ("solve", {
        "scenario": {"case": "a1-shearless", "full_check": "true"}, "frame": {"F": 1.0},
        "grid": grid(0.4, 120), "constants": {"C": 1.0, "B": 1.0}},
        0, "085986e1cd3c55134c5d7ca07e463d439e221fc59381b99490f9820a6a7adf05",
        "RESULT pass max_residual=5.1159076974727213e-13"),
    "solve-a2": ("solve", {
        "scenario": {"case": "a2", "full_check": "true"}, "frame": {"F": 1.0},
        "grid": grid(0.5, 200),
        "initial": {"p": 0.1, "udot3": -0.3, "a3": 0.5, "Omega3": 0.7},
        "tolerances": {"residual_tol": 1e-7}},
        0, "f60de1cd4961f3ebdd785cd99a25b34f60116e4dfe8af66f2f39e006afe90ca4",
        "RESULT pass max_residual=9.854109750406792e-09"),
    "solve-a2-branch1": ("solve", {
        "scenario": {"case": "a2-branch1"}, "frame": {"F_table": "{table}"},
        "grid": grid(0.3, 100), "constants": {"C": 1.0, "B": 0.5}},
        0, "8e28ec1bf0c6d359d0ba01808f36ee16cb8bb05816333b5db9b59feb6ce9aa28",
        "RESULT pass max_residual=3.5527136788005009e-15"),
    "solve-a2-branch2": ("solve", {
        "scenario": {"case": "a2-branch2", "full_check": "true"}, "frame": {"F": 0.8},
        "grid": grid(0.5, 100), "constants": {"D": 1.0, "B": 1.0}},
        0, "d1918fa9fd7b81f57a6d5984c62076f58d3badd36a2255898f5e1e080d587a5d",
        "RESULT pass max_residual=1.1368683772161603e-13"),
    "solve-a1-pole": ("solve", {
        "scenario": {"case": "a1"}, "frame": {"F": 1.0},
        "grid": grid(1.0, 400), "initial": {"sigma11": 0.5, "Omega3": 1.0},
        "constants": {"A": 1.0}},
        3, "e28a8280809d09104106d351bd64b79f4009be75e8534b7ca8d031c7b9b332e6",
        "RESULT fail max_residual=inf"),
    "solve-a1-shearless-pole": ("solve", {
        "scenario": {"case": "a1-shearless"}, "frame": {"F": 1.0},
        "grid": grid(0.9, 90), "constants": {"C": 1.0}},
        3, "fe79f3133b732a44679eebf008954b353bf54f477471f4a30bcf3cb375263985",
        "RESULT pass max_residual=1.8189894035458565e-12"),
    "verify-a1": ("verify", {
        "scenario": {"case": "a1"}, "grid": grid(1.0, 200),
        "constants": {"A": 1.0, "B": 1.0, "sign": -1}},
        0,
        "b8f864da2d3d7a24a283099f7feb484e934723bb70de1a5793a55e237b4e2ab9",
        "RESULT pass max_residual=5.1159076974727213e-12"),
    "verify-a1-shearless": ("verify", {
        "scenario": {"case": "a1-shearless"}, "frame": {"F_table": "{table}"},
        "grid": grid(0.4, 120), "constants": {"C": 1.0, "B": 1.0}},
        0,
        "5f1a82579c30c328b417b976bfae7096d01bea00650afebad484c4d73942b4fb",
        "RESULT pass max_residual=1.2789769243681803e-13"),
    "verify-a2-branch1": ("verify", {
        "scenario": {"case": "a2-branch1"}, "frame": {"F": 1.0},
        "grid": grid(0.4, 120), "constants": {"C": 1.0}},
        0,
        "4be810b204dcdfedda70a82d02661a035ef45027947e96a8d166578eb674579e",
        "RESULT pass max_residual=5.1159076974727213e-13"),
    "verify-a2-branch2-perturbed": ("verify", {
        "scenario": {"case": "a2-branch2"}, "frame": {"F": 1.0},
        "grid": grid(0.5, 100), "constants": {"D": 1.0, "B": 0.5},
        "perturb": {"a3": 1e-6}},
        4,
        "312c6695ee86e8927d053c20b5549201571411dcdd05171a61599d54bbb80564",
        "RESULT fail max_residual=2.4000002994739589e-05"),
    # an exact closed form clipped just ahead of its pole, where a3 is about
    # 1000: the widest-ranged jet whose every line is pinned
    "verify-a1-shearless-pole": ("verify", {
        "scenario": {"case": "a1-shearless"}, "frame": {"F": 1.0},
        "grid": grid(0.9, 90), "constants": {"C": 1.0}},
        4,
        "b326d3ba718b943289c96b89c7f34a7b2a2613047191233e814ccc2710da1c91",
        "RESULT fail max_residual=2.6822090148925781e-07"),
    # sign -1 with A < 0: negative a3 and F, clipped ahead of the family
    # boundary, so that negative residual entries set block maxima
    "verify-a1-sign-clipped": ("verify", {
        "scenario": {"case": "a1"}, "grid": grid(3.0, 300),
        "constants": {"A": -0.05, "B": 0.5, "sign": -1}},
        0,
        "8baaf962aa962b9f03feb6056522fe86f3cf76e766eca0038847c3a910e9bfb1",
        "RESULT pass max_residual=6.5483618527650833e-11"),
    "verify-a1-perturbed": ("verify", {
        "scenario": {"case": "a1"}, "grid": grid(1.0, 200),
        "constants": {"A": 1.0, "B": 1.0}, "perturb": {"a3": 1e-6}},
        4,
        "7bcd74e61a35e4f3a5c8e3b2a27691bfbd77fadcd83d075215e64cbd507a528f",
        "RESULT fail max_residual=0.00043678519989498454"),
}


def run_characterized(tmp_path, capsys, name):
    """Run a CHARACTERIZED case: its exit code, stdout lines and CSV path."""
    command, sections = CHARACTERIZED[name][:2]
    table = frame_table(tmp_path / "F.csv", [(0.05 * i, 1.0 + 0.1 * math.sin(0.3 * i))
                                            for i in range(21)])
    out = tmp_path / "out.csv"
    sections = {s: {k: str(v).format(table=table) for k, v in keys.items()}
                for s, keys in sections.items()}
    if command == "solve":
        sections["scenario"]["output"] = str(out)
    cfg = write(tmp_path / "c.cfg", config_text(sections))
    code = main([command, "--config", cfg])
    return code, capsys.readouterr().out.splitlines(), out


@pytest.mark.parametrize("name", sorted(CHARACTERIZED))
def test_characterization_exit_csv_and_result(tmp_path, capsys, name):
    """Exit code, RESULT line and the sha256 of the CSV of every solve case
    and of the check and note lines of every verify case."""
    command, _, code, digest, result = CHARACTERIZED[name]
    status, lines, out = run_characterized(tmp_path, capsys, name)
    assert status == code
    assert lines[-1] == result
    printed = check_and_note_lines(lines)
    if command == "solve":
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    else:
        assert hashlib.sha256(printed.encode()).hexdigest() == digest


# A check line in any shape solve, verify and residual have printed it:
# "check <label> max=<v> pass|FAIL" and "info  <label> max=<v> (not gated)"
# (solve), "block <label> max=<v> at z=<z> (<entry>) pass|FAIL" (verify),
# "block <label> max=<v>" (residual) and "check <label> max=<v>[ at <z|t>=<c>]
# [ (<entry>)] pass|FAIL|(not gated)".  A line without a verdict is not gated.
ANY_CHECK_LINE = re.compile(
    r"(?:check|info |block) (?P<label>\S(?:.*?\S)?) +max=(?P<max>\S+)"
    r"(?: at [zt]=(?P<at>\S+))?(?: \((?P<entry>(?!not gated\))[^)]+)\))?"
    r"(?: (?P<verdict>pass|FAIL|\(not gated\)))?")


def check_rows(lines):
    """(label, max text, coordinate text, entry, verdict) of each check line."""
    rows = []
    for line in lines:
        if line.startswith(("check ", "info ", "block ")):
            m = ANY_CHECK_LINE.fullmatch(line)
            assert m, line
            rows.append((m["label"], m["max"], m["at"], m["entry"],
                         m["verdict"] or "(not gated)"))
    return rows


RESIDUAL_EXTRA = {
    # the A1 closed form plus nonzero q, E and H, which the general system reads
    "general": {"q1": lambda z: 0.01 * np.sin(z), "E11": lambda z: 0.02 * z,
                "H13": lambda z: 0.03 * np.cos(z)},
    "special": {},
    # omega3 != 0: not gauge-reduced, so the RE block is skipped with a note
    "special-ungauged": {"omega3": lambda z: 0.01 * z},
    "futurework": {},
}
RESIDUAL_CHARACTERIZED = {
    # name: (exit code, CSV sha256, sha256 of the check and note lines, RESULT line)
    "general": (0, "dbedd7bb8c57aecd5073d62efb5f7504a416130bf6c18922af0f4340c91ffbf2",
               "2e6d0f81d18ec036bdc8bfb0858ae618909316de68e7d2e4358379968872eca6",
               "RESULT pass max_residual=0.81291923793609722"),
    "special": (0, "0e179429537255f0682f247bed6200b0ae64b6f301d0860d502ae649812541b6",
               "64e1062e2fd197c23916ea6a02202caf4530af9fc9a6d93e75560e799d0f9f63",
               "RESULT pass max_residual=0.054335366503437399"),
    "special-ungauged": (0, "30b0be8473ace8804642f604baceeb43b66ce921d012a3a8e4f4dd020bb263cd",
                        "46ab1adccf2dfd8852b90d202340916e97e25378730ff09e06c1c1415c62eaec",
                        "RESULT pass max_residual=0.054335366503437399"),
    "futurework": (0, "b6c9d8a83ff39d3f00be9f1a11b639bd82b3ebd98eb3406f88ad33a33a44231f",
                  "6cdf1eb000668ac90028f6a084fb566a257ffde147550ca3f5fc9f28811e13e9",
                  "RESULT pass max_residual=801.08897147103175"),
}


def run_residual_characterized(tmp_path, capsys, name):
    """Run a RESIDUAL_CHARACTERIZED case: its exit code, stdout lines and
    CSV path."""
    table = a1_closed_form_table(tmp_path / "state.csv", 40, RESIDUAL_EXTRA[name])
    out = tmp_path / "res.csv"
    system = name.split("-")[0]
    code = main(["residual", "--table", table, "--system", system, "--out", str(out)])
    return code, capsys.readouterr().out.splitlines(), out


@pytest.mark.parametrize("name", sorted(RESIDUAL_CHARACTERIZED))
def test_characterization_residual(tmp_path, capsys, name):
    """Exit code, CSV sha256, check and note lines and RESULT line of every residual
    system on a small A1 closed-form table."""
    code, digest, blocks, result = RESIDUAL_CHARACTERIZED[name]
    status, lines, out = run_residual_characterized(tmp_path, capsys, name)
    assert status == code
    printed = check_and_note_lines(lines)
    assert lines[-1] == result
    assert hashlib.sha256(printed.encode()).hexdigest() == blocks
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the check lines of every characterized run, as check_rows reads them; a
# coordinate or entry of null is not pinned, and one of "absent" pins that the
# line has none
CHECK_CONTENT = json.loads((Path(__file__).parent / "data" / "check_lines.json").read_text())
ABSENT = "absent"


@pytest.mark.parametrize("name", sorted(CHECK_CONTENT))
def test_characterization_check_lines(tmp_path, capsys, name):
    """Label, max text, verdict and, where pinned, the coordinate and entry,
    or their absence, of every check line of each characterized solve,
    verify and residual run."""
    if name.startswith("residual-"):
        _, lines, _ = run_residual_characterized(tmp_path, capsys, name.removeprefix("residual-"))
    else:
        _, lines, _ = run_characterized(tmp_path, capsys, name)
    rows, pinned = check_rows(lines), CHECK_CONTENT[name]
    assert len(rows) == len(pinned)
    assert [[ABSENT if want == ABSENT and got is None else got if want is not None else None
             for got, want in zip(row, pin)] for row, pin in zip(rows, pinned)] == pinned


def spinor_states(count, seed):
    """count seeded state files: each key present with probability 1/2, as a
    signed zero, a short decimal or, now and then for mu, p and pi, 1e308."""
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        state = {}
        for key in _STATE_KEYS:
            if rng.random() < 0.5:
                continue
            pool = ["0.0", "-0.0", "0.5", "-0.7", "1.0", "2.0", repr(round(rng.uniform(-3.0, 3.0), 3))]
            if key[0] in "mp" and rng.random() < 0.02:
                pool = ["1e308", "-1e308"]
            state[key] = rng.choice(pool)
        states.append(state)
    return states


# The rotation block (rotation_alpha, rotated_*, the off-diagonal note) is
# computed with Python complex numbers.  CPython 3.14 does mixed float and
# complex arithmetic the C99 way, where a float operand no longer enters as
# a complex with a +0.0 imaginary part, so the sign of a zero part of those
# lines, or a nan part of an overflowing state, may differ there.  The
# digest of every other line is pinned on every interpreter, and the digest
# of all of stdout and stderr on CPython 3.13 and older.
ROTATION_LINES = ("rotation_alpha ", "rotated_", "note: off-diagonal")
SPINOR_CHARACTERIZED = {
    # name: (state files, the exit code of each, sha256 of stdout + stderr
    # of the runs in turn, sha256 of the same without the rotation block)
    "elastic": ([{"mu": "3.0", "p": "1.0", "pi11": "1.0", "pi22": "1.0"}], 0,
        "8bbd61fb50bb6f40a132dc3440d1837f09df8ad9327efed1e74c69bab8064449",
        "8ddf65bd4f690eba23d95798e5c70ec84c72226cb258638945d924a0274f9c65"),
    "weyl": ([{"E11": "1.0", "E22": "-1.0"}], 0,
        "c02f46805117afceb9ddbb04286c47f7163d99d3b2bc61de12362680e34c7936",
        "c02f46805117afceb9ddbb04286c47f7163d99d3b2bc61de12362680e34c7936"),
    "empty": ([{}], 0,
        "a071078cf89fc7d1ea053ed8b1d47f08afa49f604b63c46103ec77629468539b",
        "a071078cf89fc7d1ea053ed8b1d47f08afa49f604b63c46103ec77629468539b"),
    "signed-zeros": ([{"pi13": "-0.0", "E12": "-0.0"}], 0,
        "0fe49d36d4e92aba35737826b955698f20bd6a8f1dec8e6f8623482863e99c44",
        "0fe49d36d4e92aba35737826b955698f20bd6a8f1dec8e6f8623482863e99c44"),
    "pi23": ([{"pi23": "-0.7"}], 0,
        "624117ac4f6778169df8284ea6f4bb44a39179432bc4b93e26c133d571cb0ac1",
        "624117ac4f6778169df8284ea6f4bb44a39179432bc4b93e26c133d571cb0ac1"),
    "mu-p-negative-zero": ([{"mu": "-0.0", "p": "-0.0"}], 0,
        "15c183f7040e534b3023e24491177e6dcd02ed97568fdba0878294ecbdf22384",
        "15c183f7040e534b3023e24491177e6dcd02ed97568fdba0878294ecbdf22384"),
    "pi-overflow": ([{"pi11": "1e308", "pi22": "1e308"}], 0,
        "02ac7fee615676677b403b8909dc686e47cd55b5584cc271c39c9d875a4478ba",
        "cbeaec86ba2ba60660fdc578bd7cd7fe02f261288b5d59e19044727cd0cf4ec6"),
    # E33 and H33 overflow to -inf from finite E and H
    "E-overflow": ([{"E11": "1e308", "E22": "1e308"}], 0,
        "12ed2239bd06f5932464c38aa5c13175a2c95ced887d8d4f6a5b9aa65cd683dd",
        "12ed2239bd06f5932464c38aa5c13175a2c95ced887d8d4f6a5b9aa65cd683dd"),
    "H-overflow": ([{"H11": "1e308", "H22": "1e308"}], 0,
        "262b68c0fa23771abd90ea2a83890922e0def80636617d0372a44c58fde42e0f",
        "262b68c0fa23771abd90ea2a83890922e0def80636617d0372a44c58fde42e0f"),
    # mu + p + pi33 = 0, with an off-diagonal pi that the rotation would kill
    "phi00-zero": ([{"mu": "1.5", "p": "0.5", "pi11": "1.0", "pi22": "1.0", "pi13": "0.3"}], 0,
        "7267578a8856e8d22cec31ecf7986f83e8d44c1e28c696d035b0609ca2113883",
        "7267578a8856e8d22cec31ecf7986f83e8d44c1e28c696d035b0609ca2113883"),
    # 0.25 times a subnormal pi13: a fused multiply-add would give Phi01 the
    # real part -0
    "subnormal-pi13": ([{"pi13": "5e-324", "pi23": "-0.3858"}], 0,
        "a032b0e38bee66e14d1926cb118c6cbd971c6703578f13d07c381445233676ac",
        "a032b0e38bee66e14d1926cb118c6cbd971c6703578f13d07c381445233676ac"),
    "generated": (spinor_states(400, seed=0), 0,
        "373b8feb0aae2211df946f9eef5e3e346866c20324387b1162c02df5f495c9f8",
        "ff0cc8ca9c56148b342be4dbfa39ae6319618122578a1225ca4fb82acd787a8b"),
}


@pytest.mark.parametrize("name", sorted(SPINOR_CHARACTERIZED))
def test_characterization_spinor(tmp_path, capsys, name):
    """Exit code and the sha256 of stdout and stderr of spinor on each state."""
    states, code, digest, stable = SPINOR_CHARACTERIZED[name]
    printed = []
    for state in states:
        path = write(tmp_path / "s.cfg", config_text({"state": state}))
        assert main(["spinor", "--state", path]) == code, state
        captured = capsys.readouterr()
        printed.append(captured.out + captured.err)
    printed = "".join(printed)
    kept = "".join(l for l in printed.splitlines(keepends=True) if not l.startswith(ROTATION_LINES))
    assert hashlib.sha256(kept.encode()).hexdigest() == stable
    if sys.version_info < (3, 14):
        assert hashlib.sha256(printed.encode()).hexdigest() == digest


A2_SOLVE = """\
[scenario]
case = a2
output = {out}

[frame]
F = 1.0

[grid]
z0 = 0.0
z1 = 0.5
N = 200

[initial]
p = 0.1
udot3 = 0.4
a3 = 0.2
Omega3 = 0.7
"""


@pytest.mark.parametrize("case", ["a1", "a2"])
def test_solve_ode_checks_recompute_from_the_csv(tmp_path, capsys, case):
    """Each printed ode[...] value is max |F fd(column) - case_a*_rhs(columns)|
    over the written CSV: the check uses the one right-hand side."""
    from f13 import conformal as cf
    from f13.numerics import Grid, fd_derivative

    out = tmp_path / "o.csv"
    text, rhs, names, grid = {
        "a1": (A1_SOLVE, cf.case_a1_rhs, ("sigma11", "a3", "Omega3"), Grid(0.0, 1.0, 1000)),
        "a2": (A2_SOLVE, cf.case_a2_rhs, ("p", "udot3", "a3", "Omega3"), Grid(0.0, 0.5, 200)),
    }[case]
    assert main(["solve", "--config", write(tmp_path / "c.cfg", text.format(out=out))]) == 0
    printed = checks(capsys.readouterr().out)
    _, cols = read_csv(out)
    e3 = rhs(*(cols[n] for n in names))
    for name, expected in zip(names, e3):
        value = np.max(np.abs(1.0 * fd_derivative(cols[name], grid) - expected))
        assert printed[f"ode[{name}]"]["max"] == f"{value:.6e}", name


# solve case -> (its config sections but [scenario], the jet of its solution)
JET_SOLVES = {
    "a1": ("[initial]\nsigma11 = 0.1\na3 = 0.3\nOmega3 = 0.7\n",
           lambda F, grid: cf.a1_trajectory_jet(grid.points(), *rk4_integrate(
               cf.case_a1_rhs, [0.1, 0.3, 0.7], grid, F).states.T)),
    "a2": ("[initial]\np = 0.1\nudot3 = 0.4\na3 = 0.2\nOmega3 = 0.7\n",
           lambda F, grid: cf.a2_trajectory_jet(grid.points(), *rk4_integrate(
               cf.case_a2_rhs, [0.1, 0.4, 0.2, 0.7], grid, F).states.T)),
    "a1-shearless": ("[constants]\nC = -1.5\nB = 1.2\n",
                     lambda F, grid: cf.shearless_branch_fields(F, -1.5, 1.2, grid)[1]),
    "a2-branch1": ("[constants]\nC = -1.5\nB = -0.8\n",
                   lambda F, grid: cf.shearless_branch_fields(F, -1.5, -0.8, grid)[1]),
    "a2-branch2": ("[constants]\nD = -1.0\nB = 1.2\n",
                   lambda F, grid: cf.a2_branch2_fields(F, -1.0, 1.2, grid)[1]),
}


@pytest.mark.parametrize("case", sorted(JET_SOLVES))
def test_solve_csv_columns_are_the_jet_value_entries(tmp_path, capsys, case):
    """Every column of a solve CSV but firstintegral_A is, cell for cell,
    the text of the solution jet's own z, F or value entry; a variable the
    jet holds no entry for (sigma11 on the shearless branch) is written as
    0, never -0."""
    out = tmp_path / "o.csv"
    sections, solution = JET_SOLVES[case]
    cfg = write(tmp_path / "c.cfg", f"[scenario]\ncase = {case}\noutput = {out}\n\n"
                f"[frame]\nF = 0.9\n\n[grid]\nz0 = 0.0\nz1 = 0.5\nN = 400\n\n{sections}")
    assert main(["solve", "--config", cfg]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    F = cf.ScaleFactor.constant(0.9)
    jet = solution(F, Grid(0.0, 0.5, 400))
    assert len(rows) == 401
    # solve a1 writes the first integral last
    assert ("firstintegral_A" in header) == (case == "a1")
    for k, name in enumerate(header):
        if name == "firstintegral_A":
            assert k == len(header) - 1
            continue
        entry = {"z": jet.z, "F": F(jet.z)}.get(name, getattr(jet.value, name, None))
        cells = [row[k] for row in rows]
        if np.ndim(entry) == 0:  # the jet holds no entry
            assert case == "a1-shearless" and name == "sigma11" and entry == 0.0
            assert cells == ["0"] * 401
        else:
            assert cells == [f"{x:.17g}" for x in entry], name


def test_verify_profile_key_is_unknown(tmp_path, capsys):
    """Case a1 of verify is the sigma11 = e^z family; there is no profile key."""
    cfg = write(tmp_path / "p.cfg",
                VERIFY_A1.format(A=0.0, extra="").replace("case = a1", "case = a1\nprofile = exp"))
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: unknown key scenario.profile\n"


def test_parser_is_built_once_and_an_argparse_error_leaves_it_usable(tmp_path, capsys):
    """main parses with one parser per process.  After an argparse error
    (SystemExit 2), a solve and a verify give the code, stdout, stderr and
    CSV bytes of the same calls on a freshly built parser."""
    out = tmp_path / "a1.csv"
    solve = ["solve", "--config", write(tmp_path / "s.cfg", A1_SOLVE.format(out=out))]
    verify = ["verify", "--config", write(tmp_path / "v.cfg", VERIFY_A1.format(A=0.0, extra=""))]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes()

    _parser.cache_clear()
    fresh = [run(solve)]
    _parser.cache_clear()
    fresh.append(run(verify))
    out.unlink()
    parser = _parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert [run(solve), run(verify)] == fresh
    assert _parser() is parser


# ---------------------------------------------------------------------------
# config errors, each printed through main
# ---------------------------------------------------------------------------

def solve_a1_sections(**changes):
    sections = {"scenario": {"case": "a1", "output": "{out}"}, "frame": {"F": 1.0},
                "grid": grid(1.0, 100), "initial": {"sigma11": 0.1, "Omega3": 1.0},
                "constants": {"A": 1.0}}
    for section, keys in changes.items():
        sections[section] = keys
    return sections


def verify_a1_sections(**constants):
    return {"scenario": {"case": "a1"}, "grid": grid(1.0, 100),
            "constants": {"A": 1.0, "B": 1.0, **constants}}


MISSING = "{dir}/missing.csv"
TABLE_ROWS = {
    "frame-three-columns": "z,F,x\n0,1,0\n1,1,0\n",
    "header-only": "z,p\n",
    "non-uniform": "z,p\n0,1\n0.1,1\n0.3,1\n0.4,1\n0.5,1\n",
    "decreasing": "z,p\n0.4,1\n0.3,1\n0.2,1\n0.1,1\n0,1\n",
}
# name: (command, config sections or a residual table name, the stderr or
# its prefix, whether an OS message follows the prefix)
CONFIG_ERRORS = {
    "sign": ("verify", verify_a1_sections(sign=2),
             "config error: bad value for constants.sign: sign must be +1 or -1, got '2'\n",
             False),
    "unreadable-config": ("solve", None, f"config error: cannot read config '{MISSING}': ",
                          True),
    "no-case": ("solve", {"grid": grid(1.0, 100)},
                "config error: missing required key scenario.case\n", False),
    "no-frame": ("solve", solve_a1_sections(frame={}),
                 "config error: frame needs exactly one of F or F_table\n", False),
    "frame-F-zero": ("solve", solve_a1_sections(frame={"F": 0}),
                     "config error: frame.F must be positive\n", False),
    "unreadable-frame-table": ("solve", solve_a1_sections(frame={"F_table": MISSING}),
                               f"config error: cannot read frame table '{MISSING}': ", True),
    "frame-three-columns": ("solve", solve_a1_sections(frame={"F_table": "{table}"}),
                            "config error: frame table must have two columns: z, F\n", False),
    "negative-radicand": ("solve", solve_a1_sections(initial={"sigma11": 1.0, "Omega3": 1.0},
                                                     constants={"A": -1000.0}),
                          "config error: constants.A gives a negative radicand at sigma11_0\n",
                          False),
    "zero-sigma11": ("solve", solve_a1_sections(
                         initial={"sigma11": 0.0, "a3": 0.5, "Omega3": 1.0}, constants={}),
                     "config error: case a1 needs sigma11_0 != 0; use a1-shearless instead\n",
                     False),
    "closed-form-start": ("verify", verify_a1_sections(A=-10.0),
                          "config error: closed form undefined at the interval start\n", False),
    "unreadable-table": ("residual", None, f"config error: cannot read table '{MISSING}': ",
                         True),
    "header-only": ("residual", "header-only",
                    "config error: table needs a header row and at least one data row\n", False),
    "non-uniform": ("residual", "non-uniform", "config error: table grid must be uniform\n",
                    False),
    "decreasing": ("residual", "decreasing",
                   "config error: table coordinate must be increasing\n", False),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_config_error_line(tmp_path, capsys, name):
    """Exit 2 and the one config error line on stderr, nothing on stdout."""
    command, sections, want, os_message = CONFIG_ERRORS[name]
    table = write(tmp_path / "table.csv", TABLE_ROWS.get(name, "z,F\n0,1\n1,1\n"))
    missing = MISSING.format(dir=tmp_path)
    if command == "residual":
        argv = ["residual", "--table", missing if sections is None else table]
    else:
        cfg = missing
        if sections is not None:
            cfg = write(tmp_path / "c.cfg", config_text(
                {s: {k: str(v).format(out=tmp_path / "out.csv", table=table, dir=tmp_path)
                     for k, v in keys.items()} for s, keys in sections.items()}))
        argv = [command, "--config", cfg]
    assert main(argv) == 2
    captured = capsys.readouterr()
    want = want.format(dir=tmp_path)
    assert captured.out == ""
    if os_message:
        assert captured.err.startswith(want) and captured.err.endswith("\n")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == want


def test_solve_a1_on_a_two_row_frame_table_takes_the_straight_line(tmp_path, capsys):
    """A two-row F_table is the line through its rows."""
    out = tmp_path / "a1.csv"
    table = frame_table(tmp_path / "F.csv", [(0.0, 1.0), (1.0, 1.2)])
    cfg = write(tmp_path / "a1.cfg", A1_SOLVE.format(out=out).replace(
        "F = 1.0", f"F_table = {table}"))
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT pass ")
    _, cols = read_csv(out)
    assert np.max(np.abs(cols["F"] - (1.0 + 0.2 * cols["z"]))) <= 3e-16


def test_verify_a1_with_B_zero_passes_and_its_zero_blocks_name_no_point(tmp_path, capsys):
    """B = 0 takes the Omega3 = 0 branch of the closed form.  A block whose
    largest residual is 0.0 holds it at every point, so its check line names
    no point: neither a coordinate nor an entry."""
    cfg = write(tmp_path / "v.cfg", VERIFY_A1.format(A=1.0, extra="").replace(
        "B = 1.0", "B = 0.0"))
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("RESULT pass ")
    found = checks(out)
    zero = {label for label, m in found.items() if float(m["max"]) == 0.0}
    assert {"frame-jacobi2", "frame-jacobi3", "frame-jacobi4", "frame-jacobi5",
            "frame-bianchi4", "frame-divH"} <= zero
    for label, m in found.items():
        located = (m["at"], m["entry"]) != (None, None)
        assert located == (label not in zero), label
