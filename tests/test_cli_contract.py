"""Property test of the command-line contract.

Whatever the input, ``solve``, ``verify`` and ``residual`` end in exit code
0, 3 or 4 with a last stdout line ``RESULT ...``, or in exit code 2 with a
last stderr line ``config error: ...``; ``spinor`` ends in exit code 0 with
nothing on stderr, or in exit code 2 with one ``config error: ...`` line;
never in a traceback.  Configs, state files and tables are generated with
unknown keys, NaN/Inf/huge and non-numeric values, zero or negative F,
non-uniform and unordered grids.
"""

import contextlib
import io
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from f13.cli import _STATE_KEYS, RESIDUAL_SYSTEMS, SOLVE_CASES, VERIFY_CASES, main

EXAMPLES = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# a generated input is either clean (every value usable, so the run reaches
# the solvers and residual blocks) or hostile (each value hostile with
# probability 1/4, keys dropped, unknown keys added)
BAD = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0.0", "abc", "")
GOOD = st.one_of(st.sampled_from(("0.1", "0.5", "1.0", "-0.5", "2.0")),
                 st.floats(-10.0, 10.0, allow_nan=False).map(repr))
MOSTLY = st.sampled_from((True, True, True, False))


class Picker:
    """Draws values, hostile ones only for a hostile input."""

    def __init__(self, draw):
        self.draw = draw
        self.hostile = draw(st.booleans())

    def __call__(self, good, bad=st.sampled_from(BAD)):
        return self.draw(st.one_of(good, good, good, bad) if self.hostile else good)

    def keep(self) -> bool:
        return self.draw(MOSTLY) if self.hostile else True


SOLVE_KEYS = {
    "a1": {"initial": ("sigma11", "a3", "Omega3"), "constants": ("A", "sign")},
    "a1-shearless": {"constants": ("C", "B")},
    "a2": {"initial": ("p", "udot3", "a3", "Omega3")},
    "a2-branch1": {"constants": ("C", "B")},
    "a2-branch2": {"constants": ("D", "B")},
}
VERIFY_KEYS = {
    "a1": {"constants": ("A", "B", "sign")},
    "a1-shearless": {"constants": ("C", "B")},
    "a2-branch1": {"constants": ("C", "B")},
    "a2-branch2": {"constants": ("D", "B")},
}
SIGNS = st.sampled_from(("1", "-1", "+", "-"))


@st.composite
def frame_tables(draw):
    pick = Picker(draw)
    rows = pick(st.integers(4, 20), st.integers(0, 3))
    layout = pick(st.just("uniform"), st.sampled_from(("sorted", "any")))
    if layout == "uniform":
        zs = [-0.5 + 2.0 * i / max(rows - 1, 1) for i in range(rows)]
    else:
        zs = draw(st.lists(st.floats(-1.0, 2.0), min_size=rows, max_size=rows))
        if layout == "sorted":
            zs.sort()
    Fs = [pick(st.floats(0.2, 3.0).map(repr),
               st.sampled_from(("0.0", "-1.0", "1e+308", "nan", "abc")))
          for _ in zs]
    return "z,F\n" + "".join(f"{z!r},{F}\n" for z, F in zip(zs, Fs))


@st.composite
def configs(draw, command):
    pick = Picker(draw)
    cases, case_keys = ((SOLVE_CASES, SOLVE_KEYS) if command == "solve"
                        else (VERIFY_CASES, VERIFY_KEYS))
    case = pick(st.sampled_from(cases), st.just("a3"))
    sections = {"scenario": {"case": case}}
    if command == "solve":
        sections["scenario"]["output"] = "{out}"
        if draw(st.booleans()):
            sections["scenario"]["full_check"] = pick(st.sampled_from(("true", "false")),
                                                      st.just("2"))
    sections["grid"] = {
        "z0": pick(st.just("0.0"), GOOD),
        "z1": pick(st.sampled_from(("0.3", "0.6", "1.0")), GOOD),
        "N": pick(st.integers(4, 64), st.sampled_from((-1, 0, 3, "1e3", "x", 10**17))),
    }
    table = None
    if command == "solve" or case != "a1":
        kind = pick(st.sampled_from(("F", "table")), st.sampled_from(("both", "none")))
        sections["frame"] = {}
        if kind in ("F", "both"):
            sections["frame"]["F"] = pick(st.sampled_from(("1.0", "0.5", "2.0")),
                                          st.sampled_from(("0.0", "-1.0")))
        if kind in ("table", "both"):
            sections["frame"]["F_table"] = "{table}"
            table = draw(frame_tables())
    keys = case_keys.get(case, {})
    # case a1 of solve takes exactly one of initial.a3 and constants.A
    dropped = draw(st.sampled_from(("a3", "A"))) if (command, case) == ("solve", "a1") else None
    for section, names in keys.items():
        sections[section] = {k: pick(SIGNS if k == "sign" else GOOD)
                             for k in names if k != dropped and pick.keep()}
    if draw(st.booleans()):
        sections["tolerances"] = {"residual_tol": pick(st.sampled_from(("1e-8", "1e-3")))}
    if command == "verify" and draw(st.booleans()):
        sections["perturb"] = {"a3": pick(st.sampled_from(("0.0", "1e-3")), GOOD)}
    if pick.hostile and not pick.keep():
        section = draw(st.sampled_from(sorted(sections) + ["extra"]))
        sections.setdefault(section, {})["bogus"] = "1"
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )
    return text, table


TABLE_COLUMNS = ("F", "mu", "p", "Lambda", "Theta", "a3", "udot3", "Omega3", "omega1",
                 "sigma11", "sigma22", "pi11", "pi12", "n11", "n23", "E11", "H13")


@st.composite
def state_tables(draw):
    pick = Picker(draw)
    coord = pick(st.sampled_from(("z", "t")), st.just("x"))
    names = draw(st.lists(st.sampled_from(TABLE_COLUMNS), max_size=5, unique=True))
    if pick.hostile and not pick.keep():
        names.append("bogus")
    rows = pick(st.integers(5, 20), st.integers(0, 4))
    layout = pick(st.just("uniform"), st.sampled_from(("perturbed", "decreasing")))
    coords = [0.05 * i for i in range(rows)]
    if layout == "perturbed" and rows > 2:
        coords[rows // 2] += 0.01
    elif layout == "decreasing":
        coords.reverse()
    cell = st.floats(-2.0, 2.0, allow_nan=False).map(repr)
    lines = [",".join([coord] + names)]
    for z in coords:
        lines.append(",".join([repr(z)] + [pick(cell, st.sampled_from(BAD + ("1e300",)))
                                           for _ in names]))
    return "\n".join(lines) + "\n"


@st.composite
def state_files(draw):
    pick = Picker(draw)
    section = pick(st.just("state"), st.just("matter"))
    state = {k: pick(GOOD, st.sampled_from(BAD + ("1e300",)))
             for k in _STATE_KEYS if draw(st.booleans()) and pick.keep()}
    if pick.hostile and not pick.keep():
        state["bogus"] = "1"
    return f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in state.items())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def assert_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (code, out, err)
    if code == 2:
        assert err and err[-1].startswith("config error: "), (out, err)
    else:
        assert out and out[-1].startswith("RESULT "), (code, out, err)


def check_config(command, config):
    text, table = config
    with tempfile.TemporaryDirectory() as tmp:
        table_path = os.path.join(tmp, "F.csv")
        if table is not None:
            with open(table_path, "w", encoding="utf-8") as fh:
                fh.write(table)
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("{out}", os.path.join(tmp, "out.csv"))
                     .replace("{table}", table_path))
        assert_contract([command, "--config", path])


def check_table(table, system, tol):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table)
        argv = ["residual", "--table", path, "--system", system,
                "--out", os.path.join(tmp, "res.csv")]
        assert_contract(argv + (["--tol", tol] if tol else []))


def check_state(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = run_cli(["spinor", "--state", path])
    assert code in (0, 2), (code, out, err)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("config error: ") and not out, (out, err)
    else:
        assert out and not err, (out, err)


# 10**17 grid points need 711 PiB per column, more than any address space, so
# the first array allocation fails at once and no memory is touched
HUGE_N = {
    "solve": "[scenario]\ncase = a1\noutput = {out}\n[frame]\nF = 1.0\n"
             "[grid]\nz0 = 0.0\nz1 = 0.3\nN = 100000000000000000\n"
             "[initial]\nsigma11 = 0.1\nOmega3 = 1.0\n[constants]\nA = 1.0\n",
    "verify": "[scenario]\ncase = a1\n[grid]\nz0 = 0.0\nz1 = 0.3\nN = 100000000000000000\n"
              "[constants]\nA = 1.0\nB = 1.0\nsign = 1\n",
}


# the derandomized draws never give a config whose only fault is
# N = 10**17, so each generator also runs that config
@EXAMPLES
@given(configs("solve"))
@example((HUGE_N["solve"], None))
def test_solve_contract_holds_for_generated_configs(config):
    check_config("solve", config)


@EXAMPLES
@given(configs("verify"))
@example((HUGE_N["verify"], None))
def test_verify_contract_holds_for_generated_configs(config):
    check_config("verify", config)


@EXAMPLES
@given(state_tables(), st.sampled_from(RESIDUAL_SYSTEMS),
       st.sampled_from((None, "1e-3", "nan")))
def test_residual_contract_holds_for_generated_tables(table, system, tol):
    check_table(table, system, tol)


# E33 = -(E11 + E22) overflows to -inf from finite values
@EXAMPLES
@given(state_files())
@example("[state]\nE11 = 1e308\nE22 = 1e308\n")
def test_spinor_contract_holds_for_generated_state_files(text):
    check_state(text)


# one byte that is not UTF-8, in a value of an otherwise usable input
NOT_UTF8 = {
    "solve": ("run.cfg", b"[scenario]\ncase = a1\noutput = out.csv\n[frame]\nF = 1.0\n"
                         b"[grid]\nz0 = 0.0\nz1 = 0.3\nN = 8\n"
                         b"[initial]\nsigma11 = 0.1\xff\nOmega3 = 1.0\n[constants]\nA = 1.0\n"),
    "verify": ("run.cfg", b"[scenario]\ncase = a1\n[grid]\nz0 = 0.0\nz1 = 0.3\nN = 8\n"
                          b"[constants]\nA = 1.0\xff\nB = 1.0\n"),
    "spinor": ("state.cfg", b"[state]\nmu = 1.0\np = 0.1\xff\n"),
    "residual": ("state.csv", b"z,p\n" + b"".join(b"%g,0.1\n" % (0.1 * i) for i in range(5))
                              + b"0.5,\xff\n"),
}
FLAG = {"solve": "--config", "verify": "--config", "spinor": "--state", "residual": "--table"}


@pytest.mark.parametrize("command", sorted(NOT_UTF8))
def test_input_that_is_not_utf8_is_a_config_error(tmp_path, command):
    name, data = NOT_UTF8[command]
    (tmp_path / name).write_bytes(data)
    code, out, err = run_cli([command, FLAG[command], str(tmp_path / name)])
    assert code == 2 and len(err) == 1, (code, out, err)
    assert err[0].startswith("config error: ") and "is not UTF-8 text" in err[0], err


@pytest.mark.parametrize("command", ["solve", "verify", "spinor"])
@pytest.mark.parametrize("text, message", [
    ("case = a1\n", "File contains no section headers."),
    ("[scenario]\ncase = a1\nno key here\n", "Source contains parsing errors:"),
], ids=["no-section-header", "line-without-key"])
def test_config_parsing_errors_are_one_config_error_line(tmp_path, command, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([command, FLAG[command], str(path)])
    assert code == 2 and len(err) == 1, (code, out, err)
    assert err[0].startswith(f"config error: malformed config {str(path)!r}: {message}"), err


@pytest.mark.parametrize("command", sorted(HUGE_N))
def test_grid_beyond_memory_is_one_config_error_line(tmp_path, command):
    path = tmp_path / "run.cfg"
    path.write_text(HUGE_N[command].format(out=tmp_path / "out.csv"), encoding="utf-8")
    code, out, err = run_cli([command, "--config", str(path)])
    assert code == 2 and len(err) == 1, (code, out, err)
    assert err[0].startswith("config error: input too large for memory: "), err
    assert not (tmp_path / "out.csv").exists()
