"""Scenario-driven command line front end.

Subcommands: ``solve`` and ``verify`` consume a line-oriented
``key = value`` config with ``[section]`` headers; ``spinor`` maps a state
file to Newman-Penrose components; ``residual`` sweeps a gridded state
table through the residual evaluators with finite-difference jets.

Exit codes: 0 success/pass, 2 config or input error, 3 runtime
singularity (pole), 4 verification failure.  CSV output is comma
separated with a header row, 17 significant digits and Unix newlines, so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import dataclasses
import io
import math
import sys
import warnings
from functools import cache, partial, reduce
from typing import Callable, Sequence

import numpy as np

from . import conformal as cf
from .csvtext import csv_rows
from .frame_equations import (
    COMPONENT_NAMES,
    JetArrays,
    NonFiniteResidual,
    ResidualReport,
    residual_report,
)
from .numerics import Grid, PoleError, fd_derivative, rk4_integrate
from .spinors import (
    diagonalizing_rotation,
    null_rotate_ricci,
    ricci_spinor,
    rotation_admissible,
    weyl_spinor,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POLE = 3
EXIT_VERIFY_FAIL = 4

RESIDUAL_SYSTEMS = ("general", "special", "futurework")

# glibc mallopt parameters; the largest allocation served from the heap, and
# the free memory at the top of the heap that glibc keeps before trimming
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 64 << 20


@cache  # the settings are the process's: once is enough
def _serve_temporaries_from_the_heap() -> None:
    """On glibc, serve allocations of up to 4 MiB from the heap and keep up
    to 64 MiB of it free, so that numpy temporaries reuse heap pages.  By
    default glibc maps every block of 128 KiB or more afresh, and faults its
    pages in, until frees of such blocks raise its threshold.  And when more
    than the trim threshold is free at the top of the heap, glibc hands it
    back to the kernel: a verify report frees more than 8 MiB there, so at
    8 MiB the next report faulted the same pages in again (about 2,850
    faults per verify of a1 on 2*10^4 points).  Trimming stays on, so that
    a long run gives back the peaks of large reports: with it off, the
    residual sweep of a 10^5-row table peaked 25 MB higher.  Other C
    libraries are left as they are."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_sign(raw: str) -> int:
    if raw.strip() in ("+1", "1", "+"):
        return 1
    if raw.strip() in ("-1", "-"):
        return -1
    raise ValueError(f"sign must be +1 or -1, got {raw!r}")


# schema entry: (required, parser)
_GRID = {"z0": (True, _parse_float), "z1": (True, _parse_float), "N": (True, int)}
_TOLERANCES = {"residual_tol": (False, _parse_float), "conservation_tol": (False, _parse_float)}
# exactly one of F / F_table, enforced post-parse
_FRAME = {"F": (False, _parse_float), "F_table": (False, str)}
# the sections every case of a command takes
_COMMON = {
    "solve": {
        "scenario": {"case": (True, str), "output": (True, str),
                     "full_check": (False, _parse_bool)},
        "frame": _FRAME, "grid": _GRID, "tolerances": _TOLERANCES,
    },
    "verify": {
        "scenario": {"case": (True, str)},
        "grid": _GRID, "tolerances": _TOLERANCES, "perturb": {"a3": (False, _parse_float)},
    },
}


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N, Omega3, A, B, ...)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        # some messages span lines (no section header, a line with no key)
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed config {path!r}: {message}") from None
    return parser


def _validate(parser: configparser.ConfigParser, schema: dict) -> dict:
    """Check the config against the schema: every present key must be known
    and every required key present.  Returns {"section.key": parsed}."""
    problems = []
    values = {}
    for section in parser.sections():
        if section not in schema:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in schema[section]:
                problems.append(f"unknown key {section}.{key}")
    for section, keys in schema.items():
        for key, (required, parse) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[f"{section}.{key}"] = parse(raw)
                except ValueError as exc:
                    problems.append(f"bad value for {section}.{key}: {exc}")
            elif required:
                problems.append(f"missing required key {section}.{key}")
    if problems:
        raise ConfigError("; ".join(problems))
    return values


def _read_case(config_path: str, command: str, cases: dict) -> tuple[str, dict]:
    """The config's scenario.case, and its values validated against the
    command's common sections plus those of the case."""
    parser = _read_config(config_path)
    case = parser.get("scenario", "case", fallback=None)
    if case is None:
        raise ConfigError("missing required key scenario.case")
    if case not in cases:
        raise ConfigError(
            f"scenario.case must be one of {', '.join(cases)} for {command}, got {case!r}"
        )
    return case, _validate(parser, {**_COMMON[command], **cases[case].sections})


def _build_frame(values: dict, grid: Grid) -> cf.ScaleFactor:
    F = values.get("frame.F")
    table = values.get("frame.F_table")
    if (F is None) == (table is None):
        raise ConfigError("frame needs exactly one of F or F_table")
    if F is not None:
        if F <= 0.0:
            raise ConfigError("frame.F must be positive")
        return cf.ScaleFactor.constant(F)
    try:
        with warnings.catch_warnings():
            # a table without data rows: reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read frame table {table!r}: {exc}") from None
    except ValueError as exc:  # a non-numeric cell or a ragged row
        raise ConfigError(f"bad frame table {table!r}: {exc}") from None
    if data.shape[0] < 2:
        raise ConfigError(f"frame table needs at least two rows: {table}")
    if data.shape[1] != 2:
        raise ConfigError("frame table must have two columns: z, F")
    try:
        frame = cf.ScaleFactor.from_table(data[:, 0], data[:, 1])
    except ValueError as exc:
        raise ConfigError(f"bad frame table {table!r}: {exc}") from None
    lo, hi = float(data[0, 0]), float(data[-1, 0])  # increasing, or from_table raised
    if grid.z0 < lo or grid.z1 > hi:
        raise ConfigError(
            f"grid [{grid.z0!r}, {grid.z1!r}] extends outside the frame table "
            f"range [{lo!r}, {hi!r}]"
        )
    return frame


def _build_grid(values: dict) -> Grid:
    try:
        return Grid(values["grid.z0"], values["grid.z1"], values["grid.N"])
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from None


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    # every cell is '%.17g' % x, as _fmt writes it, formatted a block of rows
    # at a time by csv_rows
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(header)
    try:
        with open(path, "wb") as fh:
            fh.write(line.getvalue().encode("utf-8"))
            fh.writelines(csv_rows(columns))
    except OSError as exc:
        raise ConfigError(f"cannot write csv {path!r}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class Check:
    """One check of a report: the largest value of a residual or diagnostic,
    the coordinate and entry of its worst point where known, and the
    tolerance it must stay below (None: reported, not gated)."""

    label: str
    value: float
    at: float | None = None
    entry: str | None = None
    tol: float | None = None

    @classmethod
    def located(cls, label: str, value: float, at, entry=None, tol=None) -> "Check":
        """The check of a worst point at ``at`` in ``entry``; a largest value
        of 0.0 is held at every point, so its check names no point."""
        if value == 0.0:
            at = entry = None
        return cls(label, value, at, entry, tol)


def _result(ok: bool, worst: float) -> None:
    print(f"RESULT {'pass' if ok else 'fail'} max_residual={_fmt(worst)}")


def _report(title: str, notes: list[str], residuals: Sequence[Check],
            diagnostics: Sequence[Check] = (), coord: str = "z",
            footer: str | None = None) -> bool:
    """Print a report: the title, the notes, a check line per residual and
    then per diagnostic, the footer and the RESULT line, and return the
    verdict: every gated check below its tolerance.  max_residual is the
    largest residual; a diagnostic gates the verdict only."""
    print(title)
    for note in notes:
        print(f"note: {note}")
    ok = True
    for row in (*residuals, *diagnostics):
        where = "" if row.at is None else f" at {coord}={row.at:.6g}"
        if row.entry is not None:
            where += f" ({row.entry})"
        verdict = "(not gated)" if row.tol is None else "pass" if row.value < row.tol else "FAIL"
        ok = ok and verdict != "FAIL"
        print(f"check {row.label:<22s} max={row.value:.6e}{where} {verdict}")
    if footer is not None:
        print(footer)
    _result(ok, reduce(max, (row.value for row in residuals), 0.0))
    return ok


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Case:
    """One scenario.case of solve or verify: the config sections it takes
    beyond the command's common ones, and the producer that runs it."""

    sections: dict
    run: Callable


@dataclasses.dataclass
class _Solved:
    """What a solve producer returns: the CSV columns in file order, the
    residual checks gated by residual_tol, the jet the frame suite runs on
    and the diagnostic checks.  A jet of None means an integration stopped
    at a pole and the columns are the rows up to it."""

    columns: dict
    checks: dict = dataclasses.field(default_factory=dict)
    jet: cf.SpecialJet | None = None
    pole: str | None = None
    diagnostics: list = dataclasses.field(default_factory=list)


def _e_derivatives(grid: Grid, F, columns: dict) -> dict:
    """F times the order-4 grid derivative of each named column, the frame
    derivative of gridded data; nothing else in the package takes one."""
    return {name: F * fd_derivative(col, grid) for name, col in columns.items()}


def _resubstitution(grid: Grid, F_vals, columns: dict, rhs: dict) -> dict[str, float]:
    """Max |F d/dz(column) - rhs| per equation."""
    e = _e_derivatives(grid, F_vals, {name: columns[name] for name in rhs})
    return {name: float(np.max(np.abs(e[name] - rhs_vals))) for name, rhs_vals in rhs.items()}


_A1_COLUMNS = ("z", "sigma11", "a3", "Omega3", "F", "pi11", "p", "udot3")
_A2_COLUMNS = ("z", "p", "udot3", "a3", "Omega3", "pi11")


def _csv_columns(layout, jet: cf.SpecialJet, F) -> dict:
    """The CSV columns ``layout`` of a jet: its z grid, the frame factor F on
    it and each variable's value entry, +0.0 throughout for a variable the
    jet holds no entry for."""
    special = {"z": jet.z, "F": F}
    columns = {}
    for name in layout:
        column = special[name] if name in special else getattr(jet.value, name)
        columns[name] = column if np.ndim(column) else np.zeros(jet.shape)
    return columns


def _solve_ode(rhs, y0, names, grid: Grid, frame: cf.ScaleFactor,
               trajectory_jet, layout) -> _Solved:
    """RK4 of the state fields ``names`` from y0; the jet of the rows reached
    fills the CSV columns ``layout``.  The checks re-substitute the jet's
    state entries into e_3 = F d/dz against its e_3 entries, ``rhs`` on
    them."""
    try:
        states, complete = rk4_integrate(rhs, y0, grid, frame).states, True
    except PoleError as exc:
        states, complete = exc.partial_states, False
    except ValueError as exc:  # F not positive at a stage abscissa
        raise ConfigError(str(exc)) from None
    zs = grid.points()[: states.shape[0]]
    Fv = np.asarray(frame(zs), dtype=float)
    jet = trajectory_jet(zs, *states.T)
    columns = _csv_columns(layout, jet, Fv)
    if not complete:
        return _Solved(columns)
    checks = _resubstitution(grid, Fv, {name: getattr(jet.value, name) for name in names},
                             {name: getattr(jet.deriv[3], name) for name in names})
    return _Solved(columns, {f"ode[{k}]": v for k, v in checks.items()}, jet)


def _solve_a1(values: dict, grid: Grid, frame: cf.ScaleFactor) -> _Solved:
    s0 = values["initial.sigma11"]
    a3_direct = values.get("initial.a3")
    A_const = values.get("constants.A")
    if (a3_direct is None) == (A_const is None):
        raise ConfigError("case a1 needs exactly one of initial.a3 or constants.A")
    if a3_direct is not None:
        a30 = a3_direct
    else:
        rad = A_const * s0 * s0 + 9.0
        if rad < 0.0:
            raise ConfigError("constants.A gives a negative radicand at sigma11_0")
        a30 = values.get("constants.sign", 1) * np.sqrt(rad) * s0
    if s0 == 0.0:
        raise ConfigError("case a1 needs sigma11_0 != 0; use a1-shearless instead")
    solved = _solve_ode(cf.case_a1_rhs, [s0, a30, values["initial.Omega3"]],
                        ("sigma11", "a3", "Omega3"), grid, frame,
                        cf.a1_trajectory_jet, _A1_COLUMNS)
    # a diagnostic of the state columns, inf where sigma11^4 is 0
    first = cf.case_a1_first_integral(solved.columns["sigma11"], solved.columns["a3"])
    solved.columns["firstintegral_A"] = first
    if solved.jet is not None:
        solved.diagnostics.append(Check("first-integral-drift",
                                        float(np.max(np.abs(first - first[0]))),
                                        tol=values.get("tolerances.conservation_tol", 1e-8)))
    return solved


def _solve_a2(values: dict, grid: Grid, frame: cf.ScaleFactor) -> _Solved:
    names = ("p", "udot3", "a3", "Omega3")
    return _solve_ode(cf.case_a2_rhs, [values[f"initial.{n}"] for n in names], names,
                      grid, frame, cf.a2_trajectory_jet, _A2_COLUMNS)


def _branch(family: cf.BranchFamily, values: dict, frame: cf.ScaleFactor, grid: Grid):
    """The clipped grid, jet and clip note of a branch family.  The closed
    forms are looked up in ``cf`` when called, where a traced run patches
    them."""
    fields_of, const = ((cf.shearless_branch_fields, "C") if family is cf.SHEARLESS
                        else (cf.a2_branch2_fields, "D"))
    try:
        return fields_of(frame, values[f"constants.{const}"], values.get("constants.B", 0.0),
                         grid)
    except ValueError as exc:  # pole at the interval start, quadrature not converging
        raise ConfigError(str(exc)) from None


def _solve_branch(family: cf.BranchFamily, layout, values: dict, grid: Grid,
                  frame: cf.ScaleFactor) -> _Solved:
    grid, jet, note = _branch(family, values, frame, grid)
    Fv = np.asarray(frame(jet.z), dtype=float)
    a3, Omega3, e3 = jet.value.a3, jet.value.Omega3, jet.deriv[3]
    e3_a3 = family.slope * a3**2
    # the closed form carries its analytic derivative; that residual is
    # the gated check, finite differences are informational only
    checks = {"ode[a3] analytic": float(np.max(np.abs(e3.a3 - e3_a3)))}
    info = _resubstitution(grid, Fv, {"a3": a3, "Omega3": Omega3},
                           {"a3": e3_a3, "Omega3": e3.Omega3})
    return _Solved(_csv_columns(layout, jet, Fv), checks, jet,
                   pole=None if note is None else f"pole: {note}",
                   diagnostics=[Check(f"fd[{k}]", v) for k, v in info.items()])


_C_CONSTANTS = {"constants": {"C": (True, _parse_float), "B": (False, _parse_float)}}
_D_CONSTANTS = {"constants": {"D": (True, _parse_float), "B": (False, _parse_float)}}

_SOLVE = {
    "a1": _Case({"initial": {"sigma11": (True, _parse_float), "a3": (False, _parse_float),
                             "Omega3": (True, _parse_float)},
                 "constants": {"A": (False, _parse_float), "sign": (False, _parse_sign)}},
                _solve_a1),
    "a1-shearless": _Case(_C_CONSTANTS, partial(_solve_branch, cf.SHEARLESS, _A1_COLUMNS)),
    "a2": _Case({"initial": {name: (True, _parse_float)
                             for name in ("p", "udot3", "a3", "Omega3")}},
                _solve_a2),
    "a2-branch1": _Case(_C_CONSTANTS, partial(_solve_branch, cf.SHEARLESS, _A2_COLUMNS)),
    "a2-branch2": _Case(_D_CONSTANTS, partial(_solve_branch, cf.A2_BRANCH2, _A2_COLUMNS)),
}
SOLVE_CASES = tuple(_SOLVE)


def run_solve(config_path: str) -> int:
    case, values = _read_case(config_path, "solve", _SOLVE)
    grid = _build_grid(values)
    frame = _build_frame(values, grid)
    tol = values.get("tolerances.residual_tol", 1e-10)
    out_path = values["scenario.output"]
    full_check = values.get("scenario.full_check", False)

    solved = _SOLVE[case].run(values, grid, frame)
    _write_csv(out_path, list(solved.columns), list(solved.columns.values()))
    if solved.jet is None:
        print(f"pole encountered; partial CSV written to {out_path}")
        _result(False, math.inf)
        return EXIT_POLE
    residuals = [Check(name, value, tol=tol) for name, value in solved.checks.items()]
    if full_check:
        label, j, value = _threaded_report(cf.embed_special(solved.jet)).worst()
        residuals.append(Check.located("frame-suite", value, solved.jet.z[j], label, tol))
    ok = _report(f"solve case={case} grid=[{grid.z0:g},{grid.z1:g}] N={grid.N}",
                 [solved.pole] if solved.pole else [], residuals, solved.diagnostics,
                 footer=f"csv written to {out_path}")
    if solved.pole:
        return EXIT_POLE
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _perturbed(jet: cf.SpecialJet, delta: float) -> cf.SpecialJet:
    if delta == 0.0:
        return jet
    return jet.replace_value(a3=np.asarray(jet.value.a3) + delta)


def _verify_blocks(jet: cf.SpecialJet, tol: float) -> list[Check]:
    """Per-block max residuals with the grid row of the worst entry.  The
    three reports read the jet's one scan (``JetArrays.scan``), since
    ``embed_special`` hands over the jet itself; each report reduces its
    results as the kernels make them, and each special report is dropped
    before the next report is built."""
    zs = jet.z
    rows = []
    for title, system in (("special-bianchi", cf.bianchi_special_residuals),
                          ("ricci-einstein", cf.ricci_einstein_residuals)):
        label, j, value = system(jet).worst()
        rows.append(Check.located(title, value, zs[j], label, tol))
    rep = _threaded_report(cf.embed_special(jet))
    return rows + [Check.located(f"frame-{label}", value, zs[j], tol=tol)
                   for label, (j, value) in rep.block_worst().items()]


def _verify_a1(values: dict, grid: Grid):
    """The (solA1) family with sigma11 = e^z: the grid clipped to where it
    exists, its jet and the notes."""
    form = cf.CaseA1ClosedForm(values["constants.A"], values.get("constants.sign", 1),
                               values["constants.B"])
    try:
        grid, note = form.clip_grid(grid)
        jet, fields = form.jet(grid)
    except ValueError as exc:  # no valid interval, quadrature not converging
        raise ConfigError(str(exc)) from None
    notes = [note] if note else []
    if fields["orientation_flipped"]:
        notes.append("frame factor F is negative (orientation flipped)")
    return grid, jet, notes


def _verify_branch(family: cf.BranchFamily, values: dict, grid: Grid):
    grid, jet, note = _branch(family, values, _build_frame(values, grid), grid)
    return grid, jet, [] if note is None else [note]


_VERIFY = {
    "a1": _Case({"constants": {"A": (True, _parse_float), "B": (True, _parse_float),
                               "sign": (False, _parse_sign)}},
                _verify_a1),
    "a1-shearless": _Case({**_C_CONSTANTS, "frame": _FRAME},
                          partial(_verify_branch, cf.SHEARLESS)),
    "a2-branch1": _Case({**_C_CONSTANTS, "frame": _FRAME}, partial(_verify_branch, cf.SHEARLESS)),
    "a2-branch2": _Case({**_D_CONSTANTS, "frame": _FRAME},
                        partial(_verify_branch, cf.A2_BRANCH2)),
}
VERIFY_CASES = tuple(_VERIFY)


def run_verify(config_path: str) -> int:
    case, values = _read_case(config_path, "verify", _VERIFY)
    tol = values.get("tolerances.residual_tol", 1e-10)
    delta = values.get("perturb.a3", 0.0)
    grid, jet, notes = _VERIFY[case].run(values, _build_grid(values))
    jet = _perturbed(jet, delta)
    if delta:
        notes.append(f"a3 column perturbed by {delta:g}")
    ok = _report(f"verify case={case} grid=[{grid.z0:g},{grid.z1:g}] N={grid.N}",
                 notes, _verify_blocks(jet, tol))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# spinor
# ---------------------------------------------------------------------------

_STATE_KEYS = ("mu", "p", "pi11", "pi22", "pi12", "pi13", "pi23",
               "E11", "E22", "E12", "E13", "E23",
               "H11", "H22", "H12", "H13", "H23")


def run_spinor(state_path: str) -> int:
    parser = _read_config(state_path)
    schema = {"state": {k: (False, _parse_float) for k in _STATE_KEYS}}
    values = _validate(parser, schema)
    # JetArrays.build drops a zero number but holds every array, so a
    # one-point batch keeps the sign of each zero the file gives
    state = JetArrays.build((1,), {key.removeprefix("state."): np.array([x])
                                   for key, x in values.items()}).value

    def point(v):  # the value at the batch's one point, as a Python number
        return np.asarray(v).item()

    # the null rotation runs on Python numbers, whose complex division
    # rounds differently from numpy's
    r, w = (type(rec)(*(point(getattr(rec, f.name)) for f in dataclasses.fields(rec)))
            for rec in (ricci_spinor(state), weyl_spinor(state)))

    def cfmt(zv: complex) -> str:
        return f"{zv.real:.17g}{zv.imag:+.17g}i"

    print(f"Phi00 {_fmt(r.phi00)}")
    print(f"Phi11 {_fmt(r.phi11)}")
    print(f"Phi22 {_fmt(r.phi22)}")
    print(f"Phi01 {cfmt(r.phi01)}")
    print(f"Phi02 {cfmt(r.phi02)}")
    print(f"Phi12 {cfmt(r.phi12)}")
    print(f"Lambda_NP {_fmt(r.lam_np)}")
    for i, psi in enumerate((w.psi0, w.psi1, w.psi2, w.psi3, w.psi4)):
        print(f"Psi{i} {cfmt(psi)}")
    flat = w.max_abs() < 1e-14
    print(f"conformally_flat {'true' if flat else 'false'}")
    admissible = point(rotation_admissible(state))
    print(f"rotation_admissible {'true' if admissible else 'false'}")
    if r.phi00 != 0.0:
        alpha = diagonalizing_rotation(r)
        rot = null_rotate_ricci(r, alpha)
        print(f"rotation_alpha {cfmt(alpha)}")
        print(f"rotated_Phi01 {cfmt(rot.phi01)}")
        print(f"rotated_Phi02 {cfmt(rot.phi02)}")
        print(f"rotated_Phi12 {cfmt(rot.phi12)}")
        leftover = max(abs(rot.phi02), abs(rot.phi12))
        if leftover > 1e-14:
            print(f"note: off-diagonal remainder {leftover:.6e} after rotation")
    else:
        print("note: Phi00 = 0, diagonalizing rotation undefined")
    return EXIT_OK


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

# table column -> (JetArrays field, the component indices it fills): every
# named component but Lambda (column "Lambda", constant) and the 33 entry of
# a trace-free tensor, which JetArrays.build derives from the other two
_TABLE_COLS = {name: fi for name, fi in COMPONENT_NAMES.items()
               if name != "Lam" and name not in ("pi33", "sigma33", "E33", "H33")}


def _read_table(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [line for line in fh if line.strip("\r\n")]  # blank lines hold no row
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"table {path!r} is not UTF-8 text: {exc}") from None
    if len(lines) < 2:
        raise ConfigError("table needs a header row and at least one data row")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    if header[0] not in ("z", "t"):
        raise ConfigError("first table column must be named z or t")
    empty = next((k for k, h in enumerate(header, 1) if not h), None)
    if empty is not None:
        raise ConfigError(f"table header has an empty column name (column {empty})")
    duplicate = list(dict.fromkeys(h for i, h in enumerate(header) if h in header[:i]))
    if duplicate:
        raise ConfigError(f"duplicate table columns: {', '.join(duplicate)}")
    # solve a1 writes firstintegral_A, a diagnostic derived from the state
    # columns; residual reads it and ignores it
    known = set(_TABLE_COLS) | {"Lambda", "F", "firstintegral_A"}
    unknown = [h for h in header[1:] if h not in known]
    if unknown:
        raise ConfigError(f"unknown table columns: {', '.join(unknown)}")
    body = lines[1:]
    try:
        data = np.loadtxt(body, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        cells = next((len(row) for row in csv.reader(body) if len(row) != len(header)), None)
        if cells is not None:
            raise ConfigError(f"table rows have {cells} cells, header has {len(header)}") from None
        raise ConfigError(f"non-numeric table entry: {exc}") from None
    if data.shape[1] != len(header):
        raise ConfigError(f"table rows have {data.shape[1]} cells, header has {len(header)}")
    if not np.all(np.isfinite(data)):
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ConfigError(f"non-finite table entry {float(data[r, c])!r} in column "
                          f"{header[c]!r}, data row {r + 1}")
    if data.shape[0] < 5:
        raise ConfigError("insufficient grid: order-4 stencils need >= 5 rows")
    coords = data[:, 0]
    steps = np.diff(coords)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
        raise ConfigError("table grid must be uniform")
    if steps[0] <= 0:
        raise ConfigError("table coordinate must be increasing")
    grid = Grid(coords[0], coords[-1], data.shape[0] - 1)
    cols = {name: data[:, j] for j, name in enumerate(header)}
    return header[0], grid, cols


def _jet_arrays_from_table(coord: str, grid: Grid, cols: dict) -> JetArrays:
    state = {name: samples for name, samples in cols.items() if name in _TABLE_COLS}
    e = _e_derivatives(grid, cols.get("F", 1.0), state)
    if "Lambda" in cols:
        state["Lam"] = cols["Lambda"]
    return JetArrays.build((grid.N + 1,), state, **{"e0" if coord == "t" else "e3": e})


def _special_jet_from_table(coord: str, grid: Grid, cols: dict) -> cf.SpecialJet:
    # an absent column is a zero array, differentiated like the others (its
    # edge stencils give -0.0); an absent sigma22 or n22 keeps its ansatz
    # default, and a given sigma22 fixes sigma33 through the trace
    zero = np.zeros(grid.N + 1)
    names = {name: cols.get(name, zero) for name in cf.SPECIAL_NAMES
             if name in cols or name not in ("sigma22", "sigma33", "n22")}
    if "sigma22" in names:
        names["sigma33"] = -(names["sigma22"] + names["sigma11"])
    e = _e_derivatives(grid, cols.get("F", 1.0), names)
    return cf.SpecialJet.build(cols[coord], names, **{"e0" if coord == "t" else "e3": e})


# perfbench/tracing.py LAYER_PATCHES patches this name; callers look it up here
def _threaded_report(ja: JetArrays) -> ResidualReport:
    """The general-system residual report of a jet batch."""
    return residual_report(ja)


def run_residual(table_path: str, system: str, out_path: str | None,
                 tol: str | None) -> int:
    if tol is not None:
        try:
            tol = _parse_float(tol)
        except ValueError:
            raise ConfigError(f"--tol must be a finite number, got {tol}") from None
    coord, grid, cols = _read_table(table_path)
    zs = cols[coord]
    notes = []
    if system == "general":
        reports = [_threaded_report(_jet_arrays_from_table(coord, grid, cols))]
    else:
        jet = _special_jet_from_table(coord, grid, cols)
        if system == "special":
            reports = [cf.bianchi_special_residuals(jet, signed_zeros=True)]
            if cf.is_gauge_reduced(jet):
                reports.append(cf.ricci_einstein_residuals(jet, signed_zeros=True))
            else:
                notes.append("state is not gauge-reduced; RE block skipped")
            reports.append(_ansatz_checks(cols, np.zeros(len(zs))))
        else:
            reports = [cf.futurework_residuals(jet)]
    rows = [Check.located(label, value, zs[j], tol=tol)
            for rep in reports for label, (j, value) in rep.block_worst().items()]
    if out_path:
        # the general CSV holds each block's max-abs per point, the special
        # ones each signed entry
        columns = [zs]
        for rep in reports:
            columns += (rep.block_point_max().values() if system == "general"
                        else [arr for _, arr in rep.blocks()])
        columns.append(reduce(np.maximum, (rep.per_point_max() for rep in reports)))
        _write_csv(out_path, [coord, *(row.label for row in rows), "max"], columns)
        print(f"residual csv written to {out_path}")
    ok = _report(f"residual system={system} points={len(zs)}", notes, rows, coord=coord)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _ansatz_checks(cols: dict, zero: np.ndarray) -> ResidualReport:
    """Deviations from the diagonal elastic ansatz that the 17-entry system
    does not itself encode (reported as extra diagnostics).  An absent pi22
    or mu column takes its ansatz value, as the jet builder does."""
    def col(name):
        return cols.get(name, zero)

    names = ("ansatz_pi22", "ansatz_pi12", "ansatz_pi13", "ansatz_pi23",
             "ansatz_mu3p")
    rows = [
        np.abs(col("pi22") - col("pi11")) if "pi22" in cols else zero,
        np.abs(col("pi12")),
        np.abs(col("pi13")),
        np.abs(col("pi23")),
        np.abs(col("mu") - 3.0 * col("p")) if "mu" in cols else zero,
    ]
    return ResidualReport.of_entries(zero.shape, names, rows)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so repeated in-process ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="f13",
        description="1+3 frame equations for conformally flat elastic spacetimes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate or evaluate a scenario")
    p_solve.add_argument("--config", required=True)

    p_verify = sub.add_parser("verify", help="residual-verify a closed form")
    p_verify.add_argument("--config", required=True)

    p_spinor = sub.add_parser("spinor", help="NP components of a state file")
    p_spinor.add_argument("--state", required=True)

    p_res = sub.add_parser("residual", help="residual sweep over a state table")
    p_res.add_argument("--table", required=True)
    p_res.add_argument("--system", choices=RESIDUAL_SYSTEMS, default="general")
    p_res.add_argument("--out", default=None)
    p_res.add_argument("--tol", default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with "-" (-inf, -1e-3) for an
    # option; "--tol=VALUE" hands it to run_residual's check instead
    for i, arg in enumerate(argv[:-1]):
        if arg == "--tol":
            argv[i:i + 2] = [f"--tol={argv[i + 1]}"]
            break
    args = _parser().parse_args(argv)
    _serve_temporaries_from_the_heap()
    try:
        # overflowing input gives inf/nan, which NonFiniteResidual and the
        # partial pole CSV report; numpy need not warn about it too
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "solve":
                return run_solve(args.config)
            if args.command == "verify":
                return run_verify(args.config)
            if args.command == "spinor":
                return run_spinor(args.state)
            return run_residual(args.table, args.system, args.out, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid.N beyond memory, e.g. 10**17 points
        print(f"config error: input too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteResidual as exc:  # finite input, overflowing residual
        print(f"note: {exc}")
        _result(False, math.inf)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
