"""Seeded input generator for the f13 benchmark.

``generate(workload, seed, outdir)`` writes every config, frame table and
state table a workload needs into ``outdir`` and returns the list of ops.
An op is one CLI invocation with its expected outcome, as a plain dict:

    name      short label, unique within the workload
    argv      arguments for ``f13.cli.main`` (paths relative to ``outdir``)
    exit      expected exit code
    verdict   expected verdict on the ``RESULT`` line (``pass`` or ``fail``)
    tol       the config's residual_tol (``None`` for the pole op)
    csv       output CSV written by the op, relative to ``outdir``
    points    how the op's points are counted: ``csv_rows`` or ``grid``
    grid_points  verified grid points (``points == "grid"`` only)
    cons_tol  conservation_tol, for the a1 first-integral check
    pole      {"h", "z_pole"} (grid step, blow-up point) for the pole op

The seed varies parameters only inside ranges where each op's expected
exit code holds: no pole inside [0, 1] for the a1/a2 ops, and a pole
inside it for the pole op.  The same (workload, seed, outdir) always gives
byte-identical files.  ``small=True`` gives the same ops at the smallest
legal size (N = 4 grids, a 5-row table), which the set-up probe runs.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

WORKLOADS = ("solve_ode", "verify_closed", "residual_sweep")

# F13_THREADS per workload; residual_sweep is the threaded sweep (2 = nproc
# of the reference machine), the other two are single-threaded baselines
THREADS = {"solve_ode": 1, "verify_closed": 1, "residual_sweep": 2}

N_GRID = 20_000
N_TABLE_ROWS = 100_000
SMALL_N = 4  # smallest grid Grid accepts
SMALL_ROWS = 5  # smallest table the order-4 stencils accept
F_NODES = 101

RESIDUAL_TOL = 1e-8  # solve and verify configs
CONSERVATION_TOL = 1e-8
SWEEP_TOL = 1e-4  # --tol of the residual sweeps
POLE_SIGMA0 = 0.5
POLE_Z = 0.6  # blow-up point of the pole op on every seed


def _num(x: float) -> str:
    return repr(float(x))


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


def _config(sections: dict) -> str:
    out = []
    for section, keys in sections.items():
        out.append(f"[{section}]")
        out += [f"{k} = {v}" for k, v in keys.items()]
        out.append("")
    return "\n".join(out)


def _write_f_table(path: str, rng: random.Random) -> None:
    """Smooth positive F(z) = 1 + alpha sin(2 pi k z + phi) on [0, 1].

    alpha <= 0.2 keeps F >= 0.8 and the cubic spline through F_NODES nodes
    far from zero, and the table covers the whole grid, so no op
    extrapolates."""
    alpha = rng.uniform(0.05, 0.2)
    k = rng.choice((1, 2))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    z = np.linspace(0.0, 1.0, F_NODES)
    F = 1.0 + alpha * np.sin(2.0 * math.pi * k * z + phi)
    lines = ["z,F"] + [f"{zi!r},{Fi!r}" for zi, Fi in zip(z.tolist(), F.tolist())]
    _write(path, "\n".join(lines) + "\n")


def a1_pole_z(A: float, sigma0: float, F: float) -> float:
    """Blow-up point of case A1 started at z0 = 0, for constant F, sign +1
    and A >= 0, from the first integral:
    z0 + (sqrt(A sigma0^2 + 9)/(9 sigma0) - sqrt(A)/9) F."""
    return (math.sqrt(A * sigma0 * sigma0 + 9.0) / (9.0 * sigma0) - math.sqrt(A) / 9.0) * F


def a1_pole_A(z_pole: float, sigma0: float, F: float) -> float:
    """The A >= 0 at which ``a1_pole_z(A, sigma0, F)`` is ``z_pole``.

    With v = sigma0 sqrt(A) and k = F / (sigma0 z_pole), the blow-up point
    solves sqrt(v^2 + 9) + v = k, so v = (k^2 - 9) / (2k); it needs k > 3."""
    k = F / (sigma0 * z_pole)
    if not k > 3.0:
        raise ValueError(f"no A >= 0 puts the pole at z = {z_pole!r} for F = {F!r}")
    return ((k * k - 9.0) / (2.0 * k * sigma0)) ** 2


def _grid(N: int) -> dict:
    return {"z0": "0.0", "z1": "1.0", "N": str(N)}


def _tolerances() -> dict:
    return {"residual_tol": _num(RESIDUAL_TOL), "conservation_tol": _num(CONSERVATION_TOL)}


def _solve_ode(rng: random.Random, outdir: str, N: int) -> list[dict]:
    _write_f_table(os.path.join(outdir, "F.csv"), rng)
    # sigma11_0 <= 0.15 and A <= 2 put the a1 pole beyond z = 1.6 even at
    # F = 0.8; the a2 data blow up no earlier than z = 1.2 at F = 0.8
    a1 = {"sigma11": rng.uniform(0.05, 0.15), "Omega3": rng.uniform(0.5, 1.5),
          "A": rng.uniform(0.5, 2.0)}
    a2 = {"p": rng.uniform(0.05, 0.15), "udot3": rng.uniform(-0.2, 0.2),
          "a3": rng.uniform(0.1, 0.3), "Omega3": rng.uniform(0.5, 1.5)}
    # the pole op's A is solved for from F so that every seed blows up at
    # z = POLE_Z and a round does the same work on every seed
    pole = {"F": rng.uniform(0.95, 1.15), "Omega3": rng.uniform(0.5, 1.5)}
    pole["A"] = a1_pole_A(POLE_Z, POLE_SIGMA0, pole["F"])
    tables = {
        "a1": {
            "scenario": {"case": "a1", "output": "a1.csv", "full_check": "true"},
            "frame": {"F_table": "F.csv"},
            "grid": _grid(N),
            "initial": {"sigma11": _num(a1["sigma11"]), "Omega3": _num(a1["Omega3"])},
            "constants": {"A": _num(a1["A"])},
            "tolerances": _tolerances(),
        },
        "a2": {
            "scenario": {"case": "a2", "output": "a2.csv", "full_check": "true"},
            "frame": {"F_table": "F.csv"},
            "grid": _grid(N),
            "initial": {k: _num(v) for k, v in a2.items()},
            "tolerances": _tolerances(),
        },
        "a1_pole": {
            "scenario": {"case": "a1", "output": "a1_pole.csv"},
            "frame": {"F": _num(pole["F"])},
            "grid": _grid(N),
            "initial": {"sigma11": _num(POLE_SIGMA0), "Omega3": _num(pole["Omega3"])},
            "constants": {"A": _num(pole["A"])},
            "tolerances": _tolerances(),
        },
    }
    ops = []
    for name, sections in tables.items():
        _write(os.path.join(outdir, f"{name}.cfg"), _config(sections))
        op = {"name": name, "argv": ["solve", "--config", f"{name}.cfg"],
              "exit": 0, "verdict": "pass", "tol": RESIDUAL_TOL,
              "csv": f"{name}.csv", "points": "csv_rows"}
        if name == "a1":
            op["cons_tol"] = CONSERVATION_TOL
        if name == "a1_pole":
            op.update(exit=3, verdict="fail", tol=None,
                      pole={"h": 1.0 / N,
                            "z_pole": a1_pole_z(pole["A"], POLE_SIGMA0, pole["F"])})
        ops.append(op)
    return ops


def _verify_closed(rng: random.Random, outdir: str, N: int) -> list[dict]:
    _write_f_table(os.path.join(outdir, "F.csv"), rng)
    # A > 0 keeps the exp-family radicand positive; C, D < 0 keep the branch
    # denominators int(-c/F) + C away from zero on [0, 1]
    tables = {
        "a1": {
            "scenario": {"case": "a1"},
            "grid": _grid(N),
            "constants": {"A": _num(rng.uniform(0.5, 2.0)), "B": _num(rng.uniform(0.5, 1.5))},
            "tolerances": {"residual_tol": _num(RESIDUAL_TOL)},
        },
        "a2_branch1": {
            "scenario": {"case": "a2-branch1"},
            "frame": {"F_table": "F.csv"},
            "grid": _grid(N),
            "constants": {"C": _num(rng.uniform(-2.0, -1.0)), "B": _num(rng.uniform(0.5, 1.5))},
            "tolerances": {"residual_tol": _num(RESIDUAL_TOL)},
        },
        "a2_branch2": {
            "scenario": {"case": "a2-branch2"},
            "frame": {"F_table": "F.csv"},
            "grid": _grid(N),
            "constants": {"D": _num(rng.uniform(-2.0, -1.0)), "B": _num(rng.uniform(0.5, 1.5))},
            "tolerances": {"residual_tol": _num(RESIDUAL_TOL)},
        },
    }
    ops = []
    for name, sections in tables.items():
        _write(os.path.join(outdir, f"{name}.cfg"), _config(sections))
        ops.append({"name": name, "argv": ["verify", "--config", f"{name}.cfg"],
                    "exit": 0, "verdict": "pass", "tol": RESIDUAL_TOL,
                    "csv": None, "points": "grid", "grid_points": N + 1})
    return ops


def write_state_table(path: str, rows: int, A: float, B: float) -> None:
    """Case A1 closed-form family sigma11 = e^z on [0, 1] as a state table.

    a3 = sqrt(A e^{2z} + 9) e^z, F = a3 sigma11 / sigma11' = a3,
    Omega3 = B e^z, and the algebraic closure for p, pi11, udot3, with the
    elastic ansatz pi22 = pi11, sigma22 = sigma11 and mu = 3p."""
    z = np.linspace(0.0, 1.0, rows)
    s = np.exp(z)
    a3 = np.sqrt(A * s * s + 9.0) * s
    p = -3.0 * s * s + a3 * a3 / 3.0
    pi11 = 12.0 * s * s - 4.0 * a3 * a3 / 3.0
    cols = {"z": z, "F": a3, "Theta": 6.0 * s, "sigma11": s, "sigma22": s,
            "udot3": -a3, "a3": a3, "p": p, "pi11": pi11, "pi22": pi11,
            "Omega3": B * s, "mu": 3.0 * p}
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        np.savetxt(fh, np.column_stack(list(cols.values())), fmt="%.17g",
                   delimiter=",", newline="\n")


def _residual_sweep(rng: random.Random, outdir: str, rows: int) -> list[dict]:
    write_state_table(os.path.join(outdir, "state.csv"), rows,
                      rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5))
    ops = []
    for system in ("general", "special"):
        out = f"res_{system}.csv"
        ops.append({"name": system,
                    "argv": ["residual", "--table", "state.csv", "--system", system,
                             "--out", out, "--tol", _num(SWEEP_TOL)],
                    "exit": 0, "verdict": "pass", "tol": SWEEP_TOL,
                    "csv": out, "points": "csv_rows"})
    return ops


def generate(workload: str, seed: int, outdir: str, small: bool = False) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``outdir``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve_ode":
        return _solve_ode(rng, outdir, SMALL_N if small else N_GRID)
    if workload == "verify_closed":
        return _verify_closed(rng, outdir, SMALL_N if small else N_GRID)
    return _residual_sweep(rng, outdir, SMALL_ROWS if small else N_TABLE_ROWS)
