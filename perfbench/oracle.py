"""Per-op output oracle of the f13 benchmark.

An invocation of an op fails when any of these does not hold:

- its exit code is the op's expected one;
- its last stdout line is ``RESULT <verdict> max_residual=<x>`` with the
  expected verdict and, for ops that must pass, x < the config's
  residual_tol;
- its output CSV has the same sha256 as the op's first invocation, and as
  the hash recorded for the default seed, where one is recorded;
- the a1 first-integral drift read back from the CSV is < conservation_tol;
- the pole op's last finite z lies within POLE_STEPS steps of the
  closed-form blow-up point.

The CSV checks are properties of the file every invocation of the op wrote,
so a failed CSV check fails every invocation of that op.
"""

from __future__ import annotations

import csv
import os
import re

import numpy as np

# RK4 stops at its first overflow, which at N = 2e4 lands 1.2 to 2.2 steps
# past the true pole (measured over 40 seeds), so 2 steps is too tight
POLE_STEPS = 3.0

_RESULT = re.compile(r"RESULT (pass|fail) max_residual=(\S+)")


def result_problems(op: dict, res: dict) -> list[str]:
    """Exit code and RESULT-line checks of one invocation."""
    problems = []
    if res["exit"] != op["exit"]:
        problems.append(f"exit code {res['exit']}, expected {op['exit']}")
    m = _RESULT.fullmatch(res["last"])
    if m is None:
        problems.append(f"last line is not a RESULT line: {res['last']!r}")
        return problems
    if m.group(1) != op["verdict"]:
        problems.append(f"verdict {m.group(1)}, expected {op['verdict']}")
    if op["tol"] is not None and not float(m.group(2)) < op["tol"]:
        problems.append(f"max_residual {m.group(2)} not below residual_tol {op['tol']!r}")
    return problems


def _columns(path: str, names: list[str]) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(n) for n in names]
        rows = [[float(row[i]) for i in idx] for row in reader]
    data = np.array(rows, dtype=float).reshape(-1, len(names))
    return {n: data[:, j] for j, n in enumerate(names)}


def csv_problems(op: dict, outdir: str) -> list[str]:
    """First-integral and pole checks on the CSV an op wrote."""
    if op["csv"] is None:
        return []
    path = os.path.join(outdir, op["csv"])
    if not os.path.exists(path):
        return [f"output {op['csv']} missing"]
    problems = []
    try:
        if "cons_tol" in op:
            A = _columns(path, ["firstintegral_A"])["firstintegral_A"]
            drift = float(np.max(np.abs(A - A[0])))
            if not drift < op["cons_tol"]:
                problems.append(f"first-integral drift {drift!r} not below {op['cons_tol']!r}")
        if "pole" in op:
            z_last = float(_columns(path, ["z"])["z"][-1])
            pole = op["pole"]
            if not abs(z_last - pole["z_pole"]) <= POLE_STEPS * pole["h"]:
                problems.append(f"last finite z={z_last!r} is not within {POLE_STEPS:g} steps "
                                f"of z_pole={pole['z_pole']!r}")
    except (ValueError, IndexError, StopIteration) as exc:
        problems.append(f"unreadable output {op['csv']}: {exc}")
    return problems


def judge(ops: list[dict], log: list[dict], outdir: str,
          recorded: dict[str, str] | None) -> tuple[int, list[str]]:
    """Check every invocation in ``log`` (rounds of ``ops``, in order).

    ``recorded`` maps op name to the sha256 recorded for this seed, or is
    None.  Returns the number of failed invocations and the problems."""
    n = len(ops)
    first_hash: dict[str, str | None] = {}
    for i, res in enumerate(log):
        first_hash.setdefault(ops[i % n]["name"], res.get("sha256"))
    problems: list[str] = []
    op_level = {}
    for op in ops:
        found = csv_problems(op, outdir)
        if recorded is not None and op["csv"] is not None:
            want = recorded.get(op["name"])
            if first_hash.get(op["name"]) != want:
                found.append(f"{op['csv']} sha256 {first_hash.get(op['name'])} "
                             f"differs from the recorded {want}")
        op_level[op["name"]] = found
        problems += [f"{op['name']}: {p}" for p in found]
    failed = 0
    for i, res in enumerate(log):
        op = ops[i % n]
        found = result_problems(op, res)
        if op["csv"] is not None and (res.get("sha256") is None
                                      or res["sha256"] != first_hash[op["name"]]):
            found.append(f"{op['csv']} bytes differ between invocations")
        problems += [f"{op['name']} invocation {i // n}: {p}" for p in found]
        if found or op_level[op["name"]]:
            failed += 1
    return failed, problems


def setup_problems(op: dict, res: dict) -> list[str]:
    """At the smallest size an op need not reach its full-size verdict
    (coarse grids fail the residual gates), but it must honour the CLI
    contract: exit 0, 3 or 4 with a RESULT line."""
    problems = []
    if res["exit"] not in (0, 3, 4):
        problems.append(f"set-up run exited {res['exit']}")
    if _RESULT.fullmatch(res["last"]) is None:
        problems.append(f"set-up run printed no RESULT line: {res['last']!r}")
    return problems
