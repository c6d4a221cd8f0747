import contextlib
import hashlib
import io
import os

import inputs
import oracle
import pytest
from f13.cli import main

PASS_LINE = "RESULT pass max_residual=1.5e-12"


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def a1_op(tmp_path):
    path = tmp_path / "a1.csv"
    path.write_text("z,sigma11,firstintegral_A\n0,0.1,1.25\n0.5,0.2,1.25\n1,0.3,1.25\n")
    op = {"name": "a1", "argv": [], "exit": 0, "verdict": "pass", "tol": 1e-8,
          "csv": "a1.csv", "points": "csv_rows", "cons_tol": 1e-8}
    return op, str(path)


def _log(sha, n=2, **res):
    entry = {"exit": 0, "last": PASS_LINE, "sha256": sha}
    entry.update(res)
    return [dict(entry) for _ in range(n)]


def test_clean_output_passes(a1_op, tmp_path):
    op, path = a1_op
    sha = _sha(path)
    assert oracle.judge([op], _log(sha), str(tmp_path), {"a1": sha}) == (0, [])


def test_flipped_csv_byte_is_rejected(a1_op, tmp_path):
    op, path = a1_op
    recorded = _sha(path)
    log = _log(recorded)
    with open(path, "r+b") as fh:
        fh.seek(30)
        byte = fh.read(1)
        fh.seek(30)
        fh.write(bytes([byte[0] ^ 1]))
    # the second invocation wrote different bytes than the first
    log[1]["sha256"] = _sha(path)
    failed, problems = oracle.judge([op], log, str(tmp_path), None)
    assert failed == 1 and any("differ between invocations" in p for p in problems)
    # and the file no longer matches the hash recorded for the default seed
    log = _log(_sha(path))
    failed, problems = oracle.judge([op], log, str(tmp_path), {"a1": recorded})
    assert failed == 2 and any("differs from the recorded" in p for p in problems)


def test_wrong_exit_code_is_rejected(a1_op, tmp_path):
    op, path = a1_op
    failed, problems = oracle.judge([op], _log(_sha(path), exit=4), str(tmp_path), None)
    assert failed == 2 and "exit code 4, expected 0" in problems[0]


@pytest.mark.parametrize("last", ["csv written to a1.csv", "", "RESULT maybe max_residual=0"])
def test_missing_result_line_is_rejected(a1_op, tmp_path, last):
    op, path = a1_op
    failed, problems = oracle.judge([op], _log(_sha(path), last=last), str(tmp_path), None)
    assert failed == 2 and "not a RESULT line" in problems[0]


def test_wrong_verdict_and_residual_above_tol_are_rejected(a1_op):
    op, _ = a1_op
    assert oracle.result_problems(op, {"exit": 0, "last": "RESULT fail max_residual=1e-12"})
    assert oracle.result_problems(op, {"exit": 0, "last": "RESULT pass max_residual=1e-8"})
    assert not oracle.result_problems(op, {"exit": 0, "last": PASS_LINE})


def test_first_integral_drift_is_rejected(a1_op, tmp_path):
    op, path = a1_op
    with open(path, "a") as fh:
        fh.write("1.5,0.4,1.2500001\n")
    problems = oracle.csv_problems(op, str(tmp_path))
    assert len(problems) == 1 and "drift" in problems[0]


def test_pole_op_oracle_on_the_program_output(tmp_path):
    """The real pole op passes; dropping its last rows moves the last finite
    z more than POLE_STEPS steps ahead of z_pole, which the oracle rejects."""
    ops = inputs.generate("solve_ode", 0, str(tmp_path))
    op = next(o for o in ops if "pole" in o)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(op["argv"])
    finally:
        os.chdir(cwd)
    res = {"exit": code, "last": out.getvalue().splitlines()[-1],
           "sha256": _sha(tmp_path / op["csv"])}
    assert oracle.judge([op], [res], str(tmp_path), None) == (0, [])
    lines = (tmp_path / op["csv"]).read_text().splitlines(keepends=True)
    (tmp_path / op["csv"]).write_text("".join(lines[:-10]))
    problems = oracle.csv_problems(op, str(tmp_path))
    assert len(problems) == 1 and "last finite z" in problems[0]


def test_setup_run_must_honour_the_cli_contract():
    op = {"name": "a1"}
    assert not oracle.setup_problems(op, {"exit": 4, "last": "RESULT fail max_residual=0.1"})
    assert oracle.setup_problems(op, {"exit": 2, "last": "RESULT fail max_residual=0.1"})
    assert oracle.setup_problems(op, {"exit": 0, "last": "config error: bad"})
