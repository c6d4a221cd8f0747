import json
import os

import inputs
import pytest


def _snapshot(workload, seed, outdir, small=False):
    ops = inputs.generate(workload, seed, str(outdir), small=small)
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return json.dumps(ops, sort_keys=True), files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    assert _snapshot(workload, 7, tmp_path / "a") == _snapshot(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_differs_across_seeds(tmp_path, workload):
    ops_a, files_a = _snapshot(workload, 7, tmp_path / "a")
    ops_b, files_b = _snapshot(workload, 8, tmp_path / "b")
    assert files_a.keys() == files_b.keys()
    # every generated input file changes with the seed
    assert all(files_a[k] != files_b[k] for k in files_a)


def test_small_inputs_use_the_smallest_legal_sizes(tmp_path):
    inputs.generate("residual_sweep", 0, str(tmp_path), small=True)
    with open(tmp_path / "state.csv") as fh:
        assert len(fh.read().splitlines()) == 1 + inputs.SMALL_ROWS
    ops = inputs.generate("verify_closed", 0, str(tmp_path / "v"), small=True)
    assert {op["grid_points"] for op in ops} == {inputs.SMALL_N + 1}


def test_pole_op_pole_lies_inside_the_grid_for_every_seed(tmp_path):
    for seed in range(50):
        ops = inputs.generate("solve_ode", seed, str(tmp_path / str(seed)))
        pole = next(op["pole"] for op in ops if "pole" in op)
        # the same blow-up point on every seed keeps a round's work fixed
        assert abs(pole["z_pole"] - inputs.POLE_Z) < 1e-12
