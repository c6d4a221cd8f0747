"""Metric-level ground truth for the general residual evaluators.

tests/data/groundtruth_jets.json holds 1+3 jets derived from exact metrics
by computer algebra (tests/groundtruth_gen.py): frame commutators supply the
connection variables, the Riemann tensor the Weyl parts, and the Einstein
tensor defines the matter, so each case satisfies the field equations by
construction.  Every residual block must vanish on every case.

Coverage by nonzero sectors:
  kasner            shear + electric Weyl (vacuum Bianchi I)
  generic_diagonal  q, pi, udot, sigma, a, n, E, H, multi-direction gradients
  godel             vorticity + matter + negative cosmological constant
  pp_wave           magnetic Weyl (vacuum plane wave)
"""

import json
import pathlib

import einsum_reference
import numpy as np
import pytest

from conftest import DenseJet

from f13.frame_equations import ResidualReport, residual_report

DATA = pathlib.Path(__file__).parent / "data" / "groundtruth_jets.json"


def load_jet(entry) -> DenseJet:
    ja = DenseJet(())
    for name, values in entry.items():
        getattr(ja, name)[...] = np.asarray(values)
    return ja


@pytest.fixture(scope="module")
def groundtruth():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", ["kasner", "generic_diagonal", "godel", "pp_wave"])
def test_exact_metric_jets_null_every_block(groundtruth, case):
    rep = residual_report(load_jet(groundtruth[case]))
    assert rep.max_residual() < 1e-12, (case, rep.block_norms())


@pytest.mark.parametrize("case", ["kasner", "generic_diagonal", "godel", "pp_wave"])
def test_exact_metric_jets_bit_identical_to_einsum_form(groundtruth, case):
    ja = load_jet(groundtruth[case])
    rep = residual_report(ja)
    for name, ref in zip(ResidualReport.BLOCKS, einsum_reference.report_arrays(ja)):
        assert np.array_equal(getattr(rep, name), ref), name


def test_coverage_of_variable_sectors(groundtruth):
    """The frozen cases really exercise the sectors they claim to."""
    kasner = load_jet(groundtruth["kasner"])
    assert np.max(np.abs(kasner.sigma)) > 0.1 and np.max(np.abs(kasner.E)) > 0.05
    gen = load_jet(groundtruth["generic_diagonal"])
    for f in ("q", "pi", "udot", "sigma", "a", "n", "E", "H"):
        assert np.max(np.abs(getattr(gen, f))) > 1e-3, f
    godel = load_jet(groundtruth["godel"])
    assert np.max(np.abs(godel.omega)) > 0.5 and godel.mu > 0.5 and godel.Lam < 0
    wave = load_jet(groundtruth["pp_wave"])
    assert np.max(np.abs(wave.H)) > 0.4 and float(wave.mu) == 0.0
