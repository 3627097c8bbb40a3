import math

import numpy as np
import pytest

from nlmagic import (
    DensityMatrix,
    OptConfig,
    depolarize,
    magic_report,
    nonlocal_magic_from_rdm_purity,
    nonlocal_magic_schmidt,
    optimize_erasure,
    purity,
    report_fig4,
    run_circuit,
    sre_exact,
    sre_nlm_depolarized,
    stabilizer_purity_exact,
    state_circuit,
)
from nlmagic import magic
from nlmagic.qcore import pauli_matrix_stack

from helpers import random_pure


def test_nonlocal_magic_of_maximal_entanglement_is_positive_zero():
    assert math.copysign(1.0, nonlocal_magic_schmidt(0.5)) == 1.0
    assert math.copysign(1.0, nonlocal_magic_from_rdm_purity(0.5)) == 1.0


@pytest.mark.parametrize("survival", [1.0, 0.99, 0.95, 0.8, 0.5, 0.0])
@pytest.mark.parametrize("theta_deg", [0.0, 5.0, 20.0, 45.0, 90.0, 137.0])
def test_depolarized_nlm_closed_form_matches_oracle(survival, theta_deg):
    theta = np.deg2rad(theta_deg)
    rho = depolarize(run_circuit(state_circuit("nlm", {"theta": theta})), survival)
    assert abs(sre_nlm_depolarized(1.0 - survival, theta) - sre_exact(rho)) <= 1e-12


def test_sre_is_additive_at_eight_qubits():
    rng = np.random.default_rng(8)
    a, b = random_pure(rng, 4), random_pure(rng, 4)
    product = DensityMatrix(np.kron(a.matrix, b.matrix))
    assert product.num_qubits == 8
    assert abs(sre_exact(product) - (sre_exact(a) + sre_exact(b))) <= 1e-10


def test_oracles_build_no_pauli_matrix_stack():
    pauli_matrix_stack.cache_clear()
    rho = run_circuit(state_circuit("m"))
    magic_report(rho)
    optimize_erasure(rho, OptConfig(seed=0))
    report_fig4()
    assert pauli_matrix_stack.cache_info().currsize == 0


def test_magic_report_computes_one_pauli_spectrum(monkeypatch):
    rho = depolarize(run_circuit(state_circuit("m")), 0.95)
    expected = (purity(rho), stabilizer_purity_exact(rho), sre_exact(rho))
    calls = []
    real = magic.expectations_from_matrix
    monkeypatch.setattr(magic, "expectations_from_matrix", lambda *a: calls.append(a) or real(*a))
    report = magic_report(rho, 0.1)
    assert len(calls) == 1
    assert (report.purity, report.stabilizer_purity, report.m2) == expected
    assert report.m2_local == report.m2 - 0.1
