import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import (
    DepolarizedState,
    OptConfig,
    nonlocal_magic,
    nonlocal_magic_noisy,
    nonlocal_magic_theta,
    optimize_erasure,
    purity,
    reduced_purity,
    report_fig4,
    run_circuit,
    sre_exact,
    sre_nlm_depolarized,
    stabilizer_purity_exact,
    state_circuit,
)
from nlmagic import qcore
from nlmagic.circuits import H_MATRIX
from nlmagic.qcore import pauli_matrix_stack

from helpers import (
    check_distillation_lemma,
    density_matrix,
    nonlocal_magic_schmidt,
    partial_trace,
    random_pure,
    schmidt_state,
)

EPS = np.finfo(float).eps


def test_nonlocal_magic_of_maximal_entanglement_is_positive_zero():
    assert math.copysign(1.0, nonlocal_magic(0.5)) == 1.0
    assert math.copysign(1.0, nonlocal_magic(1.0)) == 1.0
    assert math.copysign(1.0, nonlocal_magic_noisy(0.5, 1.0)) == 1.0
    # The Bell state's reduced purity sums to 0.5 - 5.6e-16.
    bell = run_circuit(state_circuit("psi4"))
    assert math.copysign(1.0, nonlocal_magic(reduced_purity(bell, {0}))) == 1.0


@pytest.mark.parametrize("p_a", [0.4, 1.1, float("nan")])
def test_nonlocal_magic_rejects_a_purity_outside_its_domain(p_a):
    with pytest.raises(ValueError, match=r"must lie in \[0.5, 1\]"):
        nonlocal_magic(p_a)


@pytest.mark.parametrize("p_dep", [1.0, 0.959, 0.5, 0.1])
def test_noisy_inversion_recovers_the_schmidt_closed_form(p_dep):
    for lam in np.linspace(0.5, 1.0, 401):
        measured = reduced_purity(schmidt_state(lam, p_dep), {0})
        assert abs(nonlocal_magic_noisy(measured, p_dep) - nonlocal_magic_schmidt(lam)) <= 1e-12


def test_noise_free_inversion_is_the_reduced_purity_closed_form():
    # M_NL = -log2(4 P_A^2 - 6 P_A + 3) for a pure state's reduced purity P_A.
    for p_a in np.linspace(0.5, 1.0, 201):
        expected = -np.log2(4.0 * p_a**2 - 6.0 * p_a + 3.0)
        assert abs(nonlocal_magic_noisy(p_a, 1.0) - expected) <= 1e-12
        assert nonlocal_magic(p_a) == nonlocal_magic_noisy(p_a, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2 * np.pi, 2 * np.pi))
def test_one_formula_matches_schmidt_erasure_and_theta_forms(seed, theta):
    state = random_pure(np.random.default_rng(seed), 2)
    m_nl = nonlocal_magic(reduced_purity(state, {0}))
    lam = np.linalg.eigvalsh(partial_trace(density_matrix(state), {0}))[-1]
    # Measured over 3,000 states (and 3,000 angles): at most 16 eps against
    # the Schmidt form, 14 eps against the erasure floor and 19 eps against
    # the theta form; each bound leaves a factor of four.
    assert abs(m_nl - nonlocal_magic_schmidt(lam)) <= 64 * EPS
    assert abs(m_nl - optimize_erasure(state).residual_m2) <= 64 * EPS
    nlm = run_circuit(state_circuit("nlm", {"theta": theta}))
    assert abs(nonlocal_magic(reduced_purity(nlm, {0})) - nonlocal_magic_theta(theta)) <= 64 * EPS


@pytest.mark.parametrize("survival", [1.0, 0.99, 0.95, 0.8, 0.5, 0.0])
@pytest.mark.parametrize("theta_deg", [0.0, 5.0, 20.0, 45.0, 90.0, 137.0])
def test_depolarized_nlm_closed_form_matches_oracle(survival, theta_deg):
    theta = np.deg2rad(theta_deg)
    rho = DepolarizedState(run_circuit(state_circuit("nlm", {"theta": theta})).psi, survival)
    assert abs(sre_nlm_depolarized(1.0 - survival, theta) - sre_exact(rho)) <= 1e-12


def test_sre_is_additive_at_eight_qubits():
    rng = np.random.default_rng(8)
    a, b = random_pure(rng, 4), random_pure(rng, 4)
    product = DepolarizedState(np.kron(a.psi, b.psi))
    assert product.num_qubits == 8
    assert abs(sre_exact(product) - (sre_exact(a) + sre_exact(b))) <= 1e-10


def test_sre_is_additive_at_ten_qubits_within_a_memory_bound():
    rng = np.random.default_rng(10)
    a, b = random_pure(rng, 5), random_pure(rng, 5)
    product = DepolarizedState(np.kron(a.psi, b.psi))
    tracemalloc.start()
    try:
        total = sre_exact(product)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert abs(total - (sre_exact(a) + sre_exact(b))) <= 1e-12
    # The fused psi_i conj(psi_j) at N = 10 is 16 MiB; the measured peak is
    # 64.0 MiB, four such arrays at once inside one per-axis product. The
    # bound leaves a quarter more.
    assert peak_mb < 80.0


def test_magic_report_computes_one_pauli_spectrum(monkeypatch):
    fresh = run_circuit(state_circuit("m"), 0.95)
    expected = (purity(fresh), stabilizer_purity_exact(fresh), sre_exact(fresh), reduced_purity(fresh, {0}))
    clean_nlm = nonlocal_magic(reduced_purity(run_circuit(state_circuit("m")), {0}))
    calls = []
    real = qcore.pure_pauli_spectrum
    monkeypatch.setattr(qcore, "pure_pauli_spectrum", lambda *a: calls.append(a) or real(*a))
    rho = run_circuit(state_circuit("m"), 0.95)
    report = (purity(rho), stabilizer_purity_exact(rho), sre_exact(rho), reduced_purity(rho, {0}))
    assert (stabilizer_purity_exact(rho), sre_exact(rho)) == expected[1:3]
    assert len(calls) == 1
    assert report == expected
    # The non-local part of the SRE, read off the same spectrum.
    assert abs(nonlocal_magic_noisy(report[3], rho.survival) - clean_nlm) <= 1e-12


def test_oracles_build_no_pauli_matrix_stack():
    pauli_matrix_stack.cache_clear()
    rho = run_circuit(state_circuit("m"))
    sre_exact(rho)
    optimize_erasure(rho, OptConfig(seed=0))
    report_fig4()
    assert pauli_matrix_stack.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Distillation bound

_S = np.diag([1.0, 1j])
_ONE_QUBIT_WORDS = [H_MATRIX, _S]
_TWO_QUBIT_WORDS = [np.kron(u, np.eye(2)) for u in _ONE_QUBIT_WORDS]
_TWO_QUBIT_WORDS += [np.kron(np.eye(2), u) for u in _ONE_QUBIT_WORDS] + [np.diag([1, 1, 1, -1])]


def _word(rng, letters, dim):
    out = np.eye(dim, dtype=complex)
    for i in rng.integers(0, len(letters), size=int(rng.integers(0, 12))):
        out = letters[i] @ out
    return out


def test_factorized_cliffords_never_violate_the_distillation_bound():
    rng = np.random.default_rng(11)
    states = [run_circuit(state_circuit(s)) for s in ("m", "lm", "psi3", "psi4")]
    states += [random_pure(rng, 2) for _ in range(4)]
    outcomes = []
    for psi in states:
        for _ in range(40):
            c = np.kron(_word(rng, _ONE_QUBIT_WORDS, 2), _word(rng, _TWO_QUBIT_WORDS, 4))
            outcomes.append(check_distillation_lemma(psi, c))
    assert False not in outcomes
    assert outcomes.count(True) > 50


def test_a_non_factorized_clifford_violates_the_distillation_bound():
    # CNOT A->B then SWAP A<->ancilla maps (a, b, c) to (c, a XOR b, a): on
    # sqrt(lam)|00> + sqrt(1 - lam)|11> it leaves (A, B) in |00> and moves
    # the non-local magic onto the ancilla, beyond the (zero) local magic.
    lam = 0.8
    psi = schmidt_state(lam)
    c = np.zeros((8, 8))
    for a, b, anc in np.ndindex(2, 2, 2):
        c[4 * anc + 2 * (a ^ b) + a, 4 * a + 2 * b + anc] = 1.0
    assert check_distillation_lemma(psi, c) is False
