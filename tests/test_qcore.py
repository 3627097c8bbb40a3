import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import DensityMatrix, partial_trace, pauli_expectations, purity
from nlmagic.qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, apply_to_axis, pauli_matrix_stack

from helpers import random_mixed, random_pure


def pauli_labels(num_qubits):
    """Labels of the 4^N Pauli strings in lexicographic (stack) order."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=num_qubits)]


def pauli(letters):
    return pauli_matrix_stack(len(letters))[pauli_labels(len(letters)).index(letters)]


def test_tensor_identity():
    assert np.array_equal(pauli("II"), np.eye(4))


def test_tensor_qubit_ordering():
    # qubit 0 is the leftmost factor, i.e. the most significant bit
    assert np.array_equal(pauli("ZI"), np.diag([1, 1, -1, -1]))


def test_tensor_basis_action():
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    v10 = np.array([0, 0, 1, 0], dtype=complex)
    assert np.array_equal(pauli("XZ") @ v00, v10)


def test_partial_trace_product_state():
    rho = DensityMatrix.from_state_vector([1, 0, 0, 0])
    reduced = partial_trace(rho, {0})
    assert np.allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-12)


def test_partial_trace_bell():
    bell = DensityMatrix.from_state_vector([1, 0, 0, 1])
    reduced = partial_trace(bell, {0})
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_schmidt_weights():
    lam = np.cos(np.pi / 8) ** 2
    vec = [np.sqrt(lam), 0, 0, np.sqrt(1 - lam)]
    reduced = partial_trace(DensityMatrix.from_state_vector(vec), {0})
    assert np.allclose(np.diag(reduced.matrix).real, [0.85355339, 0.14644661], atol=1e-8)


@pytest.mark.parametrize("keep", [set(), {0, 1}])
def test_partial_trace_invalid_subset(keep):
    rho = DensityMatrix.from_state_vector([1, 0, 0, 0])
    with pytest.raises(ValueError):
        partial_trace(rho, keep)


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_pure(rng, 1)
        b = random_mixed(rng, 1)
        joint = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert np.allclose(partial_trace(joint, {0}).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, {1}).matrix, b.matrix, atol=1e-12)


def test_purity_pure_and_mixed():
    assert purity(DensityMatrix.from_state_vector([1, 0])) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)


def test_purity_depolarized_two_qubit():
    # Tr((p rho + (1-p) I/4)^2) = 0.75 p^2 + 0.25 for pure rho
    rho = DensityMatrix.from_state_vector([1, 0, 0, 1])
    p = 0.96
    mixed = DensityMatrix(p * rho.matrix + (1 - p) * np.eye(4) / 4)
    assert purity(mixed) == pytest.approx(0.9412, abs=1e-12)


def test_pauli_expectations_zero_state():
    t = pauli_expectations(DensityMatrix.from_state_vector([1, 0]))
    assert np.allclose(t, [1, 0, 0, 1], atol=1e-12)


def test_pauli_expectations_t_plus():
    vec = [1 / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)]
    t = pauli_expectations(DensityMatrix.from_state_vector(vec))
    s = 1 / np.sqrt(2)
    assert np.allclose(t, [1, s, s, 0], atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_pauli_completeness(num_qubits):
    rng = np.random.default_rng(5)
    for k in range(100):
        rho = random_pure(rng, num_qubits) if k % 2 else random_mixed(rng, num_qubits)
        t = pauli_expectations(rho)
        d = rho.dim
        assert abs((t**2).sum() - d * purity(rho)) < 1e-10


def test_pauli_string_count():
    assert pauli_matrix_stack(2).shape == (16, 4, 4)
    assert np.array_equal(pauli_matrix_stack(1), [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[1, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(m)


def test_density_matrix_infers_its_qubit_count():
    assert DensityMatrix(np.eye(8) / 8).num_qubits == 3
    with pytest.raises(ValueError, match="not a 4-dim operator"):
        DensityMatrix(np.eye(3) / 3)


def test_density_matrix_immutable():
    rho = DensityMatrix.from_state_vector([1, 0])
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


# ---------------------------------------------------------------------------
# The contracted Pauli spectrum against the explicit 4^N matrix stack.


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_contracted_spectrum_matches_matrix_stack(num_qubits, pure, seed):
    rng = np.random.default_rng(seed)
    rho = random_pure(rng, num_qubits) if pure else random_mixed(rng, num_qubits)
    t = pauli_expectations(rho)
    reference = np.einsum("pij,ji->p", pauli_matrix_stack(num_qubits), rho.matrix).real
    assert t.dtype == np.float64 and t.shape == (4**num_qubits,)
    assert np.max(np.abs(t - reference)) <= 1e-12
    assert abs((t**2).sum() - rho.dim * purity(rho)) <= 1e-12


def test_contracted_spectrum_lexicographic_order():
    # |0> (x) |+>: only I, Z on qubit 0 and I, X on qubit 1 are nonzero.
    rho = DensityMatrix.from_state_vector([1, 1, 0, 0])
    t = pauli_expectations(rho)
    letters = pauli_labels(2)
    nonzero = {letters[k] for k in np.flatnonzero(np.abs(t) > 1e-12)}
    assert nonzero == {"II", "IX", "ZI", "ZX"}


@pytest.mark.parametrize("k", [2, 4])
def test_apply_to_axis_matches_kronecker_product(k):
    rng = np.random.default_rng(11)
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    t = rng.normal(size=(k, k, k)) + 1j * rng.normal(size=(k, k, k))
    for axis in range(3):
        factors = [np.eye(k)] * 3
        factors[axis] = m
        full = functools.reduce(np.kron, factors)
        out = apply_to_axis(m, t, axis)
        assert out.shape == t.shape
        np.testing.assert_allclose(out.ravel(), full @ t.ravel(), atol=1e-12)
