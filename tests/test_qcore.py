import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import DepolarizedState, purity, reduced_purity
from nlmagic.qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, apply_to_axis, pauli_matrix_stack

from helpers import (
    density_matrix,
    expectations_from_matrix,
    partial_trace,
    random_depolarized,
    random_pure,
    stack_spectrum,
)


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


def pure_matrix(vec):
    v = np.asarray(vec, dtype=complex)
    return density_matrix(DepolarizedState(v / np.linalg.norm(v)))


def test_partial_trace_product_state():
    reduced = partial_trace(pure_matrix([1, 0, 0, 0]), {0})
    assert np.allclose(reduced, [[1, 0], [0, 0]], atol=1e-12)


def test_partial_trace_bell():
    reduced = partial_trace(pure_matrix([1, 0, 0, 1]), {0})
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_schmidt_weights():
    lam = np.cos(np.pi / 8) ** 2
    reduced = partial_trace(pure_matrix([np.sqrt(lam), 0, 0, np.sqrt(1 - lam)]), {0})
    assert np.allclose(np.diag(reduced).real, [0.85355339, 0.14644661], atol=1e-8)


@pytest.mark.parametrize("keep", [set(), {0, 1}])
def test_partial_trace_invalid_subset(keep):
    state = DepolarizedState([1, 0, 0, 0])
    with pytest.raises(ValueError, match="proper subset"):
        partial_trace(density_matrix(state), keep)
    with pytest.raises(ValueError, match="proper subset"):
        reduced_purity(state, keep)


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = density_matrix(random_pure(rng, 1))
        b = density_matrix(random_depolarized(rng, 1))
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, {0}), a, atol=1e-12)
        assert np.allclose(partial_trace(joint, {1}), b, atol=1e-12)


def test_purity_pure_and_mixed():
    assert purity(DepolarizedState([1, 0])) == 1.0
    assert purity(DepolarizedState([1, 0], 0.0)) == 0.5


def test_purity_depolarized_two_qubit():
    # Tr((p rho + (1-p) I/4)^2) = 0.75 p^2 + 0.25 for pure rho
    bell = DepolarizedState(np.array([1, 0, 0, 1]) / np.sqrt(2), 0.96)
    assert purity(bell) == pytest.approx(0.9412, abs=1e-12)


def test_pauli_expectations_zero_state():
    t = DepolarizedState([1, 0]).pauli_spectrum
    assert np.allclose(t, [1, 0, 0, 1], atol=1e-12)


def test_pauli_expectations_t_plus():
    vec = [1 / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)]
    t = DepolarizedState(vec).pauli_spectrum
    s = 1 / np.sqrt(2)
    assert np.allclose(t, [1, s, s, 0], atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_pauli_completeness(num_qubits):
    rng = np.random.default_rng(5)
    for k in range(100):
        state = random_pure(rng, num_qubits) if k % 2 else random_depolarized(rng, num_qubits)
        t = state.pauli_spectrum
        assert abs((t**2).sum() - state.dim * purity(state)) < 1e-10


def test_pauli_string_count():
    assert pauli_matrix_stack(2).shape == (16, 4, 4)
    assert np.array_equal(pauli_matrix_stack(1), [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def test_density_matrix_rejects_bad_trace():
    # Tr(rho) = |psi|^2, so the trace check is the norm check.
    with pytest.raises(ValueError, match="norm"):
        DepolarizedState([1, 1])


def test_density_matrix_infers_its_qubit_count():
    assert DepolarizedState(np.eye(8)[0], 0.5).num_qubits == 3
    with pytest.raises(ValueError, match="length 3 is not a power of two"):
        DepolarizedState(np.eye(3)[0])


def test_density_matrix_immutable():
    vec = np.array([1, 0], dtype=complex)
    state = DepolarizedState(vec)
    vec[:] = [0, 1]
    assert np.array_equal(state.psi, [1, 0])
    with pytest.raises(ValueError):
        state.psi[0] = 0.0
    with pytest.raises(ValueError):
        state.pauli_spectrum[0] = 0.0
    with pytest.raises(AttributeError):
        state.survival = 0.5


@pytest.mark.parametrize(
    "psi, survival, message",
    [
        ([1.0], 1.0, "length 1 is not a power of two >= 2"),
        ([], 1.0, "length 0 is not a power of two"),
        ([1.0, 0.0, 0.0], 1.0, "length 3 is not a power of two"),
        ([np.nan, 0.0], 1.0, "must be finite"),
        ([np.inf, 0.0], 1.0, "must be finite"),
        ([1.0 + 2e-12, 0.0], 1.0, "norm"),
        ([0.0, 0.0], 1.0, "norm"),
        ([1.0, 0.0], -1e-9, r"survival -1e-09 must be a finite number in \[0, 1\]"),
        ([1.0, 0.0], 1.0 + 1e-9, "survival"),
        ([1.0, 0.0], np.nan, "survival nan"),
        ([1.0, 0.0], np.inf, "survival inf"),
    ],
    ids=["one", "empty", "three", "nan", "inf", "norm-high", "zero", "s-negative", "s-above-one", "s-nan", "s-inf"],
)
def test_depolarized_state_rejects_bad_input(psi, survival, message):
    with pytest.raises(ValueError, match=message):
        DepolarizedState(psi, survival)


def test_depolarized_state_accepts_norm_within_1e12():
    assert DepolarizedState([1.0 + 5e-13, 0.0]).psi[0] == 1.0 + 5e-13


def test_pauli_spectrum_is_computed_once_per_state(monkeypatch):
    from nlmagic import qcore

    calls = []
    real = qcore.pure_pauli_spectrum
    monkeypatch.setattr(qcore, "pure_pauli_spectrum", lambda *a: calls.append(a) or real(*a))
    state = random_depolarized(np.random.default_rng(2), 3)
    assert "pauli_spectrum" not in vars(state)
    assert state.pauli_spectrum is state.pauli_spectrum
    reduced_purity(state, {0, 2})
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The closed forms of (psi, s) against the explicit d x d matrix. Each bound
# is a stated multiple of eps; the measured worst case over 3,000 random
# states (N = 1-6) is given next to it.

EPS = np.finfo(float).eps

survivals = st.floats(0.0, 1.0) | st.just(0.0) | st.just(1.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), survivals, st.integers(0, 2**32 - 1))
def test_closed_forms_match_the_explicit_matrix(num_qubits, survival, seed):
    state = random_depolarized(np.random.default_rng(seed), num_qubits, survival)
    rho = density_matrix(state)
    # purity: measured 4.5 eps.
    assert abs(purity(state) - np.trace(rho @ rho).real) <= 16 * EPS
    # Pauli spectrum, against the contraction of the explicit matrix:
    # measured 1 eps.
    assert np.max(np.abs(state.pauli_spectrum - expectations_from_matrix(rho, num_qubits))) <= 4 * EPS
    # Reduced purity for every proper subset: measured 2 eps.
    for size in range(1, num_qubits):
        for keep in map(set, itertools.combinations(range(num_qubits), size)):
            reduced = partial_trace(rho, keep)
            assert abs(reduced_purity(state, keep) - np.trace(reduced @ reduced).real) <= 8 * EPS, keep


# ---------------------------------------------------------------------------
# The contracted Pauli spectrum against the explicit 4^N matrix stack.


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_contracted_spectrum_matches_matrix_stack(num_qubits, pure, seed):
    rng = np.random.default_rng(seed)
    state = random_pure(rng, num_qubits) if pure else random_depolarized(rng, num_qubits)
    rho = density_matrix(state)
    t = state.pauli_spectrum
    assert t.dtype == np.float64 and t.shape == (4**num_qubits,)
    assert np.max(np.abs(expectations_from_matrix(rho, num_qubits) - stack_spectrum(rho))) <= 1e-12
    assert np.max(np.abs(t - stack_spectrum(rho))) <= 1e-12
    assert abs((t**2).sum() - state.dim * purity(state)) <= 1e-12


def test_contracted_spectrum_lexicographic_order():
    # |0> (x) |+>: only I, Z on qubit 0 and I, X on qubit 1 are nonzero.
    t = DepolarizedState(np.array([1, 1, 0, 0]) / np.sqrt(2)).pauli_spectrum
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
