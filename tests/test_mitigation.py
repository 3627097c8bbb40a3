import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import (
    CalibrationMatrix,
    calibration_from_counts,
    mitigate_least_squares,
    readout_fidelity,
    synth_calibration_matrix,
)

from helpers import full_kkt_mitigate, kron_calibration

HARSH_EPS = [[0.2, 0.3], [0.25, 0.35]]
ILL_EPS = [[0.43, 0.46], [0.44, 0.45]]
HARSH = synth_calibration_matrix(HARSH_EPS, 0.05)
# Condition number 17.8; the projected-gradient solver this replaced stopped
# 1.9e-3 away from the optimum here.
ILL = synth_calibration_matrix(ILL_EPS, 0.05)


def face_enumeration(b, m):
    """Reference minimizer: solve the equality-constrained problem on every
    face of the simplex and keep the best feasible face optimum."""
    d = m.shape[0]
    gram, c = m.T @ m, m.T @ b
    best, best_p = np.inf, None
    for size in range(1, d + 1):
        for face in itertools.combinations(range(d), size):
            f = list(face)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = gram[np.ix_(f, f)]
            kkt[:size, size] = kkt[size, :size] = 1.0
            sol = np.linalg.solve(kkt, np.append(c[f], 1.0))
            if (sol[:size] >= 0.0).all():
                p = np.zeros(d)
                p[f] = sol[:size]
                obj = float(np.sum((m @ p - b) ** 2))
                if obj < best:
                    best, best_p = obj, p
    return best_p


def assert_kkt(p, b, m, atol=1e-12):
    """p >= 0, sum p = 1, equal gradients on the support and no smaller
    gradient off it."""
    g = (p @ m.T - b) @ m
    assert (p >= 0.0).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=atol)
    support = p > 0.0
    mu = -np.where(support, g, 0.0).sum(axis=1) / support.sum(axis=1)
    nu = g + mu[:, None]
    assert np.abs(nu[support]).max() <= atol
    assert nu[~support].min(initial=0.0) >= -atol


def random_calibration(rng, d):
    s = rng.uniform(0.0, 0.4)
    return CalibrationMatrix((1.0 - s) * np.eye(d) + s * rng.dirichlet(np.ones(d), size=d).T)


def shot_noisy_readout(rng, lam, k, n_shot=2000):
    q = rng.dirichlet(np.full(lam.dim, 0.5), size=k)
    return rng.multinomial(n_shot, q @ lam.matrix.T) / n_shot


@pytest.mark.parametrize("lam", [HARSH, ILL], ids=["harsh", "ill"])
def test_interior_vector_is_recovered_in_one_step(lam):
    rng = np.random.default_rng(0)
    p_true = rng.dirichlet(np.full(4, 5.0), size=50)
    p, info = mitigate_least_squares(p_true @ lam.matrix.T, lam, full_output=True)
    np.testing.assert_allclose(p, p_true, rtol=0, atol=1e-12)
    assert info["iterations"] == 50


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.sampled_from([0.2, 1.0, 5.0]), st.integers(0, 2**32 - 1))
def test_matches_face_enumeration(d, alpha, seed):
    rng = np.random.default_rng(seed)
    lam = random_calibration(rng, d)
    b = rng.dirichlet(np.full(d, alpha), size=6)
    p, info = mitigate_least_squares(b, lam, full_output=True)
    ref = np.array([face_enumeration(v, lam.matrix) for v in b])
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12)
    assert_kkt(p, b, lam.matrix)
    assert info["kkt_residual"] <= 1e-12


def test_ill_conditioned_calibration_reaches_the_optimum():
    rng = np.random.default_rng(1)
    b = shot_noisy_readout(rng, ILL, 200)
    p = mitigate_least_squares(b, ILL)
    ref = np.array([face_enumeration(v, ILL.matrix) for v in b])
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12)
    assert_kkt(p, b, ILL.matrix)


def test_batched_call_equals_per_row_calls():
    rng = np.random.default_rng(2)
    b = shot_noisy_readout(rng, HARSH, 40)
    rows = np.array([mitigate_least_squares(v, HARSH) for v in b])
    np.testing.assert_allclose(mitigate_least_squares(b, HARSH), rows, rtol=0, atol=1e-15)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4], ids=["d2", "d4", "d8", "d16"])
@pytest.mark.parametrize("eps", [HARSH_EPS, ILL_EPS], ids=["harsh", "ill"])
def test_solver_gives_the_bytes_of_the_full_kkt_reference(eps, num_qubits):
    # The flip rates of HARSH or ILL, repeated over the qubits: at d = 4 the
    # matrix is HARSH or ILL itself.
    lam = synth_calibration_matrix((eps * 2)[:num_qubits], 0.05)
    rng = np.random.default_rng(num_qubits)
    # Shot-noisy rows, and rows of sparse states read with few shots, which
    # pin several coordinates one step at a time.
    sparse = rng.dirichlet(np.full(lam.dim, 0.1), size=20)
    b = np.vstack([shot_noisy_readout(rng, lam, 20), rng.multinomial(200, sparse @ lam.matrix.T) / 200])
    p, info = mitigate_least_squares(b, lam, full_output=True)
    ref, ref_info = full_kkt_mitigate(b, lam)
    np.testing.assert_array_equal(p, ref)
    assert info == ref_info
    assert info["iterations"] > len(b)
    for v in b[[0, -1]]:
        p, info = mitigate_least_squares(v, lam, full_output=True)
        ref, ref_info = full_kkt_mitigate(v, lam)
        assert p.shape == (lam.dim,)
        np.testing.assert_array_equal(p, ref)
        assert info == ref_info


@pytest.mark.parametrize("correlation", [0.0, 0.07], ids=["uncorrelated", "correlated"])
@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_calibration_matrix_gives_the_bytes_of_the_kron_chain(num_qubits, correlation):
    eps = np.random.default_rng(num_qubits).uniform(0.0, 0.5, size=(num_qubits, 2)).tolist()
    lam, ref = synth_calibration_matrix(eps, correlation).matrix, kron_calibration(eps, correlation)
    assert lam.shape == ref.shape and lam.tobytes() == ref.tobytes()


def test_one_vector_in_one_vector_out_and_sixteen_outcomes():
    rng = np.random.default_rng(3)
    b = shot_noisy_readout(rng, HARSH, 1)[0]
    assert mitigate_least_squares(b, HARSH).shape == (4,)
    lam = synth_calibration_matrix([[0.05, 0.1], [0.08, 0.12], [0.1, 0.15], [0.12, 0.2]], 0.02)
    b16 = shot_noisy_readout(rng, lam, 200)
    p, info = mitigate_least_squares(b16, lam, full_output=True)
    assert p.shape == (200, 16)
    assert_kkt(p, b16, lam.matrix)
    assert 200 <= info["iterations"] <= 200 * (10 * 16 + 10)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 2, 4), ()])
def test_dimension_mismatch_raises(shape):
    with pytest.raises(ValueError, match="dimensions differ"):
        mitigate_least_squares(np.full(shape, 0.25), HARSH)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_calibration_matrix_rejects_entries_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"calibration entries must be finite and lie in \[0, 1\]"):
        CalibrationMatrix(np.array([[1.0, bad], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "counts, n_shot, message",
    [
        ([[3, 1, 0]], 4, "square"),
        ([[5, -1], [2, 2]], 4, "nonnegative"),
        ([[0, 0], [0, 0]], 0, "positive"),
        ([[3, 1], [2, 1]], 4, "sum to n_shot"),
        ([[90, 10], [4, 10**400]], 100, "^counts must each fit a 64-bit integer$"),
    ],
)
def test_initialization_counts_rejections(counts, n_shot, message):
    with pytest.raises(ValueError, match=message):
        calibration_from_counts(np.array(counts), n_shot)


def test_readout_fidelity_is_the_mean_diagonal():
    assert readout_fidelity(CalibrationMatrix(np.eye(4))) == 1.0
    lam = calibration_from_counts(np.array([[90, 10], [4, 96]]), 100)
    assert readout_fidelity(lam) == pytest.approx(0.93, abs=1e-15)


def test_calibration_column_is_preparation_histogram():
    counts = np.array([[80, 12, 5, 3], [7, 85, 2, 6], [9, 1, 88, 2], [0, 4, 10, 86]])
    lam = calibration_from_counts(counts, 100).matrix
    for j in range(4):
        np.testing.assert_array_equal(lam[:, j], counts[j] / 100)
