import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlmagic import (
    NoiseConfig,
    RcmDataset,
    collect_dataset,
    estimate_purity,
    estimate_rdm_purity,
    estimate_sre,
    estimate_stabilizer_purity,
    marginalize,
    partial_trace,
    purity,
    sample_local_cliffords,
    sample_shots,
    single_qubit_clifford_group,
    sre_exact,
    stabilizer_purity_exact,
    synth_calibration_matrix,
    tensor,
)
from nlmagic.noise import clean_probability_vector
from nlmagic.rcm import purity_statistic, stabilizer_purity_statistic

from helpers import random_mixed

EXACT_TOL = 1e-12
# Batched and per-vector statistics run the same arithmetic through
# different BLAS kernels, so they may differ by a few units in the last place.
BATCH_RTOL = 64 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Reference implementation: the per-draw density-matrix Born rule and the
# XOR-autocorrelation form of the statistics.


def reference_born(rho, ids):
    group = single_qubit_clifford_group()
    c = np.array([[1.0 + 0j]])
    for i in ids:
        c = tensor(c, group[i].matrix)
    return np.einsum("ij,jk,ik->i", c, rho.matrix, c.conj()).real


def reference_statistics(p):
    """(X_P, X_W) with explicit (-2)^-Hamming weights over XOR tables."""
    d = p.size
    u = np.arange(d)
    xor = u[:, None] ^ u[None, :]
    weights = np.array([(-2.0) ** -bin(x).count("1") for x in range(d)])
    g = (p[xor] * p[None, :]).sum(axis=1)
    return d * (weights * g).sum(), g @ weights[xor] @ g


@st.composite
def probability_rows(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(2, 5))
    raw = draw(arrays(np.float64, (rows, 2**n), elements=st.floats(0.0, 1.0)))
    raw[:, 0] += 1e-3  # every row has a positive sum
    return raw / raw.sum(axis=1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(probability_rows())
def test_walsh_statistics_match_xor_form(rows):
    batched_p = purity_statistic(rows)
    batched_w = stabilizer_purity_statistic(rows)
    assert batched_p.shape == batched_w.shape == (rows.shape[0],)
    for k, p in enumerate(rows):
        ref_p, ref_w = reference_statistics(p)
        x_p, x_w = purity_statistic(p), stabilizer_purity_statistic(p)
        assert isinstance(x_p, float) and isinstance(x_w, float)
        assert abs(x_p - ref_p) <= EXACT_TOL
        assert abs(x_w - ref_w) <= EXACT_TOL
        np.testing.assert_allclose(batched_p[k], x_p, rtol=BATCH_RTOL, atol=0)
        np.testing.assert_allclose(batched_w[k], x_w, rtol=BATCH_RTOL, atol=0)


@settings(max_examples=50, deadline=None)
@given(probability_rows())
def test_marginalize_rows_match_vectors(rows):
    n = int(np.log2(rows.shape[1]))
    assume(n > 1)
    for keep in ({0}, {n - 1}, set(range(1, n))):
        batched = marginalize(rows, keep)
        for k, p in enumerate(rows):
            np.testing.assert_array_equal(batched[k], marginalize(p, keep, n))


def test_statistics_reject_non_power_of_two_length():
    with pytest.raises(ValueError, match="power-of-two"):
        purity_statistic(np.full(3, 1 / 3))


# ---------------------------------------------------------------------------
# Exact identities: the exhaustive 24^N exact-probability average equals
# the oracle.


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_average_equals_oracles(num_qubits, seed):
    rho = random_mixed(np.random.default_rng([seed, num_qubits]), num_qubits)
    tuples = sample_local_cliffords(num_qubits, 24**num_qubits, 0)
    ds = collect_dataset(rho, tuples, NoiseConfig())
    assert ds.n_samples == 24**num_qubits
    assert abs(estimate_purity(ds).mean - purity(rho)) <= EXACT_TOL
    assert abs(estimate_stabilizer_purity(ds).mean - stabilizer_purity_exact(rho)) <= EXACT_TOL
    assert abs(estimate_sre(ds).mean - sre_exact(rho)) <= EXACT_TOL
    subsets = [{q} for q in range(num_qubits)] if num_qubits > 1 else []
    for keep in subsets + ([{0, 2}] if num_qubits == 3 else []):
        oracle = purity(partial_trace(rho, keep))
        assert abs(estimate_rdm_purity(ds, keep).mean - oracle) <= EXACT_TOL


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_born_probabilities_match_density_matrix_rule(num_qubits):
    rng = np.random.default_rng(num_qubits)
    rho = random_mixed(rng, num_qubits)
    tuples = rng.integers(0, 24, size=(60, num_qubits))
    ds = collect_dataset(rho, tuples, NoiseConfig())
    for ids, p in zip(tuples, ds.prob_vectors):
        np.testing.assert_allclose(p, reference_born(rho, ids), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Measurement-stage contract


def _valid_dataset_inputs(num_qubits=2, rows=3):
    ids = np.zeros((rows, num_qubits), dtype=int)
    probs = np.full((rows, 2**num_qubits), 1.0 / 2**num_qubits)
    return ids, probs


@pytest.mark.parametrize("bad_id", [-1, 24])
def test_dataset_rejects_ids_outside_group(bad_id):
    ids, probs = _valid_dataset_inputs()
    ids[1, 0] = bad_id
    with pytest.raises(ValueError, match=r"\[0, 24\)"):
        RcmDataset(ids, probs)


@pytest.mark.parametrize("bad_id", [-1, 24])
def test_collect_rejects_ids_outside_group(bad_id):
    rho = random_mixed(np.random.default_rng(0), 2)
    ids, _ = _valid_dataset_inputs()
    ids[2, 1] = bad_id
    with pytest.raises(ValueError, match=r"\[0, 24\)"):
        collect_dataset(rho, ids, NoiseConfig())


def test_collect_rejects_wrong_qubit_count():
    rho = random_mixed(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="one Clifford id per qubit"):
        collect_dataset(rho, np.zeros((4, 3), dtype=int), NoiseConfig())


def test_dataset_rejects_negative_entries_beyond_tolerance():
    ids, probs = _valid_dataset_inputs()
    probs[2] = [0.5 + 2e-12, 0.25, 0.25, -2e-12]
    with pytest.raises(ValueError, match="below"):
        RcmDataset(ids, probs)
    probs[2] = [0.5 + 5e-13, 0.25, 0.25, -5e-13]
    assert RcmDataset(ids, probs).prob_vectors[2, 3] == 0.0


def test_dataset_rejects_rows_off_unit_sum():
    ids, probs = _valid_dataset_inputs()
    probs[1, 0] += 2e-9
    with pytest.raises(ValueError, match="sum to"):
        RcmDataset(ids, probs)
    probs[1, 0] -= 1.5e-9
    ds = RcmDataset(ids, probs)
    np.testing.assert_allclose(ds.prob_vectors.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_clean_rows_match_vectors():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(8), size=6)
    np.testing.assert_array_equal(
        clean_probability_vector(rows), [clean_probability_vector(p) for p in rows]
    )


def _shot_noise(seed, n_shot=1000, readout=None):
    lam = synth_calibration_matrix([(0.02, 0.04), (0.03, 0.06)]) if readout else None
    return NoiseConfig(readout_lambda=lam, n_shot=n_shot, seed=seed)


def test_shot_frequencies_are_counts_and_normalized():
    rho = random_mixed(np.random.default_rng(4), 2)
    n_shot = 1000
    ds = collect_dataset(rho, sample_local_cliffords(2, 50, 4), _shot_noise(4, n_shot, True))
    counts = ds.prob_vectors * n_shot
    np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    np.testing.assert_allclose(ds.prob_vectors.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("readout", [False, True])
def test_same_seed_same_dataset(readout):
    rho = random_mixed(np.random.default_rng(5), 2)
    tuples = sample_local_cliffords(2, 40, 5)
    first = collect_dataset(rho, tuples, _shot_noise(9, readout=readout))
    again = collect_dataset(rho, tuples, _shot_noise(9, readout=readout))
    other = collect_dataset(rho, tuples, _shot_noise(10, readout=readout))
    np.testing.assert_array_equal(first.prob_vectors, again.prob_vectors)
    assert not np.array_equal(first.prob_vectors, other.prob_vectors)


def test_shot_stream_is_spawn_key_one_of_the_seed():
    rho = random_mixed(np.random.default_rng(6), 2)
    tuples = sample_local_cliffords(2, 30, 6)
    exact = collect_dataset(rho, tuples, NoiseConfig()).prob_vectors
    sampled = collect_dataset(rho, tuples, _shot_noise(6, 500)).prob_vectors
    expected = sample_shots(exact, 500, np.random.SeedSequence(6, spawn_key=(1,)))
    np.testing.assert_array_equal(sampled, clean_probability_vector(expected))


def test_readout_is_calibration_product():
    rho = random_mixed(np.random.default_rng(7), 2)
    tuples = sample_local_cliffords(2, 30, 7)
    lam = synth_calibration_matrix([(0.1, 0.2), (0.05, 0.15)], correlation=0.02)
    exact = collect_dataset(rho, tuples, NoiseConfig()).prob_vectors
    noisy = collect_dataset(rho, tuples, NoiseConfig(readout_lambda=lam)).prob_vectors
    for p, p_noisy in zip(exact, noisy):
        np.testing.assert_allclose(p_noisy, lam.matrix @ p, rtol=0, atol=1e-15)


def test_sample_shots_single_vector_stream():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    expected = np.random.default_rng(np.random.SeedSequence(11)).multinomial(300, p) / 300.0
    np.testing.assert_array_equal(sample_shots(p, 300, 11), expected)
    rows = sample_shots(np.tile(p, (5, 1)), 300, 11)
    assert rows.shape == (5, 4)
    np.testing.assert_array_equal(rows[0], expected)
