import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlmagic import (
    EstimateWithError,
    RcmDataset,
    collect_dataset,
    estimate_purity,
    estimate_rdm_purity,
    estimate_sre,
    estimate_stabilizer_purity,
    purity,
    reduced_purity,
    sample_local_cliffords,
    sample_shots,
    single_qubit_clifford_group,
    sre_exact,
    stabilizer_purity_exact,
    synth_calibration_matrix,
)
from nlmagic.magic import m2_from_purities
from nlmagic.noise import clean_probability_vector
from nlmagic.qcore import PAULI_X, PAULI_Y, PAULI_Z
from nlmagic.rcm import (
    _CLIFFORD_Z_IMAGES,
    _born_walsh,
    _walsh_tables,
    collect_rows,
    estimate_rows,
    estimator,
    exhaustive_size,
    purity_statistic,
    signed_bases,
    stabilizer_purity_statistic,
)

from helpers import (
    all_clifford_tuples,
    density_matrix,
    loop_clifford_group,
    marginalize,
    matmul_born_walsh,
    random_depolarized,
    sum_marginalize,
)

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
        c = np.kron(c, group[i])
    return np.einsum("ij,jk,ik->i", c, density_matrix(rho), c.conj()).real


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
            np.testing.assert_array_equal(batched[k], marginalize(p, keep))


@pytest.mark.parametrize("length", [0, 3, 6])
def test_marginalize_infers_qubits_from_a_power_of_two_length(length):
    assert marginalize(np.full((2, 8), 1 / 8), {1}).shape == (2, 2)
    with pytest.raises(ValueError, match=f"outcome vector length {length} is not a power of two"):
        marginalize(np.full(length, 0.25), {0})


@settings(max_examples=100, deadline=None)
@given(probability_rows(), st.data())
def test_marginalize_matches_sum_over_traced_axes(rows, data):
    n = int(np.log2(rows.shape[1]))
    assume(n > 1)
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    traced = n - len(keep)
    batched, reference = marginalize(rows, keep), sum_marginalize(rows, keep, n)
    vector, vector_reference = marginalize(rows[0], keep), sum_marginalize(rows[0], keep, n)
    if traced == 1:
        # One traced qubit is one addition in either form.
        np.testing.assert_array_equal(batched, reference)
        np.testing.assert_array_equal(vector, vector_reference)
    else:
        # Sums of 2^t nonnegative terms in two orders differ by at most
        # (2^t - 1) eps relative.
        rtol = (2**traced - 1) * np.finfo(float).eps
        np.testing.assert_allclose(batched, reference, rtol=rtol, atol=0)
        np.testing.assert_allclose(vector, vector_reference, rtol=rtol, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(2, 30), st.sampled_from([None, 7, 1000]))
def test_reduced_purity_from_walsh_columns_equals_purity_of_marginal(num_qubits, seed, draws, n_shot):
    rng = np.random.default_rng(seed)
    rho = random_depolarized(rng, num_qubits)
    tuples = rng.integers(0, 24, size=(draws, num_qubits))
    ds = collect_dataset(rho, tuples, n_shot=n_shot, seed=seed)
    for size in range(1, num_qubits):
        for keep in map(set, combinations(range(num_qubits), size)):
            samples = purity_statistic(marginalize(ds.prob_vectors, keep))
            reference = EstimateWithError.from_rows(samples[None])[0]
            est = estimate_rdm_purity(ds, keep)
            assert est.n_samples == reference.n_samples
            np.testing.assert_allclose(est.mean, reference.mean, rtol=1e-14, atol=0)
            # Per-draw differences of 1e-14 relative move the spread by at
            # most 1e-14 of the largest statistic.
            assert abs(est.sample_std - reference.sample_std) <= 1e-14 * samples.max()


@pytest.mark.parametrize("keep", [set(), {0, 1, 2}, {3}, {-1}])
def test_reduced_purity_rejects_keep_that_is_no_proper_subset(keep):
    ds = collect_dataset(random_depolarized(np.random.default_rng(1), 3), sample_local_cliffords(3, 10, 1))
    with pytest.raises(ValueError, match="proper subset|out of range"):
        estimate_rdm_purity(ds, keep)


@pytest.mark.parametrize(
    "spec, label, moments",
    [
        ("purity", "purity", ((None, 2),)),
        ("stab_purity", "stab_purity", ((None, 4),)),
        ("sre", "sre", ((None, 4), (None, 2))),
        (("rdm_purity", (2, 0, 2)), "rdm_purity[0,2]", (((0, 2), 2),)),
    ],
    ids=["purity", "stab_purity", "sre", "rdm_purity"],
)
def test_estimator_gives_label_statistics_and_exact_oracle(spec, label, moments):
    rho = random_depolarized(np.random.default_rng(21), 3)
    exact = {
        "purity": purity(rho),
        "stab_purity": stabilizer_purity_exact(rho),
        "sre": sre_exact(rho),
        "rdm_purity[0,2]": reduced_purity(rho, {0, 2}),
    }
    got_label, got_moments, combine, oracle = estimator(spec)
    assert (got_label, got_moments) == (label, moments)
    # The estimate is the one moment itself, or M2 from the X_W and X_P moments.
    west, pest = EstimateWithError(0.2, 0.1, 0.01, 100), EstimateWithError(0.9, 0.3, 0.03, 100)
    if label == "sre":
        assert combine(west, pest, 8).mean == m2_from_purities(0.2, 0.9, 8)
    else:
        assert combine(pest, 8) is pest
    assert oracle(rho) == exact[label]


@pytest.mark.parametrize("spec", ["bogus", ("rdm_purity",), ("bogus", (0,)), ["rdm_purity", (0,)]])
def test_estimator_rejects_unknown_specs(spec):
    message = f"^unknown estimator {re.escape(repr(spec))}$"
    with pytest.raises(ValueError, match=message):
        estimator(spec)
    with pytest.raises(ValueError, match=message):
        estimate_rows(np.full((1, 4, 4), 0.25), ("purity", spec))


@pytest.mark.parametrize(
    "keep, message",
    [
        ((), "keep must be a nonempty proper subset of the qubits"),
        ((0, 1, 2), "keep must be a nonempty proper subset of the qubits"),
        ((3,), r"qubit indices \[3\] out of range for 3 qubits"),
        ((-1, 0), r"qubit indices \[-1, 0\] out of range for 3 qubits"),
    ],
    ids=["empty", "all", "above", "negative"],
)
def test_estimate_rows_rejects_a_bad_keep(keep, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimate_rows(np.full((2, 5, 8), 1 / 8), ("purity", ("rdm_purity", keep)))


@pytest.mark.parametrize("n_shot", [None, 500])
def test_mixed_specs_each_equal_their_spec_estimated_alone(n_shot):
    """Estimators that share moments (sre with purity and stab_purity) or
    differ only in their keep each get, field for field, the estimate of
    their spec alone."""
    rng = np.random.default_rng(31)
    states = [random_depolarized(rng, 3) for _ in range(2)]
    ids = np.stack([sample_local_cliffords(3, 60, seed) for seed in (4, 5)])
    probs = clean_probability_vector(collect_rows(states, ids, None, n_shot, (4, 5)))
    specs = ("purity", "stab_purity", "sre", ("rdm_purity", (0,)), ("rdm_purity", (0, 2)), ("rdm_purity", (1, 2)))
    together = estimate_rows(probs, specs)
    for i, spec in enumerate(specs):
        alone = estimate_rows(probs, (spec,))
        for r in range(len(states)):
            assert together[r][i] == alone[r][0]
    assert len({est.mean for est in together[0]}) == len(specs)


@pytest.mark.parametrize("n_shot", [None, 500])
def test_dataset_estimates_equal_the_reduced_statistic_functions(n_shot):
    rho = random_depolarized(np.random.default_rng(12), 3)
    ds = collect_dataset(rho, sample_local_cliffords(3, 200, 12), n_shot=n_shot, seed=12)
    assert set(vars(ds)) == {"clifford_ids", "prob_vectors"}
    west, pest = estimate_stabilizer_purity(ds), estimate_purity(ds)
    assert west == EstimateWithError.from_rows(stabilizer_purity_statistic(ds.prob_vectors)[None])[0]
    assert pest == EstimateWithError.from_rows(purity_statistic(ds.prob_vectors)[None])[0]
    assert estimate_sre(ds).mean == m2_from_purities(west.mean, pest.mean, 8)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_walsh_tables_are_the_kronecker_build_byte_for_byte(num_qubits):
    h, w = np.ones((1, 1)), np.ones(1)
    for _ in range(num_qubits):
        h, w = np.kron(h, [[1.0, 1.0], [1.0, -1.0]]), np.kron(w, [1.0, 3.0])
    hadamard, weights = _walsh_tables(2**num_qubits)
    assert (hadamard.dtype, weights.dtype) == (h.dtype, w.dtype)
    assert (hadamard.shape, weights.shape) == (h.shape, w.shape)
    assert hadamard.tobytes() == h.tobytes() and weights.tobytes() == w.tobytes()
    assert not hadamard.flags.writeable and not weights.flags.writeable


def test_statistics_reject_non_power_of_two_length():
    with pytest.raises(ValueError, match="power-of-two"):
        purity_statistic(np.full(3, 1 / 3))


# ---------------------------------------------------------------------------
# Exact identities: the exhaustive exact-probability average over the 6^N
# signed Pauli bases equals the 24^N Clifford average and the oracle.


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_exhaustive_average_equals_oracles(num_qubits, seed):
    rho = random_depolarized(np.random.default_rng([seed, num_qubits]), num_qubits)
    ds = collect_dataset(rho, signed_bases(num_qubits))
    assert ds.n_samples == 6**num_qubits
    assert abs(estimate_purity(ds).mean - purity(rho)) <= EXACT_TOL
    assert abs(estimate_stabilizer_purity(ds).mean - stabilizer_purity_exact(rho)) <= EXACT_TOL
    assert abs(estimate_sre(ds).mean - sre_exact(rho)) <= EXACT_TOL
    subsets = [{q} for q in range(num_qubits)] if num_qubits > 1 else []
    for keep in subsets + ([{0, 2}] if num_qubits == 3 else []):
        oracle = reduced_purity(rho, keep)
        assert abs(estimate_rdm_purity(ds, keep).mean - oracle) <= EXACT_TOL


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("readout", [False, True], ids=["exact", "asymmetric-readout"])
def test_signed_bases_average_equals_every_clifford_tuple(num_qubits, readout):
    rho = random_depolarized(np.random.default_rng([7, num_qubits]), num_qubits, 0.96)
    lam = synth_calibration_matrix([(0.02, 0.05)] * num_qubits) if readout else None
    bases = collect_dataset(rho, signed_bases(num_qubits), lam)
    every = collect_dataset(rho, all_clifford_tuples(num_qubits), lam)
    assert (bases.n_samples, every.n_samples) == (6**num_qubits, 24**num_qubits)
    # Every draw's vector repeats one basis vector exactly; only the order
    # of the sums differs.
    pairs = [(estimate_purity, ()), (estimate_stabilizer_purity, ()), (estimate_sre, ())]
    pairs += [(estimate_rdm_purity, ({q},)) for q in range(num_qubits) if num_qubits > 1]
    for estimate, args in pairs:
        np.testing.assert_allclose(estimate(bases, *args).mean, estimate(every, *args).mean, rtol=1e-14, atol=0)
    cov = [
        np.cov(stabilizer_purity_statistic(ds.prob_vectors), purity_statistic(ds.prob_vectors), bias=True)
        for ds in (bases, every)
    ]
    np.testing.assert_allclose(cov[0], cov[1], rtol=1e-12, atol=1e-15)


def test_clifford_z_images_are_the_loop_closure_conjugates():
    images = []
    for c in loop_clifford_group():
        image = c.conj().T @ PAULI_Z @ c
        overlaps = [np.trace(s @ image).real / 2 for s in (PAULI_X, PAULI_Y, PAULI_Z)]
        a = int(np.argmax(np.abs(overlaps)))
        assert abs(abs(overlaps[a]) - 1.0) <= 1e-12
        images.append((a + 1, int(np.sign(overlaps[a]))))
    np.testing.assert_array_equal(_CLIFFORD_Z_IMAGES, images)
    signed, counts = np.unique(_CLIFFORD_Z_IMAGES, axis=0, return_counts=True)
    assert len(signed) == 6 and (counts == 4).all()


def test_signed_bases_take_the_lowest_id_of_each_signed_pauli():
    ids = signed_bases(1)[:, 0]
    assert ids.tolist() == [1, 9, 6, 4, 0, 12]
    assert _CLIFFORD_Z_IMAGES[ids].tolist() == [[1, 1], [1, -1], [2, 1], [2, -1], [3, 1], [3, -1]]
    for i in ids:
        assert not (_CLIFFORD_Z_IMAGES[:i] == _CLIFFORD_Z_IMAGES[i]).all(axis=1).any()
    two = signed_bases(2)
    assert two.shape == (36, 2)
    assert two[:7].tolist() == [[1, 1], [1, 9], [1, 6], [1, 4], [1, 0], [1, 12], [9, 1]]
    assert len(np.unique(_CLIFFORD_Z_IMAGES[signed_bases(3)].reshape(216, -1), axis=0)) == 216


def test_sample_local_cliffords_draws_iid_at_every_count():
    # 576 = 24^2 draws are random like any other count, not an enumeration.
    first, second = sample_local_cliffords(2, 576, 1), sample_local_cliffords(2, 576, 2)
    assert first.shape == second.shape == (576, 2)
    assert not np.array_equal(first, second)
    np.testing.assert_array_equal(first, sample_local_cliffords(2, 576, 1))


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_born_probabilities_match_density_matrix_rule(num_qubits):
    rng = np.random.default_rng(num_qubits)
    rho = random_depolarized(rng, num_qubits)
    tuples = rng.integers(0, 24, size=(60, num_qubits))
    ds = collect_dataset(rho, tuples)
    for ids, p in zip(tuples, ds.prob_vectors):
        np.testing.assert_allclose(p, reference_born(rho, ids), rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_born_walsh_equals_integer_matmul_reference(num_qubits, seed, extra):
    rng = np.random.default_rng(seed)
    rho = random_depolarized(rng, num_qubits)
    # Every one of the 24 ids on each qubit, then random draws.
    every_id = np.stack([rng.permutation(24) for _ in range(num_qubits)], axis=1)
    ids = np.concatenate([every_id, rng.integers(0, 24, size=(extra, num_qubits))])
    np.testing.assert_array_equal(_born_walsh(rho, ids), matmul_born_walsh(rho, ids))


def test_exhaustive_size_is_bounded_at_six_qubits():
    assert [exhaustive_size(n) for n in range(1, 7)] == [6, 36, 216, 1296, 7776, 46656]
    message = r"over 7 qubits needs 6\^7 = 279,936 signed Pauli bases; it is limited to 6 qubits \(46,656 bases\)"
    for call in (exhaustive_size, signed_bases):
        with pytest.raises(ValueError, match=message):
            call(7)


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
    rho = random_depolarized(np.random.default_rng(0), 2)
    ids, _ = _valid_dataset_inputs()
    ids[2, 1] = bad_id
    with pytest.raises(ValueError, match=r"\[0, 24\)"):
        collect_dataset(rho, ids)


def test_collect_rejects_wrong_qubit_count():
    rho = random_depolarized(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="one Clifford id per qubit"):
        collect_dataset(rho, np.zeros((4, 3), dtype=int))


def test_collect_rejects_readout_of_another_register_size():
    rho = random_depolarized(np.random.default_rng(0), 2)
    lam = synth_calibration_matrix([(0.02, 0.04)] * 3)
    with pytest.raises(ValueError, match="readout calibration is 8x8"):
        collect_dataset(rho, sample_local_cliffords(2, 10, 0), lam)


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


@pytest.mark.parametrize("low", [0.25, -5e-13])
def test_dataset_leaves_the_callers_arrays_writeable_and_unchanged(low):
    ids, probs = _valid_dataset_inputs()
    probs[1] = [0.5 - low, 0.25, 0.25, low]
    ids_before, probs_before = ids.copy(), probs.copy()
    ds = RcmDataset(ids, probs)
    assert ids.flags.writeable and probs.flags.writeable
    np.testing.assert_array_equal(ids, ids_before)
    assert probs.tobytes() == probs_before.tobytes()
    assert not ds.clifford_ids.flags.writeable and not ds.prob_vectors.flags.writeable
    assert not np.shares_memory(ds.prob_vectors, probs)


def _clip_sum_divide(p):
    v = np.clip(np.asarray(p, dtype=float), 0.0, None)
    return v / v.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("tiny", [None, -1e-13, -0.0, 0.0])
def test_clean_probability_vector_is_bit_identical_to_clip_sum_divide(tiny):
    rows = np.random.default_rng(8).dirichlet(np.ones(8), size=20)
    if tiny is not None:
        rows[3, 5] += rows[3, 2]
        rows[3, 2] = tiny
        rows[11, 0] += rows[11, 7]
        rows[11, 7] = tiny
    cleaned = clean_probability_vector(rows)
    assert cleaned.tobytes() == _clip_sum_divide(rows).tobytes()
    assert clean_probability_vector(rows[3]).tobytes() == _clip_sum_divide(rows[3]).tobytes()
    assert not np.shares_memory(cleaned, rows)


def test_clean_probability_vector_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        clean_probability_vector([[0.5, 0.5], [np.nan, -0.5]])


def test_clean_rows_match_vectors():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(8), size=6)
    np.testing.assert_array_equal(
        clean_probability_vector(rows), [clean_probability_vector(p) for p in rows]
    )


def _shot_noise(seed, n_shot=1000, readout=None):
    lam = synth_calibration_matrix([(0.02, 0.04), (0.03, 0.06)]) if readout else None
    return {"readout": lam, "n_shot": n_shot, "seed": seed}


def test_shot_frequencies_are_counts_and_normalized():
    rho = random_depolarized(np.random.default_rng(4), 2)
    n_shot = 1000
    ds = collect_dataset(rho, sample_local_cliffords(2, 50, 4), **_shot_noise(4, n_shot, True))
    counts = ds.prob_vectors * n_shot
    np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    np.testing.assert_allclose(ds.prob_vectors.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("readout", [False, True])
def test_same_seed_same_dataset(readout):
    rho = random_depolarized(np.random.default_rng(5), 2)
    tuples = sample_local_cliffords(2, 40, 5)
    first = collect_dataset(rho, tuples, **_shot_noise(9, readout=readout))
    again = collect_dataset(rho, tuples, **_shot_noise(9, readout=readout))
    other = collect_dataset(rho, tuples, **_shot_noise(10, readout=readout))
    np.testing.assert_array_equal(first.prob_vectors, again.prob_vectors)
    assert not np.array_equal(first.prob_vectors, other.prob_vectors)


def test_shot_stream_is_spawn_key_one_of_the_seed():
    rho = random_depolarized(np.random.default_rng(6), 2)
    tuples = sample_local_cliffords(2, 30, 6)
    exact = collect_dataset(rho, tuples).prob_vectors
    sampled = collect_dataset(rho, tuples, **_shot_noise(6, 500)).prob_vectors
    expected = sample_shots(exact, 500, np.random.SeedSequence(6, spawn_key=(1,)))
    np.testing.assert_array_equal(sampled, clean_probability_vector(expected))


def test_readout_is_calibration_product():
    rho = random_depolarized(np.random.default_rng(7), 2)
    tuples = sample_local_cliffords(2, 30, 7)
    lam = synth_calibration_matrix([(0.1, 0.2), (0.05, 0.15)], correlation=0.02)
    exact = collect_dataset(rho, tuples).prob_vectors
    noisy = collect_dataset(rho, tuples, lam).prob_vectors
    for p, p_noisy in zip(exact, noisy):
        np.testing.assert_allclose(p_noisy, lam.matrix @ p, rtol=0, atol=1e-15)


def test_sample_shots_single_vector_stream():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    expected = np.random.default_rng(np.random.SeedSequence(11)).multinomial(300, p) / 300.0
    np.testing.assert_array_equal(sample_shots(p, 300, 11), expected)
    rows = sample_shots(np.tile(p, (5, 1)), 300, 11)
    assert rows.shape == (5, 4)
    np.testing.assert_array_equal(rows[0], expected)
