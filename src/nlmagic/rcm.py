"""Randomized Clifford measurements for purity and stabilizer purity.

The protocol applies random tensor products of single-qubit Cliffords and
records the computational-basis outcome distribution p of each draw. All
of it goes through the Walsh transform of p,

    q(k) = sum_s (-1)^(k.s) p(s) = Tr(C^dag Z^k C rho),

with Z^k the Z string on the qubits set in k. For each of the 24 Cliffords
C^dag Z C is a signed Pauli, so q of a draw is a signed gather from the 4^N
Pauli expectations of rho, and p = WHT(q) / d.

Pairs and quadruples of outcome strings are weighted by (-2)^-|XOR|, the
tensor power of W = [[1, -1/2], [-1/2, 1]]. With h = [[1, 1], [1, -1]],
h W h = diag(1, 3), and the XOR autocorrelation g(u) = sum_s p(s) p(s XOR u)
has transform q^2, so the two per-draw statistics are

    X_P = d sum_{s,s'} (-2)^-|s XOR s'| p(s) p(s') = d^-1 sum_k 3^|k| q(k)^2
    X_W = sum_{u,v} (-2)^-|u XOR v| g(u) g(v)       = d^-2 sum_k 3^|k| q(k)^4

whose averages over the Clifford ensemble equal Tr(rho^2) and
d^-2 sum_P Tr(P rho)^4. The reduced purity on qubits A is X_P of the
marginal, whose transform is q on the k supported on A. Statistics take one
outcome vector or an array with one row per draw. Means, sample standard
deviations (the N-1 form) and sampling errors s/sqrt(N) are reported for
every estimator. The same shot data serves both statistics; the
O(1/N_shot) plug-in bias is accepted and quantified in tests rather than
corrected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .circuits import single_qubit_clifford_group
from .noise import NoiseConfig, clean_probability_vector, sample_shots
from .qcore import PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, pauli_expectations

_LN2 = float(np.log(2.0))


class UndersampledDataError(ValueError):
    """Estimator means are incompatible with taking logarithms."""


@dataclass(frozen=True)
class EstimateWithError:
    """Mean, spread and finite-sampling error of a per-draw statistic."""

    mean: float
    sample_std: float
    sampling_error: float
    n_samples: int

    def __post_init__(self):
        if self.sample_std < 0:
            raise ValueError("sample_std must be nonnegative")
        if abs(self.sampling_error - self.sample_std / np.sqrt(self.n_samples)) > 1e-12:
            raise ValueError("sampling_error must equal sample_std / sqrt(n)")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "EstimateWithError":
        v = np.asarray(values, dtype=float)
        if v.size < 2:
            raise ValueError("need at least two samples")
        std = float(v.std(ddof=1))
        return cls(float(v.mean()), std, float(std / np.sqrt(v.size)), int(v.size))


def _check_ids(ids: np.ndarray) -> None:
    if (ids < 0).any() or (ids >= 24).any():
        raise ValueError("Clifford ids must lie in [0, 24)")


@dataclass(frozen=True)
class RcmDataset:
    """Outcome probability vectors for a sequence of Clifford draws."""

    clifford_ids: np.ndarray
    prob_vectors: np.ndarray
    n_shot: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        ids = np.array(self.clifford_ids, dtype=int)
        probs = np.array(self.prob_vectors, dtype=float)
        if ids.ndim != 2 or probs.ndim != 2 or ids.shape[0] != probs.shape[0]:
            raise ValueError("ids and probability vectors must align per sample")
        if ids.shape[0] < 2:
            raise ValueError("variance estimation needs at least two samples")
        if probs.shape[1] != 2 ** ids.shape[1]:
            raise ValueError("probability vectors do not match the qubit count")
        _check_ids(ids)
        probs = clean_probability_vector(probs)
        ids.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "clifford_ids", ids)
        object.__setattr__(self, "prob_vectors", probs)

    @property
    def n_samples(self) -> int:
        return self.clifford_ids.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.clifford_ids.shape[1]

    def with_vectors(self, prob_vectors: np.ndarray) -> "RcmDataset":
        return RcmDataset(self.clifford_ids, prob_vectors, self.n_shot, self.seed)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "num_qubits": self.num_qubits,
            "clifford_ids": self.clifford_ids.tolist(),
            "prob_vectors": self.prob_vectors.tolist(),
            "n_shot": self.n_shot,
            "seed": self.seed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RcmDataset":
        payload = json.loads(text)
        return cls(
            np.array(payload["clifford_ids"], dtype=int),
            np.array(payload["prob_vectors"], dtype=float),
            payload.get("n_shot"),
            payload.get("seed", 0),
        )


def sample_local_cliffords(n_qubits: int, n_rand: int, seed: int) -> np.ndarray:
    """Uniform i.i.d. id tuples over {0..23}^N, shape (n_rand, n_qubits).

    When ``n_rand`` equals 24^N every tuple is returned exactly once, in
    lexicographic order, turning the sample mean into an exact group average.
    """
    if n_rand < 2:
        raise ValueError("n_rand must be >= 2")
    if n_rand == 24**n_qubits:
        grids = np.meshgrid(*([np.arange(24)] * n_qubits), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.integers(0, 24, size=(n_rand, n_qubits))


def exhaustive_size(n_qubits: int) -> int:
    return 24**n_qubits


@lru_cache(maxsize=1)
def _clifford_z_images() -> tuple[np.ndarray, np.ndarray]:
    """Per Clifford id, the Pauli (1, 2, 3 for X, Y, Z) and sign of C^dag Z C."""
    paulis, signs = [], []
    for c in single_qubit_clifford_group():
        image = c.matrix.conj().T @ PAULI_Z @ c.matrix
        overlaps = [np.trace(s @ image).real / 2 for s in (PAULI_X, PAULI_Y, PAULI_Z)]
        a = int(np.argmax(np.abs(overlaps)))
        paulis.append(a + 1)
        signs.append(np.sign(overlaps[a]))
    return np.array(paulis), np.array(signs)


@lru_cache(maxsize=8)
def _walsh_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Hadamard matrix H[k, s] = (-1)^(k.s) and the weights 3^|k| at dimension d."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"outcome vectors must have a power-of-two length, not {d}")
    h, w = np.ones((1, 1)), np.ones(1)
    for _ in range(d.bit_length() - 1):
        h, w = np.kron(h, [[1.0, 1.0], [1.0, -1.0]]), np.kron(w, [1.0, 3.0])
    h.flags.writeable = False
    w.flags.writeable = False
    return h, w


def _born_walsh(rho: DensityMatrix, ids: np.ndarray) -> np.ndarray:
    """q(k) = Tr(C^dag Z^k C rho) of every draw, shape (n_draws, d).

    Qubit j of Walsh index k carries C_j^dag Z C_j = sign * Pauli when its
    bit is set and I otherwise, so q(k) is the signed Pauli expectation at
    the lexicographic index sum_j Pauli_j 4^(N-1-j) over the set bits.
    """
    n = rho.num_qubits
    if ids.ndim != 2 or ids.shape[1] != n:
        raise ValueError(f"every draw needs one Clifford id per qubit ({n})")
    _check_ids(ids)
    paulis, signs = _clifford_z_images()
    place = np.arange(n - 1, -1, -1)
    bits = (np.arange(2**n)[:, None] >> place) & 1
    index = (paulis[ids] * 4**place) @ bits.T
    flips = (signs[ids] < 0).astype(int) @ bits.T
    return np.where(flips % 2, -1.0, 1.0) * pauli_expectations(rho)[index]


def collect_dataset(rho: DensityMatrix, tuples: np.ndarray, noise: NoiseConfig) -> RcmDataset:
    """Simulate the measurement stage for all Clifford draws at once.

    ``tuples`` holds one row of Clifford ids per draw. Born probabilities
    come from one Pauli gather and one Walsh transform, readout (if set) is
    one product with the calibration matrix, and shots (if set) are one
    multinomial call seeded from ``SeedSequence(noise.seed, spawn_key=(1,))``,
    a stream apart from the Clifford draws. Rounding negatives are clipped
    by ``sample_shots`` and by the dataset, not before readout.
    """
    ids = np.array(tuples, dtype=int)
    hadamard, _ = _walsh_tables(rho.dim)
    probs = _born_walsh(rho, ids) @ hadamard / rho.dim
    if noise.readout_lambda is not None:
        probs = probs @ noise.readout_lambda.matrix.T
    if noise.n_shot is not None:
        seed = np.random.SeedSequence(noise.seed, spawn_key=(1,))
        probs = sample_shots(probs, noise.n_shot, seed)
    return RcmDataset(ids, probs, noise.n_shot, noise.seed)


def _walsh_moment(p, power: int):
    """d^(-power/2) sum_k 3^|k| q(k)^power, power 2 or 4, of one outcome
    vector (a float) or of each row of an array of them."""
    v = np.asarray(p, dtype=float)
    hadamard, weights = _walsh_tables(v.shape[-1])
    q2 = np.square(v @ hadamard)
    # q ** 4 would call pow() per entry; squaring twice is far cheaper.
    x = (q2 if power == 2 else np.square(q2)) @ weights / v.shape[-1] ** (power // 2)
    return x if x.ndim else float(x)


def purity_statistic(p):
    """Pair statistic d * sum (-2)^-|s1 XOR s2| P(s1) P(s2) = d^-1 sum_k 3^|k| q(k)^2."""
    return _walsh_moment(p, 2)


def stabilizer_purity_statistic(p):
    """Quadruple statistic with (-2)^-|s1 XOR s2 XOR s3 XOR s4| weights,
    d^-2 sum_k 3^|k| q(k)^4.

    The sign and normalization are fixed so that the exhaustive
    exact-probability average reproduces d^-2 sum_P Tr(P rho)^4.
    """
    return _walsh_moment(p, 4)


def estimate_purity(ds: RcmDataset) -> EstimateWithError:
    return EstimateWithError.from_samples(purity_statistic(ds.prob_vectors))


def estimate_stabilizer_purity(ds: RcmDataset) -> EstimateWithError:
    return EstimateWithError.from_samples(stabilizer_purity_statistic(ds.prob_vectors))


def estimate_sre(ds: RcmDataset) -> EstimateWithError:
    """M2 estimate with first-order propagated sampling error.

    The purity and stabilizer-purity statistics are uncorrelated over the
    Clifford ensemble, so the M2 variance is the sum of the two relative
    variances scaled by 1/ln(2)^2.
    """
    west = estimate_stabilizer_purity(ds)
    pest = estimate_purity(ds)
    if west.mean <= 0.0 or pest.mean <= 0.0:
        raise UndersampledDataError(
            "nonpositive purity or stabilizer purity mean; collect more data"
        )
    d = 2**ds.num_qubits
    m2 = -np.log2(west.mean) + np.log2(pest.mean) - np.log2(d)
    n = ds.n_samples
    err = (
        np.sqrt(
            west.sample_std**2 / (n * west.mean**2)
            + pest.sample_std**2 / (n * pest.mean**2)
        )
        / _LN2
    )
    return EstimateWithError(float(m2), float(err * np.sqrt(n)), float(err), n)


def marginalize(p: np.ndarray, keep: set[int], num_qubits: Optional[int] = None) -> np.ndarray:
    """Marginal outcome distribution on the kept qubits, of a vector or of each row.

    P(s_A) = sum_{s_B} P(s_A, s_B), with kept qubits keeping their order.
    """
    v = np.asarray(p, dtype=float)
    rows = v.shape[:1] if v.ndim == 2 else ()
    n = num_qubits or int(round(np.log2(v.shape[-1] if rows else v.size)))
    keep_sorted = sorted(keep)
    if not keep_sorted or len(keep_sorted) >= n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"qubit indices {keep_sorted} out of range")
    t = v.reshape(rows + (2,) * n)
    axes = tuple(len(rows) + q for q in range(n) if q not in keep_sorted)
    return t.sum(axis=axes).reshape(rows + (-1,))


def estimate_rdm_purity(ds: RcmDataset, keep: set[int]) -> EstimateWithError:
    """Purity of the reduced state from marginals of the same outcome data."""
    marginals = marginalize(ds.prob_vectors, keep, ds.num_qubits)
    return EstimateWithError.from_samples(purity_statistic(marginals))
