"""Randomized Clifford measurements for purity and stabilizer purity.

The protocol applies random tensor products of single-qubit Cliffords and
records the computational-basis outcome distribution p of each draw. All
of it goes through the Walsh transform of p,

    q(k) = sum_s (-1)^(k.s) p(s) = Tr(C^dag Z^k C rho),

with Z^k the Z string on the qubits set in k. For each of the 24 Cliffords
C^dag Z C is a signed Pauli, so q of a draw is a signed gather from the 4^N
Pauli expectations of rho (the state's cached ``pauli_spectrum``), and
p = WHT(q) / d. A cached (24, N) code table turns every draw's Clifford ids
into its gather positions with one float product over the whole (draws x
outcomes) array, and one gather from a table of both signs of every
expectation reads all draws at once.

Pairs and quadruples of outcome strings are weighted by (-2)^-|XOR|, the
tensor power of W = [[1, -1/2], [-1/2, 1]]. With h = [[1, 1], [1, -1]],
h W h = diag(1, 3), and the XOR autocorrelation g(u) = sum_s p(s) p(s XOR u)
has transform q^2, so the two per-draw statistics are

    X_P = d sum_{s,s'} (-2)^-|s XOR s'| p(s) p(s') = d^-1 sum_k 3^|k| q(k)^2
    X_W = sum_{u,v} (-2)^-|u XOR v| g(u) g(v)       = d^-2 sum_k 3^|k| q(k)^4

whose averages over the Clifford ensemble equal Tr(rho^2) and
d^-2 sum_P Tr(P rho)^4. The reduced purity on qubits A is X_P of the
marginal on A, whose transform is q on the k supported on A: it is
d_A^-1 sum_{k inside A} 3^|k| q(k)^2, read from the columns of the same q^2.

Both stages run on a batch of rows, one row per prepared state.
``collect_rows`` gathers each row's Walsh rows from its own state and then
takes the transform back to probabilities and the readout product once
over the stacked (rows, draws, d) array; shots stay per row.
``estimate_rows`` squares the stacked Walsh rows once, computes each
distinct moment its estimators read once for all rows, and reduces the
(moments x rows, draws) array with one mean and one sample standard
deviation (the N-1 form); sampling errors are s/sqrt(N). Every stacked
product runs block by block, so a row's numbers are byte-identical to those
of a batch of one. ``estimator(spec)`` is the one place an estimator spec
("purity", "stab_purity", "sre" or ("rdm_purity", keep)) is matched. Its
entry (label, moments, combine, oracle) gives the label the reports print;
the Walsh moments d_A^(-p/2) sum_{k inside A} 3^|k| q(k)^p it reads, as
(A, p) pairs with A None for the whole register (X_P is (None, 2), X_W
(None, 4), the reduced X_P (A, 2)); the combine that turns them into the
estimate (the moment itself, or ``_sre`` for M2 from X_W and X_P); and the
exact oracle, read from this module's globals when called. The four ``estimate_*``
functions estimate a single-state dataset (``collect_dataset``) as a batch
of one; ``purity_statistic`` and ``stabilizer_purity_statistic`` give X_P
and X_W of one outcome vector or of an array with one row per draw. The
same shot data serves both statistics; their O(1/N_shot) plug-in bias is
accepted and left uncorrected.

Since a draw acts only through the signed Paulis C^dag Z C, and each of
the six is the image of four Cliffords, the exact average over all 24^N
tuples is the uniform average over the 6^N signed Pauli bases of
``signed_bases`` (the random Pauli measurements of Huang, Kueng and
Preskill, Nat. Phys. 2020). For that exhaustive average the mean is exact;
``sample_std`` is the per-draw spread of the Clifford ensemble, and
``sampling_error`` is the standard error that a mean of 6^N i.i.d. draws
would have, not an error of the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .magic import m2_from_purities, sre_exact, stabilizer_purity_exact
from .noise import CalibrationMatrix, clean_probability_vector, sample_shots
from .qcore import DepolarizedState, kept_qubits, purity, reduced_purity

_LN2 = float(np.log(2.0))


class UndersampledDataError(ValueError):
    """Estimator means are incompatible with taking logarithms."""


@dataclass(frozen=True)
class EstimateWithError:
    """Mean, spread and finite-sampling error of a per-draw statistic.

    ``sample_std`` is the spread of the statistic over the draws and
    ``sampling_error`` = sample_std / sqrt(n_samples) the standard error of
    an i.i.d. mean. Over the 6^N signed bases the mean is exact, and the
    two fields describe the Clifford ensemble, not an error of the mean.
    """

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
    def from_rows(cls, samples: np.ndarray) -> list["EstimateWithError"]:
        """One estimate per row of a (rows, draws) array of per-draw
        statistics: one mean and one N-1 standard deviation over the draws
        axis for all rows. Each row's numbers are those of the row alone."""
        n = samples.shape[-1]
        if n < 2:
            raise ValueError("need at least two samples")
        means, stds = samples.mean(axis=-1), samples.std(axis=-1, ddof=1)
        errors = stds / np.sqrt(n)
        return [cls(m, s, e, n) for m, s, e in zip(means.tolist(), stds.tolist(), errors.tolist())]


def _check_ids(ids: np.ndarray) -> None:
    if (ids < 0).any() or (ids >= 24).any():
        raise ValueError("Clifford ids must lie in [0, 24)")


@dataclass(frozen=True, eq=False)
class RcmDataset:
    """Outcome probability vectors for a sequence of Clifford draws.

    Both arrays are stored read-only; the caller's arrays are not touched,
    since ``clean_probability_vector`` returns new vectors.
    """

    clifford_ids: np.ndarray
    prob_vectors: np.ndarray

    def __post_init__(self):
        ids = np.array(self.clifford_ids, dtype=int)
        probs = np.asarray(self.prob_vectors, dtype=float)
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


def sample_local_cliffords(n_qubits: int, n_rand: int, seed: int) -> np.ndarray:
    """Uniform i.i.d. id tuples over {0..23}^N, shape (n_rand, n_qubits)."""
    if n_rand < 2:
        raise ValueError("n_rand must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.integers(0, 24, size=(n_rand, n_qubits))


# Per Clifford id (``circuits.single_qubit_clifford_group`` order), the Pauli
# (1, 2, 3 for X, Y, Z) and the sign of C^dag Z C. Each of the six signed
# Paulis is the image of exactly four ids.
_CLIFFORD_Z_IMAGES = np.array(
    [
        (3, 1), (1, 1), (3, 1), (1, 1), (2, -1), (3, 1), (2, 1), (1, 1),
        (2, -1), (1, -1), (3, 1), (2, 1), (3, -1), (1, 1), (2, -1), (1, -1),
        (2, 1), (3, -1), (3, -1), (2, -1), (1, -1), (1, -1), (2, 1), (3, -1),
    ]
)  # fmt: skip
_CLIFFORD_Z_IMAGES.flags.writeable = False

# The lowest Clifford id whose C^dag Z C is +X, -X, +Y, -Y, +Z, -Z.
_SIGNED_BASIS_IDS = np.array(
    [np.flatnonzero((_CLIFFORD_Z_IMAGES == (a, s)).all(axis=1))[0] for a in (1, 2, 3) for s in (1, -1)]
)

# 6^6 = 46,656 bases make (K, 64) float arrays of 24 MB each; 6^7 would
# make (K, 128) arrays of 287 MB each.
MAX_EXHAUSTIVE_QUBITS = 6


def exhaustive_size(n_qubits: int) -> int:
    """Number of draws, 6^N, of the exhaustive local-Clifford average."""
    if n_qubits > MAX_EXHAUSTIVE_QUBITS:
        raise ValueError(
            f"the exhaustive average over {n_qubits} qubits needs 6^{n_qubits} = "
            f"{6**n_qubits:,} signed Pauli bases; it is limited to "
            f"{MAX_EXHAUSTIVE_QUBITS} qubits ({6**MAX_EXHAUSTIVE_QUBITS:,} bases)"
        )
    return 6**n_qubits


def signed_bases(n_qubits: int) -> np.ndarray:
    """One Clifford id tuple per signed Pauli basis, shape (6^N, N), whose
    uniform average is the 24^N Clifford average. Each qubit runs through
    the lowest ids of +X, -X, +Y, -Y, +Z, -Z, the first qubit slowest."""
    exhaustive_size(n_qubits)
    return _SIGNED_BASIS_IDS[np.indices((6,) * n_qubits).reshape(n_qubits, -1).T]


@lru_cache(maxsize=8)
def _walsh_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Hadamard matrix H[k, s] = (-1)^(k.s) and the weights 3^|k| at
    dimension d, from bit arithmetic: k.s is the parity of k & s, folded
    down by shifted XORs, and |k| the sum of the bits of k."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"outcome vectors must have a power-of-two length, not {d}")
    n, k = d.bit_length() - 1, np.arange(d, dtype=np.min_scalar_type(d - 1))
    parity, shift = k[:, None] & k, 1
    while shift < n:
        parity ^= parity >> shift
        shift *= 2
    h = np.where(parity & 1, -1.0, 1.0)
    w = (3 ** ((k[:, None] >> np.arange(n)) & 1).sum(axis=1)).astype(float)
    h.flags.writeable = False
    w.flags.writeable = False
    return h, w


@lru_cache(maxsize=8)
def _born_codes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Code table and Walsh-bit matrix of the Born stage at N = n qubits.

    Qubit j's code for Clifford id c is (N+1) Pauli_c 4^(N-1-j), plus 1 when
    C^dag Z C carries a minus sign; bits[j, k] is bit j of Walsh index k.
    """
    paulis, signs = _CLIFFORD_Z_IMAGES.T
    place = np.arange(n - 1, -1, -1)
    codes = (n + 1) * paulis[:, None] * 4**place + (signs[:, None] < 0)
    bits = (np.arange(2**n) >> place[:, None]) & 1
    codes, bits = codes.astype(float), bits.astype(float)
    codes.flags.writeable = False
    bits.flags.writeable = False
    return codes, bits


def _born_walsh(state: DepolarizedState, ids: np.ndarray) -> np.ndarray:
    """q(k) = Tr(C^dag Z^k C rho) of every draw, shape (n_draws, d).

    Qubit j of Walsh index k carries C_j^dag Z C_j = sign * Pauli when its
    bit is set and I otherwise, so q(k) is the Pauli expectation at the
    lexicographic index i = sum_j Pauli_j 4^(N-1-j) over the set bits,
    negated when an odd number f of them carry a minus sign. Summing the
    codes of ``_born_codes`` over the set bits gives (N+1) i + f (f <= N, so
    the two never mix), one float product that is exact in integers. Each
    qubit's codes are read with a one-dimensional gather by its column of
    ids. One gather from the signed table (-1)^f Tr(P_i rho), held at
    (N+1) i + f, then reads q.
    """
    n = state.num_qubits
    if ids.ndim != 2 or ids.shape[1] != n:
        raise ValueError(f"every draw needs one Clifford id per qubit ({n})")
    _check_ids(ids)
    codes, bits = _born_codes(n)
    signed = np.multiply.outer(state.pauli_spectrum, (-1.0) ** np.arange(n + 1))
    drawn = np.empty(ids.shape)
    for j in range(n):
        drawn[:, j] = codes[:, j][ids[:, j]]
    return signed.ravel()[(drawn @ bits).astype(np.intp)]


def collect_rows(
    states, ids: np.ndarray, readout: Optional[CalibrationMatrix], n_shot: Optional[int], seeds
) -> np.ndarray:
    """Outcome vectors (rows, draws, d) of ``states[r]`` under the Clifford
    ids ``ids[r]`` (rows, draws, N), for states of one register size.

    The Born gather is per row; the transform back to probabilities and the
    ``readout`` product (if given) run once over the stack. ``n_shot`` shots
    (None: exact Born probabilities) are one multinomial call per row seeded
    from ``SeedSequence(seeds[r], spawn_key=(1,))``, a stream apart from the
    draws. Rounding negatives are clipped by ``sample_shots`` and by the
    caller's clean, not before readout. There must be at least one state,
    and one row of ids and one seed per state.
    """
    if not len(states) == len(ids) == len(seeds) > 0:
        raise ValueError(
            "collect_rows needs at least one state, and one row of ids and one seed per state; "
            f"len(states) = {len(states)}, len(ids) = {len(ids)}, len(seeds) = {len(seeds)}"
        )
    d = states[0].dim
    walsh = np.empty(ids.shape[:2] + (d,))
    for r, state in enumerate(states):
        walsh[r] = _born_walsh(state, ids[r])
    hadamard, _ = _walsh_tables(d)
    probs = walsh @ hadamard
    probs /= d
    if readout is not None:
        if readout.dim != d:
            raise ValueError(
                f"readout calibration is {readout.dim}x{readout.dim}, "
                f"but the {states[0].num_qubits}-qubit register has {d} outcomes"
            )
        probs = probs @ readout.matrix.T
    if n_shot is not None:
        for r in range(len(probs)):
            probs[r] = sample_shots(probs[r], n_shot, np.random.SeedSequence(seeds[r], spawn_key=(1,)))
    return probs


def _walsh_squares(p) -> np.ndarray:
    """q(k)^2 of one outcome vector or of each row of an array of them."""
    v = np.asarray(p, dtype=float)
    hadamard, _ = _walsh_tables(v.shape[-1])
    q = v @ hadamard
    return np.square(q, out=q)


def _moment(q2: np.ndarray, keep, power: int):
    """d_A^(-power/2) sum_{k inside A} 3^|k| q(k)^power, power 2 or 4, from
    the q^2 of one outcome vector (a float) or of each row of an array of
    them; A is the whole register when ``keep`` is None and the kept qubits
    otherwise. A reduced moment reads the q^2 columns of the Walsh indices
    inside A; no marginal is formed."""
    if keep is not None:
        n = q2.shape[-1].bit_length() - 1
        traced = sum(1 << (n - 1 - q) for q in set(range(n)).difference(kept_qubits(keep, n)))
        q2 = q2[..., np.flatnonzero((np.arange(2**n) & traced) == 0)]
    _, weights = _walsh_tables(q2.shape[-1])
    # q ** 4 would call pow() per entry; squaring twice is far cheaper.
    x = (q2 if power == 2 else np.square(q2)) @ weights / q2.shape[-1] ** (power // 2)
    return x if x.ndim else float(x)


def _sre(west: EstimateWithError, pest: EstimateWithError, d: int) -> EstimateWithError:
    """The combine of ``"sre"``: M2 from the reduced X_W and X_P moments,
    with first-order propagated sampling error.

    The M2 variance is taken as the sum of the two relative variances of the
    purity and stabilizer-purity statistics, scaled by 1/ln(2)^2. That
    ignores their covariance over the Clifford ensemble; the two are
    strongly positively correlated, so the propagated error overstates the
    spread of the M2 estimate.
    """
    if west.mean <= 0.0 or pest.mean <= 0.0:
        raise UndersampledDataError("nonpositive purity or stabilizer purity mean; collect more data")
    m2 = m2_from_purities(west.mean, pest.mean, d)
    n = west.n_samples
    err = np.sqrt(west.sample_std**2 / (n * west.mean**2) + pest.sample_std**2 / (n * pest.mean**2)) / _LN2
    return EstimateWithError(float(m2), float(err * np.sqrt(n)), float(err), n)


def _itself(est: EstimateWithError, d: int) -> EstimateWithError:
    """The combine of a one-moment estimator: the reduced moment itself."""
    return est


def estimator(spec) -> tuple:
    """``(label, moments, combine, oracle)`` for one estimator spec: the
    label the reports print, the ``(keep, power)`` pairs of ``_moment`` it
    reads, ``combine(*reduced moments, d)`` that gives its estimate, and the
    exact value on a prepared state. The oracles are this module's
    attributes, read when this is called, so a wrapped or patched attribute
    is the one that runs.
    """
    if spec == "purity":
        return "purity", ((None, 2),), _itself, purity
    if spec == "stab_purity":
        return "stab_purity", ((None, 4),), _itself, stabilizer_purity_exact
    if spec == "sre":
        return "sre", ((None, 4), (None, 2)), _sre, sre_exact
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "rdm_purity":
        keep = tuple(sorted(set(spec[1])))
        label = f"rdm_purity[{','.join(map(str, keep))}]"
        return label, ((keep, 2),), _itself, lambda state: reduced_purity(state, keep)
    raise ValueError(f"unknown estimator {spec!r}")


def estimate_rows(probs: np.ndarray, specs) -> list[list[EstimateWithError]]:
    """Every estimator of ``specs`` (see ``estimator``) on every row of a
    (rows, draws, d) stack of outcome vectors, one list per row in spec
    order. Each distinct moment is computed once for all rows from one
    stack of q^2, the (moments x rows, draws) array is reduced once, and
    each estimator combines the reduced moments it reads.
    """
    table = [estimator(spec) for spec in specs]
    q2 = _walsh_squares(probs)
    rows, _, d = q2.shape
    moments = list(dict.fromkeys(m for _, needs, _, _ in table for m in needs))
    samples = np.stack([_moment(q2, *m) for m in moments]).reshape(len(moments) * rows, -1)
    reduced = EstimateWithError.from_rows(samples)
    by_moment = {m: reduced[i * rows : (i + 1) * rows] for i, m in enumerate(moments)}
    return [[combine(*(by_moment[m][r] for m in needs), d) for _, needs, combine, _ in table] for r in range(rows)]


# The single-state API: one state's dataset, estimated as a batch of one,
# and the per-draw statistics of one outcome vector or of a row per draw.
# No report or command calls it; it stays because the benchmark traces
# these functions by name and reads ``collect_dataset(...).n_samples``.


def collect_dataset(
    state: DepolarizedState,
    tuples: np.ndarray,
    readout: Optional[CalibrationMatrix] = None,
    n_shot: Optional[int] = None,
    seed: int = 0,
) -> RcmDataset:
    """The measurement stage (``collect_rows``) for one state, with one row
    of Clifford ids per draw in ``tuples``."""
    ids = np.array(tuples, dtype=int)
    return RcmDataset(ids, collect_rows([state], ids[None], readout, n_shot, (seed,))[0])


def purity_statistic(p):
    """Pair statistic d * sum (-2)^-|s1 XOR s2| P(s1) P(s2) = d^-1 sum_k 3^|k| q(k)^2."""
    return _moment(_walsh_squares(p), None, 2)


def stabilizer_purity_statistic(p):
    """Quadruple statistic with (-2)^-|s1 XOR s2 XOR s3 XOR s4| weights,
    d^-2 sum_k 3^|k| q(k)^4.

    The sign and normalization are fixed so that the exhaustive
    exact-probability average reproduces d^-2 sum_P Tr(P rho)^4.
    """
    return _moment(_walsh_squares(p), None, 4)


def _estimate(ds: RcmDataset, spec) -> EstimateWithError:
    return estimate_rows(ds.prob_vectors[None], (spec,))[0][0]


def estimate_purity(ds: RcmDataset) -> EstimateWithError:
    return _estimate(ds, "purity")


def estimate_stabilizer_purity(ds: RcmDataset) -> EstimateWithError:
    return _estimate(ds, "stab_purity")


def estimate_sre(ds: RcmDataset) -> EstimateWithError:
    """M2 estimate with the first-order propagated error of ``_sre``."""
    return _estimate(ds, "sre")


def estimate_rdm_purity(ds: RcmDataset, keep: set[int]) -> EstimateWithError:
    """Purity of the reduced state on the qubits ``keep`` from the same data."""
    return _estimate(ds, ("rdm_purity", tuple(keep)))
