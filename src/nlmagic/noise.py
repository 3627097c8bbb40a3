"""Stochastic measurement effects.

Two effects follow the state preparation, in the order they occur in the
pipeline: classical readout corruption of the outcome probabilities by a
column-stochastic calibration matrix, and finite-shot multinomial
sampling. The third noise effect, global depolarizing after each
two-qubit gate, is part of the state: ``circuits.run_circuit`` mixes it in
once, as p^k for k CZs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_ATOL_COLUMN = 1e-9


@dataclass(frozen=True, eq=False)
class CalibrationMatrix:
    """Column-stochastic matrix of readout probabilities p(measured i | prepared j)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("calibration matrix must be square")
        if not ((m >= -1e-12) & (m <= 1 + 1e-12)).all():
            raise ValueError("calibration entries must be finite and lie in [0, 1]")
        cols = m.sum(axis=0)
        if np.max(np.abs(cols - 1.0)) > _ATOL_COLUMN:
            raise ValueError("calibration matrix columns must each sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # Compared and hashed by value, so two loads of one scenario file with a
    # readout block give equal scenarios; the matrix is read-only, so its
    # shape and bytes stay fixed.
    def _key(self) -> tuple:
        return self.matrix.shape, self.matrix.tobytes()

    def __eq__(self, other):
        if not isinstance(other, CalibrationMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def clean_probability_vector(p) -> np.ndarray:
    """Validate and normalize an outcome probability vector, or each vector
    along the last axis of an array of them.

    Entries within 1e-12 below zero are clamped to 0 and each vector is
    renormalized; anything more negative, a NaN, or a sum off 1 by more
    than 1e-9, is rejected. The result is always a new array: the division
    makes the copy, and the clamp runs only when some entry is at most zero
    (a -0.0 too), so skipping it never changes a bit.
    """
    v = np.asarray(p, dtype=float)
    if v.ndim < 2:
        v = v.ravel()
    low = np.min(v, initial=np.inf)
    if np.isnan(low):
        raise ValueError("probability entries must not be NaN")
    if low < -1e-12:
        raise ValueError(f"probability entry {low:.3e} below -1e-12")
    if low <= 0.0:
        v = np.clip(v, 0.0, None)
    total = v.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > _ATOL_COLUMN
    if off.any():
        raise ValueError(f"probabilities sum to {total[off][0]}, not 1")
    return v / total


def sample_shots(p, n_shot: int, seed) -> np.ndarray:
    """Empirical frequencies of ``n_shot`` multinomial draws, seeded, from
    one outcome vector or from each row of an array of them.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, such as an
    integer or a prepared ``numpy.random.SeedSequence``.
    """
    if n_shot < 1:
        raise ValueError("n_shot must be >= 1")
    v = clean_probability_vector(p)
    counts = np.random.default_rng(seed).multinomial(n_shot, v)
    return counts / float(n_shot)


def synth_calibration_matrix(
    per_qubit_eps: Sequence[tuple[float, float]], correlation: float = 0.0
) -> CalibrationMatrix:
    """Build a test calibration matrix from per-qubit flip rates.

    Each qubit contributes a 2x2 flip matrix with p(1|0) = eps01 and
    p(0|1) = eps10; the register matrix is their tensor product. A nonzero
    ``correlation`` adds weight on the all-qubits-flipped outcome (a crude
    stand-in for correlated readout crosstalk) and renormalizes columns.
    """
    if not per_qubit_eps:
        raise ValueError("need at least one qubit")
    if not 0.0 <= correlation <= 0.1:
        raise ValueError("correlation must lie in [0, 0.1]")
    lam = np.ones((1, 1))
    for e01, e10 in per_qubit_eps:
        if not (0.0 <= e01 <= 0.5 and 0.0 <= e10 <= 0.5):
            raise ValueError("flip rates must lie in [0, 0.5]")
        flip = np.array([[1 - e01, e10], [e01, 1 - e10]], dtype=float)
        # Entry (2i + k, 2j + l) is lam[i, j] * flip[k, l], as in np.kron.
        lam = np.multiply.outer(lam, flip).swapaxes(1, 2).reshape(2 * len(lam), -1)
    if correlation > 0.0:
        d = lam.shape[0]
        flipped = np.arange(d)[::-1]
        lam[flipped, np.arange(d)] += correlation
        lam /= lam.sum(axis=0, keepdims=True)
    return CalibrationMatrix(lam)
