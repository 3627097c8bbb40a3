"""Noise channels and stochastic measurement effects.

Three effects are modeled, in the order they occur in the pipeline:
global depolarizing after each two-qubit gate, classical readout
corruption of the outcome probabilities by a column-stochastic
calibration matrix, and finite-shot multinomial sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .qcore import DensityMatrix, tensor_all

_ATOL_COLUMN = 1e-9


@dataclass(frozen=True)
class CalibrationMatrix:
    """Column-stochastic matrix of readout probabilities p(measured i | prepared j)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("calibration matrix must be square")
        if (m < -1e-12).any() or (m > 1 + 1e-12).any():
            raise ValueError("calibration entries must lie in [0, 1]")
        cols = m.sum(axis=0)
        if np.max(np.abs(cols - 1.0)) > _ATOL_COLUMN:
            raise ValueError("calibration matrix columns must each sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> str:
        return json.dumps(self.matrix.tolist())

    @classmethod
    def from_json(cls, text: str) -> "CalibrationMatrix":
        return cls(np.array(json.loads(text), dtype=float))


@dataclass(frozen=True)
class NoiseConfig:
    """Knobs for the simulated pipeline.

    ``p_dep_cz`` is a survival probability: the state passes each two-qubit
    gate unchanged with probability p and is replaced by the maximally mixed
    state otherwise. ``n_shot`` of None means exact Born probabilities.
    """

    p_dep_cz: float = 1.0
    readout_lambda: Optional[CalibrationMatrix] = None
    n_shot: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_dep_cz <= 1.0:
            raise ValueError("p_dep_cz must lie in [0, 1]")
        if self.n_shot is not None and self.n_shot < 1:
            raise ValueError("n_shot must be a positive integer")


def error_prob_from_survival(p_dep: float) -> float:
    """Convert a survival probability to the error probability 1 - p.

    Closed-form noisy curves are written in terms of the error probability
    while the channel itself is parametrized by survival; keeping the
    conversion in one place avoids sign mistakes.
    """
    return 1.0 - p_dep


def survival_from_error_prob(p_err: float) -> float:
    return 1.0 - p_err


def depolarize(rho: DensityMatrix, p_dep: float) -> DensityMatrix:
    """Global depolarizing channel p*rho + (1-p)*I/d on the full register."""
    if not 0.0 <= p_dep <= 1.0:
        raise ValueError("p_dep must lie in [0, 1]")
    d = rho.dim
    mixed = np.eye(d, dtype=complex) / d
    return DensityMatrix(p_dep * rho.matrix + (1.0 - p_dep) * mixed)


def clean_probability_vector(p, atol: float = 1e-12) -> np.ndarray:
    """Validate and normalize an outcome probability vector, or each row of
    a two-dimensional array of them.

    Entries within ``-atol`` of zero are clamped to 0 and each vector is
    renormalized; anything more negative, or a sum off 1 by more than
    1e-9, is rejected.
    """
    v = np.asarray(p, dtype=float)
    if v.ndim != 2:
        v = v.ravel()
    if (v < -atol).any():
        raise ValueError(f"probability entry {v.min():.3e} below -{atol:.0e}")
    v = np.clip(v, 0.0, None)
    total = v.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > _ATOL_COLUMN
    if off.any():
        raise ValueError(f"probabilities sum to {total[off][0]}, not 1")
    return v / total


def apply_readout_noise(p, lam: CalibrationMatrix) -> np.ndarray:
    """Corrupt ideal outcome probabilities: p_exp = Lambda @ p_ideal."""
    v = clean_probability_vector(p)
    if lam.dim != v.size:
        raise ValueError(f"calibration dim {lam.dim} does not match vector size {v.size}")
    return clean_probability_vector(lam.matrix @ v)


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
    factors = []
    for e01, e10 in per_qubit_eps:
        if not (0.0 <= e01 <= 0.5 and 0.0 <= e10 <= 0.5):
            raise ValueError("flip rates must lie in [0, 0.5]")
        factors.append(np.array([[1 - e01, e10], [e01, 1 - e10]]))
    lam = tensor_all(*factors).real
    if correlation > 0.0:
        d = lam.shape[0]
        flipped = np.arange(d)[::-1]
        lam = lam.copy()
        lam[flipped, np.arange(d)] += correlation
        lam /= lam.sum(axis=0, keepdims=True)
    return CalibrationMatrix(lam)
