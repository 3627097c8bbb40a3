"""Dense complex linear algebra for small qubit registers.

States are handed around as validated density matrices (noise makes
everything mixed), and operators are plain complex numpy arrays.
Qubit 0 is the most significant bit of a computational-basis index, i.e.
the leftmost factor of a tensor product; where a full product is needed,
it is ``np.kron`` with qubit 0 first.

The Pauli spectrum Tr(P rho) is read by per-qubit contraction rather than
against a stack of 4^N Pauli matrices. rho is reshaped to (2,)*2N, whose
axis q is qubit q's row index i_q and axis N + q its column index j_q.
Each qubit's (i_q, j_q) pair is fused into one axis of size 4, and the
fixed map T[a, 2 i + j] = sigma_a[j, i] is applied on each of the N axes:
O(N 4^N) work and memory of the size of rho.

``apply_to_axis`` is the one primitive that applies a small matrix to a
qubit axis: it serves that spectrum and, on the (2,)*N state vector, every
single-qubit gate of ``circuits.run_circuit``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# Structural invariants (hermiticity, trace, stochasticity) are checked at
# 1e-12.
ATOL_STRUCT = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Single-qubit Paulis in the lexicographic order I < X < Y < Z of every
# 4^N spectrum.
_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

# _PAULI_MAP[a, 2 i + j] = sigma_a[j, i]: contracted with one qubit's fused
# (row, column) index it gives that qubit's factor of Tr(P rho).
_PAULI_MAP = np.array([sigma.T.ravel() for sigma in _PAULIS])


@functools.lru_cache(maxsize=8)
def pauli_matrix_stack(num_qubits: int) -> np.ndarray:
    """Stack of all 4^N Pauli matrices, shape (4^N, d, d), lexicographic order.

    The explicit reference for the contracted spectrum. It takes 16^(N+1)
    bytes (268 MB at N = 6), so no production path builds it.
    """
    factors = itertools.product(_PAULIS, repeat=num_qubits)
    stack = np.array([functools.reduce(np.kron, f) for f in factors])
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d density operator; ``num_qubits`` is log2(d).

    Construction checks hermiticity and unit trace at 1e-12, positivity at
    -1e-10 on the spectrum, and the purity bounds 1/d <= Tr(rho^2) <= 1.
    """

    matrix: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = m.shape[0]
        n = int(round(np.log2(d)))
        if m.shape != (d, d) or 2**n != d:
            raise ValueError(f"matrix shape {m.shape} is not a {2**n}-dim operator")
        if np.max(np.abs(m - m.conj().T)) > ATOL_STRUCT:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > ATOL_STRUCT or abs(np.trace(m).imag) > ATOL_STRUCT:
            raise ValueError("density matrix trace differs from 1 beyond 1e-12")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {eigs.min():.3e} below -1e-10")
        pur = float(np.trace(m @ m).real)
        if pur < 1.0 / d - ATOL_STRUCT or pur > 1.0 + ATOL_STRUCT:
            raise ValueError(f"purity {pur} outside [1/d, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "num_qubits", n)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    @classmethod
    def from_state_vector(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in [1/d, 1]."""
    m = rho.matrix
    return float(np.trace(m @ m).real)


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """Tr(P rho) for all 4^N Pauli strings in lexicographic order.

    The returned values are real and satisfy sum_P Tr(P rho)^2 = d Tr(rho^2).
    """
    return expectations_from_matrix(rho.matrix, rho.num_qubits)


def expectations_from_matrix(mat: np.ndarray, num_qubits: int) -> np.ndarray:
    n = num_qubits
    pairs = [axis for q in range(n) for axis in (q, n + q)]
    fused = np.asarray(mat).reshape((2,) * (2 * n)).transpose(pairs).reshape((4,) * n)
    for q in range(n):
        fused = apply_to_axis(_PAULI_MAP, fused, q)
    return fused.real.ravel()


def apply_to_axis(m: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """The k x k matrix ``m`` contracted with axis ``axis`` (of size k) of
    ``t``, as one matrix product with that axis moved to the front."""
    x = t.reshape(math.prod(t.shape[:axis]), len(m), -1).transpose(1, 0, 2)
    return np.dot(m, x.reshape(len(m), -1)).reshape(x.shape).transpose(1, 0, 2).reshape(t.shape)


def partial_trace(rho: DensityMatrix, keep: set[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubit subset.

    ``keep`` must be a nonempty proper subset of {0, ..., N-1}; kept qubits
    retain their relative order.
    """
    n = rho.num_qubits
    keep_sorted = sorted(keep)
    if not keep_sorted or len(keep_sorted) >= n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"qubit indices {keep_sorted} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep_sorted]
    t = rho.matrix.reshape((2,) * (2 * n))
    # Row axis of qubit q is q, column axis is n + q.
    for k, q in enumerate(traced):
        t = np.trace(t, axis1=q - k, axis2=q - k + n - k)
    d_keep = 2 ** len(keep_sorted)
    return DensityMatrix(t.reshape(d_keep, d_keep))
