"""Dense complex linear algebra for small qubit registers.

States are kept as density matrices throughout (noise makes everything
mixed sooner or later), and operators are plain complex numpy arrays.
Qubit 0 is the most significant bit of a computational-basis index, i.e.
the leftmost factor of a tensor product.

The Pauli spectrum Tr(P rho) is read by per-qubit contraction rather than
against a stack of 4^N Pauli matrices. rho is reshaped to (2,)*2N, whose
axis q is qubit q's row index i_q and axis N + q its column index j_q.
Each qubit's (i_q, j_q) pair is fused into one axis of size 4, and the
fixed map T[a, 2 i + j] = sigma_a[j, i] is applied on each of the N axes
(``apply_per_qubit``): O(N 4^N) work and memory of the size of rho.

Circuits use the same (2,)*2N view: ``circuits.run_circuit`` applies each
single-qubit gate as one 2 x 2 matrix product on a row axis and its
conjugate on the matching column axis, so no d x d gate operator is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Structural invariants (hermiticity, trace, stochasticity) are checked at
# 1e-12.
ATOL_STRUCT = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULI_BY_LETTER = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

PAULI_LETTERS = "IXYZ"

# _PAULI_MAP[a, 2 i + j] = sigma_a[j, i]: contracted with one qubit's fused
# (row, column) index it gives that qubit's factor of Tr(P rho).
_PAULI_MAP = np.array([_PAULI_BY_LETTER[c].T.ravel() for c in PAULI_LETTERS])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit 0 as the leftmost factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(*factors: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators, e.g. ``"XZI"``."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in _PAULI_BY_LETTER for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        return tensor_all(*(_PAULI_BY_LETTER[c] for c in self.letters))


def all_pauli_strings(num_qubits: int) -> list[PauliString]:
    """All 4^N Pauli strings in lexicographic order (I < X < Y < Z)."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return [
        PauliString("".join(p))
        for p in itertools.product(PAULI_LETTERS, repeat=num_qubits)
    ]


@lru_cache(maxsize=8)
def pauli_matrix_stack(num_qubits: int) -> np.ndarray:
    """Stack of all 4^N Pauli matrices, shape (4^N, d, d), lexicographic order.

    The explicit reference for the contracted spectrum. It takes 16^(N+1)
    bytes (268 MB at N = 6), so no production path builds it.
    """
    stack = np.array([p.matrix() for p in all_pauli_strings(num_qubits)])
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d density operator on ``num_qubits`` qubits.

    Construction checks hermiticity and unit trace at 1e-12, positivity at
    -1e-10 on the spectrum, and the purity bounds 1/d <= Tr(rho^2) <= 1.
    """

    matrix: np.ndarray
    num_qubits: int = field(default=0)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = m.shape[0]
        n = self.num_qubits or int(round(np.log2(d)))
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

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        d = 2**num_qubits
        return cls(np.eye(d, dtype=complex) / d)


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
    return apply_per_qubit(_PAULI_MAP, fused, n).real.ravel()


def apply_per_qubit(m: np.ndarray, t: np.ndarray, num_qubits: int) -> np.ndarray:
    """Apply the k x k map ``m`` on each of the last ``num_qubits`` axes of ``t``.

    Every one of those axes must have size k; leading axes are batch axes.
    Each step contracts m with the first qubit axis and rotates that axis
    to the back, so after ``num_qubits`` steps the axes are in order again.
    """
    k = m.shape[0]
    x = t.reshape(-1, k, k ** (num_qubits - 1))
    for _ in range(num_qubits):
        x = (m @ x).swapaxes(1, 2).reshape(-1, k, k ** (num_qubits - 1))
    return x.reshape(t.shape)


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
