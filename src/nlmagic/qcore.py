"""Prepared states and their Pauli spectra for small qubit registers.

Every state the package prepares is the depolarized pure state

    rho = s |psi><psi| + (1 - s) I/d,

held as ``DepolarizedState(psi, s)``: the unit vector psi of length
d = 2^N and the survival s in [0, 1]. Its oracles are closed functions of
(psi, s): purity s^2 + (1 - s^2)/d, and the Pauli spectrum
Tr(P rho) = s Tr(P psi psi^dag), plus 1 - s on the identity, computed once
per state and cached. Qubit 0 is the most significant bit of a
computational-basis index, i.e. the leftmost factor of a tensor product;
where a full product is needed, it is ``np.kron`` with qubit 0 first.

The Pauli spectrum is read by per-qubit contraction rather than against a
stack of 4^N Pauli matrices. The products psi_i conj(psi_j) are formed
with each qubit's (row, column) pair (i_q, j_q) on one axis of size 4, and
the fixed map T[a, 2 i + j] = sigma_a[j, i] is applied on each of the N
axes: O(N 4^N) work and memory of the size of psi psi^dag.

``apply_to_axis`` is the one primitive that applies a small matrix to a
qubit axis: it serves that spectrum and, on the (2,)*N state vector, every
single-qubit gate of ``circuits.run_circuit``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Structural invariants (state norm, unitarity) are checked at 1e-12.
ATOL_STRUCT = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Single-qubit Paulis in the lexicographic order I < X < Y < Z of every
# 4^N spectrum.
_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
for _sigma in _PAULIS:
    _sigma.flags.writeable = False

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


@dataclass(frozen=True, eq=False)
class DepolarizedState:
    """rho = s |psi><psi| + (1 - s) I/d, from a unit vector ``psi`` of
    length d = 2^N and the survival ``survival`` = s; ``num_qubits`` is N.

    Construction checks a power-of-two length of at least 2, finite
    amplitudes, a norm within 1e-12 of 1 and a finite s in [0, 1]; ``psi``
    is stored as a read-only complex copy.
    """

    psi: np.ndarray
    survival: float = 1.0
    num_qubits: int = field(init=False)

    def __post_init__(self):
        v = np.array(self.psi, dtype=complex).ravel()
        n = v.size.bit_length() - 1
        if v.size < 2 or 2**n != v.size:
            raise ValueError(f"state vector length {v.size} is not a power of two >= 2")
        if not np.isfinite(v).all():
            raise ValueError("state vector entries must be finite")
        if abs((norm := math.sqrt(v.real @ v.real + v.imag @ v.imag)) - 1.0) > ATOL_STRUCT:
            raise ValueError(f"state vector norm {norm} differs from 1 beyond 1e-12")
        s = float(self.survival)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"survival {s} must be a finite number in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "psi", v)
        object.__setattr__(self, "survival", s)
        object.__setattr__(self, "num_qubits", n)

    @property
    def dim(self) -> int:
        return self.psi.size

    @cached_property
    def pauli_spectrum(self) -> np.ndarray:
        """Tr(P rho) for all 4^N Pauli strings in lexicographic order,
        read-only: s Tr(P psi psi^dag), plus 1 - s on the identity."""
        t = pure_pauli_spectrum(self.psi)
        t *= self.survival
        t[0] += 1.0 - self.survival
        t.flags.writeable = False
        return t


def purity(state: DepolarizedState) -> float:
    """Tr(rho^2) = s^2 + (1 - s^2)/d, in [1/d, 1]."""
    s2 = state.survival**2
    return s2 + (1.0 - s2) / state.dim


def kept_qubits(keep, num_qubits: int) -> list[int]:
    """``keep`` sorted, once it is a nonempty proper subset of the
    ``num_qubits`` qubits."""
    kept = sorted(keep)
    if not kept or len(kept) >= num_qubits:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if kept[0] < 0 or kept[-1] >= num_qubits:
        raise ValueError(f"qubit indices {kept} out of range for {num_qubits} qubits")
    return kept


def reduced_purity(state: DepolarizedState, keep) -> float:
    """Tr(rho_A^2) of the reduced state on the qubits A = ``keep``:
    d_A^-1 sum Tr(P rho)^2 over the Pauli strings that are the identity on
    every traced qubit."""
    n = state.num_qubits
    kept = kept_qubits(keep, n)
    on_kept = tuple(slice(None) if q in kept else 0 for q in range(n))
    t = state.pauli_spectrum.reshape((4,) * n)[on_kept]
    return float((t**2).sum()) / 2 ** len(kept)


def pure_pauli_spectrum(psi: np.ndarray) -> np.ndarray:
    """Tr(P psi psi^dag) for all 4^N Pauli strings in lexicographic order,
    from a state vector of length 2^N."""
    n = psi.size.bit_length() - 1
    # psi_i conj(psi_j), each qubit's (i_q, j_q) pair on one axis of size 4.
    fused = (psi.reshape((2, 1) * n) * psi.conj().reshape((1, 2) * n)).reshape((4,) * n)
    for q in range(n):
        fused = apply_to_axis(_PAULI_MAP, fused, q)
    return fused.real.ravel()


def apply_to_axis(m: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """The k x k matrix ``m`` contracted with axis ``axis`` (of size k) of
    ``t``, as one matrix product with that axis moved to the front."""
    x = t.reshape(math.prod(t.shape[:axis]), len(m), -1).transpose(1, 0, 2)
    return np.dot(m, x.reshape(len(m), -1)).reshape(x.shape).transpose(1, 0, 2).reshape(t.shape)
