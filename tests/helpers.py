"""Shared random-state generators and loop-form references for the test
suite."""

import functools

import numpy as np

from nlmagic import DensityMatrix, gate_matrix
from nlmagic.circuits import H_MATRIX, _expand_cnot, canonical_phase, rz_matrix
from nlmagic.erasure import _correlation_matrix, _m2_from_correlations, pauli_rotation
from nlmagic.qcore import pauli_expectations
from nlmagic.rcm import _clifford_z_images


def random_pure(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix.from_state_vector(vec)


def random_mixed(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    d = 2**num_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def depolarize(rho: DensityMatrix, p_dep: float) -> DensityMatrix:
    """Global depolarizing channel p rho + (1 - p) I/d on the full register,
    as a validated state: the channel ``run_circuit`` applies in place after
    every CZ."""
    d = rho.dim
    return DensityMatrix(p_dep * rho.matrix + (1.0 - p_dep) * (np.eye(d, dtype=complex) / d))


def kron_run_circuit(circuit, p_dep_cz: float = 1.0) -> DensityMatrix:
    """Reference for ``run_circuit``: every gate is a d x d Kronecker-built
    operator applied as u @ rho @ u^dag, and every depolarized state is
    validated as a ``DensityMatrix``."""
    if not 0.0 <= p_dep_cz <= 1.0:
        raise ValueError("p_dep_cz must lie in [0, 1]")
    n = circuit.num_qubits
    d = 2**n
    state = np.zeros((d, d), dtype=complex)
    state[0, 0] = 1.0
    for spec in circuit.gates:
        for g in _expand_cnot(spec) if spec.kind == "CNOT" else [spec]:
            if g.kind == "CZ":
                bits = (np.arange(d)[:, None] >> (n - 1 - np.array(g.qubits))) & 1
                u = np.diag(np.where(bits.all(axis=1), -1.0, 1.0).astype(complex))
            else:
                factors = [np.eye(2, dtype=complex)] * n
                factors[g.qubits[0]] = gate_matrix(g)
                u = functools.reduce(np.kron, factors)
            state = u @ state @ u.conj().T
            if g.kind == "CZ" and p_dep_cz < 1.0:
                state = depolarize(DensityMatrix(state), p_dep_cz).matrix.copy()
    return DensityMatrix(state)


def loop_clifford_group() -> list[np.ndarray]:
    """Reference for ``single_qubit_clifford_group``: the breadth-first
    closure over {H, S}, testing each candidate against every element found
    so far with ``np.allclose``."""
    generators = [H_MATRIX, rz_matrix(np.pi / 2)]
    elements = [canonical_phase(np.eye(2, dtype=complex))]
    frontier = list(elements)
    while frontier:
        fresh = []
        for u in frontier:
            for g in generators:
                cand = canonical_phase(g @ u)
                if not any(np.allclose(cand, e, atol=1e-9) for e in elements):
                    elements.append(cand)
                    fresh.append(cand)
        frontier = fresh
    return elements


def einsum_landscape(rho: DensityMatrix, gammas, phis) -> np.ndarray:
    """Reference for ``sweep_landscape``'s landscape: one three-operand
    einsum over every (gamma, phi) pair of Rz rotations."""
    ra = pauli_rotation(0.0, 0.0, np.asarray(gammas, dtype=float))
    rb = pauli_rotation(0.0, 0.0, np.asarray(phis, dtype=float))
    return _m2_from_correlations(np.einsum("Aai,ij,Bbj->ABab", ra, _correlation_matrix(rho), rb))


def per_row_pair_m2(ra: np.ndarray, t: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Reference for ``erasure._pair_m2``: M2 of R_A t R_B^T over every pair
    of rotations, one einsum per side-A rotation."""
    return np.array([_m2_from_correlations(np.einsum("ij,Bbj->Bib", r @ t, rb)) for r in ra])


def loop_landscape_to_csv(result) -> str:
    """Reference for ``landscape_to_csv``: one formatted line per element."""
    lines = ["gamma_deg,phi_deg,m2"]
    for i, g in enumerate(result.gamma_grid):
        for j, f in enumerate(result.phi_grid):
            lines.append(f"{np.degrees(g):.6f},{np.degrees(f):.6f},{result.landscape[i, j]:.12f}")
    return "\n".join(lines) + "\n"


def matmul_born_walsh(rho: DensityMatrix, ids: np.ndarray) -> np.ndarray:
    """Reference for ``rcm._born_walsh``: the Pauli index and the sign-flip
    count of every (draw, Walsh index) pair from two integer matrix
    products, the sign from the count's parity."""
    n = rho.num_qubits
    paulis, signs = _clifford_z_images()
    place = np.arange(n - 1, -1, -1)
    bits = (np.arange(2**n)[:, None] >> place) & 1
    index = (paulis[ids] * 4**place) @ bits.T
    flips = (signs[ids] < 0).astype(int) @ bits.T
    return np.where(flips % 2, -1.0, 1.0) * pauli_expectations(rho)[index]


def sum_marginalize(p: np.ndarray, keep: set[int], num_qubits: int) -> np.ndarray:
    """Reference for ``rcm.marginalize``: one ``sum`` over the traced axes of
    the (2,)*N view of a vector or of each row."""
    v = np.asarray(p, dtype=float)
    rows = v.shape[:1] if v.ndim == 2 else ()
    t = v.reshape(rows + (2,) * num_qubits)
    axes = tuple(len(rows) + q for q in range(num_qubits) if q not in keep)
    return t.sum(axis=axes).reshape(rows + (-1,))
