"""Gate set, circuit execution, the single-qubit Clifford group, and the
catalogue of named preparation circuits, each gate kind and each catalogue
state declared once, as data:

- ``GATES`` maps each gate kind to (qubit count, angle count, unitary as a
  read-only constant or a function of angle arrays, one 2x2 per element of
  the broadcast arrays). ``GateSpec`` reads its checks from it,
  ``gate_matrix`` evaluates one gate into a fresh array, and
  ``run_circuit`` each rotation kind once per circuit.
- ``STATES`` maps each catalogue id to (qubit count, gate template). A
  template angle written as a name is filled from the state's parameters;
  a name ending in ``?`` is optional, and its gate is dropped when that
  parameter is absent. ``STATE_PARAMS``, the parameters each id takes, is
  derived from it in gate order.

Rotation gates follow the R(theta) = exp(-i theta sigma / 2) convention;
T is Rz(pi/4) and S is Rz(pi/2) up to global phase. CNOT is never treated
as a primitive: it is always applied as (I (x) H) CZ (I (x) H) so that the
depolarizing channel attaches to the CZ inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, DepolarizedState, apply_to_axis


def rz_matrix(theta) -> np.ndarray:
    u = np.zeros(np.shape(theta) + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 1, 1] = np.exp(-1j * np.asarray(theta) / 2), np.exp(1j * np.asarray(theta) / 2)
    return u


def rxy_matrix(theta, phi) -> np.ndarray:
    """Rotation by theta about the equatorial axis cos(phi) X + sin(phi) Y."""
    half, phi = np.asarray(theta)[..., None, None] / 2, np.asarray(phi)[..., None, None]
    axis = np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y
    return np.cos(half) * PAULI_I.real - 1j * np.sin(half) * axis


H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)

# Each gate kind: (qubit count, angle count, its unitary on its own qubits,
# a read-only constant or a function of the angle arrays).
GATES = {
    "Rx": (1, 1, lambda theta: rxy_matrix(theta, 0.0)),
    "Ry": (1, 1, lambda theta: rxy_matrix(theta, np.pi / 2)),
    "Rz": (1, 1, rz_matrix),
    "Rxy": (1, 2, rxy_matrix),
    "H": (1, 0, H_MATRIX),
    "S": (1, 0, rz_matrix(np.pi / 2)),
    "T": (1, 0, rz_matrix(np.pi / 4)),
    "X": (1, 0, PAULI_X),
    "Y": (1, 0, PAULI_Y),
    "Z": (1, 0, PAULI_Z),
    "CZ": (2, 0, _CZ),
    "CNOT": (2, 0, np.kron(np.eye(2), H_MATRIX) @ _CZ @ np.kron(np.eye(2), H_MATRIX)),
}
for _u in (u for _, n_angles, u in GATES.values() if not n_angles):
    _u.flags.writeable = False


def _all_of(xs, exact: set, types: tuple) -> bool:
    """Whether each of ``xs`` is of ``types`` and no bool; ``exact`` types pass at once."""
    return set(map(type, xs)) <= exact or all(isinstance(x, types) and not isinstance(x, bool) for x in xs)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        qubits, angles = tuple(self.qubits), tuple(self.angles)
        if self.kind not in GATES:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        arity, n_angles, _ = GATES[self.kind]
        if not _all_of(qubits, {int}, (int, np.integer)):
            raise ValueError(f"{self.kind} qubit indices must be integers, not {qubits}")
        if len(qubits) != arity or len(set(qubits)) != arity:
            raise ValueError(f"{self.kind} needs {arity} distinct qubit indices")
        if min(qubits) < 0:
            raise ValueError(f"{self.kind} qubit indices must be >= 0, not {qubits}")
        if len(angles) != n_angles:
            raise ValueError(f"{self.kind} takes {n_angles} angle(s)")
        if not _all_of(angles, {int, float}, (int, float, np.integer, np.floating)):
            raise ValueError(f"{self.kind} angles must be real numbers, not {angles}")
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "angles", tuple(map(float, angles)))
        if not all(map(math.isfinite, self.angles)):
            raise ValueError(f"{self.kind} angles must be finite, not {self.angles}")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not _all_of((self.num_qubits,), {int}, (int, np.integer)):
            raise ValueError(f"num_qubits must be an integer, not {self.num_qubits!r}")
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} addresses qubit outside the register")


def gate_matrix(g: GateSpec) -> np.ndarray:
    """Unitary of the gate on its own qubits (2x2, or 4x4 for CZ/CNOT), a fresh array."""
    return GATES[g.kind][2](*g.angles) if g.angles else GATES[g.kind][2].copy()


def run_circuit(circuit: Circuit, p_dep_cz: float = 1.0) -> DepolarizedState:
    """Apply the circuit to |0...0> and return its state under the global
    depolarizing channel rho -> p rho + (1 - p) I/d after every CZ
    (including the CZ inside a CNOT), with survival ``p_dep_cz``.

    That channel commutes with every unitary, so k CZs leave
    s |psi><psi| + (1 - s) I/d with s = p_dep_cz^k, where |psi> is the
    noise-free output: the returned state is (|psi>, s). |psi> is held as a
    (2,)*N tensor: a single-qubit gate is one ``qcore.apply_to_axis`` on its
    qubit's axis (each rotation kind evaluated in one call per circuit), a
    CZ negates the amplitudes where both of its qubits are 1, and a CNOT is
    that CZ between two H on its target.
    """
    if not 0.0 <= p_dep_cz <= 1.0:
        raise ValueError("p_dep_cz must lie in [0, 1]")
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    kinds = {g.kind for g in circuit.gates if g.angles}
    rotations = {k: iter(GATES[k][2](*zip(*(g.angles for g in circuit.gates if g.kind == k)))) for k in kinds}
    for g in circuit.gates:
        if len(g.qubits) == 1:
            psi = apply_to_axis(next(rotations[g.kind]) if g.angles else GATES[g.kind][2], psi, g.qubits[0])
            continue
        control, target = g.qubits
        if g.kind == "CNOT":
            psi = apply_to_axis(H_MATRIX, psi, target)
        both_one = [slice(None)] * n
        both_one[control] = both_one[target] = 1
        psi[tuple(both_one)] *= -1
        if g.kind == "CNOT":
            psi = apply_to_axis(H_MATRIX, psi, target)
    return DepolarizedState(psi, p_dep_cz ** sum(len(g.qubits) == 2 for g in circuit.gates))


# ---------------------------------------------------------------------------
# Single-qubit Clifford group


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rescale so the first entry (row-major) above 1e-10 in modulus is real
    positive."""
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-10))
    entry = flat[idx]
    return u * (entry.conj() / abs(entry))


@lru_cache(maxsize=1)
def single_qubit_clifford_group() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Cliffords as read-only 2x2 matrices, each
    canonicalized modulo global phase, generated by closure over {H, S}.

    Elements are found breadth first starting from the identity, so a
    matrix's tuple position is a Clifford id stable across runs; id 0 is
    the identity.
    """
    generators = [H_MATRIX, rz_matrix(np.pi / 2)]
    elements = [canonical_phase(np.eye(2, dtype=complex))]
    frontier = list(elements)
    while frontier:
        fresh = []
        for u in frontier:
            for g in generators:
                cand = canonical_phase(g @ u)
                if np.abs(np.array(elements) - cand).max(axis=(1, 2)).min() > 1e-9:
                    elements.append(cand)
                    fresh.append(cand)
        frontier = fresh
    if len(elements) != 24:  # pragma: no cover
        raise RuntimeError(f"Clifford closure produced {len(elements)} elements")
    for m in elements:
        m.flags.writeable = False
    return tuple(elements)


# ---------------------------------------------------------------------------
# Named preparation circuits

# Rz(3*pi/8) turns the pi/8 phase injected by the m-state circuit into the
# Clifford phase pi/2, which removes all of its locally erasable magic.
M_ERASE_ANGLE = 3 * np.pi / 8

# The gate templates the lm and m families share: (kind, qubits, *angles).
_LM = (("H", (0,)), ("CNOT", (0, 1)), ("T", (0,)))
_M = (("Rx", (0,), np.pi / 8), ("H", (1,)), ("CZ", (0, 1)), ("Rz", (1,), np.pi / 8))

# Each catalogue id: (qubit count, gate template). Angles are radians; a
# name is a parameter, optional when it ends in "?".
STATES = {
    "psi0": (1, ()),
    "psi1": (1, (("H", (0,)), ("Rz", (0,), "phase?"))),
    "psi2": (1, (("X", (0,)), ("H", (0,)), ("Rz", (0,), "phase?"))),
    "psi3": (2, (("H", (0,)), ("H", (1,)), ("Rz", (0,), "phase0?"), ("Rz", (1,), "phase1?"))),
    "psi4": (2, (("H", (0,)), ("CNOT", (0, 1)))),
    "lm": (2, _LM),
    "lm_erased": (2, _LM + (("T", (0,)),)),
    "m": (2, _M),
    "m_erased": (2, _M + (("Rz", (1,), M_ERASE_ANGLE),)),
    "nlm": (2, (("Rx", (0,), "theta"), ("CNOT", (0, 1)))),
    "m_sweep": (2, _M + (("Rz", (0,), "gamma"), ("Rz", (1,), "phi"))),
}

# Each catalogue id with the parameters it takes, in gate order.
STATE_PARAMS = {
    state_id: tuple(a.rstrip("?") for _, _, *angles in template for a in angles if isinstance(a, str))
    for state_id, (_, template) in STATES.items()
}


def state_circuit(state_id: str, params: Optional[Mapping[str, float]] = None) -> Circuit:
    """Gate list for one of the named benchmark states, built from its
    ``STATES`` template.

    ``params`` uses radians and takes only the keys ``STATE_PARAMS`` lists
    for the id; each one the template does not mark optional is required.
    """
    params = dict(params or {})
    if state_id not in STATES:
        raise ValueError(f"unknown state id {state_id!r}")
    num_qubits, template = STATES[state_id]
    accepted = ", ".join(STATE_PARAMS[state_id]) or "none"
    if unknown := sorted(set(params) - set(STATE_PARAMS[state_id])):
        raise ValueError(f"state {state_id!r} takes no parameter {', '.join(unknown)} (it takes {accepted})")
    gates, missing = [], []
    for kind, qubits, *angles in template:
        absent = [a for a in angles if isinstance(a, str) and a.rstrip("?") not in params]
        missing += [a for a in absent if not a.endswith("?")]
        if not absent:
            gates.append(GateSpec(kind, qubits, [params[a.rstrip("?")] if isinstance(a, str) else a for a in angles]))
    if missing:
        raise ValueError(f"state {state_id!r} needs parameter {', '.join(missing)} (it takes {accepted})")
    return Circuit(num_qubits, tuple(gates))
