"""Gate set, circuit execution, the single-qubit Clifford group, and the
catalogue of named preparation circuits, each gate kind and each catalogue
state declared once, as data:

- ``GATES`` maps each gate kind to (qubit count, angle count, unitary as a
  function of the angles). ``GateSpec`` reads its checks from it, and
  ``gate_matrix`` is one lookup and call.
- ``STATES`` maps each catalogue id to (qubit count, gate template). A
  template angle written as a name is filled from the state's parameters;
  a name ending in ``?`` is optional, and its gate is dropped when that
  parameter is absent. ``STATE_PARAMS``, the parameters each id takes, is
  derived from it in gate order.

Rotation gates follow the R(theta) = exp(-i theta sigma / 2) convention;
T is Rz(pi/4) and S is Rz(pi/2) up to global phase. CNOT is never treated
as a primitive: it is always expanded to (I (x) H) CZ (I (x) H) so that the
depolarizing channel attaches to the CZ inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .qcore import PAULI_X, PAULI_Y, PAULI_Z, DepolarizedState, apply_to_axis

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ry_matrix(theta: float) -> np.ndarray:
    return rxy_matrix(theta, np.pi / 2)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def rxy_matrix(theta: float, phi: float) -> np.ndarray:
    """Rotation by theta about the equatorial axis cos(phi) X + sin(phi) Y."""
    axis = np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return c * np.eye(2) - 1j * s * axis


_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_IH = np.kron(np.eye(2), H_MATRIX)

# Each gate kind: (qubit count, angle count, its unitary on its own qubits
# as a function of the angles, a fresh array per call).
GATES = {
    "Rx": (1, 1, lambda theta: rxy_matrix(theta, 0.0)),
    "Ry": (1, 1, ry_matrix),
    "Rz": (1, 1, rz_matrix),
    "Rxy": (1, 2, rxy_matrix),
    "H": (1, 0, H_MATRIX.copy),
    "S": (1, 0, lambda: rz_matrix(np.pi / 2)),
    "T": (1, 0, lambda: rz_matrix(np.pi / 4)),
    "X": (1, 0, PAULI_X.copy),
    "Y": (1, 0, PAULI_Y.copy),
    "Z": (1, 0, PAULI_Z.copy),
    "CZ": (2, 0, _CZ.copy),
    "CNOT": (2, 0, lambda: _IH @ _CZ @ _IH),
}


@dataclass(frozen=True)
class GateSpec:
    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if self.kind not in GATES:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        arity, n_angles, _ = GATES[self.kind]
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} needs {arity} distinct qubit indices")
        if min(self.qubits) < 0:
            raise ValueError(f"{self.kind} qubit indices must be >= 0, not {self.qubits}")
        if len(self.angles) != n_angles:
            raise ValueError(f"{self.kind} takes {n_angles} angle(s)")
        if not all(map(math.isfinite, self.angles)):
            raise ValueError(f"{self.kind} angles must be finite, not {self.angles}")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} addresses qubit outside the register")


def gate_matrix(g: GateSpec) -> np.ndarray:
    """Unitary of the gate on its own qubits (2x2, or 4x4 for CZ/CNOT)."""
    return GATES[g.kind][2](*g.angles)


def _expand_cnot(g: GateSpec) -> list[GateSpec]:
    control, target = g.qubits
    return [
        GateSpec("H", (target,)),
        GateSpec("CZ", (control, target)),
        GateSpec("H", (target,)),
    ]


def run_circuit(circuit: Circuit, p_dep_cz: float = 1.0) -> DepolarizedState:
    """Apply the circuit to |0...0> and return its state under the global
    depolarizing channel rho -> p rho + (1 - p) I/d after every CZ
    (including the CZ inside an expanded CNOT), with survival ``p_dep_cz``.

    That channel commutes with every unitary, so k CZs leave
    s |psi><psi| + (1 - s) I/d with s = p_dep_cz^k, where |psi> is the
    noise-free output: the returned state is (|psi>, s). |psi> is held as a
    (2,)*N tensor: a single-qubit gate is one ``qcore.apply_to_axis`` on its
    qubit's axis, and a CZ negates the amplitudes where both of its qubits
    are 1.
    """
    if not 0.0 <= p_dep_cz <= 1.0:
        raise ValueError("p_dep_cz must lie in [0, 1]")
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    n_cz = 0
    for spec in circuit.gates:
        for g in _expand_cnot(spec) if spec.kind == "CNOT" else [spec]:
            if g.kind == "CZ":
                both_one = [slice(None)] * n
                both_one[g.qubits[0]] = both_one[g.qubits[1]] = 1
                psi[tuple(both_one)] *= -1
                n_cz += 1
            else:
                psi = apply_to_axis(gate_matrix(g), psi, g.qubits[0])
    return DepolarizedState(psi, p_dep_cz**n_cz)


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
