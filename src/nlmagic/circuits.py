"""Gate set, circuit execution, the single-qubit Clifford group, and the
catalogue of named preparation circuits.

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

from .qcore import ATOL_STRUCT, PAULI_X, PAULI_Y, PAULI_Z, DepolarizedState, apply_to_axis

GATE_KINDS = frozenset(
    {"Rx", "Ry", "Rz", "Rxy", "H", "S", "T", "X", "Y", "Z", "CZ", "CNOT"}
)
_TWO_QUBIT = frozenset({"CZ", "CNOT"})
_N_ANGLES = {"Rx": 1, "Ry": 1, "Rz": 1, "Rxy": 2}

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        arity = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} needs {arity} distinct qubit indices")
        if min(self.qubits) < 0:
            raise ValueError(f"{self.kind} qubit indices must be >= 0, not {self.qubits}")
        if len(self.angles) != _N_ANGLES.get(self.kind, 0):
            raise ValueError(f"{self.kind} takes {_N_ANGLES.get(self.kind, 0)} angle(s)")
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


def rx_matrix(theta: float) -> np.ndarray:
    return rxy_matrix(theta, 0.0)


def ry_matrix(theta: float) -> np.ndarray:
    return rxy_matrix(theta, np.pi / 2)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def rxy_matrix(theta: float, phi: float) -> np.ndarray:
    """Rotation by theta about the equatorial axis cos(phi) X + sin(phi) Y."""
    axis = np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return c * np.eye(2) - 1j * s * axis


def gate_matrix(g: GateSpec) -> np.ndarray:
    """Unitary of the gate on its own qubits (2x2, or 4x4 for CZ/CNOT)."""
    if g.kind == "Rx":
        return rx_matrix(g.angles[0])
    if g.kind == "Ry":
        return ry_matrix(g.angles[0])
    if g.kind == "Rz":
        return rz_matrix(g.angles[0])
    if g.kind == "Rxy":
        return rxy_matrix(*g.angles)
    if g.kind == "H":
        return H_MATRIX.copy()
    if g.kind == "S":
        return rz_matrix(np.pi / 2)
    if g.kind == "T":
        return rz_matrix(np.pi / 4)
    if g.kind == "X":
        return PAULI_X.copy()
    if g.kind == "Y":
        return PAULI_Y.copy()
    if g.kind == "Z":
        return PAULI_Z.copy()
    if g.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if g.kind == "CNOT":
        ih = np.kron(np.eye(2), H_MATRIX)
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        return ih @ cz @ ih
    raise ValueError(f"unsupported gate kind {g.kind!r}")  # pragma: no cover


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


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """A single-qubit Clifford unitary, canonicalized modulo global phase."""

    matrix: np.ndarray
    canonical_id: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > ATOL_STRUCT:
            raise ValueError("Clifford element must be unitary within 1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rescale so the first entry (row-major) above 1e-10 in modulus is real
    positive."""
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-10))
    entry = flat[idx]
    return u * (entry.conj() / abs(entry))


@lru_cache(maxsize=1)
def single_qubit_clifford_group() -> tuple[CliffordElement, ...]:
    """The 24 single-qubit Cliffords, generated by closure over {H, S}.

    Elements are found breadth first starting from the identity, so ids are
    stable across runs; id 0 is the identity.
    """
    s_matrix = rz_matrix(np.pi / 2)
    generators = [H_MATRIX, s_matrix]
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
    return tuple(CliffordElement(m, i) for i, m in enumerate(elements))


# ---------------------------------------------------------------------------
# Named preparation circuits

# Each catalogue id with the parameters (radians) it accepts.
STATE_PARAMS = {
    "psi0": (),
    "psi1": ("phase",),
    "psi2": ("phase",),
    "psi3": ("phase0", "phase1"),
    "psi4": (),
    "lm": (),
    "lm_erased": (),
    "m": (),
    "m_erased": (),
    "nlm": ("theta",),
    "m_sweep": ("gamma", "phi"),
}

# Rz(3*pi/8) turns the pi/8 phase injected by the m-state circuit into the
# Clifford phase pi/2, which removes all of its locally erasable magic.
M_ERASE_ANGLE = 3 * np.pi / 8


def state_circuit(state_id: str, params: Optional[Mapping[str, float]] = None) -> Circuit:
    """Gate list for one of the named benchmark states.

    ``params`` uses radians and takes only the keys ``STATE_PARAMS`` lists
    for the id. ``psi1``/``psi2``/``psi3`` accept optional ``phase``
    (``phase0``/``phase1`` for psi3) appending an Rz; ``nlm`` requires
    ``theta``; ``m_sweep`` requires ``gamma`` and ``phi``.
    """
    params = dict(params or {})
    if state_id not in STATE_PARAMS:
        raise ValueError(f"unknown state id {state_id!r}")
    if unknown := sorted(set(params) - set(STATE_PARAMS[state_id])):
        accepted = ", ".join(STATE_PARAMS[state_id]) or "none"
        raise ValueError(f"state {state_id!r} takes no parameter {', '.join(unknown)} (it takes {accepted})")

    def phase_gate(qubit, key="phase"):
        if key in params:
            return [GateSpec("Rz", (qubit,), (params[key],))]
        return []

    if state_id == "psi0":
        return Circuit(1, ())
    if state_id == "psi1":
        return Circuit(1, tuple([GateSpec("H", (0,))] + phase_gate(0)))
    if state_id == "psi2":
        return Circuit(1, tuple([GateSpec("X", (0,)), GateSpec("H", (0,))] + phase_gate(0)))
    if state_id == "psi3":
        gates = [GateSpec("H", (0,)), GateSpec("H", (1,))]
        gates += phase_gate(0, "phase0") + phase_gate(1, "phase1")
        return Circuit(2, tuple(gates))
    if state_id == "psi4":
        return Circuit(2, (GateSpec("H", (0,)), GateSpec("CNOT", (0, 1))))

    if state_id in ("lm", "lm_erased"):
        gates = [
            GateSpec("H", (0,)),
            GateSpec("CNOT", (0, 1)),
            GateSpec("T", (0,)),
        ]
        if state_id == "lm_erased":
            gates.append(GateSpec("T", (0,)))
        return Circuit(2, tuple(gates))

    if state_id in ("m", "m_erased", "m_sweep"):
        gates = [
            GateSpec("Rx", (0,), (np.pi / 8,)),
            GateSpec("H", (1,)),
            GateSpec("CZ", (0, 1)),
            GateSpec("Rz", (1,), (np.pi / 8,)),
        ]
        if state_id == "m_erased":
            gates.append(GateSpec("Rz", (1,), (M_ERASE_ANGLE,)))
        if state_id == "m_sweep":
            if "gamma" not in params or "phi" not in params:
                raise ValueError("m_sweep requires 'gamma' and 'phi' angles")
            gates.append(GateSpec("Rz", (0,), (params["gamma"],)))
            gates.append(GateSpec("Rz", (1,), (params["phi"],)))
        return Circuit(2, tuple(gates))

    if state_id == "nlm":
        if "theta" not in params:
            raise ValueError("nlm requires a 'theta' angle")
        return Circuit(
            2, (GateSpec("Rx", (0,), (params["theta"],)), GateSpec("CNOT", (0, 1)))
        )

    raise ValueError(f"unknown state id {state_id!r}")  # pragma: no cover
