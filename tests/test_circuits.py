import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import (
    Circuit,
    DepolarizedState,
    GateSpec,
    gate_matrix,
    purity,
    run_circuit,
    single_qubit_clifford_group,
    sre_exact,
    state_circuit,
)
from nlmagic.circuits import GATES, STATE_PARAMS, canonical_phase

from helpers import GATEWISE_MATRICES, density_matrix, gatewise_run_circuit, kron_run_circuit, loop_clifford_group


ALL_1Q = ["Rx", "Ry", "Rz", "Rxy", "H", "S", "T", "X", "Y", "Z"]


@pytest.mark.parametrize("kind", ALL_1Q + ["CZ", "CNOT"])
def test_gate_matrices_unitary(kind):
    if kind in ("CZ", "CNOT"):
        g = GateSpec(kind, (0, 1))
    elif kind == "Rxy":
        g = GateSpec(kind, (0,), (0.3, 1.1))
    elif kind in ("Rx", "Ry", "Rz"):
        g = GateSpec(kind, (0,), (0.7,))
    else:
        g = GateSpec(kind, (0,))
    u = gate_matrix(g)
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12


def test_cz_matrix():
    assert np.allclose(gate_matrix(GateSpec("CZ", (0, 1))), np.diag([1, 1, 1, -1]))


def test_t_gate_phases():
    t = gate_matrix(GateSpec("T", (0,)))
    assert np.allclose(t, np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)]))


def test_t_on_plus_magic():
    circ = Circuit(1, (GateSpec("H", (0,)), GateSpec("T", (0,))))
    rho = run_circuit(circ)
    assert sre_exact(rho) == pytest.approx(np.log2(4 / 3), abs=1e-12)


def test_cnot_is_its_decomposition():
    u = gate_matrix(GateSpec("CNOT", (0, 1)))
    ideal = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.allclose(canonical_phase(u), canonical_phase(ideal), atol=1e-12)


def test_rejects_unknown_gate():
    with pytest.raises(ValueError):
        GateSpec("Toffoli", (0, 1))


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("CZ", (0, 0))
    with pytest.raises(ValueError):
        GateSpec("Rx", (0,))
    with pytest.raises(ValueError):
        GateSpec("H", (0,), (0.1,))
    with pytest.raises(ValueError):
        Circuit(1, (GateSpec("H", (1,)),))


@pytest.mark.parametrize("angles", [(float("inf"),), (float("nan"),)])
def test_non_finite_angles_are_rejected(angles):
    # numpy would warn and hand NaN amplitudes on to the state.
    with pytest.raises(ValueError, match="Rx angles must be finite"):
        GateSpec("Rx", (0,), angles)


@pytest.mark.parametrize(
    "kind, qubits, angles, message",
    [
        # A bool would act on qubit 0 or 1, a float fail inside numpy, and a
        # numeric string pass as its number.
        ("H", (True,), (), "H qubit indices must be integers, not (True,)"),
        ("H", (0.0,), (), "H qubit indices must be integers, not (0.0,)"),
        ("CZ", (0, "1"), (), "CZ qubit indices must be integers, not (0, '1')"),
        ("Rx", (0,), ("1",), "Rx angles must be real numbers, not ('1',)"),
        ("Rxy", (0,), (0.5, False), "Rxy angles must be real numbers, not (0.5, False)"),
        ("Rz", (0,), (None,), "Rz angles must be real numbers, not (None,)"),
    ],
)
def test_non_integer_qubits_and_non_real_angles_are_rejected(kind, qubits, angles, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GateSpec(kind, qubits, angles)


@pytest.mark.parametrize("num_qubits", [2.0, True, "2", None])
def test_a_non_integer_register_size_is_rejected(num_qubits):
    with pytest.raises(ValueError, match=f"^num_qubits must be an integer, not {re.escape(repr(num_qubits))}$"):
        Circuit(num_qubits, (GateSpec("H", (0,)),))


def test_numpy_integers_and_reals_are_accepted():
    g = GateSpec("Rxy", (np.int64(1),), (np.float32(0.5), np.int16(2)))
    assert g.angles == (0.5, 2.0) and all(type(a) is float for a in g.angles)
    state = run_circuit(Circuit(np.int32(2), (g, GateSpec("CZ", (np.uint8(0), 1)))))
    plain = run_circuit(Circuit(2, (GateSpec("Rxy", (1,), (0.5, 2.0)), GateSpec("CZ", (0, 1)))))
    assert state.psi.tobytes() == plain.psi.tobytes()


@pytest.mark.parametrize("kind, qubits", [("H", (-2,)), ("CZ", (1, -1)), ("CNOT", (-1, 0))])
def test_negative_qubit_indices_are_rejected(kind, qubits):
    # Python would read -2 on three qubits as qubit 1.
    with pytest.raises(ValueError, match=rf"{kind} qubit indices must be >= 0, not \({qubits[0]}"):
        GateSpec(kind, qubits)


def test_run_circuit_preserves_purity_without_noise():
    rng = np.random.default_rng(3)
    kinds = ["H", "S", "T", "X"]
    for _ in range(10):
        gates = [GateSpec(rng.choice(kinds), (int(rng.integers(0, 2)),)) for _ in range(6)]
        gates.append(GateSpec("CZ", (0, 1)))
        rho = run_circuit(Circuit(2, tuple(gates)))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_attaches_to_each_cz():
    p = 0.96
    one = run_circuit(state_circuit("lm"), p)
    assert purity(one) == pytest.approx(0.75 * p**2 + 0.25, abs=1e-12)
    two_cz = Circuit(
        2, (GateSpec("H", (0,)), GateSpec("CNOT", (0, 1)), GateSpec("CZ", (0, 1)))
    )
    rho = run_circuit(two_cz, p)
    assert purity(rho) == pytest.approx(0.75 * p**4 + 0.25, abs=1e-12)


@pytest.mark.parametrize("p_dep_cz", [-0.01, 1.01, float("nan")])
def test_run_circuit_rejects_survival_outside_unit_interval(p_dep_cz):
    # Checked up front, so a circuit without any CZ rejects it too.
    with pytest.raises(ValueError, match=r"p_dep_cz must lie in \[0, 1\]"):
        run_circuit(state_circuit("psi1"), p_dep_cz)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 5))
    kinds = ALL_1Q + (["CZ", "CNOT"] if n > 1 else [])
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        if kind in ("CZ", "CNOT"):
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        k = GATES[kind][1]
        gates.append(GateSpec(kind, qubits, draw(st.lists(angle, min_size=k, max_size=k))))
    return Circuit(n, tuple(gates))


def _pure_state_vector(circuit):
    """|psi> of the noise-free circuit, each gate's 2x2 or 4x4 matrix
    contracted with the state vector (CNOT applied whole)."""
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.gates:
        k = len(g.qubits)
        u = gate_matrix(g).reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(g.qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(g.qubits))
    return psi.ravel()


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.floats(0.0, 1.0))
def test_run_circuit_matches_kronecker_reference(circuit, p):
    got = density_matrix(run_circuit(circuit, p))
    assert np.max(np.abs(got - kron_run_circuit(circuit, p))) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(random_circuits(), st.floats(0.0, 1.0))
def test_noisy_circuit_is_depolarized_pure_state(circuit, p):
    # Global depolarizing commutes with every unitary, so k CZs (a CNOT
    # holds one) give p^k |psi><psi| + (1 - p^k) I/d.
    k = sum(g.kind in ("CZ", "CNOT") for g in circuit.gates)
    psi = _pure_state_vector(circuit)
    d = psi.size
    closed = p**k * np.outer(psi, psi.conj()) + (1.0 - p**k) * np.eye(d) / d
    state = run_circuit(circuit, p)
    assert state.survival == p**k
    assert np.max(np.abs(density_matrix(state) - closed)) <= 1e-14


def _random_circuit(rng, n: int) -> Circuit:
    """Up to 24 gates of every kind that fits n qubits, angles in radians
    over several scales."""
    kinds = list(GATES) if n > 1 else ALL_1Q
    gates = []
    for _ in range(rng.integers(0, 25)):
        kind = kinds[rng.integers(len(kinds))]
        arity, n_angles, _ = GATES[kind]
        angles = rng.uniform(-4 * np.pi, 4 * np.pi, n_angles) * rng.choice([1e-3, 1.0, 1e2], n_angles)
        gates.append(GateSpec(kind, tuple(int(q) for q in rng.permutation(n)[:arity]), [float(a) for a in angles]))
    return Circuit(n, tuple(gates))


def test_run_circuit_is_bitwise_the_gatewise_reference():
    # Each rotation kind is evaluated once per circuit, and a CNOT is applied
    # in place; the amplitudes must keep every bit of the gate-by-gate path.
    rng = np.random.default_rng(26)
    kinds = set()
    for trial in range(1200):
        circuit = _random_circuit(rng, 1 + trial % 6)
        p = float(rng.uniform())
        state, reference = run_circuit(circuit, p), gatewise_run_circuit(circuit, p)
        assert state.psi.tobytes() == reference.psi.tobytes(), circuit
        assert state.survival == reference.survival
        kinds.update(g.kind for g in circuit.gates)
    assert kinds == set(GATES)


@pytest.mark.parametrize("kind", list(GATES))
def test_gate_matrix_is_bitwise_the_gatewise_reference_in_a_fresh_array(kind):
    rng = np.random.default_rng(list(GATES).index(kind))
    arity, n_angles, _ = GATES[kind]
    for _ in range(300 if n_angles else 1):
        angles = [float(a) for a in rng.uniform(-720, 720, n_angles) * rng.choice([1e-4, 1.0], n_angles)]
        g = GateSpec(kind, tuple(range(arity)), angles)
        u, want = gate_matrix(g), GATEWISE_MATRICES[kind](*g.angles)
        assert u.dtype == want.dtype and u.shape == want.shape and u.tobytes() == want.tobytes()
        assert u.flags.writeable
        u[...] = 0
        assert gate_matrix(g).tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [1, 3, 9, 15])
def test_rotation_stacks_are_bitwise_their_gates(length):
    theta, phi = np.random.default_rng(length).uniform(-4 * np.pi, 4 * np.pi, (2, length))
    for kind, args in (("Rx", (theta,)), ("Ry", (theta,)), ("Rz", (theta,)), ("Rxy", (theta, phi))):
        stack = GATES[kind][2](*args)
        assert stack.shape == (length, 2, 2)
        for i in range(length):
            assert stack[i].tobytes() == GATEWISE_MATRICES[kind](*(float(a[i]) for a in args)).tobytes()


def test_fixed_gates_are_read_only_constants():
    for kind, (_, n_angles, u) in GATES.items():
        if not n_angles:
            assert not u.flags.writeable, kind
            assert u.tobytes() == GATEWISE_MATRICES[kind]().tobytes(), kind


CATALOGUE = [(sid, None) for sid in sorted(set(STATE_PARAMS) - {"nlm", "m_sweep"})]
CATALOGUE += [("nlm", {"theta": t}) for t in np.deg2rad(np.arange(0, 181, 5))]
CATALOGUE += [
    ("m_sweep", {"gamma": g, "phi": f}) for g in np.linspace(0, 2 * np.pi, 9) for f in np.linspace(0, 2 * np.pi, 9)
]


@pytest.mark.parametrize("p", [1.0, 0.959, 0.9592, 0.949, 0.5])
def test_catalogue_states_equal_kronecker_reference_within_two_eps(p):
    # The largest deviation measured over the catalogue is 1 eps (2.2e-16);
    # the bound leaves one more ulp.
    for state_id, params in CATALOGUE:
        circuit = state_circuit(state_id, params)
        got, want = density_matrix(run_circuit(circuit, p)), kron_run_circuit(circuit, p)
        assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps, (state_id, params)


def test_clifford_group_equals_loop_closure():
    group = single_qubit_clifford_group()
    reference = loop_clifford_group()
    assert len(group) == len(reference)
    for elem, want in zip(group, reference):
        assert np.array_equal(elem, want)
        assert not elem.flags.writeable


def test_clifford_group_order_and_identity():
    group = single_qubit_clifford_group()
    assert len(group) == 24
    assert np.allclose(group[0], np.eye(2))


def test_clifford_group_distinct_and_closed():
    group = single_qubit_clifford_group()
    mats = list(group)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            prod = canonical_phase(a @ b)
            hits = sum(np.allclose(prod, m, atol=1e-9) for m in mats)
            assert hits == 1, f"product {i},{j} matched {hits} elements"


def test_clifford_invariance_on_stabilizer_states():
    zero = run_circuit(Circuit(1, ()))
    for elem in single_qubit_clifford_group():
        assert sre_exact(DepolarizedState(elem @ zero.psi)) < 1e-10


# ---------------------------------------------------------------------------
# state catalogue


def _state_vector(state_id, params=None):
    return run_circuit(state_circuit(state_id, params)).psi


def test_lm_state_amplitudes():
    vec = _state_vector("lm")
    vec = vec * np.exp(-1j * np.angle(vec[0]))
    want = np.array([1, 0, 0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    assert np.allclose(vec, want, atol=1e-10)


def test_lm_erased_is_stabilizer():
    rho = run_circuit(state_circuit("lm_erased"))
    assert sre_exact(rho) < 1e-10


def test_m_state_amplitudes():
    # 2^(-3/2) [c+ (|00> + e^{i pi/8}|01>) - i c- (|10> - e^{i pi/8}|11>)]
    # with c_pm = sqrt(2 pm sqrt(2 + sqrt(2))); the entangling gate flips the
    # sign of the last component relative to a bare product of the factors.
    cp = np.sqrt(2 + np.sqrt(2 + np.sqrt(2)))
    cm = np.sqrt(2 - np.sqrt(2 + np.sqrt(2)))
    ph = np.exp(1j * np.pi / 8)
    want = np.array([cp, ph * cp, -1j * cm, 1j * ph * cm]) / (2 * np.sqrt(2))
    assert np.linalg.norm(want) == pytest.approx(1.0, abs=1e-12)
    assert cp**2 + cm**2 == pytest.approx(4.0, abs=1e-12)
    vec = _state_vector("m")
    vec = vec * np.exp(-1j * np.angle(vec[0]))
    assert np.allclose(vec, want, atol=1e-10)


def test_m_state_ideal_magic():
    rho = run_circuit(state_circuit("m"))
    assert sre_exact(rho) == pytest.approx(2 - np.log2(3.0625), abs=1e-10)


def test_nlm_state_vector():
    theta = 0.7
    vec = _state_vector("nlm", {"theta": theta})
    vec = vec * np.exp(-1j * np.angle(vec[0]))
    want = np.array([np.cos(theta / 2), 0, 0, -1j * np.sin(theta / 2)])
    assert np.allclose(vec, want, atol=1e-10)


def test_nlm_bell_point_has_no_magic():
    rho = run_circuit(state_circuit("nlm", {"theta": np.pi / 2}))
    assert sre_exact(rho) < 1e-10


def test_psi_catalogue_magic_values():
    assert sre_exact(run_circuit(state_circuit("psi0"))) < 1e-12
    assert sre_exact(run_circuit(state_circuit("psi1"))) < 1e-12
    t_plus = run_circuit(state_circuit("psi1", {"phase": np.pi / 4}))
    assert sre_exact(t_plus) == pytest.approx(np.log2(4 / 3), abs=1e-12)
    assert sre_exact(run_circuit(state_circuit("psi2"))) < 1e-12
    both_t = run_circuit(
        state_circuit("psi3", {"phase0": np.pi / 4, "phase1": np.pi / 4})
    )
    assert sre_exact(both_t) == pytest.approx(2 * np.log2(4 / 3), abs=1e-12)
    assert sre_exact(run_circuit(state_circuit("psi4"))) < 1e-10


_M = [("Rx", (0,), (np.pi / 8,)), ("H", (1,), ()), ("CZ", (0, 1), ()), ("Rz", (1,), (np.pi / 8,))]

# Every catalogue id's (num_qubits, [(kind, qubits, angles)]), written out
# by hand: the Kronecker comparisons run the same circuit twice, so only this
# catches a wrong entry in ``STATES``.
CATALOGUE_GATES = [
    ("psi0", None, 1, []),
    ("psi1", None, 1, [("H", (0,), ())]),
    ("psi1", {"phase": 0.25}, 1, [("H", (0,), ()), ("Rz", (0,), (0.25,))]),
    ("psi2", None, 1, [("X", (0,), ()), ("H", (0,), ())]),
    ("psi2", {"phase": 0.25}, 1, [("X", (0,), ()), ("H", (0,), ()), ("Rz", (0,), (0.25,))]),
    ("psi3", None, 2, [("H", (0,), ()), ("H", (1,), ())]),
    ("psi3", {"phase0": 0.25}, 2, [("H", (0,), ()), ("H", (1,), ()), ("Rz", (0,), (0.25,))]),
    ("psi3", {"phase1": 0.5}, 2, [("H", (0,), ()), ("H", (1,), ()), ("Rz", (1,), (0.5,))]),
    (
        "psi3",
        {"phase1": 0.5, "phase0": 0.25},
        2,
        [("H", (0,), ()), ("H", (1,), ()), ("Rz", (0,), (0.25,)), ("Rz", (1,), (0.5,))],
    ),
    ("psi4", None, 2, [("H", (0,), ()), ("CNOT", (0, 1), ())]),
    ("lm", None, 2, [("H", (0,), ()), ("CNOT", (0, 1), ()), ("T", (0,), ())]),
    ("lm_erased", None, 2, [("H", (0,), ()), ("CNOT", (0, 1), ()), ("T", (0,), ()), ("T", (0,), ())]),
    ("m", None, 2, _M),
    ("m_erased", None, 2, _M + [("Rz", (1,), (3 * np.pi / 8,))]),
    ("nlm", {"theta": 0.75}, 2, [("Rx", (0,), (0.75,)), ("CNOT", (0, 1), ())]),
    ("m_sweep", {"phi": 0.5, "gamma": 0.25}, 2, _M + [("Rz", (0,), (0.25,)), ("Rz", (1,), (0.5,))]),
]


@pytest.mark.parametrize("state_id, params, num_qubits, gates", CATALOGUE_GATES)
def test_catalogue_gate_lists_are_pinned(state_id, params, num_qubits, gates):
    circuit = state_circuit(state_id, params)
    assert circuit.num_qubits == num_qubits
    assert [(g.kind, g.qubits, g.angles) for g in circuit.gates] == gates


def test_catalogue_parameters_are_listed_in_gate_order():
    assert {sid for sid, *_ in CATALOGUE_GATES} == set(STATE_PARAMS)
    assert STATE_PARAMS == {
        "psi0": (), "psi1": ("phase",), "psi2": ("phase",), "psi3": ("phase0", "phase1"), "psi4": (),
        "lm": (), "lm_erased": (), "m": (), "m_erased": (), "nlm": ("theta",), "m_sweep": ("gamma", "phi"),
    }  # fmt: skip


@pytest.mark.parametrize(
    "state_id, params, missing, accepted",
    [
        ("nlm", None, "theta", "theta"),
        ("m_sweep", {"gamma": 0.1}, "phi", "gamma, phi"),
        ("m_sweep", {"phi": 0.1}, "gamma", "gamma, phi"),
        ("m_sweep", None, "gamma, phi", "gamma, phi"),
    ],
)
def test_missing_state_parameters_are_named_errors(state_id, params, missing, accepted):
    with pytest.raises(ValueError, match=rf"^state '{state_id}' needs parameter {missing} \(it takes {accepted}\)$"):
        state_circuit(state_id, params)


def test_state_circuit_errors():
    with pytest.raises(ValueError):
        state_circuit("nope")
    with pytest.raises(ValueError):
        state_circuit("nlm")
    with pytest.raises(ValueError):
        state_circuit("m_sweep", {"gamma": 0.1})


@pytest.mark.parametrize(
    "state_id, params, key, accepted",
    [
        ("m", {"theta": 0.5}, "theta", "none"),
        ("psi3", {"phase": 0.1}, "phase", "phase0, phase1"),
        ("nlm", {"theta": 0.1, "gamma": 0.2}, "gamma", "theta"),
    ],
)
def test_unknown_state_parameters_are_named_errors(state_id, params, key, accepted):
    with pytest.raises(ValueError, match=rf"^state '{state_id}' takes no parameter {key} \(it takes {accepted}\)$"):
        state_circuit(state_id, params)


def test_m_sweep_appends_rotations():
    base = state_circuit("m")
    swept = state_circuit("m_sweep", {"gamma": 0.3, "phi": 0.4})
    assert len(swept.gates) == len(base.gates) + 2
    assert swept.gates[-2].angles == (0.3,)
    assert swept.gates[-1].angles == (0.4,)
