import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nlmagic import (
    Circuit,
    GateSpec,
    Scenario,
    calibrate_p_dep,
    measure,
    purity,
    report_fig3,
    report_table1,
    run_circuit,
    run_scenario,
    sample_local_cliffords,
    state_circuit,
    synth_calibration_matrix,
)
from nlmagic.rcm import signed_bases
from nlmagic.scenarios import _SCENARIO_FILE, _read

from helpers import itemwise_read

BASE = {"version": 1, "name": "s", "state": {"id": "m"}}
EPS = [[0.05, 0.08], [0.04, 0.07]]
# A readout matrix for the two qubits of BASE's state: flips on qubit 1 only.
MATRIX = [[0.9, 0.2, 0.0, 0.0], [0.1, 0.8, 0.0, 0.0], [0.0, 0.0, 0.9, 0.2], [0.0, 0.0, 0.1, 0.8]]


def load(**changes) -> Scenario:
    return Scenario.from_json(json.dumps({**BASE, **changes}))


# ---------------------------------------------------------------------------
# Scenario files


def test_from_json_converts_degrees_to_radians():
    scenario = load(state={"id": "nlm", "params": {"theta_deg": 30}})
    assert dict(scenario.state_params) == {"theta": pytest.approx(np.pi / 6, abs=1e-15)}
    assert scenario.build_circuit() == state_circuit("nlm", {"theta": np.deg2rad(30)})
    gates = [{"kind": "Rxy", "qubits": [0], "angles_deg": [90, 45]}, {"kind": "CZ", "qubits": [0, 1]}]
    circuit = load(state={"circuit": {"num_qubits": 2, "gates": gates}}).build_circuit()
    assert circuit.gates[0].angles == (np.pi / 2, np.pi / 4)
    assert circuit.gates[1].angles == ()


def test_equal_scenarios_hash_equal():
    params = {"gamma": 0.2, "phi": 0.1}
    scenario = Scenario("x", state_id="m_sweep", state_params=params, seed=3)
    same = Scenario("x", state_id="m_sweep", state_params=dict(reversed(params.items())), seed=3)
    assert scenario == same and hash(scenario) == hash(same)
    assert scenario.state_params == (("gamma", 0.2), ("phi", 0.1))
    assert hash(Scenario("x", state_id="m")) == hash(Scenario("x", state_id="m"))
    assert len({load(), load(), load(seed=1)}) == 2
    reseeded = dataclasses.replace(scenario, seed=4)
    assert reseeded.state_params == scenario.state_params
    assert reseeded == dataclasses.replace(same, seed=4) != scenario
    assert hash(reseeded) == hash(dataclasses.replace(same, seed=4))


def test_from_json_state_params_give_the_same_circuit_and_report():
    from_file = load(state={"id": "nlm", "params": {"theta_deg": 30}}, n_rand=20, noise={"n_shot": 200})
    direct = Scenario("s", state_id="nlm", state_params={"theta": np.deg2rad(30)}, n_rand=20, n_shot=200)
    assert from_file == direct and hash(from_file) == hash(direct)
    assert from_file.build_circuit() == direct.build_circuit() == state_circuit("nlm", {"theta": np.deg2rad(30)})
    assert run_scenario(from_file).to_json() == run_scenario(direct).to_json()


def test_from_json_builds_readout_from_flip_rates_or_matrix():
    scenario = load(noise={"readout": {"per_qubit_eps": EPS, "correlation": 0.02}})
    expected = synth_calibration_matrix([tuple(e) for e in EPS], 0.02)
    np.testing.assert_array_equal(scenario.readout.matrix, expected.matrix)
    explicit = load(noise={"readout": {"matrix": MATRIX}}).readout
    np.testing.assert_array_equal(explicit.matrix, MATRIX)
    assert load().readout is None


@pytest.mark.parametrize(
    "readout", [{"per_qubit_eps": EPS, "correlation": 0.02}, {"matrix": MATRIX}],
    ids=["per_qubit_eps", "matrix"],
)
def test_scenario_files_with_readout_compare_and_hash_equal(readout):
    first, second = load(noise={"readout": readout}), load(noise={"readout": readout})
    assert first.readout is not second.readout
    assert first == second and hash(first) == hash(second)
    assert len({first, second, load()}) == 2
    assert load(noise={"readout": {"per_qubit_eps": [[0.0, 0.0], [0.0, 0.0]]}}) != first


def test_from_json_sorts_reduced_purity_qubits():
    # Qubit 2 needs a three-qubit register: the keep is checked on construction.
    three_qubits = {"circuit": {"num_qubits": 3, "gates": []}}
    scenario = load(state=three_qubits, estimators=["sre", {"rdm_purity": {"keep": [2, 0]}}])
    assert scenario.estimators == ("sre", ("rdm_purity", (0, 2)))


def test_from_json_defaults():
    scenario = load()
    assert (scenario.p_dep_cz, scenario.n_shot, scenario.seed) == (1.0, None, 0)
    assert scenario.estimators == ("purity", "sre")
    assert not scenario.mitigation


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"version": 2}, "unsupported scenario version 2"),
        ({"estimators": [{"bogus": {}}]}, "unknown estimator spec"),
        ({"state": {"id": "m", "circuit": {"num_qubits": 1, "gates": []}}}, "exactly one"),
        ({"state": {}}, "exactly one"),
        ({"state": None}, "exactly one"),
        ({"state": {"id": "m", "params": {"theta_deg": 30}}}, r"^unknown scenario key state\.params\.theta_deg \(state 'm' takes none\)$"),
        ({"state": {"id": "psi1", "params": {"phase0": 0.1}}}, r"^unknown scenario key state\.params\.phase0 \(state 'psi1' takes phase\)$"),
        ({"state": {"id": "nlm", "params": {"theta": 0.5, "theta_deg": 30}}}, r"^scenario keys state\.params\.theta and state\.params\.theta_deg are exclusive$"),
        ({"state": {"id": "bogus"}}, "unknown state id 'bogus'"),
        ({"estimators": []}, r"^scenario key estimators must be non-empty$"),
        ({"estimators": [3]}, r"^scenario key estimators\[0\]: unknown estimator spec 3$"),
        ({"estimators": ["sre", {"foo": 1}]}, r"^scenario key estimators\[1\]: unknown estimator spec \{'foo': 1\}$"),
    ],
    ids=[
        "version", "estimator", "id-and-circuit", "neither", "no-state", "unknown-param",
        "unknown-radian-param", "param-in-radians-and-degrees", "unknown-id", "no-estimators", "number-spec",
        "object-spec",
    ],
)
def test_from_json_rejects_bad_scenarios(changes, message):
    with pytest.raises(ValueError, match=message):
        load(**changes)


GATES = [{"kind": "Rxy", "qubits": [0], "angles_deg": [90, 45]}, {"kind": "CZ", "qubits": [0, 1]}]


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"mitigaton": True, "n_rnd": 10}, "mitigaton, n_rnd"),
        ({"state": {"id": "m", "param": {}}}, "state.param"),
        ({"state": {"circuit": {"num_qubits": 2, "gates": [], "qubits": 2}}}, "state.circuit.qubits"),
        ({"state": {"circuit": {"num_qubits": 2, "gates": [GATES[0], {**GATES[1], "angle": 1}]}}}, r"state.circuit.gates\[1\].angle"),
        ({"noise": {"nshot": 100}}, "noise.nshot"),
        ({"noise": {"readout": {"per_qubit_eps": EPS, "corelation": 0.1}}}, "noise.readout.corelation"),
        ({"estimators": ["sre", {"rdm_purity": {"keep": [0]}, "sre": {}}]}, r"estimators\[1\].sre"),
        ({"estimators": [{"rdm_purity": {"keep": [0], "qubits": [1]}}]}, r"estimators\[0\].rdm_purity.qubits"),
    ],
    ids=["top", "state", "circuit", "gate", "noise", "readout", "estimator", "estimator-spec"],
)
def test_from_json_rejects_unknown_keys_naming_their_path(changes, key):
    with pytest.raises(ValueError, match=f"unknown scenario key {key}$"):
        load(**changes)


def test_a_scenario_file_must_be_a_json_object():
    with pytest.raises(ValueError, match=r"^a scenario file must be a JSON object, not \[\]$"):
        Scenario.from_json("[]")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n_rand": "400"}, 'n_rand must be a JSON integer, not "400"'),
        ({"n_rand": 1.5}, "n_rand must be a JSON integer, not 1.5"),
        ({"seed": True}, "seed must be a JSON integer, not true"),
        ({"noise": {"n_shot": 2.5}}, "noise.n_shot must be a JSON integer, not 2.5"),
        ({"state": "m"}, 'state must be a JSON object, not "m"'),
        ({"estimators": "sre"}, 'estimators must be a JSON array, not "sre"'),
        (
            {"state": {"circuit": {"num_qubits": 2, "gates": [{"kind": "CZ", "qubits": 0}]}}},
            r"state.circuit.gates\[0\].qubits must be a JSON array, not 0",
        ),
        (
            {"estimators": [{"rdm_purity": {"keep": [False]}}]},
            r"estimators\[0\].rdm_purity.keep\[0\] must be a JSON integer, not false",
        ),
        (
            {"noise": {"readout": {"matrix": [[1.0, 0.0], [0.0]]}}},
            r"noise.readout.matrix\[1\] has length 1, noise.readout.matrix\[0\] has length 2",
        ),
        (
            {"noise": {"readout": {"per_qubit_eps": [[0.01, 0.02], [0.01, 0.02, 0.03]]}}},
            r"noise.readout.per_qubit_eps\[1\] has length 3, not 2 \(eps01, eps10\)",
        ),
        (
            {"noise": {"readout": {"per_qubit_eps": [[0.01]]}}},
            r"noise.readout.per_qubit_eps\[0\] has length 1, not 2 \(eps01, eps10\)",
        ),
    ],
    ids=[
        "n_rand-string", "n_rand-float", "seed-bool", "n_shot-float", "state-string", "estimators-string",
        "qubits-int", "keep-bool", "readout-ragged", "eps-triple", "eps-single",
    ],
)
def test_wrong_json_types_are_named_errors(changes, message):
    with pytest.raises(ValueError, match=f"^scenario key {message}$"):
        load(**changes)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"version": 1, "state": {"circuit": {"num_qubits": 1, "gates": '
            '[{"kind": "Rx", "qubits": [0], "angles_deg": [Infinity]}]}}}',
            r"state.circuit.gates\[0\].angles_deg\[0\] must be a finite JSON number, not Infinity",
        ),
        ('{"version": 1, "state": {"id": "nlm", "params": {"theta_deg": -Infinity}}}', "state.params.theta_deg"),
        ('{"version": 1, "state": {"id": "m"}, "noise": {"p_dep_cz": NaN}}', "noise.p_dep_cz must be a finite JSON number, not NaN"),
        ('{"version": 1, "state": {"id": "m"}, "noise": {"readout": {"matrix": [[1, 0], [NaN, 1]]}}}', r"matrix\[1\]\[0\]"),
        ('{"version": 1, "state": {"id": "m"}, "noise": {"readout": {"per_qubit_eps": [[0.01, 1e400]]}}}', "Infinity"),
    ],
    ids=["angle-inf", "param-minus-inf", "p_dep-nan", "matrix-nan", "eps-overflow"],
)
def test_non_finite_numbers_are_named_errors(text, message):
    # Python's json reads NaN, Infinity and overflowing literals as floats.
    with pytest.raises(ValueError, match=f"^scenario key .*{message}"):
        Scenario.from_json(text)


def test_negative_qubit_index_in_a_scenario_is_an_error():
    gates = [{"kind": "H", "qubits": [-1]}]
    with pytest.raises(ValueError, match=r"H qubit indices must be >= 0, not \(-1,\)"):
        load(state={"circuit": {"num_qubits": 3, "gates": gates}})


def test_misspelt_scenario_no_longer_loads_with_defaults():
    text = json.dumps({**BASE, "noise": {"nshot": 100}, "mitigaton": True, "n_rnd": 10})
    with pytest.raises(ValueError, match="mitigaton, n_rnd"):
        Scenario.from_json(text)
    with pytest.raises(ValueError, match="noise.nshot"):
        Scenario.from_json(json.dumps({**BASE, "noise": {"nshot": 100}}))


def test_state_params_next_to_a_circuit_are_an_error():
    state = {"params": {"theta_deg": 30}, "circuit": {"num_qubits": 2, "gates": GATES}}
    with pytest.raises(ValueError, match="state.params apply to a catalogue id"):
        load(state=state)
    assert load(state={"circuit": {"num_qubits": 2, "gates": GATES}}).circuit.num_qubits == 2


@pytest.mark.parametrize(
    "extra, key",
    [({"per_qubit_eps": [[0.3, 0.3]]}, "per_qubit_eps"), ({"correlation": 0.02}, "correlation")],
    ids=["per_qubit_eps", "correlation"],
)
def test_readout_matrix_next_to_flip_rates_is_an_error(extra, key):
    readout = {"matrix": [[1.0, 0.0], [0.0, 1.0]], **extra}
    with pytest.raises(ValueError, match=rf"noise\.readout\.matrix and noise\.readout\.{key}"):
        load(noise={"readout": readout})


@pytest.mark.parametrize(
    "changes, fields, message",
    [
        ({"n_rand": 1}, {"n_rand": 1}, r"n_rand must be >= 2, got 1"),
        ({"noise": {"n_shot": 0}}, {"n_shot": 0}, r"noise\.n_shot must be >= 1, got 0"),
        ({"noise": {"p_dep_cz": 1.5}}, {"p_dep_cz": 1.5}, r"noise\.p_dep_cz must lie in \[0, 1\], got 1\.5"),
        ({"noise": {"p_dep_cz": -0.25}}, {"p_dep_cz": -0.25}, r"noise\.p_dep_cz must lie in \[0, 1\], got -0\.25"),
        (
            {"estimators": ["sre", {"rdm_purity": {"keep": [7]}}]},
            {"estimators": ("sre", ("rdm_purity", (7,)))},
            r"estimators\[1\]\.rdm_purity\.keep: qubit indices \[7\] out of range for 2 qubits",
        ),
    ],
    ids=["n_rand", "n_shot", "p_dep-above-one", "p_dep-negative", "keep"],
)
def test_fields_out_of_range_are_named_by_their_file_key_on_construction(changes, fields, message):
    for build in (lambda: load(**changes), lambda: Scenario("s", state_id="m", **fields)):
        with pytest.raises(ValueError, match=f"^scenario key {message}$"):
            build()


CIRCUIT = {"num_qubits": 2, "gates": GATES}


@pytest.mark.parametrize(
    "changes, same",
    [
        ({"noise": {"n_shot": None}}, {}),
        ({"noise": None}, {}),
        ({"noise": {"readout": None}}, {}),
        ({"state": {"id": None, "circuit": CIRCUIT}}, {"state": {"circuit": CIRCUIT}}),
    ],
    ids=["n_shot", "noise", "readout", "state-id"],
)
def test_null_where_a_file_may_write_it_reads_as_absent(changes, same):
    assert load(**changes) == load(**same)


def test_a_file_writing_every_optional_key_at_its_default_equals_one_omitting_them():
    written = {
        "version": 1,
        "name": "scenario",
        "state": {"id": "m", "params": {}},
        "noise": {"p_dep_cz": 1.0, "n_shot": None, "readout": None},
        "n_rand": 400,
        "seed": 0,
        "estimators": ["purity", "sre"],
        "mitigation": False,
    }
    written = Scenario.from_json(json.dumps(written))
    omitted = Scenario.from_json(json.dumps({"version": 1, "state": {"id": "m"}}))
    assert written == omitted == Scenario("scenario", state_id="m")
    assert hash(written) == hash(omitted)


@pytest.mark.parametrize(
    "readout, size",
    [({"per_qubit_eps": [[0.01, 0.02]] * 3}, "8x8"), ({"matrix": [[0.9, 0.2], [0.1, 0.8]]}, "2x2")],
    ids=["flip-rates", "matrix"],
)
def test_a_readout_of_another_register_size_fails_on_construction(readout, size):
    message = rf"^scenario key noise\.readout: the calibration is {size}, but the 2-qubit register has 4 outcomes$"
    with pytest.raises(ValueError, match=message):
        load(noise={"readout": readout})
    lam = synth_calibration_matrix([(0.01, 0.02)] * 3)
    with pytest.raises(ValueError, match=r"^scenario key noise\.readout: the calibration is 8x8"):
        Scenario("s", state_id="m", readout=lam)


def readout(**spec) -> dict:
    return {"noise": {"readout": spec}}


def circuit(num_qubits, *gates) -> dict:
    return {"state": {"circuit": {"num_qubits": num_qubits, "gates": list(gates)}}}


@pytest.mark.parametrize(
    "changes, message",
    [
        (readout(per_qubit_eps=EPS, correlation=0.5), r"readout\.correlation: correlation must lie in \[0, 0\.1\]$"),
        (readout(correlation=0.09), r"readout\.correlation needs noise\.readout\.per_qubit_eps$"),
        (readout(per_qubit_eps=[[0.05, 0.7], [0.0, 0.0]]), r"readout\.per_qubit_eps: flip rates must lie in"),
        (readout(per_qubit_eps=[]), r"readout\.per_qubit_eps: need at least one qubit$"),
        (readout(matrix=[[0.5, 0.5], [0.4, 0.6]]), r"readout\.matrix: calibration matrix columns must each sum to 1$"),
        (readout(matrix=[[1, 0, 0], [0, 1, 0]]), r"readout\.matrix: calibration matrix must be square$"),
        (circuit(0), r"circuit\.num_qubits: num_qubits must be >= 1$"),
        (circuit(2, GATES[1], {"kind": "Q", "qubits": [0]}), r"circuit\.gates\[1\]: unsupported gate kind 'Q'$"),
        (circuit(1, *GATES), r"circuit\.gates\[1\]: gate .* addresses qubit outside the register$"),
        (circuit(2, None), r"circuit\.gates\[0\]\.qubits must be a JSON array, not null$"),
    ],
    ids=[
        "correlation", "correlation-alone", "flip-rate", "no-qubit", "matrix-columns", "matrix-shape", "num_qubits", "gate-kind",
        "gate-qubit", "null-gate",
    ],
)
def test_readout_and_circuit_errors_name_their_file_key(changes, message):
    with pytest.raises(ValueError, match=f"^scenario key (noise|state)\\.{message}"):
        load(**changes)


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            circuit(3, GATES[0], GATES[1], {"kind": "CZ", "qubits": [0, True]}),
            "scenario key state.circuit.gates[2].qubits[1] must be a JSON integer, not true",
        ),
        (
            circuit(2, GATES[1], {"kind": "Rxy", "qubits": [0], "angles_deg": [45, "90"]}),
            'scenario key state.circuit.gates[1].angles_deg[1] must be a JSON number, not "90"',
        ),
        (
            circuit(2, GATES[1], {"kind": "Rxy", "qubits": [0], "angles_deg": [45.0, float("nan")]}),
            "scenario key state.circuit.gates[1].angles_deg[1] must be a finite JSON number, not NaN",
        ),
        (
            circuit(2, *GATES, GATES[1], {"kind": "H", "qubits": [1], "angle": 3}),
            "unknown scenario key state.circuit.gates[3].angle",
        ),
        (
            readout(matrix=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]]),
            "scenario key noise.readout.matrix[2] has length 3, noise.readout.matrix[0] has length 4",
        ),
    ],
    ids=["bool-qubit", "string-angle", "nan-angle", "unknown-gate-key", "ragged-matrix-row"],
)
def test_an_item_past_the_first_is_named_in_full(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(**changes)


def test_an_integer_is_a_number_while_float_can_round_it():
    largest = 2**1024 - 2**970 - 1  # float() rounds it down to the largest float
    assert float(largest) == float.fromhex("0x1.fffffffffffffp+1023")
    assert _read([1.5, largest, -largest], ["number"], "x", "scenario") == [1.5, largest, -largest]
    for value in (largest + 1, -largest - 1):
        with pytest.raises(OverflowError):
            float(value)
        message = "scenario key x[1] must be a JSON number within float range, not a 309-digit integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _read([1.5, value], ["number"], "x", "scenario")
    # An integer slot takes any integer.
    assert _read(largest + 1, "integer", "x", "scenario") == largest + 1


# A scenario file holding every key of the format, for the reader checks.
EVERY_KEY = {
    "version": 1,
    "name": "every-key",
    "state": {"id": "nlm", "params": {"theta_deg": 30}, "circuit": {"num_qubits": 2, "gates": GATES}},
    "noise": {"readout": {"matrix": MATRIX, "per_qubit_eps": EPS, "correlation": 0.0}, "p_dep_cz": 0.9, "n_shot": 10},
    "estimators": ["sre", {"rdm_purity": {"keep": [0]}}],
    "n_rand": 10,
    "seed": 3,
    "mitigation": True,
}
ODD_VALUES = [None, True, 0, -3, 2.5, 10**400, float("nan"), float("-inf"), "x", [], [1, 2.5], [[1]], {}, {"kind": "H"}]


def _places(value, path=()):
    """The path of every value inside a JSON value, its own first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _places(item, path + (key,))


def _outcome(read, value):
    try:
        return "read", read(value, _SCENARIO_FILE, "", "scenario")
    except ValueError as exc:
        return "error", str(exc)


def test_the_scenario_reader_gives_what_the_item_by_item_reader_gives():
    # _read passes a file that reads as itself without naming an item, and
    # reads any other item by item; either way the outcome is the same.
    variants = [EVERY_KEY, None, [], {**EVERY_KEY, "noise": None}]
    for path in list(_places(EVERY_KEY))[1:]:
        for odd in ODD_VALUES + ["absent"]:
            variant = copy.deepcopy(EVERY_KEY)
            parent = variant
            for key in path[:-1]:
                parent = parent[key]
            if odd != "absent":
                parent[path[-1]] = odd
            elif isinstance(parent, dict):
                del parent[path[-1]]
            variants.append(variant)
    outcomes = {"read": 0, "error": 0}
    for variant in variants:
        got = _outcome(_read, copy.deepcopy(variant))
        assert got == _outcome(itemwise_read, copy.deepcopy(variant)), variant
        outcomes[got[0]] += 1
    assert min(outcomes.values()) > 100


def brickwork(rng, num_qubits: int, layers: int) -> list:
    """Gate dicts of a random brickwork of every gate kind, angles in
    degrees; a quarter of the rotations write them as JSON integers."""
    gates = []
    for layer in range(layers):
        for q in range(num_qubits):
            kind = ("Rx", "Ry", "Rz", "Rxy")[rng.integers(4)]
            angles = rng.uniform(-360.0, 360.0, 2 if kind == "Rxy" else 1)
            angles = [int(a) for a in angles] if rng.random() < 0.25 else [float(a) for a in angles]
            gates.append({"kind": kind, "qubits": [q], "angles_deg": angles})
            if rng.random() < 0.5:
                gates.append({"kind": ("H", "S", "T", "X", "Y", "Z")[rng.integers(6)], "qubits": [q]})
        for q in range(layer % 2, num_qubits - 1, 2):
            gates.append({"kind": ("CZ", "CNOT")[rng.integers(2)], "qubits": [q, q + 1]})
    return gates


def scenario_field_by_field(payload: dict) -> Scenario:
    """The scenario of a circuit file, built from its fields with every
    angle converted by np.deg2rad."""
    spec = payload["state"]["circuit"]
    gates = [GateSpec(g["kind"], g["qubits"], [np.deg2rad(d) for d in g.get("angles_deg", ())]) for g in spec["gates"]]
    estimators = [("rdm_purity", tuple(sorted(e["rdm_purity"]["keep"]))) if isinstance(e, dict) else e for e in payload["estimators"]]
    return Scenario(
        payload["name"], circuit=Circuit(spec["num_qubits"], gates), p_dep_cz=payload["noise"]["p_dep_cz"],
        seed=payload["seed"], estimators=estimators,
    )


def angle_bits(scenario: Scenario) -> bytes:
    return np.array([a for g in scenario.build_circuit().gates for a in g.angles] + [v for _, v in scenario.state_params]).tobytes()


def test_circuit_files_load_as_their_scenario_built_field_by_field():
    rng = np.random.default_rng(11)
    golden = (Path(__file__).parent / "golden" / "exhaustive_n3.scenario.json").read_text()
    texts = [golden]
    for i in range(200):
        n = 1 + i % 6
        texts.append(json.dumps({
            "version": 1, "name": f"brickwork-{i}", "state": {"circuit": {"num_qubits": n, "gates": brickwork(rng, n, 3)}},
            "noise": {"p_dep_cz": float(rng.uniform(0.9, 1.0))}, "seed": int(rng.integers(0, 2**31)),
            "estimators": ["purity", "sre"] + [{"rdm_purity": {"keep": [n - 1, 0][: n - 1]}}] * (n > 1),
        }, indent=int(rng.integers(0, 2))))
    for text in texts:
        loaded, built = Scenario.from_json(text), scenario_field_by_field(json.loads(text))
        assert loaded == built and hash(loaded) == hash(built)
        assert angle_bits(loaded) == angle_bits(built)


def test_degree_parameters_load_as_np_deg2rad_gives_them():
    degrees = [30, 1.5, -400, 1e-7, 359.99999999999994, *np.random.default_rng(5).uniform(-720, 720, 200)]
    for theta_deg in degrees:
        loaded = load(state={"id": "nlm", "params": {"theta_deg": theta_deg}})
        built = Scenario("s", state_id="nlm", state_params={"theta": np.deg2rad(theta_deg)})
        assert loaded == built and hash(loaded) == hash(built)
        assert angle_bits(loaded) == angle_bits(built)


def test_mitigation_without_readout_is_an_error():
    with pytest.raises(ValueError, match=r"^scenario key mitigation needs noise\.readout$"):
        Scenario("s", state_id="m", mitigation=True)


# ---------------------------------------------------------------------------
# The shared measurement stage


def stage(scenarios, exhaustive=False) -> list:
    """``measure`` on the scenarios' prepared states, ids and seeds, with the
    first scenario's readout, shots, mitigation and estimators."""
    first = scenarios[0]
    n = first.build_circuit().num_qubits
    ids = [signed_bases(n) if exhaustive else sample_local_cliffords(n, s.n_rand, s.seed) for s in scenarios]
    states, seeds = [s.prepare() for s in scenarios], [s.seed for s in scenarios]
    return measure(states, np.stack(ids), seeds, first.readout, first.n_shot, first.mitigation, first.estimators)


def test_run_scenario_reports_the_stage_estimates_and_oracles():
    scenario = load(
        noise={"p_dep_cz": 0.95, "n_shot": 800, "readout": {"per_qubit_eps": EPS}},
        n_rand=40,
        seed=5,
        mitigation=True,
        estimators=["purity", "stab_purity", "sre", {"rdm_purity": {"keep": [1]}}],
    )
    results = stage([scenario])[0]
    assert list(results) == ["purity", "stab_purity", "sre", "rdm_purity[1]"]
    report = run_scenario(scenario)
    values = {(v.name, v.provenance): v for v in report.values}
    assert len(values) == len(report.values) == 2 * len(results)
    assert [f.name for f in report.flags] == [f"{label} vs oracle" for label in results]
    for (est, oracle), flag in zip(results.values(), report.flags):
        label = flag.name.removesuffix(" vs oracle")
        estimate = values[(label, "estimate")]
        assert (estimate.value, estimate.sampling_error) == (est.mean, est.sampling_error)
        assert values[(label, "oracle")].value == oracle
        assert (flag.value, flag.target) == (est.mean, oracle)


def test_stage_oracles_are_exact_values_of_the_prepared_state():
    scenario = Scenario("s", state_id="lm", p_dep_cz=0.9)
    results = stage([scenario], exhaustive=True)[0]
    for est, oracle in results.values():
        assert est.mean == pytest.approx(oracle, abs=1e-12)
    assert results["purity"][1] == pytest.approx(0.75 * 0.9**2 + 0.25, abs=1e-12)


def test_stage_mitigation_undoes_readout_on_exact_probabilities():
    lam = synth_calibration_matrix([tuple(e) for e in EPS])
    exact = Scenario("s", state_id="m", n_rand=50, seed=2)
    mitigated = Scenario("s", state_id="m", n_rand=50, seed=2, readout=lam, mitigation=True)
    for (a, _), (b, _) in zip(stage([exact])[0].values(), stage([mitigated])[0].values()):
        assert b.mean == pytest.approx(a.mean, abs=1e-9)


@pytest.mark.parametrize(
    "estimators, message",
    [(("purity", "bogus"), "unknown estimator 'bogus'"), (("sre", "sre"), "listed twice")],
    ids=["unknown", "duplicate"],
)
def test_stage_rejects_bad_estimator_lists(estimators, message):
    with pytest.raises(ValueError, match=message):
        run_scenario(Scenario("s", state_id="m", n_rand=10, estimators=estimators))


@pytest.mark.parametrize(
    "estimators, message",
    [
        (("purity", "bogus"), r"^scenario key estimators\[1\]: unknown estimator 'bogus'$"),
        (("sre", "purity", "sre"), r"^scenario key estimators\[2\]: estimator sre is listed twice$"),
        (
            (("rdm_purity", (0,)), ("rdm_purity", (0, 0))),
            r"^scenario key estimators\[1\]: estimator rdm_purity\[0\] is listed twice$",
        ),
        ((("rdm_purity", (5,)),), r"^scenario key estimators\[0\]\.rdm_purity\.keep: qubit indices \[5\] out of range for 2 qubits$"),
        (
            (("rdm_purity", (0, 1)),),
            r"^scenario key estimators\[0\]\.rdm_purity\.keep: keep must be a nonempty proper subset of the qubits$",
        ),
    ],
    ids=["unknown", "duplicate", "duplicate-keep", "keep-out-of-range", "keep-everything"],
)
def test_bad_estimator_lists_are_rejected_on_construction(estimators, message):
    with pytest.raises(ValueError, match=message):
        Scenario("s", state_id="m", estimators=estimators)
    specs = [e if isinstance(e, str) else {"rdm_purity": {"keep": list(e[1])}} for e in estimators]
    with pytest.raises(ValueError, match=message):
        load(estimators=specs)


# ---------------------------------------------------------------------------
# Report calibration


@pytest.mark.parametrize("state_id", ["lm", "lm_erased", "m", "m_erased"])
def test_calibrated_survival_puts_table1_states_on_the_purity_anchor(state_id):
    rho = run_circuit(state_circuit(state_id), calibrate_p_dep())
    assert abs(purity(rho) - 0.94) <= 1e-14


# ---------------------------------------------------------------------------
# Batches of scenarios


ALL_ESTIMATORS = ("purity", "stab_purity", "sre", ("rdm_purity", (1,)))
TWO_QUBIT_ROWS = [("m", ()), ("lm", ()), ("nlm", (("theta", 0.3),)), ("m_erased", ()), ("psi3", ())]


def three_qubit_circuit(rng) -> Circuit:
    gates = [GateSpec("Rxy", (q,), tuple(rng.uniform(0, 2 * np.pi, 2))) for q in range(3)]
    gates += [GateSpec("T", (q,)) for q in range(3)] + [GateSpec("CZ", (0, 1)), GateSpec("CZ", (1, 2))]
    return Circuit(3, tuple(gates))


def batch(num_qubits: int, **fields) -> list:
    """Scenarios with different states and seeds that share every batch term."""
    fields = {"p_dep_cz": 0.95, "estimators": ALL_ESTIMATORS, **fields}
    if num_qubits == 2:
        return [
            Scenario(f"row{i}", state_id=state_id, state_params=params, seed=3 + i, **fields)
            for i, (state_id, params) in enumerate(TWO_QUBIT_ROWS)
        ]
    rng = np.random.default_rng(11)
    return [Scenario(f"row{i}", circuit=three_qubit_circuit(rng), seed=40 + i, **fields) for i in range(4)]


@pytest.mark.parametrize("num_qubits", [2, 3])
@pytest.mark.parametrize(
    "fields, exhaustive",
    [
        ({"n_rand": 37, "n_shot": 500}, False),
        ({"n_rand": 41}, False),
        ({"n_rand": 30, "n_shot": 800, "mitigation": True}, False),
        ({}, True),
        ({"n_shot": 300}, True),
    ],
    ids=["shots", "exact", "readout-mitigated", "exhaustive", "exhaustive-shots"],
)
def test_a_batch_gives_each_scenario_the_results_of_a_batch_of_one(num_qubits, fields, exhaustive):
    if fields.get("mitigation"):
        fields = {**fields, "readout": synth_calibration_matrix([(0.05, 0.08)] * num_qubits, 0.02)}
    scenarios = batch(num_qubits, **fields)
    together = stage(scenarios, exhaustive)
    assert len(together) == len(scenarios)
    for scenario, results in zip(scenarios, together):
        alone = stage([scenario], exhaustive)[0]
        assert list(results) == list(alone)
        # Every EstimateWithError field and every oracle, exactly.
        assert results == alone
    assert together[0] != together[1]


M, LM = run_circuit(state_circuit("m")), run_circuit(state_circuit("lm"))
IDS = sample_local_cliffords(2, 10, 0)[None].repeat(2, axis=0)
ROW_COUNTS = "collect_rows needs at least one state, and one row of ids and one seed per state; "


@pytest.mark.parametrize(
    "change, message",
    [
        ({"states": [M, run_circuit(state_circuit("psi1"))]}, r"^every draw needs one Clifford id per qubit \(1\)$"),
        ({"ids": IDS[[0, 1, 1]]}, "^" + ROW_COUNTS + r"len\(states\) = 2, len\(ids\) = 3, len\(seeds\) = 2$"),
        ({"seeds": [0]}, "^" + ROW_COUNTS + r"len\(states\) = 2, len\(ids\) = 2, len\(seeds\) = 1$"),
        ({"readout": synth_calibration_matrix([EPS[0]])}, r"^readout calibration is 2x2, but the 2-qubit register has 4 outcomes$"),
        ({"n_shot": 0}, "^n_shot must be >= 1$"),
        ({"mitigation": True}, "^mitigation needs a readout calibration matrix$"),
        ({"estimators": ("purity", "bogus")}, "^unknown estimator 'bogus'$"),
        ({"estimators": ("sre", "sre")}, "^estimator sre is listed twice$"),
    ],
    ids=["qubits", "ids", "seeds", "readout", "n_shot", "mitigation", "estimators", "repeated-estimator"],
)
def test_a_mixed_batch_is_a_named_error(change, message):
    inputs = {
        "states": [M, LM], "ids": IDS, "seeds": [0, 1], "readout": None, "n_shot": None, "mitigation": False,
        "estimators": ("purity", "sre"), **change,
    }
    with pytest.raises(ValueError, match=message):
        measure(**inputs)


def test_an_exhaustive_batch_ignores_n_rand_and_an_empty_batch_is_an_error():
    first = Scenario("first", state_id="m", n_rand=10)
    other = dataclasses.replace(first, n_rand=20)
    assert run_scenario(first, exhaustive=True) == run_scenario(other, exhaustive=True)
    assert run_scenario(first) != run_scenario(other)
    message = "^" + ROW_COUNTS + r"len\(states\) = 0, len\(ids\) = 0, len\(seeds\) = 0$"
    with pytest.raises(ValueError, match=message):
        measure([], IDS[:0], [], None, None, False, ("purity",))


def test_sampled_reports_build_no_scenario(monkeypatch):
    monkeypatch.setattr(Scenario, "__post_init__", lambda self: pytest.fail("a Scenario was built"))
    assert report_table1().all_passed
    assert report_fig3().all_passed


@pytest.mark.parametrize("build", [report_table1, report_fig3], ids=["table1", "fig3"])
@pytest.mark.parametrize(
    "arguments, error, message",
    [
        ({"seed": -1}, ValueError, r"^seed must be >= 0, got -1$"),
        # The reports take no survival; they run at calibrate_p_dep().
        ({"p_dep": 1.5}, TypeError, r"^report_\w+\(\) got an unexpected keyword argument 'p_dep'$"),
        ({"p_dep": 0.0}, TypeError, r"^report_\w+\(\) got an unexpected keyword argument 'p_dep'$"),
        ({"p_dep": float("nan")}, TypeError, r"^report_\w+\(\) got an unexpected keyword argument 'p_dep'$"),
    ],
    ids=["negative-seed", "p_dep-above-one", "p_dep-zero", "p_dep-nan"],
)
def test_bad_report_arguments_are_named_before_any_row_is_prepared(build, arguments, error, message, monkeypatch):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "run_circuit", lambda *a: pytest.fail("a row was prepared"))
    with pytest.raises(error, match=message):
        build(**arguments)


@pytest.mark.parametrize(
    "build, row",
    [(report_fig3, r"nlm\(theta=5\)"), (report_table1, "lm")],
    ids=["fig3", "table1"],
)
def test_an_unreachable_sampled_reduced_purity_names_its_row_and_sample(build, row):
    message = rf"^row {row}: sampled rdm_purity\[0\] 2\.0 ± 0\.0: reduced purity 1\.0 outside attainable \[0\.5, "
    with pytest.raises(ValueError, match=message):
        build(n_shot=1, n_rand=2)
