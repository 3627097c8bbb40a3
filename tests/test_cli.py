import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlmagic import (
    CalibrationMatrix,
    mitigate_least_squares,
    purity,
    qcore,
    reduced_purity,
    run_circuit,
    sre_exact,
    stabilizer_purity_exact,
    state_circuit,
)
from nlmagic import cli
from nlmagic.cli import build_parser, main

SCENARIO = {
    "version": 1,
    "name": "cli-test",
    "state": {"id": "m"},
    "noise": {"p_dep_cz": 0.95, "n_shot": 2000},
    "n_rand": 60,
    "seed": 3,
    "estimators": ["purity", "stab_purity", "sre", {"rdm_purity": {"keep": [0]}}],
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_exit_0_when_all_flags_pass(capsys):
    argv = ["rcm", "estimate", "--scenario", str(GOLDEN / "exhaustive_n3.scenario.json"), "--exhaustive"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.startswith("report: exhaustive-n3")
    assert "FAIL" not in out


def test_exit_1_on_error(capsys):
    code, out, err = run(capsys, ["rcm", "estimate"])
    assert code == 1
    assert out == ""
    assert "--scenario is required" in err


def test_exit_2_when_a_flag_fails(capsys):
    # At the calibrated survival the fig4 grid minimum is 0.2710, 0.019 off the 0.29 anchor.
    code, out, _ = run(capsys, ["report", "fig4"])
    assert code == 2
    assert [line.split("  ")[0] for line in out.splitlines() if line.endswith("FAIL")] == ["sweep minimum vs anchor"]


def test_exhaustive_over_six_qubits_exits_1_before_collecting(tmp_path, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "collect_rows", lambda *a: pytest.fail("exhaustive run collected"))
    monkeypatch.setattr(scenarios.Scenario, "prepare", lambda *a: pytest.fail("exhaustive run prepared"))
    gates = [{"kind": "H", "qubits": [q]} for q in range(7)]
    path = tmp_path / "n7.json"
    path.write_text(
        json.dumps({"version": 1, "name": "n7", "state": {"circuit": {"num_qubits": 7, "gates": gates}}})
    )
    code, out, err = run(capsys, ["rcm", "estimate", "--scenario", str(path), "--exhaustive"])
    assert code == 1
    assert out == ""
    assert "over 7 qubits needs 6^7 = 279,936 signed Pauli bases" in err
    assert "limited to 6 qubits" in err


def test_exhaustive_six_qubit_estimate_passes_every_flag(tmp_path, capsys):
    gates = [{"kind": "Rxy", "qubits": [q], "angles_deg": [20.0 + 15 * q, 7.0 * q]} for q in range(6)]
    gates += [{"kind": "T", "qubits": [q]} for q in range(6)]
    gates += [{"kind": "CZ", "qubits": [q, q + 1]} for q in range(5)]
    scenario = {
        "version": 1,
        "name": "n6",
        "state": {"circuit": {"num_qubits": 6, "gates": gates}},
        "noise": {"p_dep_cz": 0.97},
        "n_rand": 10,
        "estimators": ["purity", "stab_purity", "sre", {"rdm_purity": {"keep": [0, 5]}}],
    }
    path = tmp_path / "n6.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run(capsys, ["rcm", "estimate", "--scenario", str(path), "--exhaustive", "--format", "json"])
    report = json.loads(out)
    assert code == 0
    assert all(flag["passed"] for flag in report["flags"])
    # n_rand is ignored: one draw per signed basis.
    assert {v["n_samples"] for v in report["values"] if v["provenance"] == "estimate"} == {6**6}


def test_workers_flag_is_gone(scenario_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["rcm", "estimate", "--scenario", str(scenario_path), "--workers", "2"])
    assert exited.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "table1", "--scenario", "x.json"],
        ["report", "fig3", "--scenario", "x.json"],
        ["report", "fig4", "--scenario", "x.json"],
        ["mitigate", "--input", "x.json", "--scenario", "x.json"],
        ["mitigate", "--input", "x.json", "--seed", "5"],
        ["fit", "rb", "--input", "x.csv", "--scenario", "x.json"],
        ["fit", "rb", "--input", "x.csv", "--seed", "5"],
        ["report", "table1", "--format", "csv"],
        ["magic", "exact", "--format", "csv"],
        ["rcm", "estimate", "--format", "csv"],
        ["fit", "rb", "--input", "x.csv", "--format", "csv"],
    ],
    ids=[
        "table1-scenario",
        "fig3-scenario",
        "fig4-scenario",
        "mitigate-scenario",
        "mitigate-seed",
        "rb-scenario",
        "rb-seed",
        "table1-csv",
        "exact-csv",
        "estimate-csv",
        "rb-csv",
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: nlmagic") and "error:" in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["report", "fig4", "--help"])
    assert exited.value.code == 0
    assert "--scenario" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "table1", "--n-rand", "40"],
        ["report", "fig3", "--n-rand", "40"],
        ["rcm", "estimate"],
    ],
    ids=["table1", "fig3", "rcm-estimate"],
)
def test_json_output_parses(argv, scenario_path, tmp_path, capsys):
    if argv[0] == "rcm":
        argv = argv + ["--scenario", str(scenario_path)]
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--format", "json", "--out", str(out_dir)])
    assert code in (0, 2), err
    payload = json.loads(out)
    assert payload["flags"]
    assert all(isinstance(f["passed"], bool) for f in payload["flags"])
    assert json.loads((out_dir / f"{payload['name']}.json").read_text()) == payload


def test_table1_bytes_repeat_in_one_process(capsys):
    first = run(capsys, ["report", "table1", "--seed", "0"])
    second = run(capsys, ["report", "table1", "--seed", "0"])
    assert first[0] == 0
    assert first == second


def test_table1_prints_no_negative_zero(capsys):
    code, out, _ = run(capsys, ["report", "table1", "--seed", "0"])
    assert code == 0
    assert "-0.000000" not in out


CALIBRATION = [
    [0.9, 0.05, 0.04, 0.01],
    [0.05, 0.85, 0.01, 0.06],
    [0.04, 0.02, 0.88, 0.05],
    [0.01, 0.08, 0.07, 0.88],
]
READOUT = [[0.6, 0.3, 0.1, 0.0], [0.0, 0.02, 0.08, 0.9], [0.25, 0.25, 0.25, 0.25]]


@pytest.mark.parametrize("probabilities", [READOUT[0], READOUT], ids=["one-vector", "vectors"])
def test_mitigate_json(probabilities, tmp_path, capsys):
    path = tmp_path / "mitigate.json"
    path.write_text(json.dumps({"calibration": CALIBRATION, "probabilities": probabilities}))
    code, out, err = run(capsys, ["mitigate", "--input", str(path), "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    vectors = probabilities if isinstance(probabilities[0], list) else [probabilities]
    expected = mitigate_least_squares(np.array(vectors), CalibrationMatrix(np.array(CALIBRATION)))
    rows = payload["curves"]["mitigated"]["rows"]
    assert [row[0] for row in rows] == list(range(len(vectors)))
    np.testing.assert_array_equal([row[1:] for row in rows], expected)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"counts": [[90, 10], [4, 96]], "probabilities": [0.5, 0.5]}, "key n_shot must be a JSON integer, not null"),
        ([1, 2], "a mitigate input file must be a JSON object, not [1, 2]"),
        ({"probabilities": [0.5, 0.5]}, "key calibration must be a JSON array, not null"),
        (
            {"calibration": CALIBRATION, "probabilities": [[0.5], 0.5]},
            "key probabilities[1] must be a JSON array, not 0.5",
        ),
        (
            {"counts": [[90, 10], [4]], "n_shot": 100, "probabilities": [0.5, 0.5]},
            "key counts[1] has length 1, counts[0] has length 2",
        ),
        ({"calibration": CALIBRATION}, "key probabilities must be a JSON array, not null"),
        (
            {"calibration": [[1.0, float("nan")], [0.0, 1.0]], "probabilities": [0.5, 0.5]},
            "key calibration[0][1] must be a finite JSON number, not NaN",
        ),
        (
            {"calibration": CALIBRATION, "probabilities": [0.5, float("nan"), 0.25, 0.25]},
            "key probabilities[1] must be a finite JSON number, not NaN",
        ),
    ],
    ids=[
        "no-n_shot", "array", "no-calibration", "ragged-probabilities", "ragged-counts", "no-probabilities",
        "nan-calibration", "nan-probability",
    ],
)
def test_malformed_mitigate_input_is_a_clear_error(payload, message, tmp_path, capsys):
    path = tmp_path / "mitigate.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["mitigate", "--input", str(path)])
    assert code == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            ["magic", "exact", "--scenario"],
            {"version": 1, "state": {"circuit": {"num_qubits": 1, "gates": [
                {"kind": "Rx", "qubits": [0], "angles_deg": [10**400]}
            ]}}},
            "scenario key state.circuit.gates[0].angles_deg[0] must be a JSON number within float range, "
            "not a 401-digit integer",
        ),
        (
            ["magic", "exact", "--scenario"],
            {"version": 1, "state": {"id": "nlm", "params": {"theta_deg": 10**400}}},
            "scenario key state.params.theta_deg must be a JSON number within float range, not a 401-digit integer",
        ),
        (
            ["rcm", "estimate", "--scenario"],
            {"version": 1, "state": {"id": "m"}, "noise": {"readout": {"matrix": [
                [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 10**400, 1]
            ]}}},
            "scenario key noise.readout.matrix[3][2] must be a JSON number within float range, not a 401-digit integer",
        ),
        (
            ["mitigate", "--input"],
            {"calibration": [[1, 0], [0, 10**400]], "probabilities": [0.5, 0.5]},
            "mitigate input key calibration[1][1] must be a JSON number within float range, not a 401-digit integer",
        ),
        (
            ["mitigate", "--input"],
            {"calibration": [[1, 0], [0, 1]], "probabilities": [[0.5, 0.5], [-(10**400), 0.5]]},
            "mitigate input key probabilities[1][0] must be a JSON number within float range, not a 401-digit integer",
        ),
        (
            ["mitigate", "--input"],
            {"counts": [[90, 10], [4, 10**400]], "n_shot": 100, "probabilities": [0.5, 0.5]},
            "counts must each fit a 64-bit integer",
        ),
    ],
    ids=["angle", "param", "readout-matrix", "calibration", "probabilities", "counts"],
)
def test_integers_beyond_range_are_one_error_line(command, payload, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, [*command, str(path)]) == (1, "", f"error: {message}\n")


def test_rb_row_without_survival_is_a_clear_error(tmp_path, capsys):
    path = tmp_path / "rb.csv"
    path.write_text("length,survival\n1\n")
    code, _, err = run(capsys, ["fit", "rb", "--input", str(path)])
    assert code == 1
    assert err == "error: line 2 has no survival column: '1'\n"


def test_rb_survival_that_is_no_probability_is_a_clear_error(tmp_path, capsys):
    path = tmp_path / "rb.csv"
    path.write_text("length,survival\n1,0.9\n2,NaN\n3,0.7\n5,0.6\n")
    code, _, err = run(capsys, ["fit", "rb", "--input", str(path)])
    assert code == 1
    assert err == "error: survival probabilities must be finite and lie in [0, 1]\n"


@pytest.mark.parametrize(
    "gate, message",
    [
        ('{"kind": "Rx", "qubits": [0], "angles_deg": [Infinity]}', "angles_deg[0] must be a finite JSON number"),
        ('{"kind": "H", "qubits": [-1]}', "H qubit indices must be >= 0, not (-1,)"),
    ],
    ids=["infinite-angle", "negative-qubit"],
)
def test_bad_gates_in_a_scenario_are_clear_errors(gate, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"version": 1, "state": {"circuit": {"num_qubits": 3, "gates": [%s]}}}' % gate)
    code, out, err = run(capsys, ["magic", "exact", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and "Warning" not in err


def test_magic_exact_computes_one_pauli_spectrum(scenario_path, tmp_path, monkeypatch, capsys):
    fresh = run_circuit(state_circuit("m"), SCENARIO["noise"]["p_dep_cz"])
    expected = {"purity": purity(fresh), "stab_purity": stabilizer_purity_exact(fresh), "sre": sre_exact(fresh)}
    calls = []
    real = qcore.pure_pauli_spectrum
    monkeypatch.setattr(qcore, "pure_pauli_spectrum", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, ["magic", "exact", "--scenario", str(scenario_path), "--format", "json"])
    assert code == 0
    assert len(calls) == 1
    values = {v["name"]: v["value"] for v in json.loads(out)["values"]}
    assert values == {**expected, "rdm_purity[0]": reduced_purity(fresh, {0})}
    # The reduced purity of qubit 0 is printed at two qubits only.
    gates = [{"kind": "H", "qubits": [q]} for q in range(3)] + [{"kind": "CZ", "qubits": [0, 1]}]
    path = tmp_path / "n3.json"
    path.write_text(json.dumps({"version": 1, "state": {"circuit": {"num_qubits": 3, "gates": gates}}}))
    code, out, _ = run(capsys, ["magic", "exact", "--scenario", str(path), "--format", "json"])
    assert code == 0
    assert [v["name"] for v in json.loads(out)["values"]] == ["purity", "stab_purity", "sre"]


def test_estimators_and_oracles_are_read_from_their_modules_when_called(scenario_path, monkeypatch, capsys):
    # A tracer or a patch replaces the module attribute; a table of
    # functions captured at import would keep calling the originals.
    from nlmagic import rcm, scenarios

    calls = []
    for module, name in ((scenarios, "estimate_rows"), (rcm, "sre_exact")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert run(capsys, ["rcm", "estimate", "--scenario", str(scenario_path)])[0] == 0
    assert sorted(calls) == ["estimate_rows", "sre_exact"]
    calls.clear()
    assert run(capsys, ["magic", "exact", "--scenario", str(scenario_path)])[0] == 0
    assert calls == ["sre_exact"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["rcm", "estimate", "--scenario", "{negative}"], "scenario key seed"),
        (["rcm", "estimate", "--scenario", "{scenario}", "--seed", "-1"], "--seed"),
        (["report", "table1", "--seed", "-1"], "--seed"),
        (["report", "fig3", "--seed", "-1"], "--seed"),
        (["report", "fig4", "--seed", "-1"], "--seed"),
    ],
    ids=["scenario-file", "estimate-seed", "table1-seed", "fig3-seed", "fig4-seed"],
)
def test_negative_seed_is_a_named_error(argv, name, scenario_path, tmp_path, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "run_circuit", lambda *a: pytest.fail("prepared"))
    negative = tmp_path / "negative_seed.json"
    negative.write_text(json.dumps({**SCENARIO, "seed": -1}))
    argv = [a.format(negative=negative, scenario=scenario_path) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {name} must be >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "table1", "--p-dep", "1.5"],
        ["report", "table1", "--p-dep", "nan"],
        ["report", "fig3", "--p-dep", "0"],
        ["report", "fig3", "--p-dep", "-0.2"],
    ],
    ids=["table1-above-one", "table1-nan", "fig3-zero", "fig3-negative"],
)
def test_bad_p_dep_is_named_by_its_flag_before_sampling(argv, monkeypatch, capsys):
    # Every report runs at calibrate_p_dep(), so any --p-dep is a usage error.
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "collect_rows", lambda *a: pytest.fail("report sampled"))
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nlmagic")
    assert captured.err.endswith(f"error: unrecognized arguments: --p-dep {argv[-1]}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "table1", "--n-rand", "1"], "--n-rand must be >= 2, got 1"),
        (["report", "fig3", "--n-rand", "-3"], "--n-rand must be >= 2, got -3"),
        (["report", "fig3", "--n-shot", "0"], "--n-shot must be >= 1, got 0"),
        (["report", "table1", "--n-shot", "-1"], "--n-shot must be >= 1, got -1"),
    ],
    ids=["table1-n_rand", "fig3-n_rand", "fig3-n_shot", "table1-n_shot"],
)
def test_bad_draw_and_shot_counts_are_named_by_their_flag_before_sampling(argv, message, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios.Scenario, "prepare", lambda *a: pytest.fail("report prepared"))
    monkeypatch.setattr(scenarios, "collect_rows", lambda *a: pytest.fail("report sampled"))
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n_rand": 1}, "n_rand must be >= 2, got 1"),
        ({"noise": {"n_shot": 0}}, "noise.n_shot must be >= 1, got 0"),
        ({"noise": {"p_dep_cz": 1.5}}, "noise.p_dep_cz must lie in [0, 1], got 1.5"),
        ({"state": {}}, "state needs exactly one of id and circuit"),
        ({"estimators": []}, "estimators must be non-empty"),
        ({"estimators": [3]}, "estimators[0]: unknown estimator spec 3"),
        ({"mitigation": True}, "mitigation needs noise.readout"),
    ],
    ids=["n_rand", "n_shot", "p_dep", "no-state", "no-estimators", "number-spec", "mitigation"],
)
def test_out_of_range_scenario_fields_fail_when_the_scenario_is_loaded(changes, message, tmp_path, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios.Scenario, "prepare", lambda *a: pytest.fail("scenario prepared"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, **changes}))
    for command in (["magic", "exact"], ["rcm", "estimate"]):
        assert run(capsys, command + ["--scenario", str(path)]) == (1, "", f"error: scenario key {message}\n")


@pytest.mark.parametrize(
    "estimators, message",
    [
        (["purity", "bogus"], "scenario key estimators[1]: unknown estimator 'bogus'"),
        ([{"rdm_purity": {"keep": [5]}}], "scenario key estimators[0].rdm_purity.keep: qubit indices [5] out of range for 2 qubits"),
        (["sre", "sre"], "scenario key estimators[1]: estimator sre is listed twice"),
    ],
    ids=["unknown", "keep-out-of-range", "duplicate"],
)
def test_bad_estimator_lists_fail_when_the_scenario_is_loaded(estimators, message, tmp_path, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "collect_rows", lambda *a: pytest.fail("scenario sampled"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "estimators": estimators}))
    for command in (["magic", "exact"], ["rcm", "estimate"]):
        code, out, err = run(capsys, command + ["--scenario", str(path)])
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_readout_of_another_register_size_fails_when_the_scenario_is_loaded(tmp_path, monkeypatch, capsys):
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios.Scenario, "prepare", lambda *a: pytest.fail("scenario prepared"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "noise": {"readout": {"per_qubit_eps": [[0.01, 0.02]] * 3}}}))
    message = "error: scenario key noise.readout: the calibration is 8x8, but the 2-qubit register has 4 outcomes\n"
    for command in (["magic", "exact"], ["erase", "sweep"], ["rcm", "estimate"]):
        assert run(capsys, command + ["--scenario", str(path)]) == (1, "", message)


@pytest.mark.parametrize(
    "readout, message",
    [
        ({"per_qubit_eps": [[0.01, 0.02]] * 2, "correlation": 0.5}, "correlation: correlation must lie in [0, 0.1]"),
        ({"per_qubit_eps": [[0.6, 0.02]] * 2}, "per_qubit_eps: flip rates must lie in [0, 0.5]"),
        ({"matrix": [[0.5, 0.5], [0.4, 0.6]]}, "matrix: calibration matrix columns must each sum to 1"),
        ({"correlation": 0.09}, "correlation needs noise.readout.per_qubit_eps"),
    ],
    ids=["correlation", "flip-rate", "matrix", "correlation-alone"],
)
def test_bad_readout_blocks_are_named_by_their_key(readout, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "noise": {"readout": readout}}))
    expected = (1, "", f"error: scenario key noise.readout.{message}\n")
    assert run(capsys, ["magic", "exact", "--scenario", str(path)]) == expected
    assert run(capsys, ["rcm", "estimate", "--scenario", str(path)]) == expected


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (
            ["rcm", "estimate", "--scenario"],
            {
                "version": 1,
                "state": {"id": "m"},
                "noise": {"readout": {"per_qubit_eps": [[0.5, 0.5], [0.1, 0.1]]}, "n_shot": 1000},
                "n_rand": 10,
                "mitigation": True,
            },
            "error: the 4x4 calibration matrix is singular\n",
        ),
        (
            ["mitigate", "--input"],
            {"calibration": [[0.5, 0.5], [0.5, 0.5]], "probabilities": [0.6, 0.4]},
            "error: the 2x2 calibration matrix is singular\n",
        ),
    ],
    ids=["rcm-estimate", "mitigate"],
)
def test_a_singular_calibration_is_named_with_its_size(command, payload, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, command + [str(path)]) == (1, "", message)


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"counts": [[90, 10], [4, 96]], "n_shot": 100, "calibration": [[1, 0], [0, 1]], "probabilities": [1, 0]},
            "error: mitigate input keys counts and calibration are exclusive\n",
        ),
        (
            {"calibration": [[1, 0], [0, 1]], "probabilities": [0.5, 0.5], "probability": [0.5, 0.5], "calibraton": 1},
            "error: unknown mitigate input key calibraton, probability\n",
        ),
        (
            {"n_shot": 100, "calibration": [[1, 0], [0, 1]], "probabilities": [1, 0]},
            "error: mitigate input key n_shot needs counts\n",
        ),
    ],
    ids=["counts-and-calibration", "unknown-keys", "n_shot-with-calibration"],
)
def test_mitigate_input_takes_one_calibration_and_only_its_keys(payload, message, tmp_path, capsys):
    path = tmp_path / "mitigate.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, ["mitigate", "--input", str(path)]) == (1, "", message)


OUT = (("--out",), "out", None, Path, None, False)
FORMAT = (("--format",), "fmt", "text", None, ("json", "text"), False)
CURVE_FORMAT = (("--format",), "fmt", "text", None, ("json", "csv", "text"), False)
SCENARIO_OPTIONS = [
    (("--scenario",), "scenario", None, Path, None, False), (("--seed",), "seed", None, int, None, False), OUT
]
REPORT_OPTIONS = [(("--seed",), "seed", 0, int, None, False), OUT]
SAMPLING_OPTIONS = [
    (("--n-rand",), "n_rand", None, int, None, False),
    (("--n-shot",), "n_shot", None, int, None, False),
]
OPTIONS = {
    ("magic", "exact"): SCENARIO_OPTIONS + [FORMAT],
    ("rcm", "estimate"): SCENARIO_OPTIONS + [FORMAT, (("--exhaustive",), "exhaustive", False, None, None, False)],
    ("mitigate",): [OUT, CURVE_FORMAT, (("--input",), "input", None, Path, None, True)],
    ("erase", "sweep"): SCENARIO_OPTIONS + [CURVE_FORMAT, (("--step-deg",), "step_deg", 7.5, float, None, False)],
    ("fit", "rb"): [
        OUT, FORMAT, (("--input",), "input", None, Path, None, True), (("--dim",), "dim", 2, int, None, False)
    ],
    ("report", "table1"): REPORT_OPTIONS + [FORMAT] + SAMPLING_OPTIONS,
    ("report", "fig3"): REPORT_OPTIONS + [CURVE_FORMAT] + SAMPLING_OPTIONS,
    ("report", "fig4"): REPORT_OPTIONS + [CURVE_FORMAT],
}


def tree_leaf(words):
    """The full tree's subparser of the command ``words``."""
    parser = build_parser()
    for word in words:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[word]
    return parser


def test_each_command_takes_its_options_in_order():
    assert list(OPTIONS) == list(cli._COMMANDS)
    for words, expected in OPTIONS.items():
        actions = tree_leaf(words)._actions[1:]
        got = [(tuple(a.option_strings), a.dest, a.default, a.type, a.choices, a.required) for a in actions]
        assert got == expected, words


def test_parser_is_built_once_and_leaks_nothing_between_calls(scenario_path, capsys):
    assert build_parser() is build_parser()
    argv = ["magic", "exact", "--scenario", str(scenario_path)]
    code, out, _ = run(capsys, argv + ["--seed", "7", "--format", "json"])
    assert code == 0
    assert json.loads(out)["seed"] == 7
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.startswith(f"report: cli-test-exact (seed {SCENARIO['seed']})")
    for read in (lambda argv: cli._parse(argv)[1], build_parser().parse_args):
        assert vars(read(["magic", "exact", "--seed", "7"]))["seed"] == 7
        assert vars(read(["magic", "exact"])) == {
            "scenario": None, "seed": None, "out": None, "fmt": "text", "command": "magic", "action": "exact"
        }


def tree_and_leaf(argv, capsys):
    """``(exit code, stdout, stderr)`` of the full tree's ``parse_args`` and
    of ``main`` for ``argv``, each of which must exit."""
    results = []
    for parse in (build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exited:
            parse(argv)
        captured = capsys.readouterr()
        results.append((exited.value.code, captured.out, captured.err))
    return results


@pytest.mark.parametrize("words", list(cli._COMMANDS), ids=" ".join)
def test_each_command_parses_and_prints_as_the_full_tree_does(words, monkeypatch, capsys):
    argv = [*words, "--input", "x"] if words in (("mitigate",), ("fit", "rb")) else [*words, "--format", "json"]
    handler, args = cli._parse(argv)
    assert handler is cli._COMMANDS[words][0]
    assert vars(args) == vars(build_parser().parse_args(argv))
    monkeypatch.setenv("COLUMNS", "80")
    tree, leaf = tree_and_leaf([*words, "--help"], capsys)
    assert leaf == tree
    assert leaf[0] == 0 and leaf[1].startswith(f"usage: nlmagic {' '.join(words)} [-h]")
    for bad in (["--bogus"], ["--format", "xml"], ["stray"]):
        tree, leaf = tree_and_leaf([*words, *bad], capsys)
        assert leaf == tree
        assert leaf[0] == 1 and leaf[1] == "" and leaf[2].startswith("usage: nlmagic")


def test_a_well_formed_command_builds_no_parser(scenario_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(kw.get("prog")) or real_init(self, *a, **kw)
    )
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the full tree was built"))
    for _ in range(2):
        code, _, _ = run(capsys, ["magic", "exact", "--scenario", str(scenario_path)])
        assert code == 0
    assert built == []


def option_tokens(name: str) -> list:
    """Option ``name``'s flag and a value it takes that is not its default:
    its first choice, or a number or path its type reads."""
    flag, keywords = cli._OPTIONS[name]
    if keywords.get("action") == "store_true":
        return [flag]
    return [flag, keywords["choices"][0] if "choices" in keywords else {int: "7", float: "0.5", Path: "d/f"}[keywords["type"]]]


def outcome(read, argv, capsys):
    """What ``read`` makes of ``argv``: the namespace's dict, or the exit
    code, stdout and stderr when it exits."""
    try:
        return vars(read(argv))
    except SystemExit as exited:
        captured = capsys.readouterr()
        return exited.code, captured.out, captured.err


@pytest.mark.parametrize("words", list(cli._COMMANDS), ids=" ".join)
def test_every_well_formed_argv_reads_as_the_full_tree_reads_it(words, monkeypatch):
    # Every subset of the command's flags, in every order.
    tree = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the full tree was built"))
    names = cli._COMMANDS[words][1].split()
    required = {name for name in names if cli._OPTIONS[name][1].get("required")}
    read = 0
    for k in range(len(names) + 1):
        for chosen in itertools.permutations(names, k):
            if required <= set(chosen):
                argv = [*words, *(token for name in chosen for token in option_tokens(name))]
                handler, args = cli._parse(argv)
                assert handler is cli._COMMANDS[words][0]
                assert vars(args) == vars(tree.parse_args(argv)), argv
                read += 1
    assert read >= 2 ** (len(names) - len(required))


@pytest.mark.parametrize("words", list(cli._COMMANDS), ids=" ".join)
def test_every_declined_argv_is_read_by_the_full_tree(words, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    names = cli._COMMANDS[words][1].split()
    required = [name for name in names if cli._OPTIONS[name][1].get("required")]
    declined = [[*words]] if required else []
    for name in names:
        base = [*words, *(token for other in required if other != name for token in option_tokens(other))]
        flag, keywords = cli._OPTIONS[name]
        tokens = option_tokens(name)
        forms = [[flag[:-1], *tokens[1:]], tokens + tokens]  # an abbreviation, a repeated flag
        if len(tokens) == 2:
            forms += [[f"{flag}={tokens[1]}"], [flag, "-1"], [flag, "-x"], [flag]]
            if keywords.get("type") in (int, float):
                forms.append([flag, "x"])
            if "choices" in keywords:
                forms.append([flag, "xml"])
        declined += [base + form for form in forms]
    complete = [*words, *(token for name in required for token in option_tokens(name))]
    declined += [complete + ["-h"], complete + ["--"]]
    results = []
    for argv in declined:
        assert cli._read_argv(argv) is None, argv
        results.append(outcome(lambda argv: cli._parse(argv)[1], argv, capsys))
        assert results[-1] == outcome(build_parser().parse_args, argv, capsys), argv
    # argparse accepts some of these forms and exits on the others.
    assert {type(result) for result in results} == {dict, tuple}


TOP_USAGE = "usage: nlmagic [-h] {magic,rcm,mitigate,erase,fit,report} ...\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 1, "", TOP_USAGE + "nlmagic: error: the following arguments are required: command\n"),
        (["-h"], 0, TOP_USAGE, ""),
        (
            ["rcm"],
            1,
            "",
            "usage: nlmagic rcm [-h] {estimate} ...\n"
            "nlmagic rcm: error: the following arguments are required: action\n",
        ),
        (["bogus"], 1, "", TOP_USAGE + "nlmagic: error: argument command: invalid choice: 'bogus'"),
    ],
    ids=["none", "help", "incomplete", "unknown"],
)
def test_help_and_incomplete_commands_keep_their_messages(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == code
    assert captured.out.startswith(out) and captured.err.startswith(err)
    if argv == ["-h"]:
        for words, (_, _, helps) in cli._COMMANDS.items():
            assert f"    {words[0]:<20}{helps[0]}\n" in captured.out


def test_cli_and_erasure_optimizer_import_no_scipy():
    code = (
        "import sys\n"
        "import nlmagic.cli\n"
        "from nlmagic import optimize_erasure, run_circuit, state_circuit\n"
        "result = optimize_erasure(run_circuit(state_circuit('m')))\n"
        "assert result.evaluations == 1\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_register_too_large_for_memory_is_one_error_line(tmp_path):
    # The 22-qubit Pauli spectrum needs a 256 TiB array, more than the
    # x86-64 user address space, so the allocation fails at once.
    path = tmp_path / "n22.json"
    circuit = {"num_qubits": 22, "gates": [{"kind": "H", "qubits": [0]}]}
    path.write_text(json.dumps({"version": 1, "state": {"circuit": circuit}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "nlmagic.cli", "magic", "exact", "--scenario", str(path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: Unable to allocate 256. TiB ")
    assert done.stderr.count("\n") == 1
