import json

import pytest

from nlmagic.cli import main

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


def test_exit_0_when_all_flags_pass(capsys):
    code, out, _ = run(capsys, ["report", "fig4"])
    assert code == 0
    assert out.startswith("report: fig4")


def test_exit_1_on_error(capsys):
    code, out, err = run(capsys, ["rcm", "estimate"])
    assert code == 1
    assert out == ""
    assert "--scenario is required" in err


def test_exit_2_when_a_flag_fails(capsys):
    code, out, _ = run(capsys, ["report", "table1", "--p-dep", "0.8", "--n-rand", "50"])
    assert code == 2
    assert "FAIL" in out


def test_workers_flag_is_gone(scenario_path, capsys):
    with pytest.raises(SystemExit):
        main(["rcm", "estimate", "--scenario", str(scenario_path), "--workers", "2"])


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
