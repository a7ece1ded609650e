import json

import pytest
from click.testing import CliRunner

from ris_crn import experiments
from ris_crn.cli import main
from ris_crn.scenario import apply_overrides, paper_default, scenario_to_dict


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def iid_scenario_file(tmp_path):
    doc = scenario_to_dict(paper_default())
    doc["channel"]["iid_mode"] = True
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_emits_design_json(runner, iid_scenario_file):
    result = runner.invoke(main, ["solve", "--scenario", iid_scenario_file,
                                  "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert set(doc) == {"se_bps_hz", "se_trace", "outer_iterations", "w_s",
                        "phases_rad", "tilt", "feasibility"}
    assert doc["feasibility"]["feasible"] is True
    assert len(doc["w_s"]) == 2
    assert all(len(pair) == 2 for pair in doc["w_s"])
    assert len(doc["phases_rad"]) == 20
    assert doc["se_trace"][-1] == doc["se_bps_hz"]
    assert doc["tilt"]["theta_tilt_deg"] == -30.0


def test_solve_fixed_tilt(runner, iid_scenario_file):
    result = runner.invoke(main, ["solve", "--scenario", iid_scenario_file,
                                  "--seed", "3", "--tilt", "-75"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["tilt"]["theta_tilt_deg"] == -75.0
    assert doc["tilt"]["branch"] == "fixed"


@pytest.mark.parametrize("tilt", ["30", "nan"])
def test_solve_rejects_tilt_outside_range(runner, tilt):
    result = runner.invoke(main, ["solve", "--seed", "0", "--tilt", tilt])
    assert result.exit_code == 2
    assert "--tilt" in result.output
    assert "[-180, 0]" in result.output
    assert "Traceback" not in result.output


def test_sweep_writes_csv(runner, iid_scenario_file, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "power", "grid": [0.0], "trials": 1,
                                "base_seed": 0,
                                "methods": ["random_phase"]}))
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "--spec", str(spec),
                                  "--scenario", iid_scenario_file,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("sweep_kind,grid_value,method")
    assert len(lines) == 2


def test_sweep_seed_flag_overrides_base_seed(runner, iid_scenario_file,
                                             tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "power", "grid": [0.0], "trials": 1,
                                "base_seed": 0,
                                "methods": ["random_phase"]}))
    outs = []
    for seed in ("5", "5", "6"):
        out = tmp_path / f"out{len(outs)}.csv"
        result = runner.invoke(main, ["sweep", "--spec", str(spec),
                                      "--scenario", iid_scenario_file,
                                      "--out", str(out), "--seed", seed])
        assert result.exit_code == 0, result.output
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_invalid_log_level_rejected(runner, monkeypatch):
    monkeypatch.setenv("RIS_CRN_LOG", "chatty")
    result = runner.invoke(main, ["solve", "--seed", "0"])
    assert result.exit_code != 0
    assert "RIS_CRN_LOG" in result.output


def _spec_doc(**changes):
    return {"kind": "power", "grid": [0.0], "trials": 1, "base_seed": 0,
            "methods": ["random_phase"], **changes}


@pytest.mark.parametrize("option,text,message", [
    pytest.param("--scenario", "[]", "must be a JSON object",
                 id="scenario-list"),
    pytest.param("--scenario",
                 json.dumps({**scenario_to_dict(paper_default()),
                             "gamma_w": "1"}),
                 "gamma_w must be a number", id="scenario-string-number"),
    pytest.param("--scenario", "{", "Expecting property name",
                 id="scenario-not-json"),
    pytest.param("--spec", json.dumps(_spec_doc(trials=0)),
                 "trials must be >= 1", id="spec-zero-trials"),
    pytest.param("--spec", json.dumps([_spec_doc()]),
                 "must be a JSON object", id="spec-list"),
    pytest.param("--spec", json.dumps(_spec_doc(overrides={"n_s": 0})),
                 "n_s must be >= 1", id="spec-overrides-bad-scenario"),
    pytest.param("--spec", json.dumps(_spec_doc(grid=[4000])),
                 "p_max_dbw must give a finite power",
                 id="spec-grid-bad-scenario"),
    pytest.param("--scenario", b'{"n_s": "\xff"}', "can't decode byte 0xff",
                 id="scenario-not-utf8"),
    pytest.param("--spec", b'{"kind": "\xe9"}', "can't decode byte 0xe9",
                 id="spec-not-utf8")])
def test_bad_input_document_is_usage_error(runner, tmp_path, option, text,
                                           message):
    paths = {"--spec": tmp_path / "spec.json",
             "--scenario": tmp_path / "scenario.json"}
    paths["--spec"].write_text(json.dumps(_spec_doc()))
    paths["--scenario"].write_text(json.dumps(
        scenario_to_dict(paper_default())))
    path = paths[option]
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    result = runner.invoke(main, ["sweep", "--spec", str(paths["--spec"]),
                                  "--scenario", str(paths["--scenario"]),
                                  "--out", str(tmp_path / "out.csv")])
    assert result.exit_code == 2
    assert option in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.csv").exists()
    if option == "--scenario":
        result = runner.invoke(main, ["solve", option, str(path)])
        assert result.exit_code == 2
        assert option in result.output and message in result.output


def test_sweep_out_in_missing_directory_is_usage_error(runner, tmp_path,
                                                      monkeypatch):
    """An --out path in a directory that does not exist is a usage error
    found before any trial runs, not a traceback after all of them."""
    calls = []
    monkeypatch.setattr(experiments, "run_trial",
                        lambda *args: calls.append(args))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec_doc()))
    out = tmp_path / "missing" / "out.csv"
    result = runner.invoke(main, ["sweep", "--spec", str(spec),
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert "--out" in result.output and "does not exist" in result.output
    assert "Traceback" not in result.output
    assert calls == [] and not out.parent.exists()


@pytest.mark.parametrize("changes", [
    pytest.param({"channel": {"zeta0_db": -4000.0}}, id="path-loss-underflow"),
    pytest.param({"positions": {"pbs": {"x": 1e200}}}, id="pbs-far-away")])
def test_zero_pbs_to_pu_channel_is_usage_error(runner, tmp_path, changes):
    """A scenario whose PBS->PU channel underflows to zero leaves the PBS
    beamformer undefined: a usage error on --scenario, not a traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(
        apply_overrides(paper_default(), changes))))
    result = runner.invoke(main, ["solve", "--scenario", str(path)])
    assert result.exit_code == 2
    assert "--scenario" in result.output and "h_p is zero" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_on_zero_pbs_to_pu_channel_is_usage_error(runner, tmp_path,
                                                        workers):
    """The sweep reports the underflowing PBS->PU channel as solve does, also
    when the trial ran in a worker process."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(apply_overrides(
        paper_default(), {"channel": {"zeta0_db": -4000.0}}))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec_doc()))
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "--spec", str(spec),
                                  "--scenario", str(scenario),
                                  "--out", str(out), "--workers", workers])
    assert result.exit_code == 2
    assert "--scenario" in result.output and "h_p is zero" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()
