import dataclasses
import json
import math
import multiprocessing
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ris_crn import experiments as exp
from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.experiments import (CSV_COLUMNS, METHODS, SweepError, SweepSpec,
                                 TrialError, TrialResult, load_sweep_spec,
                                 run_sweep, run_trial, sweepspec_from_dict)
from ris_crn.metrics import se_su
from ris_crn.scenario import apply_overrides


def test_spec_rejects_bad_kind():
    with pytest.raises(SweepError, match="kind"):
        SweepSpec(kind="angle", grid=(1,), trials=1, base_seed=0)


def test_spec_rejects_empty_grid():
    with pytest.raises(SweepError, match="grid"):
        SweepSpec(kind="tilt", grid=(), trials=1, base_seed=0)


def test_spec_rejects_zero_trials():
    with pytest.raises(SweepError, match="trials"):
        SweepSpec(kind="tilt", grid=(-30.0,), trials=0, base_seed=0)


def test_spec_rejects_unknown_method():
    with pytest.raises(SweepError, match="best_phase"):
        SweepSpec(kind="tilt", grid=(-30.0,), trials=1, base_seed=0,
                  methods=("best_phase",))


def test_spec_rejects_fractional_element_count():
    with pytest.raises(SweepError, match="integer"):
        SweepSpec(kind="elements", grid=(8.5,), trials=1, base_seed=0)


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(SweepError, match="step"):
        sweepspec_from_dict({"kind": "tilt", "grid": [-30], "trials": 1,
                             "step": 2})


@pytest.mark.parametrize("key,value,message", [
    ("trials", 2.7, "trials"),
    ("trials", "x", "trials"),
    ("trials", True, "trials"),
    ("base_seed", 1.5, "base_seed"),
    ("grid", -30, "grid"),
    ("grid", "-30", "grid"),
    ("grid", ["-30"], "grid"),
    ("grid", [-30, -190], "-190"),
    ("grid", [10], "10"),
    ("methods", "proposed", "methods"),
    ("base_seed", -3, "base_seed"),
    ("overrides", 5, "overrides"),
    ("grid", [math.nan], "nan"),
    ("grid", [-math.inf], "inf"),
    pytest.param({"kind": "elements", "grid": [math.inf]}, None, "inf",
                 id="elements-inf"),
    pytest.param({"kind": "elements", "grid": [math.nan]}, None, "nan",
                 id="elements-nan"),
    pytest.param({"kind": "power", "grid": [math.inf]}, None, "inf",
                 id="power-inf"),
    pytest.param({"kind": "power", "grid": [math.nan]}, None, "nan",
                 id="power-nan"),
    pytest.param({"kind": "power", "grid": [10 ** 400]}, None,
                 str(10 ** 400), id="power-int-beyond-float"),
])
def test_spec_from_dict_rejects_bad_values(key, value, message):
    doc = {"kind": "tilt", "grid": [-30], "trials": 2}
    doc.update(key if isinstance(key, dict) else {key: value})
    with pytest.raises(SweepError, match=message):
        sweepspec_from_dict(doc)


@pytest.mark.parametrize("changes,message", [
    ({"trials": 2.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"base_seed": -3}, "base_seed"),
    ({"grid": ("a",)}, "'a'"),
    ({"kind": "power", "grid": (math.nan,)}, "nan"),
    ({"kind": "elements", "grid": (math.inf,)}, "inf"),
    ({"overrides": 5}, "overrides"),
    ({"methods": ()}, "methods"),
    pytest.param({"kind": "power", "grid": (10 ** 400,)}, str(10 ** 400),
                 id="power-int-beyond-float"),
])
def test_spec_built_directly_checks_values(changes, message):
    args = {"kind": "tilt", "grid": (-30.0,), "trials": 2, "base_seed": 0,
            **changes}
    with pytest.raises(SweepError, match=message):
        SweepSpec(**args)


def test_spec_json_loading(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "power", "grid": [0, 5],
                                "trials": 3, "base_seed": 7,
                                "methods": ["proposed", "no_ris"]}))
    spec = load_sweep_spec(path)
    assert spec.kind == "power"
    assert spec.grid == (0, 5)
    assert spec.trials == 3
    assert spec.base_seed == 7
    assert spec.methods == ("proposed", "no_ris")


def test_spec_defaults_and_numpy_integers():
    spec = SweepSpec(kind="tilt", grid=(-30.0,), trials=np.int64(2))
    assert (spec.trials, spec.base_seed, spec.methods) == (2, 0, ("proposed",))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(max_size=5))
_GRIDS = {
    "tilt": st.floats(min_value=-180, max_value=0) | st.integers(-180, 0),
    "elements": st.integers(0, 64),
    "power": st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-50, 50),
}


@st.composite
def _spec_docs(draw):
    kind = draw(st.sampled_from(sorted(_GRIDS)))
    return {"kind": kind,
            "grid": draw(st.lists(_GRIDS[kind], min_size=1, max_size=5)),
            "trials": draw(st.integers(1, 10 ** 6)),
            "base_seed": draw(st.integers(0, 2 ** 63)),
            "methods": draw(st.lists(st.sampled_from(METHODS), min_size=1,
                                     max_size=4)),
            "overrides": draw(st.none() | st.dictionaries(
                st.text(max_size=8), st.recursive(
                    _JSON_SCALARS,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=5), inner,
                                      max_size=3),
                    max_leaves=6), max_size=3))}


@given(_spec_docs())
def test_spec_document_round_trip(doc):
    spec = sweepspec_from_dict(json.loads(json.dumps(doc)))
    assert dataclasses.asdict(spec) == {
        **doc, "grid": tuple(doc["grid"]), "methods": tuple(doc["methods"])}


def test_trial_deterministic(iid_scenario):
    a = run_trial(iid_scenario, "proposed", seed=3)
    b = run_trial(iid_scenario, "proposed", seed=3)
    assert a == b


def test_trial_rejects_unknown_method(iid_scenario):
    with pytest.raises(SweepError):
        run_trial(iid_scenario, "mrt", seed=0)


def test_no_ris_huge_cap_equals_closed_form(scenario):
    sc = apply_overrides(scenario, {"gamma_w": 1e9})
    out = run_trial(sc, "no_ris", seed=5)
    bare = apply_overrides(sc, {"n_ris": 0})
    ch = generate_channels(bare, seed=5)
    w_p = pbs_beamformer(ch.h_p, bare.pp_dbw)
    snr = (bare.p_max_w * np.vdot(ch.h_s, ch.h_s).real
           / (bare.noise_w + abs(np.vdot(ch.f_s, w_p)) ** 2))
    assert out.se_bps_hz == pytest.approx(se_su(snr), rel=1e-5)
    assert out.feasible


def test_proposed_dominates_random_phase_per_trial(iid_scenario):
    for trial in range(4):
        prop = run_trial(iid_scenario, "proposed", seed=trial,
                         fixed_tilt_deg=-30.0)
        rand = run_trial(iid_scenario, "random_phase", seed=trial,
                         fixed_tilt_deg=-30.0)
        assert prop.se_bps_hz >= rand.se_bps_hz - 1e-6


def test_run_sweep_csv_layout(iid_scenario, tmp_path):
    spec = SweepSpec(kind="power", grid=(0.0, 10.0), trials=2, base_seed=1,
                     methods=("random_phase", "no_ris"))
    out = tmp_path / "sweep.csv"
    result = run_sweep(spec, iid_scenario, out_path=out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(spec.grid) * len(spec.methods)
    assert len(result.rows) == 4
    for row in result.rows:
        assert row.trials == 2
        assert row.violations == 0
        assert row.sweep_kind == "power"


def test_run_sweep_worker_count_invariance(iid_scenario, tmp_path):
    spec = SweepSpec(kind="elements", grid=(2, 4), trials=2, base_seed=3,
                     methods=("random_phase",))
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    run_sweep(spec, iid_scenario, out_path=p1, workers=1)
    run_sweep(spec, iid_scenario, out_path=p2, workers=2)
    assert p1.read_bytes() == p2.read_bytes()


def test_pool_no_larger_than_task_list(small_iid_scenario, monkeypatch):
    """The calling process is one of the workers, so run_sweep starts
    min(workers, #tasks) - 1 worker processes; the CSV does not depend on
    how many."""
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        counting_start)
    one = SweepSpec(kind="power", grid=(0.0,), trials=1, methods=("no_ris",))
    three = SweepSpec(kind="power", grid=(0.0,), trials=3, methods=("no_ris",))
    counts = []
    for spec, workers in ((one, 1), (one, 64), (three, 1), (three, 2),
                          (three, 8)):
        started.clear()
        counts.append((run_sweep(spec, small_iid_scenario,
                                 workers=workers).to_csv(), len(started)))
        assert not any(p.is_alive() for p in started)
    assert [n for _, n in counts] == [0, 0, 0, 1, 2]
    assert len({csv for csv, _ in counts[:2]}) == 1
    assert len({csv for csv, _ in counts[2:]}) == 1


def _in_children(action, monkeypatch):
    """Make every trial run ``action`` in a worker process and return a
    dummy result in the calling one, after a pause on its first trial that
    lets every worker process claim a trial first."""
    parent = os.getpid()
    paused = []

    def run_trial(*args, **kwargs):
        if os.getpid() != parent:
            action()
        if not paused:
            paused.append(True)
            time.sleep(0.3)
        return TrialResult(1.0, 1, True)

    monkeypatch.setattr(exp, "run_trial", run_trial)


@pytest.mark.parametrize("workers", [2, 3])
def test_trial_raising_in_child_names_cell(workers, iid_scenario,
                                           monkeypatch):
    def boom():
        raise RuntimeError("synthetic failure")

    _in_children(boom, monkeypatch)
    spec = SweepSpec(kind="power", grid=(5.0,), trials=6, base_seed=9,
                     methods=("proposed",))
    with pytest.raises(TrialError, match=r"grid_value 5.0, method "
                       r"'proposed', seed \d+: synthetic failure") as info:
        run_sweep(spec, iid_scenario, workers=workers)
    assert isinstance(info.value.cause, RuntimeError)
    assert str(info.value.cause) == "synthetic failure"


def test_child_exiting_without_result_is_sweep_error(iid_scenario,
                                                     monkeypatch):
    _in_children(lambda: os._exit(0), monkeypatch)
    spec = SweepSpec(kind="power", grid=(5.0,), trials=3, base_seed=9,
                     methods=("proposed",))
    with pytest.raises(SweepError, match="exited without sending") as info:
        run_sweep(spec, iid_scenario, workers=2)
    assert not isinstance(info.value, TrialError)


def test_shared_counter_claims_every_task_once(monkeypatch):
    """Four workers (more than a 2-core host has) on many tiny tasks: a
    lost update of the shared counter would run a task twice or not at
    all."""
    monkeypatch.setattr(exp, "_trial_task", lambda task: task)
    tasks = list(range(3000))
    assert exp._run_tasks(tasks, 4) == tasks


@pytest.mark.parametrize("workers", [0, -2, True, 1.5, "2", None])
def test_run_sweep_rejects_bad_worker_count(workers, small_iid_scenario):
    spec = SweepSpec(kind="power", grid=(0.0,), trials=1, methods=("no_ris",))
    with pytest.raises(SweepError, match="workers must be an integer"):
        run_sweep(spec, small_iid_scenario, workers=workers)


def test_run_sweep_takes_numpy_worker_count(small_iid_scenario):
    spec = SweepSpec(kind="power", grid=(0.0,), trials=1, methods=("no_ris",))
    assert (run_sweep(spec, small_iid_scenario, workers=np.int64(1)).to_csv()
            == run_sweep(spec, small_iid_scenario).to_csv())


def test_run_sweep_applies_overrides(iid_scenario, tmp_path):
    spec = SweepSpec(kind="power", grid=(0.0,), trials=1, base_seed=0,
                     methods=("random_phase",), overrides={"n_ris": 3})
    result = run_sweep(spec, iid_scenario)
    assert result.rows[0].mean_se_bps_hz > 0


def test_run_sweep_bad_overrides(iid_scenario):
    # a wrongly typed value is a ScenarioError too, not a bare TypeError
    for overrides in ({"n_elements": 3}, {"gamma_w": "1"},
                      {"channel": {"iid_mode": "false"}}):
        spec = SweepSpec(kind="power", grid=(0.0,), trials=1, base_seed=0,
                         overrides=overrides)
        with pytest.raises(SweepError, match="overrides"):
            run_sweep(spec, iid_scenario)


def test_grid_value_without_finite_power_names_it(iid_scenario, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every cell was set up")

    monkeypatch.setattr(exp, "run_trial", no_trials)
    spec = SweepSpec(kind="power", grid=(0.0, 4000.0), trials=1, base_seed=0)
    with pytest.raises(SweepError, match="grid_value 4000.0.*p_max_dbw"):
        run_sweep(spec, iid_scenario)


@pytest.mark.parametrize("kind,grid", [("tilt", (-60.0, -30.0)),
                                       ("power", (0.0, 10.0))])
def test_sweep_rows_ordered_and_worker_invariant(iid_scenario, tmp_path,
                                                 kind, grid):
    sc = apply_overrides(iid_scenario, {"n_ris": 2})
    methods = ("no_ris", "fixed_zero_phase", "proposed", "random_phase")
    spec = SweepSpec(kind=kind, grid=grid, trials=2, base_seed=4,
                     methods=methods)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    result = run_sweep(spec, sc, out_path=p1, workers=1)
    run_sweep(spec, sc, out_path=p2, workers=2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [(r.grid_value, r.method) for r in result.rows] == [
        (g, m) for g in grid for m in methods]


def test_failing_trial_names_cell(iid_scenario, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(exp, "run_algorithm1", boom)
    spec = SweepSpec(kind="power", grid=(5.0,), trials=1, base_seed=9,
                     methods=("proposed",))
    with pytest.raises(SweepError, match="method 'proposed', seed 9"):
        run_sweep(spec, iid_scenario)


def test_elements_sweep_uses_grid_sizes(iid_scenario):
    spec = SweepSpec(kind="elements", grid=(1, 3), trials=1, base_seed=2,
                     methods=("random_phase",))
    result = run_sweep(spec, iid_scenario)
    assert [r.grid_value for r in result.rows] == [1.0, 3.0]


def test_far_off_boresight_trial_warns_nothing(iid_scenario):
    # at -170 deg every pattern gain is ~1e-235, and the IPM's step-length
    # ratios overflow to inf (an unbounded step)
    sc = apply_overrides(iid_scenario, {"n_s": 4, "n_ris": 8})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_trial(sc, "proposed", 0, fixed_tilt_deg=-170.0)
    assert res.feasible
    assert res.se_bps_hz == 0.0


def test_tilt_sweep_matches_golden_csv(iid_scenario):
    """Byte-for-byte guard on a small tilt sweep, recorded before the
    solver stopped repeating solves whose answer is already known (far-tilt
    SROCR rounds, failed SROCR rounds, beamformer steps with unchanged
    phases).  Skipping them must not change a single digit.  The -30 deg
    proposed cell was re-recorded twice: when the phase SDP's X_pp = 1 rows
    left the dense constraint stack (mean +6.6e-13, std +1.6e-10,
    relative), and when C1-binding phase steps began to take the certified
    projection of the relaxation in place of SROCR (mean +1.04e-6, std
    +9.6e-5).  The whole file was re-recorded when iterations with C1 slack
    at both blocks began to take MRT and the co-phased profile in closed
    form: the -90, -60 and 0 deg cells moved, by at most +9.6e-9 relative
    (0 deg proposed mean), and the -30 deg cells did not."""
    spec = SweepSpec(kind="tilt",
                     grid=(-180.0, -150.0, -120.0, -90.0, -60.0, -30.0, 0.0),
                     trials=2, base_seed=0,
                     methods=("proposed", "random_phase", "no_ris"),
                     overrides={"n_s": 4})
    golden = (Path(__file__).parent / "data" / "golden_tilt_sweep.csv")
    assert run_sweep(spec, iid_scenario).to_csv() == golden.read_text()
