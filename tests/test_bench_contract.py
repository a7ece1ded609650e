"""What the benchmark in perfbench/ needs from the package.

The benchmark compares the SE of fixed reference instances, and the mean
SE of a run's whole instance set, with perfbench/reference.json, wraps the entry points listed in
perfbench/spans.PATCHES, reads the keywords of run_trial's run_algorithm1
calls to time only the proposed method, and keys its per-layer metrics by
fields of the wrapped calls' arguments and results.  A change that moves
the SE or drops one of those names fails here, in the fast suite, before a
benchmark run does.  These tests only read perfbench/.
"""

import importlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from ris_crn import experiments
from ris_crn.channels import generate_channels
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import apply_overrides

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARKED = ("solve-pathloss", "sweep-tilt")
STORED_MEAN_SE = json.loads((PERFBENCH / "reference.json").read_text())[
    "mean_se_bps_hz"]
# set by perfbench/env.py on import; restored after this module's tests
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        for var in THREAD_VARS:
            mp.setenv(var, "1")
        mp.syspath_prepend(str(PERFBENCH))
        yield (importlib.import_module("workloads"),
               importlib.import_module("spans"))


@pytest.mark.parametrize("name", BENCHMARKED)
def test_reference_se_reproduced(perfbench, name):
    workloads, _ = perfbench
    wl = workloads.WORKLOADS[name]
    values = workloads.reference_values(wl, wl.scenario())
    assert workloads.check_reference(wl, values) == []


@pytest.fixture(scope="module")
def solved():
    """Results by call, shared across the instance sets below: a shorter
    run's instances are the first ones of a longer run's."""
    return {}


@pytest.mark.parametrize("name,size", [
    (name, int(size)) for name in BENCHMARKED for size in STORED_MEAN_SE[name]])
def test_stored_mean_se_reproduced(perfbench, solved, monkeypatch, name,
                                   size):
    """Rebuild the instance set of every run size with a stored mean SE
    and solve it as a benchmark round does, at one worker: its mean SE
    must match reference.json within the benchmark's rtol, and every
    result must pass the benchmark's checks."""
    workloads, _ = perfbench
    wl = workloads.WORKLOADS[name]
    seconds = size / wl.per_second
    assert wl.size(seconds) == size

    def memoize(module, attr, key):
        real = getattr(module, attr)

        def call(*args, **kwargs):
            k = (name, key(*args, **kwargs))
            if k not in solved:
                solved[k] = real(*args, **kwargs)
            return solved[k]
        monkeypatch.setattr(module, attr, call)

    tally = workloads.Tally()
    meter = workloads.Speedometer(active=False)
    if wl.kind == "solve":
        memoize(workloads.optimizer, "run_algorithm1",
                lambda chans, scen, seed: seed)
        passes = [workloads.solve_pass(wl.scenario(), seeds, tally, meter)
                  for seeds in wl.rounds(seconds, seed=0)]
    else:
        memoize(experiments, "run_trial",
                lambda scen, method, seed, tilt: (method, seed, tilt))
        passes = [workloads.sweep_pass(spec, tally, meter, record=True)
                  for spec in wl.rounds(seconds, seed=0)]
    assert tally.problems == [] and tally.failed == 0
    assert tally.attempted == wl.tasks(seconds)
    mean_se = workloads.workload_mean_se(wl, passes)
    assert workloads.check_mean_se(wl, size, mean_se) == []


def test_span_patch_targets_resolve(perfbench):
    _, spans = perfbench
    for module, attr, _ in spans.PATCHES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_run_trial_passes_solver_keywords(small_iid_scenario, monkeypatch):
    calls = []
    real = experiments.run_algorithm1

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_algorithm1", spy)
    for method in ("proposed", "random_phase"):
        experiments.run_trial(small_iid_scenario, method, seed=3,
                              fixed_tilt_deg=-30.0)
    for kwargs, proposed in zip(calls, (True, False)):
        assert kwargs["seed"] == 3
        assert kwargs["fixed_tilt_deg"] == -30.0
        assert kwargs["update_phases"] is proposed


def test_span_annotations_of_one_trial(perfbench, iid_scenario):
    """Every field the span recorder reads, on a -30 deg iid trial: the
    (dim, #constraints) keys of the phase and SROCR SDPs, the status and
    IPM iterations of each solve, refine's rounds and rank-one flag, and
    run_algorithm1's outer iterations, tilt branch and phase-recovery
    diagnostics.  Its first phase step runs SROCR; every later one takes
    the certified projection.  MRT breaks C1 at every beamformer step, so
    each takes the closed form and no beamformer SDP (d4m2) is solved."""
    _, spans = perfbench
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    tracer = spans.Tracer()
    with tracer.installed():
        experiments.run_trial(sc, "proposed", seed=1, fixed_tilt_deg=-30.0)
    notes = defaultdict(list)
    for name, _, _, _, _, note in tracer.spans:
        if note is not None:
            notes[name].append(note)
    solves = notes["sdp.solve"]
    assert [n["key"] for n in solves] == ["d21m22", "d21m23"] + ["d21m22"] * 6
    assert {n["key"] for n in solves} <= set(spans.SDP_KEYS)
    assert [n["status"] for n in solves] == ["optimal"] * 8
    assert [n["iters"] for n in solves] == [10, 13, 11, 10, 10, 10, 10, 10]
    assert sum(n["warnings"] for n in solves) == 0
    assert notes["srocr.refine"] == [{"rounds": 1, "feasible": True}]
    assert notes["optimizer.run_algorithm1"] == [
        {"outer": 7, "branch": "fixed", "randomized": 0}]

    result = run_algorithm1(generate_channels(sc, seed=1), sc, seed=1,
                            fixed_tilt_deg=-30.0)
    assert [d["phase_recovery"] for d in result.diagnostics] == (
        ["srocr"] + ["certified"] * 6)
