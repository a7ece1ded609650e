"""What the benchmark in perfbench/ needs from the package.

The benchmark compares the SE of fixed reference instances with
perfbench/reference.json, wraps the entry points listed in
perfbench/spans.PATCHES, reads the keywords of run_trial's run_algorithm1
calls to time only the proposed method, and keys its per-layer metrics by
fields of the wrapped calls' arguments and results.  A change that moves
the SE or drops one of those names fails here, in the fast suite, before a
benchmark run does.  These tests only read perfbench/.
"""

import importlib
from collections import defaultdict
from pathlib import Path

import pytest

from ris_crn import experiments
from ris_crn.channels import generate_channels
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import apply_overrides

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


@pytest.mark.parametrize("name", ["solve-pathloss", "sweep-tilt"])
def test_reference_se_reproduced(perfbench, name):
    workloads, _ = perfbench
    wl = workloads.WORKLOADS[name]
    values = workloads.reference_values(wl, wl.scenario())
    assert workloads.check_reference(wl, values) == []


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
    """Every field the span recorder reads, on the -30 deg iid trial that
    runs all three SDP shapes: (dim, #constraints) keys of the beamformer,
    phase and SROCR SDPs, the status and IPM iterations of each solve,
    refine's rounds and rank-one flag, and run_algorithm1's outer
    iterations, tilt branch and phase-recovery diagnostics."""
    _, spans = perfbench
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    tracer = spans.Tracer()
    with tracer.installed():
        experiments.run_trial(sc, "proposed", seed=0, fixed_tilt_deg=-30.0)
    notes = defaultdict(list)
    for name, _, _, _, _, note in tracer.spans:
        if note is not None:
            notes[name].append(note)
    solves = notes["sdp.solve"]
    assert [n["key"] for n in solves] == ["d4m2", "d21m22", "d21m23"] * 4
    assert {n["key"] for n in solves} <= set(spans.SDP_KEYS)
    assert [n["status"] for n in solves] == ["optimal"] * 12
    assert [n["iters"] for n in solves] == [8, 11, 13, 12, 11, 14,
                                            11, 10, 13, 10, 10, 13]
    assert sum(n["warnings"] for n in solves) == 0
    assert notes["srocr.refine"] == [{"rounds": 1, "feasible": True}] * 4
    assert notes["optimizer.run_algorithm1"] == [
        {"outer": 4, "branch": "fixed", "randomized": 0}]

    result = run_algorithm1(generate_channels(sc, seed=0), sc, seed=0,
                            fixed_tilt_deg=-30.0)
    assert [d["phase_recovery"] for d in result.diagnostics] == ["srocr"] * 4
