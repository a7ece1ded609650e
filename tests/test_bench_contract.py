"""What the benchmark in perfbench/ needs from the package.

The benchmark compares the SE of fixed reference instances with
perfbench/reference.json, wraps the entry points listed in
perfbench/spans.PATCHES, and reads the keywords of run_trial's
run_algorithm1 calls to time only the proposed method.  A change that
moves the SE or drops one of those names fails here, in the fast suite,
before a benchmark run does.  These tests only read perfbench/.
"""

import importlib
from pathlib import Path

import pytest

from ris_crn import experiments

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
