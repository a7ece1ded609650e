import os
import sys

# One BLAS thread, as perfbench/env.py pins it: the solver's matrices are
# far too small to gain from threads, and a second BLAS thread contending
# with another process slows scipy's L-BFGS-B twenty-fold.  OpenBLAS reads
# these when numpy loads, so they must be set before that.
assert "numpy" not in sys.modules, "numpy loaded before the BLAS thread pin"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import multiprocessing  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ris_crn.channels import generate_channels  # noqa: E402
from ris_crn.scenario import apply_overrides, paper_default  # noqa: E402


def constraint_violation(problem, x: np.ndarray) -> float:
    """Worst relative violation of an SdpProblem's constraints at X = x:
    (tr(A_i^H x) - b_i) / (1 + |b_i|) for each dense row and, with the unit
    diagonal, |x_pp - 1| / 2."""
    worst = 0.0
    for a, b in zip(problem.a, problem.b):
        val = float(np.tensordot(a.conj(), x).real)
        worst = max(worst, (val - b) / (1.0 + abs(b)))
    if problem.unit_diagonal:
        gaps = np.abs(x.diagonal().real - 1.0)
        worst = max(worst, float(gaps.max()) / 2.0)
    return worst


@pytest.fixture(scope="session")
def scenario():
    return paper_default()


@pytest.fixture(scope="session")
def iid_scenario(scenario):
    """Statistical channel mode: every entry iid CSCG(0, 1), no path loss.

    The reflected path then carries N times the expected power of the
    direct path, which is the regime the tilt-selection analysis and the
    figure-style sweeps assume.
    """
    return apply_overrides(scenario, {"channel": {"iid_mode": True}})


@pytest.fixture(scope="session")
def small_iid_scenario(iid_scenario):
    return apply_overrides(iid_scenario, {"n_ris": 2})


@pytest.fixture()
def channels(scenario):
    return generate_channels(scenario, seed=7)


@pytest.fixture()
def iid_channels(iid_scenario):
    return generate_channels(iid_scenario, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running (after stopping
    it, so the next test starts clean)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
