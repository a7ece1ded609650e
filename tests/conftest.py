import multiprocessing

import numpy as np
import pytest

from ris_crn.channels import generate_channels
from ris_crn.scenario import apply_overrides, paper_default


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
