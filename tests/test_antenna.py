import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ris_crn.antenna import vertical_attenuation_db, vertical_gain_linear
from ris_crn.scenario import PatternParams

P10 = PatternParams(theta_3db_deg=10.0)


def test_boresight_zero_db():
    assert vertical_attenuation_db(-30.0, -30.0, P10) == 0.0


def test_one_beamwidth_offset():
    assert vertical_attenuation_db(-30.0, -40.0, P10) == pytest.approx(-12.0)


def test_half_beamwidth_offset():
    assert vertical_attenuation_db(-30.0, -35.0, P10) == pytest.approx(-3.0)


def test_sidelobe_floor_clips():
    p = PatternParams(theta_3db_deg=10.0, sla_v_db=10.0)
    assert vertical_attenuation_db(-30.0, -40.0, p) == pytest.approx(-10.0)


def test_gain_boresight_is_one():
    assert vertical_gain_linear(-30.0, -30.0, P10) == 1.0


def test_gain_one_beamwidth():
    assert vertical_gain_linear(-30.0, -40.0, P10) == pytest.approx(
        10 ** -1.2, rel=1e-12)
    assert vertical_gain_linear(-30.0, -40.0, P10) == pytest.approx(
        0.0631, abs=1e-4)


def test_gain_half_beamwidth():
    assert vertical_gain_linear(-30.0, -35.0, P10) == pytest.approx(
        10 ** -0.3, rel=1e-12)
    assert vertical_gain_linear(-30.0, -35.0, P10) == pytest.approx(
        0.5012, abs=1e-4)


@given(st.floats(-180, 0), st.floats(-180, 0))
@example(tilt=0.0, theta=-8.08e-162)
def test_attenuation_nonpositive_and_symmetric(tilt, theta):
    a = vertical_attenuation_db(tilt, theta, P10)
    assert a <= 0.0
    assert a == vertical_attenuation_db(theta, tilt, P10)
    # below ~1e-160 deg the squared offset underflows in any float model
    if abs(theta - tilt) > 1e-150:
        assert a < 0.0


@given(st.floats(-180, 0), st.floats(0.1, 90), st.floats(1.01, 5))
def test_attenuation_decreases_with_offset(tilt, off, factor):
    small = vertical_attenuation_db(tilt, tilt + off, P10)
    large = vertical_attenuation_db(tilt, tilt + off * factor, P10)
    assert large < small


def test_array_broadcasting():
    grid = np.array([-30.0, -35.0, -40.0])
    out = vertical_gain_linear(-30.0, grid, P10)
    np.testing.assert_allclose(out, [1.0, 10 ** -0.3, 10 ** -1.2])
