import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ris_crn.scenario import (NodePosition, ScenarioError, apply_overrides,
                              dbm_to_watts, dbw_to_watts, elevation_deg,
                              scenario_from_dict, scenario_to_dict)


def test_distance_sbs_to_ris(scenario):
    p = scenario.positions
    d = p["sbs"].distance_to(p["ris"])
    assert d == pytest.approx(math.sqrt(100**2 + 10**2), abs=1e-9)
    assert d == pytest.approx(100.4988, abs=1e-4)


def test_distance_sbs_to_su(scenario):
    p = scenario.positions
    d = p["sbs"].distance_to(p["su"])
    assert d == pytest.approx(math.sqrt(60**2 + 20**2 + 27**2), abs=1e-9)
    assert d == pytest.approx(68.7678, abs=1e-4)


def test_geometric_elevation_sbs_to_ris(scenario):
    p = scenario.positions
    elev = elevation_deg(p["sbs"], p["ris"])
    assert elev == pytest.approx(math.degrees(math.atan2(-10, 100)), abs=1e-12)
    assert elev == pytest.approx(-5.71, abs=0.01)
    # the bundled configuration intentionally keeps the quoted -30 degrees
    assert scenario.theta_r_deg == -30.0


def test_elevation_sign_follows_height_difference():
    high = NodePosition(0, 0, 30)
    low = NodePosition(10, 0, 3)
    assert elevation_deg(high, low) < 0
    assert elevation_deg(low, high) > 0


def test_unit_conversions():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbw_to_watts(0.0) == 1.0
    assert dbw_to_watts(5.0) == pytest.approx(3.1623, abs=1e-4)


@given(st.floats(min_value=-100, max_value=100))
def test_dbw_round_trip(x):
    assert 10.0 * math.log10(dbw_to_watts(x)) == pytest.approx(x, abs=1e-12)


def test_distance_symmetry(scenario):
    p = scenario.positions
    for a in p:
        for b in p:
            if a != b:
                assert (p[a].distance_to(p[b])
                        == pytest.approx(p[b].distance_to(p[a]), rel=1e-15))


def test_paper_default_values(scenario):
    assert scenario.theta_d_deg == -80.0
    assert scenario.theta_r_deg == -30.0
    assert scenario.theta_i_deg == -110.0
    assert scenario.pattern.theta_3db_deg == 10.0
    assert scenario.n_ris == 20
    assert scenario.n_s == 2
    assert scenario.p_max_dbw == 10.0
    assert scenario.pp_dbw == 5.0
    assert scenario.gamma_w == 1.0
    assert scenario.noise_dbm == -90.0
    assert scenario.channel.zeta0_db == -30.0
    assert scenario.channel.alpha == 3.0
    assert scenario.channel.rician_k == 1.0
    assert scenario.positions["sbs"] == NodePosition(0, 0, 30)
    assert scenario.positions["ris"] == NodePosition(0, 100, 20)
    assert scenario.positions["su"] == NodePosition(60, 20, 3)
    assert scenario.positions["pu"] == NodePosition(40, 40, 3)
    assert scenario.positions["pbs"] == NodePosition(100, 0, 30)


def test_derived_powers(scenario):
    assert scenario.p_max_w == pytest.approx(10.0)
    assert scenario.noise_w == pytest.approx(1e-12)


def test_negative_height_rejected():
    with pytest.raises(ScenarioError, match="z"):
        NodePosition(0, 0, -1)


def test_co_located_nodes_rejected(scenario):
    doc = scenario_to_dict(scenario)
    doc["positions"]["pu"] = dict(doc["positions"]["su"])
    with pytest.raises(ScenarioError, match="co-located"):
        scenario_from_dict(doc)


def test_unknown_key_rejected(scenario):
    doc = scenario_to_dict(scenario)
    doc["gamma_W"] = doc.pop("gamma_w")
    with pytest.raises(ScenarioError, match="gamma_W"):
        scenario_from_dict(doc)
    for key in ("phi_d_deg", "phi_r_deg", "phi_i_deg", "angle_mode"):
        with pytest.raises(ScenarioError, match=key):
            apply_overrides(scenario, {key: -10.0})


def test_unknown_nested_key_rejected(scenario):
    doc = scenario_to_dict(scenario)
    doc["channel"]["alfa"] = 3
    with pytest.raises(ScenarioError, match="alfa"):
        scenario_from_dict(doc)
    for key in ("phi_3db_deg", "a_m_linear"):
        with pytest.raises(ScenarioError, match=key):
            apply_overrides(scenario, {"pattern": {key: 1.0}})


@pytest.mark.parametrize("key,value", [
    ("n_ris", 20.0), ("n_ris", True), ("n_s", 2.5), ("n_p", "2"),
    ("n_s", 0), ("n_p", 0), ("n_ris", -1)])
def test_bad_sizes_rejected(scenario, key, value):
    with pytest.raises(ScenarioError, match=key):
        apply_overrides(scenario, {key: value})


def test_angle_out_of_range_rejected(scenario):
    with pytest.raises(ScenarioError, match="theta_d_deg"):
        scenario.replace(theta_d_deg=30.0)


def test_nonpositive_interference_cap_rejected(scenario):
    with pytest.raises(ScenarioError, match="gamma_w"):
        scenario.replace(gamma_w=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", [
    ("pattern", "theta_3db_deg"), ("pattern", "sla_v_db"),
    ("channel", "zeta0_db"), ("channel", "d0_m"), ("channel", "alpha"),
    ("channel", "rician_k"), ("channel", "channel_sigma2"), ("gamma_w",),
    ("p_max_dbw",), ("pp_dbw",), ("noise_dbm",), ("theta_r_deg",),
    ("positions", "su", "x")])
def test_non_finite_value_rejected(scenario, path, value):
    # Python's json reads NaN and Infinity, so a scenario file can carry them
    with pytest.raises(ScenarioError, match=f"^{path[-1]} must be finite"):
        scenario_from_dict(_doc_with(scenario, path, value))


_DROP = object()


def _doc_with(scenario, path, value):
    """The scenario's document with the key at path set to value, or
    removed for _DROP."""
    doc = scenario_to_dict(scenario)
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("path,value,message", [
    pytest.param(("n_s",), _DROP,
                 r"^scenario missing required keys \['n_s'\]", id="no-n_s"),
    pytest.param(("positions", "su", "z"), _DROP,
                 r"^positions.su missing required keys \['z'\]", id="no-z"),
    pytest.param(("gamma_w",), "1", "^gamma_w must be a number",
                 id="gamma_w-string"),
    pytest.param(("positions", "su", "z"), "3", "^z must be a number",
                 id="z-string"),
    pytest.param(("positions", "su", "x"), True, "^x must be a number",
                 id="x-bool"),
    pytest.param(("pattern", "theta_3db_deg"), None,
                 "^theta_3db_deg must be a number", id="theta_3db_deg-null"),
    pytest.param(("channel", "iid_mode"), "false",
                 "^iid_mode must be true or false", id="iid_mode-string"),
    pytest.param(("theta_d_deg",), None, "^theta_d_deg must be a number",
                 id="theta_d_deg-null"),
    pytest.param(("theta_r_deg",), None, "^theta_r_deg must be a number",
                 id="theta_r_deg-null"),
    pytest.param(("channel",), None, "^channel must be a JSON object",
                 id="channel-null"),
    pytest.param(("positions", "su"), [60, 20, 3],
                 "^positions.su must be a JSON object", id="node-list")])
def test_wrong_field_type_rejected(scenario, path, value, message):
    # each of these used to raise a bare TypeError, or (iid_mode) to pass
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(_doc_with(scenario, path, value))


def test_json_integers_accepted_in_float_fields(scenario):
    out = apply_overrides(scenario, {"gamma_w": 2, "p_max_dbw": 10,
                                     "pattern": {"sla_v_db": 30}})
    assert (out.gamma_w, out.p_max_dbw, out.pattern.sla_v_db) == (2, 10, 30)


def test_numpy_integer_accepted_in_int_fields(scenario):
    assert apply_overrides(scenario, {"n_s": np.int64(2)}).n_s == 2


@pytest.mark.parametrize("value", [4000.0, None])
@pytest.mark.parametrize("key", ["p_max_dbw", "pp_dbw", "noise_dbm"])
def test_db_value_without_finite_power_rejected(scenario, key, value):
    # 10**400 W overflows a float; the field must be named at load time
    with pytest.raises(ScenarioError, match=f"^{key} must give a finite power"):
        apply_overrides(scenario, {key: value})


def test_round_trip_dict(scenario):
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_apply_overrides_nested(scenario):
    out = apply_overrides(scenario, {"n_ris": 8,
                                     "channel": {"iid_mode": True},
                                     "positions": {"su": {"x": 1.0}}})
    assert out.n_ris == 8
    assert out.channel.iid_mode is True
    assert out.channel.alpha == scenario.channel.alpha
    # the merge reaches every depth: su keeps its y and z
    assert out.positions == {**scenario.positions,
                             "su": NodePosition(1.0, 20, 3)}


def test_apply_overrides_rejects_unknown(scenario):
    with pytest.raises(ScenarioError, match="n_elements"):
        apply_overrides(scenario, {"n_elements": 8})
