import numpy as np
import pytest

from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.metrics import (DesignState, effective_su_row, pu_interference,
                             se_su, sinr_su)
from ris_crn.optimizer import (build_phase_problem, build_ws_problem,
                               expected_cascade_power, expected_direct_power,
                               initial_phases, run_algorithm1, select_tilt)
from ris_crn.scenario import apply_overrides, derive_geometry
from ris_crn.sdp import solve


def test_expected_powers_plug_in():
    w = np.array([1.0 + 0j])
    assert expected_direct_power(w, 1.0) == 1.0
    assert expected_cascade_power(w, 1.0, 20) == 20.0


def test_expected_powers_reject_bad_variance():
    with pytest.raises(ValueError):
        expected_direct_power(np.ones(1), 0.0)
    with pytest.raises(ValueError):
        expected_cascade_power(np.ones(1), -1.0, 4)


def test_tilt_points_at_surface_when_cascade_dominates(iid_scenario):
    d = select_tilt(iid_scenario)
    assert d.branch == "ris"
    assert d.theta_tilt_deg == -30.0
    assert d.cascade_power >= d.direct_power


def test_tilt_points_at_user_without_surface(iid_scenario):
    sc = apply_overrides(iid_scenario, {"n_ris": 0})
    d = select_tilt(sc)
    assert d.branch == "direct"
    assert d.theta_tilt_deg == -80.0


def test_tilt_tie_goes_to_surface(iid_scenario):
    sc = apply_overrides(iid_scenario, {"n_ris": 20,
                                        "channel": {"channel_sigma2": 0.05}})
    d = select_tilt(sc)
    assert d.cascade_power == pytest.approx(d.direct_power, rel=1e-12)
    assert d.branch == "ris"


def test_ws_problem_tiny_cap_forces_null_steering(iid_scenario, rng):
    # single transmit antenna: the interference row spans the whole space,
    # so a near-zero cap pins the achievable signal power near zero
    sc = apply_overrides(iid_scenario, {"n_s": 1, "gamma_w": 1e-4})
    ch = generate_channels(sc, seed=6)
    state = DesignState(np.zeros(1, dtype=complex),
                        initial_phases(sc.n_ris, 6), sc.theta_r_deg)
    problem = build_ws_problem(state, ch, sc)
    sol = solve(problem)
    assert sol.status == "optimal"
    a2 = np.trace(problem.c).real
    b2 = np.trace(problem.constraints[0].a).real
    bound = sc.gamma_w * a2 / b2
    assert sol.objective <= bound * (1 + 1e-4) + 1e-15


def test_ws_relaxation_upper_bounds_feasible_points(iid_scenario, rng):
    ch = generate_channels(iid_scenario, seed=8)
    state = DesignState(np.zeros(iid_scenario.n_s, dtype=complex),
                        initial_phases(iid_scenario.n_ris, 8),
                        iid_scenario.theta_r_deg)
    problem = build_ws_problem(state, ch, iid_scenario)
    sol = solve(problem)
    assert sol.status == "optimal"
    a = effective_su_row(state, ch, iid_scenario)
    b_mat = problem.constraints[0].a
    hits = 0
    for _ in range(10_000):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w *= np.sqrt(iid_scenario.p_max_w) / np.linalg.norm(w)
        w *= rng.uniform(0, 1)
        xx = np.outer(w, w.conj())
        if np.trace(b_mat @ xx).real > iid_scenario.gamma_w:
            continue
        hits += 1
        assert abs(np.dot(a, w)) ** 2 <= sol.objective * (1 + 1e-8)
    assert hits > 100


def test_phase_problem_zero_beamformer(iid_scenario):
    ch = generate_channels(iid_scenario, seed=9)
    state = DesignState(np.zeros(iid_scenario.n_s, dtype=complex),
                        initial_phases(iid_scenario.n_ris, 9),
                        iid_scenario.theta_r_deg)
    problem, l1, l2 = build_phase_problem(state, ch, iid_scenario)
    assert l1 == 0.0 and l2 == 0.0
    np.testing.assert_array_equal(problem.c, 0.0)
    np.testing.assert_array_equal(problem.constraints[0].a, 0.0)


def test_phase_problem_matrices_hermitian(iid_scenario, rng):
    ch = generate_channels(iid_scenario, seed=10)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = DesignState(w, initial_phases(iid_scenario.n_ris, 10),
                        iid_scenario.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, iid_scenario)
    np.testing.assert_allclose(problem.c, problem.c.conj().T, atol=1e-12)
    np.testing.assert_allclose(problem.constraints[0].a,
                               problem.constraints[0].a.conj().T, atol=1e-12)


def test_phase_quadratic_form_identity(iid_scenario, rng):
    """l1 + x^H H1 x must reproduce |a w|^2 for unit-modulus x."""
    ch = generate_channels(iid_scenario, seed=12)
    for _ in range(10):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alphas = rng.uniform(0, 2 * np.pi, iid_scenario.n_ris)
        state = DesignState(w, alphas, iid_scenario.theta_r_deg)
        problem, l1, l2 = build_phase_problem(state, ch, iid_scenario)
        x = np.concatenate([np.exp(1j * alphas), [1.0]])
        quad = l1 + float(np.vdot(x, problem.c @ x).real)
        direct = abs(np.dot(effective_su_row(state, ch, iid_scenario),
                            w)) ** 2
        assert quad == pytest.approx(direct, rel=1e-10)
        quad2 = l2 + float(np.vdot(x, problem.constraints[0].a @ x).real)
        direct2 = pu_interference(state, ch, iid_scenario)
        assert quad2 == pytest.approx(direct2, rel=1e-10)


def test_no_ris_huge_cap_recovers_mrt(scenario):
    sc = apply_overrides(scenario, {"n_ris": 0, "gamma_w": 1e9})
    ch = generate_channels(sc, seed=13)
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    res = run_algorithm1(ch, sc, seed=13)
    assert res.feasible
    # closed-form maximum-ratio benchmark at full power toward the user
    from ris_crn.antenna import vertical_gain_linear
    a_d = vertical_gain_linear(sc.theta_d_deg, sc.theta_d_deg, sc.pattern)
    snr = (sc.p_max_w * a_d * np.vdot(ch.h_s, ch.h_s).real
           / (sc.noise_w + abs(np.vdot(ch.f_s, w_p.w_p)) ** 2))
    assert res.se == pytest.approx(se_su(snr), rel=1e-5)
    assert res.tilt.branch == "direct"


def test_single_element_matches_joint_grid(iid_scenario):
    sc = apply_overrides(iid_scenario, {"n_ris": 1, "n_s": 1,
                                        "gamma_w": 1e9})
    ch = generate_channels(sc, seed=14)
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    res = run_algorithm1(ch, sc, seed=14)
    # oracle: full power, every reflection phase on a 0.5 degree grid
    best = 0.0
    for alpha in np.radians(np.arange(0.0, 360.0, 0.5)):
        state = DesignState(np.array([np.sqrt(sc.p_max_w) + 0j]),
                            np.array([alpha]), res.state.theta_tilt_deg)
        best = max(best, se_su(sinr_su(state, ch, w_p, sc)))
    assert res.se >= best * (1 - 0.02)


def test_monotone_trace_and_feasibility(iid_scenario):
    for seed in (0, 1, 2):
        ch = generate_channels(iid_scenario, seed=seed)
        res = run_algorithm1(ch, iid_scenario, seed=seed)
        assert res.feasible
        trace = res.se_trace
        assert all(b >= a - 1e-6 for a, b in zip(trace, trace[1:]))
        assert res.pu_interference_w <= iid_scenario.gamma_w * (1 + 1e-6)
        assert res.power_w <= iid_scenario.p_max_w * (1 + 1e-6)
        np.testing.assert_allclose(np.abs(res.state.ris_coefficients), 1.0,
                                   rtol=1e-15)


def test_run_deterministic(iid_scenario):
    ch = generate_channels(iid_scenario, seed=4)
    r1 = run_algorithm1(ch, iid_scenario, seed=4)
    r2 = run_algorithm1(ch, iid_scenario, seed=4)
    assert r1.se == r2.se
    np.testing.assert_array_equal(r1.state.w_s, r2.state.w_s)
    np.testing.assert_array_equal(r1.state.phases, r2.state.phases)


def test_fixed_tilt_override(iid_scenario):
    ch = generate_channels(iid_scenario, seed=4)
    res = run_algorithm1(ch, iid_scenario, seed=4, fixed_tilt_deg=-75.0)
    assert res.state.theta_tilt_deg == -75.0
    assert res.tilt.branch == "fixed"


def test_frozen_phases_keep_initialization(iid_scenario):
    ch = generate_channels(iid_scenario, seed=4)
    res = run_algorithm1(ch, iid_scenario, seed=4, update_phases=False)
    np.testing.assert_array_equal(res.state.phases,
                                  initial_phases(iid_scenario.n_ris, 4))


def test_zero_phase_start(iid_scenario):
    ch = generate_channels(iid_scenario, seed=4)
    res = run_algorithm1(ch, iid_scenario, seed=4, update_phases=False,
                         zero_phase_start=True)
    np.testing.assert_array_equal(res.state.phases,
                                  np.zeros(iid_scenario.n_ris))


def test_geometric_angle_mode_matches_configured_angles(iid_scenario):
    geo = iid_scenario.replace(angle_mode="geometric")
    g = derive_geometry(geo)
    conf = iid_scenario.replace(theta_d_deg=g.elev_sbs_su_deg,
                                theta_r_deg=g.elev_sbs_ris_deg,
                                theta_i_deg=g.elev_sbs_pu_deg)
    ch = generate_channels(geo, seed=5)
    r_geo = run_algorithm1(ch, geo, seed=5)
    r_conf = run_algorithm1(ch, conf, seed=5)
    assert r_geo.se > 0.0
    assert r_geo.se_trace == r_conf.se_trace
