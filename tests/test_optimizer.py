import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import record
from conftest import constraint_violation
from hypothesis import assume, given, settings, strategies as st

from ris_crn import experiments, metrics, optimizer, sdp, srocr
from ris_crn.channels import generate_channels, pbs_beamformer, stream_rng
from ris_crn.experiments import METHODS, run_trial
from ris_crn.metrics import (DesignState, effective_pu_row, effective_su_row,
                             pattern_gains, pu_interference, se_su, sinr_su)
from ris_crn.optimizer import (build_phase_problem, build_ws_problem,
                               cophased_phases, expected_cascade_power,
                               expected_direct_power, initial_phases,
                               run_algorithm1, select_tilt)
from ris_crn.scenario import apply_overrides
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
    b2 = np.trace(problem.a[0]).real
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
    b_mat = problem.a[0]
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


def _zhang_liang_beamformer(a, b, p, gamma):
    """argmax |a w|^2 s.t. ||w||^2 <= p, |b w|^2 <= gamma in closed form
    (Zhang & Liang, IEEE JSTSP 2008): MRT when it keeps C1; otherwise
    modulus sqrt(gamma)/||b|| on b^H/||b|| and the rest of the power on the
    part of a^H orthogonal to b^H, both phases aligned with a."""
    w_mrt = np.sqrt(p) * a.conj() / np.linalg.norm(a)
    if abs(b @ w_mrt) ** 2 <= gamma:
        return w_mrt
    b_hat = b.conj() / np.linalg.norm(b)
    a_par = np.vdot(b_hat, a.conj())
    a_perp = a.conj() - a_par * b_hat
    s = np.sqrt(gamma) / np.linalg.norm(b)
    return (s * a_par / abs(a_par) * b_hat
            + np.sqrt(p - s ** 2) * a_perp / np.linalg.norm(a_perp))


def _assert_step_optimal(w, state, ch, sc):
    """w meets the budget and C1 and reaches the closed form's |a w|^2."""
    a = effective_su_row(state, ch, sc)
    b = effective_pu_row(state, ch, sc)
    assert np.vdot(w, w).real <= sc.p_max_w * (1 + 1e-6)
    assert abs(b @ w) ** 2 <= sc.gamma_w * (1 + 1e-6)
    oracle = _zhang_liang_beamformer(a, b, sc.p_max_w, sc.gamma_w)
    assert abs(a @ w) ** 2 == pytest.approx(abs(a @ oracle) ** 2, rel=1e-6)


@pytest.mark.parametrize("cap", ["slack", "binding"])
@pytest.mark.parametrize("n_s,tilt", [
    pytest.param(n_s, tilt, id=f"iid-ns{n_s}{tilt:+.0f}deg")
    for n_s in (2, 4, 8) for tilt in (-30.0, -90.0)]
    + [pytest.param(None, None, id="pathloss")])
def test_beamformer_step_matches_closed_form(n_s, tilt, cap, scenario,
                                             iid_scenario):
    """The step is the subproblem's exact optimum and is feasible as it
    comes out.  With C1 slack (Gamma = 1e9) it is MRT.  With C1 binding
    (Gamma a tenth of the MRT leak) it is the closed form, which reaches
    the bound of the subproblem's relaxation solved by sdp.solve and meets
    C1 and the budget to 1e-9 with no rescale."""
    if n_s is None:
        sc, tilt = scenario, select_tilt(scenario).theta_tilt_deg
    else:
        sc = apply_overrides(iid_scenario, {"n_s": n_s})
    ch = generate_channels(sc, seed=0)
    state = DesignState(np.zeros(sc.n_s, dtype=complex),
                        initial_phases(sc.n_ris, 0), tilt)
    a = effective_su_row(state, ch, sc)
    b = effective_pu_row(state, ch, sc)
    w_mrt = np.sqrt(sc.p_max_w) * a.conj() / np.linalg.norm(a)
    gamma = 1e9 if cap == "slack" else 0.1 * abs(b @ w_mrt) ** 2
    sc = apply_overrides(sc, {"gamma_w": float(gamma)})
    model = metrics.link_model(state, ch, sc, pbs_beamformer(ch.h_p,
                                                             sc.pp_dbw))
    diag = {}
    w, *_ = optimizer._beamformer_step(state, model.rows(state.phases), ch,
                                       sc, model, True, diag)
    if cap == "slack":
        assert diag["ws_step"] == "mrt"
        _assert_step_optimal(w, state, ch, sc)
        return
    assert diag["ws_step"] == "closed-form"
    relaxed = solve(build_ws_problem(state, ch, sc))
    assert relaxed.status == "optimal"
    assert np.vdot(w, w).real <= sc.p_max_w * (1 + 1e-9)
    assert abs(b @ w) ** 2 <= sc.gamma_w * (1 + 1e-9)
    assert abs(a @ w) ** 2 >= relaxed.objective * (1 - 1e-6)


@given(n_s=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       a_exp=st.floats(-235.0, 3.0), b_exp=st.floats(-140.0, 3.0),
       offset=st.none() | st.just(0.0) | st.floats(-12.0, -4.0),
       cap=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_c1_capped_beamformer_properties(n_s, seed, a_exp, b_exp, offset,
                                         cap, scenario):
    """The closed form where MRT breaks C1, on random rows, on exactly
    parallel rows (the one-element degeneracy, and every n_s = 1 case), on
    rows 10^offset off parallel (where one Gram-Schmidt pass leaves enough
    of b_hat in the orthogonal part to break C1), and on rows scaled by
    10^-235 to 10^3.  Gamma runs from the rounding floor 1e-10 P ||b||^2,
    below which |b w| is at the rounding error of ||b|| ||w||, up to just
    below MRT's leak; the b scale stops at 10^-140 so that this range holds
    normal floats.  The step is finite, meets C1 and the budget to 1e-9,
    and does at least as well as MRT scaled down to meet the cap."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n_s)) + 1j * rng.standard_normal((2, n_s))
    if offset is not None:
        b = complex(rng.standard_normal(), rng.standard_normal()) * (
            a + (10.0 ** offset if offset else 0.0) * b)
    a = a / np.abs(a).max() * 10.0 ** a_exp
    b = b / np.abs(b).max() * 10.0 ** b_exp
    p = scenario.p_max_w
    w_mrt = optimizer._mrt(a, p)
    leak = abs(b @ w_mrt) ** 2
    floor, top = 1e-10 * p * np.vdot(b, b).real, leak * (1 - 1e-9)
    assume(floor < top)
    gamma = floor * (top / floor) ** cap
    w = optimizer._c1_capped(w_mrt, b, apply_overrides(
        scenario, {"gamma_w": float(gamma)}))
    assert np.isfinite(w).all()
    assert abs(b @ w) ** 2 <= gamma * (1 + 1e-9)
    assert np.vdot(w, w).real <= p * (1 + 1e-9)
    a_unit = a / np.abs(a).max()    # |a w|^2 itself underflows at 10^-235
    assert abs(a_unit @ w) ** 2 >= (abs(a_unit @ w_mrt) ** 2 * gamma / leak
                                    * (1 - 1e-9))


@pytest.mark.parametrize("n_s", [2, 4])
def test_zero_signal_beamformer_step(n_s, iid_scenario, monkeypatch):
    """With h_s = G = 0 the SU row is zero, so every beamformer gives SE 0:
    the step is the zero beamformer, which leaks nothing, taken as MRT
    with no SDP, and the design is feasible with SE 0.  (While the step
    solved the beamformer relaxation here, its objective was zero and the
    IPM returned a non-rank-one X.)"""
    sc = apply_overrides(iid_scenario, {"n_s": n_s})
    ch = generate_channels(sc, seed=0)
    ch = dataclasses.replace(ch, h_s=np.zeros_like(ch.h_s),
                             G=np.zeros_like(ch.G))
    steps = []
    real_step = optimizer._beamformer_step

    def step_spy(*args):
        step = real_step(*args)
        steps.append(step[0])
        return step

    monkeypatch.setattr(optimizer, "_beamformer_step", step_spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=0, fixed_tilt_deg=-30.0)
    assert log == []
    (w,) = steps
    np.testing.assert_array_equal(w, np.zeros(n_s))
    assert [d["ws_step"] for d in res.diagnostics] == ["mrt"]
    assert res.feasible
    assert res.se == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_zero_pattern_gains_take_zero_beamformer(method, scenario,
                                                 monkeypatch):
    """With the SU and the RIS at 0 deg and the tilt at -180 deg, A_d and
    A_r are exactly 0.0 (3,888 dB down), so the SU row is zero for every
    method.  Each run solves no SDP and ends in one outer iteration with
    the zero beamformer, SE 0.0 and ``feasible``, and no RuntimeWarning.
    (While a zero row took the beamformer relaxation, each method solved
    one n_s-dim SDP with a zero objective, whose beamformer had a max
    modulus of about 0.99 and radiated toward the PU for no signal.)"""
    sc = apply_overrides(scenario, {"theta_d_deg": 0.0, "theta_r_deg": 0.0})
    state = DesignState(np.zeros(sc.n_s, dtype=complex), np.zeros(sc.n_ris),
                        -180.0)
    assert pattern_gains(state, sc)[:2] == (0.0, 0.0)
    results = []
    real = experiments.run_algorithm1

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "run_algorithm1", spy)
    log = _solve_log(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trial = run_trial(sc, method, seed=0, fixed_tilt_deg=-180.0)
    assert log == []
    (res,) = results
    np.testing.assert_array_equal(res.state.w_s, np.zeros(sc.n_s))
    assert trial.se_bps_hz == 0.0 and trial.feasible
    assert trial.outer_iterations == 1


def test_phase_problem_zero_beamformer(iid_scenario):
    ch = generate_channels(iid_scenario, seed=9)
    state = DesignState(np.zeros(iid_scenario.n_s, dtype=complex),
                        initial_phases(iid_scenario.n_ris, 9),
                        iid_scenario.theta_r_deg)
    problem, l1, l2 = build_phase_problem(state, ch, iid_scenario)
    assert l1 == 0.0 and l2 == 0.0
    np.testing.assert_array_equal(problem.c, 0.0)
    np.testing.assert_array_equal(problem.a[0], 0.0)


def test_phase_problem_matrices_hermitian(iid_scenario, rng):
    ch = generate_channels(iid_scenario, seed=10)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = DesignState(w, initial_phases(iid_scenario.n_ris, 10),
                        iid_scenario.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, iid_scenario)
    np.testing.assert_allclose(problem.c, problem.c.conj().T, atol=1e-12)
    np.testing.assert_allclose(problem.a[0], problem.a[0].conj().T,
                               atol=1e-12)


def test_phase_problem_unit_diagonal_rows(iid_scenario):
    """Rows 1..N+1 of the phase SDP are X_ii = 1."""
    ch = generate_channels(iid_scenario, seed=10)
    n = iid_scenario.n_ris + 1
    state = DesignState(np.ones(2, dtype=complex), initial_phases(n - 1, 10),
                        iid_scenario.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, iid_scenario)
    assert problem.unit_diagonal
    rows = problem.constraints[1:]
    assert len(rows) == n
    for i, (a, b) in enumerate(rows):
        np.testing.assert_array_equal(a, np.diag(np.eye(n)[i]))
        assert b == 1.0


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
        quad2 = l2 + float(np.vdot(x, problem.a[0] @ x).real)
        direct2 = pu_interference(state, ch, iid_scenario)
        assert quad2 == pytest.approx(direct2, rel=1e-10)


@pytest.mark.parametrize("tilt", [-170.0, -175.0, -178.0])
def test_phase_quadratic_form_identity_far_off_boresight(tilt, iid_scenario,
                                                          rng):
    """The identity holds where the product of two power gains underflows:
    with every angle at -50 deg, A_d = A_r = 3.2e-188 at a -175 deg tilt,
    so a cross column built from sqrt(A_d A_r) reads 0.0 while the terms
    sqrt(A_d) h_s^H w and sqrt(A_r) u^H diag(e^{j alpha}) G w do not."""
    sc = apply_overrides(iid_scenario, {"theta_d_deg": -50.0,
                                        "theta_r_deg": -50.0,
                                        "theta_i_deg": -50.0})
    for seed in range(5):
        ch = generate_channels(sc, seed=seed)
        w = rng.standard_normal(sc.n_s) + 1j * rng.standard_normal(sc.n_s)
        alphas = rng.uniform(0, 2 * np.pi, sc.n_ris)
        state = DesignState(w, alphas, tilt)
        problem, l1, l2 = build_phase_problem(state, ch, sc)
        x = np.append(np.exp(1j * alphas), 1.0)
        a, b = metrics.link_model(state, ch, sc).rows(alphas)
        # abs=0: both sides are about 1e-187, far below approx's default
        assert l1 + np.vdot(x, problem.c @ x).real == pytest.approx(
            abs(a @ w) ** 2, rel=1e-10, abs=0.0)
        assert l2 + np.vdot(x, problem.a[0] @ x).real == pytest.approx(
            abs(b @ w) ** 2, rel=1e-10, abs=0.0)


def test_phase_quadratic_form_identity_pathloss_scale(scenario):
    """Criterion 4's identity on its 50 path-loss draws (``rng(4)``, odd
    k) at a relative gate alone: |a(alpha) w|^2 is 1e-19 to 1e-15 there,
    so approx's default abs=1e-12 would pass any value."""
    rng = np.random.default_rng(4)
    iid = apply_overrides(scenario, {"channel": {"iid_mode": True}})
    for k in range(100):
        sc = scenario if k % 2 else iid
        ch = generate_channels(sc, seed=k)
        w = rng.standard_normal(sc.n_s) + 1j * rng.standard_normal(sc.n_s)
        alphas = rng.uniform(0, 2 * np.pi, sc.n_ris)
        if not k % 2:
            continue        # the iid draws only advance the stream
        state = DesignState(w, alphas, sc.theta_r_deg)
        problem, l1, _ = build_phase_problem(state, ch, sc)
        x = np.append(np.exp(1j * alphas), 1.0)
        direct = abs(np.dot(effective_su_row(state, ch, sc), w)) ** 2
        assert direct < 1e-12
        assert l1 + np.vdot(x, problem.c @ x).real == pytest.approx(
            direct, rel=1e-10, abs=0.0)


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
           / (sc.noise_w + abs(np.vdot(ch.f_s, w_p)) ** 2))
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


@pytest.mark.parametrize("tilt", [30.0, -180.5, float("nan"), "x", False,
                                  pytest.param([1], id="list")])
def test_fixed_tilt_outside_range_rejected_before_any_solve(
        iid_scenario, tilt, monkeypatch):
    def no_solve(problem):
        raise AssertionError("solve called")

    monkeypatch.setattr(sdp, "solve", no_solve)
    ch = generate_channels(iid_scenario, seed=4)
    with pytest.raises(ValueError, match="fixed_tilt_deg"):
        run_algorithm1(ch, iid_scenario, seed=4, fixed_tilt_deg=tilt)


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


def test_c1_repair_reaches_cap_at_rounding_floor(iid_scenario):
    """With Γ = 1e-30, |b w| sits at the rounding floor of ||b|| ||w||, and
    the one C1 rescale of this instance lands 29% above Γ."""
    sc = apply_overrides(iid_scenario, {"gamma_w": 1e-30, "n_ris": 1,
                                        "n_s": 8})
    res = run_algorithm1(generate_channels(sc, seed=2), sc, seed=2)
    assert res.feasible
    assert res.pu_interference_w <= sc.gamma_w


def test_tight_cap_spends_the_whole_budget(iid_scenario):
    """iid n_s=8, Gamma = 1e-9, -30 deg, seed 8: the closed form meets the
    cap with the whole budget and reaches the beamformer relaxation's bound.
    The relaxation's sqrt(lambda_1) q_1 leaked 10.5 Gamma from an
    `optimal` solve here, and the C1 rescale left 0.92 W of the 10 W at SE
    5.6214.  The phase relaxation then fails numerically and the phases
    stay, so the final SE is that of the first beamformer step."""
    sc = apply_overrides(iid_scenario, {"n_s": 8, "gamma_w": 1e-9})
    ch = generate_channels(sc, seed=8)
    res = run_algorithm1(ch, sc, seed=8, fixed_tilt_deg=-30.0)
    assert res.feasible
    assert res.power_w == pytest.approx(sc.p_max_w, rel=1e-6)
    state = DesignState(np.zeros(sc.n_s, dtype=complex),
                        initial_phases(sc.n_ris, 8), -30.0)
    bound = solve(build_ws_problem(state, ch, sc)).objective
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    denom = sc.noise_w + abs(np.vdot(ch.f_s, w_p)) ** 2
    assert res.se == pytest.approx(se_su(bound / denom), rel=1e-6)
    assert res.se == pytest.approx(7.8433, abs=1e-4)


def test_ipm_iteration_counts_pinned(scenario, iid_scenario, monkeypatch):
    """Exact (dim, #constraints, status, IPM iterations) of every SDP solve
    of two fixed runs, in order.

    Integer counts catch a change of the interior-point path that the SE
    comparison at rtol 1e-6 would let through.  On the path-loss default C1
    binds at neither block, so every outer iteration takes MRT and the
    co-phased profile and nothing is solved; the iid n_s=4 trial at -30 deg
    is a C1-binding case where MRT breaks C1 and every phase step takes the
    certified projection: each outer iteration takes the closed-form
    beamformer and solves the phase relaxation, and no SROCR round."""
    log = _solve_log(monkeypatch)
    run_algorithm1(generate_channels(scenario, seed=0), scenario, seed=0)
    assert log == []
    iid4 = apply_overrides(iid_scenario, {"n_s": 4})
    run_trial(iid4, "proposed", seed=0, fixed_tilt_deg=-30.0)
    counts = [(p.c.shape[0], len(p.constraints), sol.status, sol.iterations)
              for p, sol in zip(log, log.solutions)]
    assert counts == [(21, 22, "optimal", iters) for iters in (11, 11, 10, 10)]


@pytest.mark.parametrize("case", [
    pytest.param((None, seed, None), id=f"pathloss-{seed}")
    for seed in range(5)] + [
    pytest.param((4, 0, tilt), id=f"iid-ns4{tilt:+.0f}deg")
    for tilt in (-90.0, 0.0)])
def test_c1_slack_iterations_take_closed_form(case, scenario, iid_scenario,
                                              monkeypatch):
    """Where C1 binds at neither block, every outer iteration takes MRT at
    full power and the co-phased profile for it, and no SDP is solved.
    The final beamformer is MRT for the phases it was taken under (the
    last phase step moves them after it), and the final phases co-phase
    it."""
    n_s, seed, tilt = case
    sc = scenario if n_s is None else apply_overrides(iid_scenario,
                                                      {"n_s": n_s})
    ch = generate_channels(sc, seed=seed)
    taken = []
    real = optimizer._beamformer_step

    def spy(state, *args):
        step = real(state, *args)
        taken.append((state, step))
        return step

    monkeypatch.setattr(optimizer, "_beamformer_step", spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=tilt)
    assert log == []
    assert all(d["ws_step"] == "mrt" and d["phase_recovery"] == "cophase"
               and "ws_sdp_status" not in d for d in res.diagnostics)
    before, (w, _, (phases, *_)) = taken[-1]
    a = effective_su_row(before, ch, sc)
    np.testing.assert_allclose(
        w, np.sqrt(sc.p_max_w) * a.conj() / np.linalg.norm(a), rtol=1e-12)
    assert np.vdot(w, w).real == pytest.approx(sc.p_max_w, rel=1e-12)
    # accept may scale w down by an ulp to keep it within the budget
    np.testing.assert_allclose(res.state.w_s, w, rtol=1e-15)
    np.testing.assert_array_equal(res.state.phases, phases)
    np.testing.assert_allclose(np.exp(1j * phases),
                               np.exp(1j * cophased_phases(res.state.w_s, ch)),
                               atol=1e-12)
    assert res.feasible


def test_c1_binding_phase_step_keeps_beamformer_sdp(iid_scenario,
                                                    monkeypatch):
    """An iteration whose MRT keeps C1 but whose co-phased profile for it
    does not runs the beamformer SDP and the phase SDP as before.  On the
    iid n_s=4 trial at -30 deg, seed 2, the first three iterations' MRT
    breaks C1 and they take the closed form; the last three start from
    such a slack MRT and solve both SDPs.  There the relaxation has C1 slack
    at the beamformer, and its sqrt(lambda_1) q_1 reaches MRT's optimum."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=2)
    mrt_slack = []
    real = optimizer._beamformer_step

    def spy(state, *args):
        a = effective_su_row(state, ch, sc)
        mrt = dataclasses.replace(state, w_s=np.sqrt(sc.p_max_w) * a.conj()
                                  / np.linalg.norm(a))
        mrt_slack.append(pu_interference(mrt, ch, sc) <= sc.gamma_w)
        step = real(state, *args)
        if mrt_slack[-1]:
            _assert_step_optimal(step[0], state, ch, sc)
        return step

    monkeypatch.setattr(optimizer, "_beamformer_step", spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=2, fixed_tilt_deg=-30.0)
    assert mrt_slack == [False] * 3 + [True] * 3
    assert [d["ws_step"] for d in res.diagnostics] == (
        ["closed-form"] * 3 + ["sdp"] * 3)
    assert all(d["phase_recovery"] != "cophase" for d in res.diagnostics)
    assert sum(p.dim == sc.n_s for p in log) == 3


def test_failed_beamformer_relaxation_leaves_mrt(iid_scenario,
                                                monkeypatch):
    """Where the beamformer relaxation is not solved to optimality, MRT
    stands: with C1 slack at MRT it is the relaxation's optimum.  Every
    dense-only solve (the beamformer relaxation; the phase relaxations
    carry the unit diagonal) of the iid n_s=4, -30 deg, seed-2 trial is
    forced to end ``max-iterations``.  The trial still reaches the
    relaxation 3 times, and each ``sdp`` step records that status and takes
    MRT for its rows, bit for bit."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    real_solve = sdp.solve

    def forced(problem):
        sol = real_solve(problem)
        return (sol if problem.unit_diagonal
                else dataclasses.replace(sol, status="max-iterations"))

    monkeypatch.setattr(sdp, "solve", forced)
    steps = []
    real = optimizer._beamformer_step

    def spy(state, rows, *args):
        step = real(state, rows, *args)
        steps.append((rows[0], step[0], args[-1]))
        return step

    monkeypatch.setattr(optimizer, "_beamformer_step", spy)
    run_trial(sc, "proposed", seed=2, fixed_tilt_deg=-30.0)
    relaxed = [(a, w, diag) for a, w, diag in steps
               if diag["ws_step"] == "sdp"]
    assert len(relaxed) == 3
    for a, w, diag in relaxed:
        assert diag["ws_sdp_status"] == "max-iterations"
        np.testing.assert_array_equal(w, optimizer._mrt(a, sc.p_max_w))


def _phase_objective(problem, l1, phases):
    """l1 + x^H H1 x at x = [e^{j phases}; 1]."""
    x = np.append(np.exp(1j * np.asarray(phases)), 1.0)
    return l1 + float(np.vdot(x, problem.c @ x).real)


@pytest.mark.parametrize("case", [f"pathloss-{s}" for s in range(5)]
                         + ["iid-slack"])
def test_cophased_phases_reach_relaxation_bound_when_c1_slack(
        case, scenario, iid_scenario):
    """With C1 slack the co-phased profile attains the SDP relaxation's
    bound, so it is the phase subproblem's global optimum and no extracted
    SROCR vector beats it."""
    if case == "iid-slack":
        sc, seed = apply_overrides(iid_scenario, {"gamma_w": 1e3}), 0
    else:
        sc, seed = scenario, int(case.split("-")[1])
    ch = generate_channels(sc, seed=seed)
    state = run_algorithm1(ch, sc, seed=seed).state
    cophased = cophased_phases(state.w_s, ch)
    assert pu_interference(dataclasses.replace(state, phases=cophased), ch,
                           sc) <= sc.gamma_w
    problem, l1, _ = build_phase_problem(state, ch, sc)
    relaxed = solve(problem)
    assert relaxed.status == "optimal"
    value = _phase_objective(problem, l1, cophased)
    assert value == pytest.approx(l1 + relaxed.objective, rel=1e-6)
    refined = srocr.refine(problem, relaxed, unit_modulus=True)
    assert refined.feasible
    extracted = np.angle(srocr.extract_vector(refined, "phases")[:-1])
    assert value >= _phase_objective(problem, l1, extracted) * (1 - 1e-12)


@pytest.mark.parametrize("case", ["zero-direct-channel", "direct-gain-zero"])
def test_cophased_phases_without_direct_term(case, iid_scenario):
    """No direct term: the phase step must still add the reflected paths in
    phase, giving A_r (sum_n |u_n^* (G w)_n|)^2.  Angles read off the
    homogenized cross column (zero here) would all be 0 and fall short."""
    sc = apply_overrides(iid_scenario, {"gamma_w": 1e9})
    ch = generate_channels(sc, seed=3)
    if case == "zero-direct-channel":
        ch = dataclasses.replace(ch, h_s=np.zeros_like(ch.h_s))
    else:
        # a 2-degree beam at the surface leaves the user 50 deg off
        # boresight, 7,500 dB down: A_d is exactly 0.0 in floating point
        sc = apply_overrides(sc, {"pattern": {"theta_3db_deg": 2.0}})
    res = run_algorithm1(ch, sc, seed=3)
    assert [d["phase_recovery"] for d in res.diagnostics] == (
        ["cophase"] * res.outer_iterations)
    state = res.state
    a_d, a_r, _ = pattern_gains(state, sc)
    if case == "direct-gain-zero":
        assert a_d == 0.0
    problem, l1, _ = build_phase_problem(state, ch, sc)
    assert not problem.c[:-1, -1].any()
    expected = a_r * np.sum(np.abs(ch.u.conj() * (ch.G @ state.w_s))) ** 2
    assert _phase_objective(problem, l1, state.phases) == pytest.approx(
        expected, rel=1e-12)


def test_binding_c1_runs_phase_sdp_with_srocr(iid_scenario, monkeypatch):
    """Where co-phasing violates C1, the phase step falls back to the
    relaxation: one phase SDP (N+1 unknowns, C1 plus N+1 unit diagonals)
    per such step, and none where co-phasing is feasible.  Each such step
    takes the certified projection or runs SROCR; the seed-1 trial at
    -30 deg does both."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=1)
    violations = []
    real_cophase = optimizer.cophased_phases

    def cophase_spy(w, channels):
        phases = real_cophase(w, channels)
        violations.append(pu_interference(DesignState(w, phases, -30.0),
                                          channels, sc) > sc.gamma_w)
        return phases

    monkeypatch.setattr(optimizer, "cophased_phases", cophase_spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=1, fixed_tilt_deg=-30.0)
    recoveries = [d["phase_recovery"] for d in res.diagnostics]
    assert [r != "cophase" for r in recoveries] == violations
    assert set(recoveries) - {"cophase"} == {"certified", "srocr"}
    n = sc.n_ris
    shapes = [(p.c.shape[0], len(p.constraints)) for p in log]
    assert shapes.count((n + 1, n + 2)) == sum(violations)


def test_certified_phase_step_is_feasible_and_optimal(iid_scenario,
                                                     monkeypatch):
    """Every C1-binding phase step of the iid n_s=4 trials at -30 deg,
    seeds 0-3 and 7.  A certified step is unit-modulus, meets C1 with no
    slack, reaches the relaxation's bound within sdp.TOL and is no worse
    than SROCR on the same problem; every other step runs SROCR.  No step
    of seed 7 certifies: its projections all break C1."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    steps = []
    real = optimizer._solve_phases

    def spy(state, rows, channels, scenario, model, seed, diag):
        move = real(state, rows, channels, scenario, model, seed, diag)
        steps.append((state, channels, diag, move[0]))
        return move

    monkeypatch.setattr(optimizer, "_solve_phases", spy)
    certified = {}
    for seed in (0, 1, 2, 3, 7):
        steps.clear()
        run_algorithm1(generate_channels(sc, seed=seed), sc, seed=seed,
                       fixed_tilt_deg=-30.0)
        certified[seed] = 0
        for state, ch, diag, phases in steps:
            if diag["phase_recovery"] == "cophase":
                continue
            problem, _, _ = build_phase_problem(state, ch, sc)
            relaxed = solve(problem)
            bound = relaxed.objective
            x = np.append(np.exp(1j * phases), 1.0)
            value = float(np.vdot(x, problem.c @ x).real)
            assert diag["phase_sdr_gap"] == (bound - value) / abs(bound)
            if diag["phase_recovery"] != "certified":
                assert diag["phase_recovery"] == "srocr"
                assert "phase_srocr_iters" in diag
                continue
            certified[seed] += 1
            assert "phase_srocr_iters" not in diag
            np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-15)
            assert np.vdot(x, problem.a[0] @ x).real <= problem.b[0]
            assert value >= (1 - sdp.TOL) * bound
            refined = srocr.refine(problem, relaxed, unit_modulus=True)
            assert refined.feasible
            y = srocr.extract_vector(refined, "phases")
            y = np.append(np.exp(1j * np.angle(y[:-1])), 1.0)
            assert value >= (float(np.vdot(y, problem.c @ y).real)
                             - sdp.TOL * abs(bound))
    assert certified[7] == 0
    assert all(certified[seed] > 0 for seed in (0, 1, 2, 3))


class _SolveLog(list):
    """Every problem passed to sdp.solve, in order, and in ``solutions``
    what each solve returned."""

    def __init__(self):
        super().__init__()
        self.solutions = []

    def clear(self):
        super().clear()
        self.solutions.clear()


def _solve_log(monkeypatch):
    """Record every sdp.solve call in a _SolveLog."""
    log = _SolveLog()
    real = sdp.solve

    def spy(problem):
        log.append(problem)
        log.solutions.append(real(problem))
        return log.solutions[-1]

    monkeypatch.setattr(sdp, "solve", spy)
    return log


def test_far_tilt_beamformer_relaxation_is_rank_one(iid_scenario):
    """At -180 deg the beamformer objective is ~1e-120.  Scaled to unit
    size, its 2-constraint relaxation comes out rank one at full power
    (C1 is slack)."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=0)
    state = DesignState(np.zeros(sc.n_s, dtype=complex),
                        initial_phases(sc.n_ris, 0), -180.0)
    problem = build_ws_problem(state, ch, sc)
    assert np.linalg.norm(problem.c) < 1e-100
    sol = solve(problem)
    assert sol.status == "optimal"
    assert srocr._ratio_eigpair(sol.x)[0] >= srocr.RANK_TOL
    a = effective_su_row(state, ch, sc)
    assert sol.objective == pytest.approx(
        sc.p_max_w * np.vdot(a, a).real, rel=1e-6)


def _same_problem(p, q):
    return (np.array_equal(p.c, q.c) and p.b == q.b
            and p.unit_diagonal == q.unit_diagonal
            and all(map(np.array_equal, p.a, q.a)))


def test_no_identical_consecutive_solves(iid_scenario, monkeypatch):
    """The -30 deg seed-2 trial has SROCR rounds that fail with the
    weight clipped at 1; the repeat of such a round is not solved again,
    and the result is unchanged."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    log = _solve_log(monkeypatch)
    trial = run_trial(sc, "proposed", seed=2, fixed_tilt_deg=-30.0)
    assert not any(_same_problem(p, q) for p, q in zip(log, log[1:]))
    # the SE as it was when every failed round was solved again
    # (9.17093217784074), moved by +3.2e-7 where the certified projection
    # replaced SROCR in five of the six phase steps
    assert trial.se_bps_hz == pytest.approx(9.17093511520082, rel=1e-9)
    assert trial.outer_iterations == 6


def test_far_tilt_cophase_steps_take_closed_form(iid_scenario, monkeypatch):
    """At -90 deg A_r is ~1e-44 against A_d ~ 0.06, so the reflected path
    sits below an ulp of the direct one: the co-phased step moves the
    phases but not the SU row, and the second MRT step equals the first.
    Neither iteration solves an SDP."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=0)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=0, fixed_tilt_deg=-90.0)
    assert log == []
    assert [d["ws_step"] for d in res.diagnostics] == ["mrt"] * 2
    assert [d["phase_recovery"] for d in res.diagnostics] == ["cophase"] * 2
    assert not np.array_equal(res.state.phases, initial_phases(sc.n_ris, 0))
    assert res.se_trace[0] == res.se_trace[1]
    # the SE as it was when the step was sqrt(lambda_1) q_1 of the
    # beamformer relaxation
    assert res.se == pytest.approx(0.9329264314127038, rel=1e-8)


@pytest.mark.parametrize("method", ["proposed", "random_phase"])
def test_no_beamformer_sdp_solved_twice_in_a_row(method, iid_scenario,
                                                 monkeypatch):
    """Over the tilt grid, no run solves a beamformer SDP byte-equal to
    the one it solved before (the phase SDPs have dim N + 1).  Iterations
    where C1 binds at neither block solve none; every -30 deg run, where
    MRT breaks C1, takes the closed form at least once."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    log = _solve_log(monkeypatch)
    capped = []
    real = optimizer._c1_capped

    def spy(*args):
        capped.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "_c1_capped", spy)
    for tilt in range(-180, 1, 30):
        for seed in (0, 1):
            log.clear()
            capped.clear()
            run_trial(sc, method, seed=seed, fixed_tilt_deg=float(tilt))
            solved = [p for p in log if p.dim == sc.n_s]
            assert capped or tilt != -30, seed
            assert not any(_same_problem(p, q)
                           for p, q in zip(solved, solved[1:])), (tilt, seed)


def _full_weight_point(problem: sdp.SdpProblem):
    """u with u u^H the one point of a unit-diagonal problem whose last row
    is a full-weight SROCR alignment I - a a^H, a = u / sqrt(n); None when
    the last row is not one."""
    n = problem.dim
    vals, vecs = np.linalg.eigh(np.eye(n) - problem.a[-1])  # a a^H at w=1
    if not np.allclose(vals[:-1], 0.0, atol=1e-12):
        return None
    u = np.sqrt(n * vals[-1]) * vecs[:, -1]
    np.testing.assert_allclose(np.abs(u), 1.0, rtol=1e-12)
    return u


@pytest.mark.parametrize("seed, unsolved_rounds, solved_rounds",
                         [(2, 4, 0), (7, 0, 5)])
def test_full_weight_rounds_that_keep_c1_are_not_solved(
        seed, unsolved_rounds, solved_rounds, iid_scenario, monkeypatch):
    """An SROCR round at weight 1 has one feasible point: with
    a = u / sqrt(n) and u unit-modulus, tr((I - a a^H) X) <= 0 forces
    X = c a a^H, and the unit diagonal fixes X = u u^H.  Where that point
    meets C1 the round has no interior, and the interior-point method
    fails on it, so refine counts it as failed without solving it.  The
    -30 deg seed-2 trial decides four such rounds, each with a C1 margin
    of 4% or more; every weight-1 round the seed-7 trial solves breaks C1
    at u u^H."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    log = _solve_log(monkeypatch)
    events = []  # (refine's problem, a or None at its end, solves so far)
    real_refine, real_align = srocr.refine, srocr._align_direction

    def refine_spy(problem, relaxed, unit_modulus=False):
        events.append((problem, None, len(log)))
        result = real_refine(problem, relaxed, unit_modulus)
        events.append((problem, None, len(log)))
        return result

    def align_spy(q, unit_modulus):
        a = real_align(q, unit_modulus)
        events.append((events[-1][0], a, len(log)))
        return a

    monkeypatch.setattr(srocr, "refine", refine_spy)
    monkeypatch.setattr(srocr, "_align_direction", align_spy)
    run_trial(sc, "proposed", seed=seed, fixed_tilt_deg=-30.0)
    solved = [(problem, _full_weight_point(problem)) for problem in log
              if problem.unit_diagonal and len(problem.a) == 2]
    solved = [(problem, u) for problem, u in solved if u is not None]
    assert len(solved) == solved_rounds
    for problem, u in solved:
        assert float(np.vdot(u, problem.a[0] @ u).real) > problem.b[0]
    unsolved = [problem.with_constraint(np.eye(problem.dim)
                                        - np.outer(a, a.conj()), 0.0)
                for (problem, a, k), (*_, after) in zip(events, events[1:])
                if a is not None and after == k]
    assert len(unsolved) == unsolved_rounds
    for problem in unsolved:
        n = problem.dim
        assert (n, len(problem.constraints)) == (sc.n_ris + 1, n + 2)
        u = _full_weight_point(problem)
        assert u is not None
        point = np.outer(u, u.conj())
        assert constraint_violation(problem, point) <= 1e-12
        assert (float(np.vdot(u, problem.a[0] @ u).real)
                <= (1 - 0.04) * problem.b[0])
        assert solve(problem).status != "optimal"


@pytest.mark.parametrize("n_s, tilts", [(4, (-22.0, -38.0)),
                                         (8, (-24.0, -36.0))])
def test_tilts_mirrored_about_the_surface_reach_one_se(n_s, tilts,
                                                       iid_scenario):
    """Tilts mirrored about the RIS direction (-30 deg) give the reflected
    path the same pattern gain, while the direct and PU gains sit 210-930
    dB down at both, so each pair poses the same problem up to rounding.
    The n_s=4 pair came 3.5e-6 apart while full-weight SROCR rounds were
    left to the interior-point method, whose status there follows
    rounding."""
    sc = apply_overrides(iid_scenario, {"n_s": n_s})
    first, second = (run_trial(sc, "proposed", seed=2, fixed_tilt_deg=tilt)
                     .se_bps_hz for tilt in tilts)
    assert second == pytest.approx(first, rel=1e-9)


@pytest.mark.parametrize("method", ["random_phase", "fixed_zero_phase",
                                    "no_ris"])
def test_fixed_phase_methods_solve_only_in_first_iteration(
        method, iid_scenario, monkeypatch):
    """With the phases frozen the first iteration is a fixed point, so the
    second is recorded as its replay and nothing is solved for it.  At the
    RIS tilt (-30 deg) MRT breaks C1 and the first iteration takes the
    closed form.  Without a surface the tilt points at the user and MRT
    keeps C1.  Neither solves an SDP."""
    sc = apply_overrides(iid_scenario, {
        "n_s": 4, "n_ris": 0 if method == "no_ris" else iid_scenario.n_ris})
    log = _solve_log(monkeypatch)
    res = run_algorithm1(generate_channels(sc, seed=1), sc, seed=1,
                         update_phases=False,
                         zero_phase_start=(method == "fixed_zero_phase"))
    assert res.outer_iterations == 2
    first, replay = res.diagnostics
    assert "replayed" not in first
    assert replay == dict(first, iteration=2, replayed=True)
    assert res.se_trace[1] == res.se_trace[0] == first["se"] > 0
    assert log == []
    if method == "no_ris":
        assert res.tilt.branch == "direct" and first["ws_step"] == "mrt"
    else:
        assert first["ws_step"] == "closed-form"


@pytest.mark.parametrize(
    "seed", map(int, record.STORES["fixed_point_traces.json"].cases))
def test_proposed_fixed_point_is_replayed_not_solved(seed, iid_scenario,
                                                     monkeypatch):
    """A phase-updating run that reaches a fixed point records the replay
    with the same SE and solves nothing after its last real iteration:
    capping the loop there solves exactly the same SDPs."""
    sc = apply_overrides(iid_scenario, {"n_s": 2})
    ch = generate_channels(sc, seed=seed)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=-30.0)
    assert res.se_trace == record.committed("fixed_point_traces.json")[
        str(seed)]
    *real, replay = res.diagnostics
    assert not any(d.get("replayed") for d in real)
    assert replay == dict(real[-1], iteration=len(real) + 1, replayed=True)
    assert replay["phase_recovery"] == "srocr"
    solved = list(log)
    log.clear()
    monkeypatch.setattr(optimizer, "MAX_OUTER_ITERS", len(real))
    capped = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=-30.0)
    assert capped.se_trace == res.se_trace[:-1]
    assert len(solved) == len(log) and all(map(_same_problem, solved, log))


def _readme_diagnostics_keys():
    """The keys the README's diagnostics list names: the backquoted names
    before the colon of each item."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    start = text.index("`OptimizerResult.diagnostics` holds")
    section = text[start:text.index("\n## ", start)]
    heads = re.findall(r"^- (.+?):", section, flags=re.M)
    return {key for head in heads for key in re.findall(r"`(\w+)`", head)}


def test_readme_lists_every_diagnostics_key(scenario, iid_scenario):
    """The README's diagnostics list matches the keys the loop emits over
    runs that take every path: closed form (path loss), certified and SROCR
    phase steps (iid n_s=4, -30 deg), and the replay of a phase-updating
    and of a frozen-phase fixed point."""
    runs = [(scenario, 0, None, True)]
    ns4 = apply_overrides(iid_scenario, {"n_s": 4})
    ns2 = apply_overrides(iid_scenario, {"n_s": 2})
    runs += [(ns4, 1, -30.0, True), (ns4, 2, -30.0, True),
             (ns2, 8, -30.0, True), (ns4, 1, -30.0, False)]
    emitted = set()
    for sc, seed, tilt, update in runs:
        res = run_algorithm1(generate_channels(sc, seed=seed), sc, seed=seed,
                             fixed_tilt_deg=tilt, update_phases=update)
        emitted.update(*res.diagnostics)
    assert _readme_diagnostics_keys() == emitted


# (scenario fixture, overrides, seed, fixed tilt, update_phases): path-loss
# solves at the analytic tilt and at -80 deg (toward the SU, where the run
# reaches its co-phased profile in the first iteration), a C1-binding iid
# n_s=4 solve at -30 deg that runs both SDPs, one without a surface and one
# with frozen phases
LOOP_CASES = {
    **{f"pathloss-{seed}": ("scenario", {}, seed, None, True)
       for seed in range(3)},
    "pathloss-80deg": ("scenario", {}, 0, -80.0, True),
    "iid-ns4-30deg": ("iid_scenario", {"n_s": 4}, 1, -30.0, True),
    "no-ris": ("scenario", {"n_ris": 0}, 0, None, True),
    "frozen-phases": ("iid_scenario", {"n_s": 4}, 1, -30.0, False),
}


def _loop_case(request, name):
    fixture, overrides, seed, tilt, update = LOOP_CASES[name]
    sc = apply_overrides(request.getfixturevalue(fixture), overrides)
    return sc, generate_channels(sc, seed=seed), seed, tilt, update


@pytest.mark.parametrize("case", ["pathloss-0", "iid-ns4-30deg"])
def test_pattern_gains_evaluated_once_per_call(case, request, monkeypatch):
    """The tilt is fixed before the loop starts, so a run_algorithm1 call
    evaluates the antenna pattern at most once per gain (A_d, A_r, A_i),
    however many rows, SINRs and C1 checks its iterations take."""
    sc, ch, seed, tilt, update = _loop_case(request, case)
    calls = []
    real = metrics.vertical_gain_linear

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics, "vertical_gain_linear", spy)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=tilt,
                         update_phases=update)
    assert res.outer_iterations > 1
    assert len(calls) <= 3


@pytest.mark.parametrize("case", ["pathloss-0", "pathloss-80deg",
                                  "iid-ns4-30deg"])
def test_rows_formed_once_per_phase_profile(case, request, monkeypatch):
    """Within a call only the phases and the beamformer move, so the loop
    carries each phase profile's rows and forms the two cascade products
    (SU and PU) at most once per distinct profile, also when a co-phased
    profile is the one the rows were carried for."""
    sc, ch, seed, tilt, update = _loop_case(request, case)
    profiles = []
    real = metrics.LinkModel.rows

    def spy(self, phases):
        profiles.append(phases.tobytes())
        return real(self, phases)

    monkeypatch.setattr(metrics.LinkModel, "rows", spy)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=tilt,
                         update_phases=update)
    assert res.outer_iterations > 1
    assert 2 * len(profiles) <= 2 * len(set(profiles))


@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_loop_agrees_bitwise_with_public_evaluators(case, request,
                                                    monkeypatch):
    """The loop's SE, C1 leak and beamformer-problem rows are the floats
    the public metrics functions give for the same state, exactly."""
    sc, ch, seed, tilt, update = _loop_case(request, case)
    built = []
    real = optimizer.build_ws_problem

    def spy(state, *args):
        problem = real(state, *args)
        built.append((state, problem))
        return problem

    monkeypatch.setattr(optimizer, "build_ws_problem", spy)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=tilt,
                         update_phases=update)
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    assert res.se == se_su(sinr_su(res.state, ch, w_p, sc))
    assert res.pu_interference_w == pu_interference(res.state, ch, sc)
    built.append((res.state, real(res.state, ch, sc)))
    for state, problem in built:    # SdpProblem symmetrizes what it takes
        a = effective_su_row(state, ch, sc)
        b = effective_pu_row(state, ch, sc)
        np.testing.assert_array_equal(
            problem.c, sdp.check_hermitian(np.outer(a.conj(), a)))
        np.testing.assert_array_equal(
            problem.a[0], sdp.check_hermitian(np.outer(b.conj(), b)))


def test_randomization_draws_afresh_from_trial_seed(iid_scenario,
                                                   monkeypatch):
    """A run whose phase steps never randomize makes no randomization
    stream, and every fallback step draws from a fresh stream_rng(seed,
    "randomization"), so the step is a function of the state alone.
    Forcing SROCR to fail on the seed-7 trial at -30 deg (no step of which
    certifies) sends each C1-binding phase step to the fallback."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=7)
    streams = []
    real_stream = optimizer.stream_rng

    def stream_spy(seed, name):
        streams.append(name)
        return real_stream(seed, name)

    monkeypatch.setattr(optimizer, "stream_rng", stream_spy)
    run_algorithm1(ch, sc, seed=7, fixed_tilt_deg=-30.0)
    assert "randomization" not in streams

    real_refine, real_randomize = srocr.refine, srocr.randomize_phases
    monkeypatch.setattr(srocr, "refine", lambda *a, **k: dataclasses.replace(
        real_refine(*a, **k), feasible=False))
    drawn = []

    def randomize_spy(problem, relaxed_x, rng):
        drawn.append(rng.bit_generator.state)
        return real_randomize(problem, relaxed_x, rng)

    monkeypatch.setattr(srocr, "randomize_phases", randomize_spy)
    streams.clear()
    res = run_algorithm1(ch, sc, seed=7, fixed_tilt_deg=-30.0)
    fresh = stream_rng(7, "randomization").bit_generator.state
    assert len(drawn) > 1 and all(state == fresh for state in drawn)
    assert streams.count("randomization") == len(drawn)
    randomized = [d for d in res.diagnostics if not d.get("replayed")
                  and d.get("phase_recovery") == "randomization"]
    assert len(randomized) == len(drawn)


def test_randomization_fallback_runs_unforced(iid_scenario):
    """SROCR stalls on real instances too: on iid n_s=4, N=8 at a tight cap
    (Gamma = 1e-12) and -30 deg, seed 6, the first phase step falls back to
    randomization, which would lower the SE and is rejected, so the run ends
    in a replay of that step at its start phases, feasible.  (Over iid
    n_s 2/4/8, N 1/2/4/8/16/32, -50 to -10 deg in steps of 5, seeds 0-29 at
    the default cap, no run randomizes; 30 of the 720 runs at n_s 4 and 8,
    Gamma 1e-12 to 1e-3, N 2/8/20, -30 deg, seeds 0-29 do, this one among
    them.)"""
    sc = apply_overrides(iid_scenario, {"n_s": 4, "n_ris": 8,
                                        "gamma_w": 1e-12})
    res = run_algorithm1(generate_channels(sc, seed=6), sc, seed=6,
                         fixed_tilt_deg=-30.0)
    assert [d["phase_recovery"] for d in res.diagnostics] == [
        "randomization"] * 2
    assert res.diagnostics[-1]["replayed"]
    np.testing.assert_array_equal(res.state.phases,
                                  initial_phases(sc.n_ris, 6))
    assert res.feasible
    assert all(b >= a for a, b in zip(res.se_trace, res.se_trace[1:]))


def test_rejected_randomized_step_is_replayed_not_solved(iid_scenario,
                                                        monkeypatch):
    """A randomized phase step that leaves the phases where the iteration
    found them ends that iteration at a fixed point, which is recorded as a
    replay and not solved again.  Which instances reach the fallback moves
    with rounding, so here SROCR is forced to fail on the iid n_s=4, -30 deg,
    seed-7 trial from the zero profile and the fallback hands back that
    profile: the run solves exactly what its first iteration solves."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=7)
    real_refine = srocr.refine
    monkeypatch.setattr(srocr, "refine", lambda *a, **k: dataclasses.replace(
        real_refine(*a, **k), feasible=False))
    monkeypatch.setattr(srocr, "randomize_phases",
                        lambda problem, relaxed_x, rng: np.ones(problem.dim))
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=7, fixed_tilt_deg=-30.0,
                         zero_phase_start=True)
    first, replay = res.diagnostics
    assert first["phase_recovery"] == "randomization"
    assert replay == dict(first, iteration=2, replayed=True)
    assert res.se_trace == [first["se"]] * 2
    np.testing.assert_array_equal(res.state.phases, np.zeros(sc.n_ris))
    solved = list(log)
    log.clear()
    monkeypatch.setattr(optimizer, "MAX_OUTER_ITERS", 1)
    capped = run_algorithm1(ch, sc, seed=7, fixed_tilt_deg=-30.0,
                            zero_phase_start=True)
    assert capped.se_trace == res.se_trace[:-1]
    assert len(solved) == len(log) and all(map(_same_problem, solved, log))


# -- tight-cap regression set ---------------------------------------------

TIGHT_CAPS = [pytest.param(n_s, n_ris, gamma, seed,
                           id=f"ns{n_s}-N{n_ris}-gamma{gamma:.0e}-seed{seed}")
              for n_s in (1, 4, 8) for n_ris in (2, 8, 20)
              for gamma in (1e-6, 1e-9, 1e-12) for seed in (5, 8)]


def _tight_cap_runs(iid_scenario, n_s, n_ris, gamma, seed):
    """The proposed run at -30 deg and its update_phases=False baseline."""
    sc = apply_overrides(iid_scenario,
                         {"n_s": n_s, "n_ris": n_ris, "gamma_w": gamma})
    ch = generate_channels(sc, seed=seed)
    return sc, [run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=-30.0,
                               update_phases=update)
                for update in (True, False)]


@pytest.mark.parametrize("n_s, n_ris, gamma, seed", TIGHT_CAPS)
def test_tight_cap_run_feasible_monotone(n_s, n_ris, gamma, seed,
                                         iid_scenario):
    """At tight interference caps (iid, -30 deg), where phase SDPs end
    non-optimal and phase recovery falls back to randomization, a run is
    still feasible, its SE trace never drops, its RIS coefficients have
    unit modulus, it raises no RuntimeWarning, and it ends at no less SE
    than the same run with the phases kept at their initialization."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sc, (res, baseline) = _tight_cap_runs(iid_scenario, n_s, n_ris,
                                              gamma, seed)
    assert res.feasible
    assert res.pu_interference_w <= sc.gamma_w * (1 + 1e-6)
    assert res.power_w <= sc.p_max_w * (1 + 1e-6)
    assert all(b >= a for a, b in zip(res.se_trace, res.se_trace[1:]))
    np.testing.assert_allclose(np.abs(res.state.ris_coefficients), 1.0,
                               rtol=1e-15)
    assert res.se >= baseline.se


def test_tight_cap_set_reaches_non_optimal_exits(iid_scenario):
    """The set above holds phase steps that fall back to randomization
    (n_s=4, N=2, Gamma=1e-9, seed 8), phase relaxations that end
    ``max-iterations`` (n_s=8, N=8, Gamma=1e-9) and the n_s=8, N=20,
    Gamma=1e-9 runs whose phase relaxation ends ``numerical-failure`` when
    C1's bound is ~1e-11 of ||H2||_F."""
    cases = {(4, 2, 1e-9, 8): ("phase_recovery", "randomization"),
             (8, 8, 1e-9, 5): ("phase_sdp_status", "max-iterations"),
             (8, 20, 1e-9, 5): ("phase_sdp_status", "numerical-failure"),
             (8, 20, 1e-9, 8): ("phase_sdp_status", "numerical-failure")}
    for (n_s, n_ris, gamma, seed), (key, value) in cases.items():
        _, (res, _) = _tight_cap_runs(iid_scenario, n_s, n_ris, gamma, seed)
        assert value in {d.get(key) for d in res.diagnostics}
