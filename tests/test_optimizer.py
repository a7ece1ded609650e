import dataclasses

import numpy as np
import pytest

from ris_crn import optimizer, sdp, srocr
from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.experiments import run_trial
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


@pytest.mark.parametrize("cap", ["slack", "binding"])
@pytest.mark.parametrize("n_s,tilt", [
    pytest.param(n_s, tilt, id=f"iid-ns{n_s}{tilt:+.0f}deg")
    for n_s in (2, 4, 8) for tilt in (-30.0, -90.0)]
    + [pytest.param(None, None, id="pathloss")])
def test_beamformer_step_matches_closed_form(n_s, tilt, cap, scenario,
                                             iid_scenario):
    """The step's sqrt(lambda_1) q_1 is the subproblem's exact optimum and
    is feasible as it comes out of the relaxation, with C1 slack (Gamma =
    1e9) and binding (Gamma a tenth of the MRT leak)."""
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
    w = optimizer._solve_ws(build_ws_problem(state, ch, sc), {})
    assert np.vdot(w, w).real <= sc.p_max_w * (1 + 1e-6)
    assert abs(b @ w) ** 2 <= sc.gamma_w * (1 + 1e-6)
    oracle = _zhang_liang_beamformer(a, b, sc.p_max_w, sc.gamma_w)
    assert abs(a @ w) ** 2 == pytest.approx(abs(a @ oracle) ** 2, rel=1e-6)


@pytest.mark.parametrize("n_s", [2, 4])
def test_zero_signal_beamformer_step(n_s, iid_scenario, monkeypatch):
    """With h_s = G = 0 the objective is 0 and the IPM returns a
    non-rank-one X.  Its principal eigenvector still meets both
    constraints, so the step needs no re-solve and the design is feasible
    with SE 0."""
    sc = apply_overrides(iid_scenario, {"n_s": n_s})
    ch = generate_channels(sc, seed=0)
    ch = dataclasses.replace(ch, h_s=np.zeros_like(ch.h_s),
                             G=np.zeros_like(ch.G))
    steps = []
    real_ws = optimizer._solve_ws

    def ws_spy(problem, diag):
        w = real_ws(problem, diag)
        steps.append(w)
        return w

    monkeypatch.setattr(optimizer, "_solve_ws", ws_spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=0, fixed_tilt_deg=-30.0)
    assert len(log) == 1
    assert srocr._ratio_eigpair(solve(log[0]).x)[0] < srocr.RANK_TOL
    # the one solve is the first step's, taken at the initial design
    (w,) = steps
    step = DesignState(w, initial_phases(sc.n_ris, 0), -30.0)
    assert np.vdot(step.w_s, step.w_s).real <= sc.p_max_w * (1 + 1e-6)
    assert pu_interference(step, ch, sc) <= sc.gamma_w * (1 + 1e-6)
    assert res.feasible
    assert res.se == 0.0


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


def test_ipm_iteration_counts_pinned(scenario, iid_scenario, monkeypatch):
    """Exact (dim, #constraints, status, IPM iterations) of every SDP solve
    of two fixed runs, in order.

    Integer counts catch a change of the interior-point path that the SE
    comparison at rtol 1e-6 would let through.  On the path-loss default C1
    binds at neither block, so every outer iteration takes MRT and the
    co-phased profile and nothing is solved; the iid n_s=4 trial at -30 deg
    is a C1-binding case whose every phase step takes the certified
    projection: each outer iteration solves the beamformer relaxation and
    the phase relaxation, and no SROCR round."""
    log = []
    real = sdp.solve

    def spy(problem):
        sol = real(problem)
        log.append((problem.c.shape[0], len(problem.constraints),
                    sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(sdp, "solve", spy)
    run_algorithm1(generate_channels(scenario, seed=0), scenario, seed=0)
    assert log == []
    log.clear()
    iid4 = apply_overrides(iid_scenario, {"n_s": 4})
    run_trial(iid4, "proposed", seed=0, fixed_tilt_deg=-30.0)
    per_outer = [(8, 11), (12, 11), (11, 10), (10, 10)]
    assert log == [entry for ws, phase in per_outer
                   for entry in ((4, 2, "optimal", ws),
                                 (21, 22, "optimal", phase))]


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
    real = optimizer._closed_form_step

    def spy(state, *args):
        step = real(state, *args)
        taken.append((state, step))
        return step

    monkeypatch.setattr(optimizer, "_closed_form_step", spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=tilt)
    assert log == []
    assert all(d["ws_step"] == "mrt" and d["phase_recovery"] == "cophase"
               and "ws_sdp_status" not in d and "ws_reused" not in d
               for d in res.diagnostics)
    before, (w, phases) = taken[-1]
    a = effective_su_row(before, ch, sc)
    np.testing.assert_allclose(
        w, np.sqrt(sc.p_max_w) * a.conj() / np.linalg.norm(a), rtol=1e-12)
    assert np.vdot(w, w).real == pytest.approx(sc.p_max_w, rel=1e-12)
    # accept may scale w down by an ulp to keep it within the budget
    np.testing.assert_allclose(res.state.w_s, w, rtol=1e-15)
    np.testing.assert_array_equal(res.state.phases, phases)
    np.testing.assert_allclose(np.exp(1j * phases),
                               np.exp(1j * cophased_phases(res.state, ch)),
                               atol=1e-12)
    assert res.feasible


def test_c1_binding_phase_step_keeps_beamformer_sdp(iid_scenario,
                                                    monkeypatch):
    """An iteration whose MRT keeps C1 but whose co-phased profile for it
    does not runs the beamformer SDP and the phase SDP as before, so every
    iteration of the iid n_s=4 trial at -30 deg, seed 2, has both solves,
    and some of them start from such a slack MRT."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    ch = generate_channels(sc, seed=2)
    mrt_slack = []
    real = optimizer._closed_form_step

    def spy(state, *args):
        a = effective_su_row(state, ch, sc)
        mrt = state.with_beamformer(np.sqrt(sc.p_max_w) * a.conj()
                                    / np.linalg.norm(a))
        mrt_slack.append(pu_interference(mrt, ch, sc) <= sc.gamma_w)
        return real(state, *args)

    monkeypatch.setattr(optimizer, "_closed_form_step", spy)
    log = _solve_log(monkeypatch)
    res = run_algorithm1(ch, sc, seed=2, fixed_tilt_deg=-30.0)
    assert any(mrt_slack)
    assert all(d["ws_step"] == "sdp" and d["phase_recovery"] != "cophase"
               for d in res.diagnostics)
    beamformer_solves = sum(p.dim == sc.n_s for p in log)
    assert beamformer_solves == sum(not d["ws_reused"]
                                    for d in res.diagnostics) > 0


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
    cophased = cophased_phases(state, ch)
    assert pu_interference(state.with_phases(cophased), ch, sc) <= sc.gamma_w
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

    def cophase_spy(state, channels):
        phases = real_cophase(state, channels)
        violations.append(pu_interference(state.with_phases(phases),
                                          channels, sc) > sc.gamma_w)
        return phases

    shapes = []
    real_solve = sdp.solve

    def solve_spy(problem):
        shapes.append((problem.c.shape[0], len(problem.constraints)))
        return real_solve(problem)

    monkeypatch.setattr(optimizer, "cophased_phases", cophase_spy)
    monkeypatch.setattr(sdp, "solve", solve_spy)
    res = run_algorithm1(ch, sc, seed=1, fixed_tilt_deg=-30.0)
    recoveries = [d["phase_recovery"] for d in res.diagnostics]
    assert [r != "cophase" for r in recoveries] == violations
    assert set(recoveries) - {"cophase"} == {"certified", "srocr"}
    n = sc.n_ris
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

    def spy(state, channels, scenario, rng, diag):
        phases = real(state, channels, scenario, rng, diag)
        steps.append((state, channels, diag, phases))
        return phases

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


def _solve_log(monkeypatch):
    """Record every problem passed to sdp.solve."""
    log = []
    real = sdp.solve

    def spy(problem):
        log.append(problem)
        return real(problem)

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
    C1 binds, solves at least one."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    log = _solve_log(monkeypatch)
    for tilt in range(-180, 1, 30):
        for seed in (0, 1):
            log.clear()
            run_trial(sc, method, seed=seed, fixed_tilt_deg=float(tilt))
            solved = [p for p in log if p.dim == sc.n_s]
            assert solved or tilt != -30, seed
            assert not any(_same_problem(p, q)
                           for p, q in zip(solved, solved[1:])), (tilt, seed)


def test_failed_phase_solves_are_full_weight_rounds_with_no_interior(
        iid_scenario, monkeypatch):
    """Every non-optimal phase solve of the -30 deg seed-2 trial is an
    SROCR round at weight 1.  With a = u / sqrt(n) and u unit-modulus,
    tr((I - a a^H) X) <= 0 forces X = c a a^H, and the unit diagonal fixes
    X = u u^H: the round has exactly one feasible point and no interior,
    so the interior-point method fails on it.  That point meets C1 with a
    margin of 4% or more, so the round is feasible, not infeasible."""
    sc = apply_overrides(iid_scenario, {"n_s": 4})
    log = []
    real = sdp.solve

    def spy(problem):
        sol = real(problem)
        log.append((problem, sol.status))
        return sol

    monkeypatch.setattr(sdp, "solve", spy)
    run_trial(sc, "proposed", seed=2, fixed_tilt_deg=-30.0)
    failed = [problem for problem, status in log if status != "optimal"]
    assert len(failed) == 4
    for problem in failed:
        n = problem.dim
        assert (n, len(problem.constraints)) == (sc.n_ris + 1, n + 2)
        assert problem.unit_diagonal and problem.b[-1] == 0.0
        vals, vecs = np.linalg.eigh(np.eye(n) - problem.a[-1])  # a a^H at w=1
        np.testing.assert_allclose(vals[:-1], 0.0, atol=1e-12)
        u = np.sqrt(n * vals[-1]) * vecs[:, -1]
        np.testing.assert_allclose(np.abs(u), 1.0, rtol=1e-12)
        point = np.outer(u, u.conj())
        assert problem.constraint_violation(point) <= 1e-12
        assert (float(np.vdot(u, problem.a[0] @ u).real)
                <= (1 - 0.04) * problem.b[0])


@pytest.mark.parametrize("method", ["random_phase", "fixed_zero_phase",
                                    "no_ris"])
def test_fixed_phase_methods_solve_only_in_first_iteration(
        method, iid_scenario, monkeypatch):
    """With the phases frozen at the RIS tilt (-30 deg) MRT breaks C1, and
    every beamformer step after the first reuses the first solve and says
    so in its diagnostics.  Without a surface the tilt points at the user,
    MRT keeps C1, and every step is MRT with no solve."""
    sc = apply_overrides(iid_scenario, {
        "n_s": 4, "n_ris": 0 if method == "no_ris" else iid_scenario.n_ris})

    def run():
        return run_algorithm1(generate_channels(sc, seed=1), sc, seed=1,
                              update_phases=False,
                              zero_phase_start=(method == "fixed_zero_phase"))

    log = _solve_log(monkeypatch)
    res = run()
    assert res.outer_iterations >= 2
    if method == "no_ris":
        assert res.tilt.branch == "direct" and log == []
        assert [d["ws_step"] for d in res.diagnostics] == (
            ["mrt"] * res.outer_iterations)
        return
    assert [d["ws_reused"] for d in res.diagnostics] == (
        [False] + [True] * (res.outer_iterations - 1))
    assert all(d["ws_sdp_status"] == "optimal" for d in res.diagnostics)
    calls = len(log)
    log.clear()
    monkeypatch.setattr(optimizer, "MAX_OUTER_ITERS", 1)
    run()
    assert len(log) == calls > 0
