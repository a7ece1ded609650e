import numpy as np
import pytest

from ris_crn.channels import generate_channels
from ris_crn.metrics import DesignState
from ris_crn.optimizer import build_phase_problem, build_ws_problem
from ris_crn.sdp import SdpConstraint, SdpProblem, principal_eigpair, solve
from ris_crn.srocr import (RankOneResult, SrocrError, extract_vector,
                           randomize_phases, rank_one_ratio, refine)


def test_ratio_rank_one(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert rank_one_ratio(np.outer(a, a.conj())) == pytest.approx(1.0,
                                                                  abs=1e-12)


def test_ratio_identity():
    assert rank_one_ratio(np.eye(5, dtype=complex)) == pytest.approx(0.2)


def test_ratio_diagonal():
    assert rank_one_ratio(np.diag([3.0, 1.0]).astype(complex)) == 0.75


def test_ratio_rejects_zero_trace():
    with pytest.raises(SrocrError):
        rank_one_ratio(np.zeros((2, 2), dtype=complex))


def test_refine_noop_when_already_rank_one(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    problem = SdpProblem(np.outer(a, a.conj()),
                         [SdpConstraint(np.eye(3), "<=", 2.0)])
    relaxed = solve(problem)
    out = refine(problem, relaxed)
    assert out.iterations == 0
    assert out.feasible
    assert out.objective == relaxed.objective


def test_refine_requires_optimal_input(rng):
    problem = SdpProblem(np.eye(2), [SdpConstraint(np.eye(2), "<=", 1.0),
                                     SdpConstraint(-np.eye(2), "<=", -2.0)])
    relaxed = solve(problem)
    with pytest.raises(SrocrError):
        refine(problem, relaxed)


def test_refined_vector_is_eigpair_of_returned_x(iid_scenario):
    """After tightening rounds, ratio and vector describe the returned X."""
    sc = iid_scenario
    ch = generate_channels(sc, seed=0)
    w = np.full(sc.n_s, np.sqrt(sc.p_max_w / sc.n_s), dtype=complex)
    state = DesignState(w, np.zeros(sc.n_ris), sc.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, sc)
    out = refine(problem, solve(problem), unit_modulus=True)
    assert out.iterations >= 1
    lam, q = principal_eigpair(out.x)
    assert out.ratio == rank_one_ratio(out.x)
    np.testing.assert_array_equal(out.vector, np.sqrt(max(lam, 0.0)) * q)


def test_beamformer_matches_closed_form_mrt(iid_scenario, rng):
    """With the interference cap inactive the optimum is max-ratio
    transmission at full power: objective P ||a||^2."""
    sc = iid_scenario.replace(gamma_w=1e9)
    ch = generate_channels(sc, seed=11)
    state = DesignState(np.zeros(sc.n_s, dtype=complex),
                        rng.uniform(0, 2 * np.pi, sc.n_ris), sc.theta_r_deg)
    problem = build_ws_problem(state, ch, sc)
    relaxed = solve(problem)
    out = refine(problem, relaxed)
    assert out.feasible
    w = extract_vector(out, "beamformer")
    a_norm2 = np.trace(problem.c).real  # tr(a^H a) = ||a||^2
    assert abs(np.trace(problem.c @ np.outer(w, w.conj())).real
               - sc.p_max_w * a_norm2) <= 1e-5 * sc.p_max_w * a_norm2


def test_phase_refinement_matches_2d_grid(iid_scenario, rng):
    sc = iid_scenario.replace(gamma_w=1e9)
    sc = sc.replace(n_ris=2)
    ch = generate_channels(sc, seed=21)
    w = rng.standard_normal(sc.n_s) + 1j * rng.standard_normal(sc.n_s)
    w *= np.sqrt(sc.p_max_w) / np.linalg.norm(w)
    state = DesignState(w, np.zeros(2), sc.theta_r_deg)
    problem, l1, _ = build_phase_problem(state, ch, sc)
    relaxed = solve(problem)
    out = refine(problem, relaxed, unit_modulus=True)
    assert out.feasible
    x = extract_vector(out, "phases")
    achieved = l1 + float(np.vdot(x, problem.c @ x).real)

    grid = np.radians(np.arange(0.0, 360.0, 0.5))
    a1, a2 = np.meshgrid(grid, grid, indexing="ij")
    from ris_crn.metrics import effective_su_row, pattern_gains
    a_d, a_r, _ = pattern_gains(state, sc)
    c0 = np.sqrt(a_d) * np.vdot(ch.h_s, w)
    cr = (ch.u.conj() * (ch.G @ w)) * np.sqrt(a_r)
    vals = np.abs(c0 + cr[0] * np.exp(1j * a1) + cr[1] * np.exp(1j * a2)) ** 2
    best = float(np.max(vals))
    assert achieved >= best * (1 - 0.02)
    del effective_su_row


def test_extract_beamformer_scaled_eigvec(rng):
    e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e /= np.linalg.norm(e)
    res = RankOneResult(x=4.0 * np.outer(e, e.conj()), vector=2.0 * e,
                        ratio=1.0, iterations=1, feasible=True, objective=1.0)
    out = extract_vector(res, "beamformer")
    np.testing.assert_allclose(np.abs(np.vdot(out, 2.0 * e)), 4.0, rtol=1e-12)


def test_extract_phases_anchors_last_entry(rng):
    raw = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    res = RankOneResult(x=np.outer(raw, raw.conj()), vector=2.0 * raw,
                        ratio=1.0, iterations=1, feasible=True, objective=1.0)
    x = extract_vector(res, "phases")
    assert x[-1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-12)
    # relative phases preserved
    np.testing.assert_allclose(x[:-1] * raw[-1], raw[:-1], atol=1e-12)


def test_extract_refuses_low_rank_ratio(rng):
    res = RankOneResult(x=np.eye(3, dtype=complex), vector=np.ones(3),
                        ratio=1 / 3, iterations=5, feasible=False,
                        objective=0.0)
    with pytest.raises(SrocrError):
        extract_vector(res, "beamformer")


def test_refine_output_respects_original_constraints(iid_scenario, rng):
    ch = generate_channels(iid_scenario, seed=33)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w *= np.sqrt(iid_scenario.p_max_w) / np.linalg.norm(w)
    state = DesignState(w, np.zeros(iid_scenario.n_ris),
                        iid_scenario.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, iid_scenario)
    relaxed = solve(problem)
    out = refine(problem, relaxed, unit_modulus=True)
    assert problem.constraint_violation(out.x) <= 1e-5
    assert out.objective <= relaxed.objective + 1e-6 * (1 + abs(relaxed.objective))


def test_randomization_fallback_feasible(iid_scenario, rng):
    sc = iid_scenario.replace(gamma_w=1e9)
    ch = generate_channels(sc, seed=44)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w *= np.sqrt(sc.p_max_w) / np.linalg.norm(w)
    state = DesignState(w, np.zeros(sc.n_ris), sc.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, sc)
    relaxed = solve(problem)
    assert relaxed.status == "optimal"
    x = randomize_phases(problem, relaxed.x, rng)
    np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-12)
    assert x[-1] == pytest.approx(1.0, abs=1e-12)
    assert problem.constraint_violation(np.outer(x, x.conj())) <= 1e-8


def test_randomization_tight_cap_still_returns_unit_modulus(iid_scenario, rng):
    """With a tight interference cap most draws are infeasible; the
    fallback must still hand back a unit-modulus profile for the caller
    to repair rather than aborting the trial."""
    ch = generate_channels(iid_scenario, seed=44)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w *= np.sqrt(iid_scenario.p_max_w) / np.linalg.norm(w)
    state = DesignState(w, np.zeros(iid_scenario.n_ris),
                        iid_scenario.theta_r_deg)
    problem, _, _ = build_phase_problem(state, ch, iid_scenario)
    relaxed = solve(problem)
    assert relaxed.status == "optimal"
    x = randomize_phases(problem, relaxed.x, rng)
    np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-12)
    assert x[-1] == pytest.approx(1.0, abs=1e-12)
