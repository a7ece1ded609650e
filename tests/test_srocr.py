import dataclasses

import numpy as np
import pytest
from conftest import constraint_violation

from ris_crn.channels import generate_channels
from ris_crn.metrics import DesignState
from ris_crn.optimizer import build_phase_problem, build_ws_problem
from ris_crn.sdp import SdpProblem, principal_eigpair, solve
from ris_crn.srocr import (N_RANDOMIZATIONS, RankOneResult, SrocrError,
                           _anchor_last, extract_vector, _ratio_eigpair,
                           randomize_phases, refine)


def test_ratio_rank_one(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert _ratio_eigpair(np.outer(a, a.conj()))[0] == pytest.approx(
        1.0, abs=1e-12)


def test_ratio_identity():
    assert _ratio_eigpair(np.eye(5, dtype=complex))[0] == pytest.approx(0.2)


def test_ratio_diagonal():
    assert _ratio_eigpair(np.diag([3.0, 1.0]).astype(complex))[0] == 0.75


def test_ratio_rejects_zero_trace():
    with pytest.raises(SrocrError):
        _ratio_eigpair(np.zeros((2, 2), dtype=complex))


def test_refine_noop_when_already_rank_one(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    problem = SdpProblem(np.outer(a, a.conj()), (np.eye(3),), (2.0,))
    relaxed = solve(problem)
    out = refine(problem, relaxed)
    assert out.iterations == 0
    assert out.feasible
    assert out.x is relaxed.x


def test_refine_requires_optimal_input(rng):
    problem = SdpProblem(np.eye(2), (np.eye(2), -np.eye(2)), (1.0, -2.0))
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
    assert out.ratio == _ratio_eigpair(out.x)[0]
    np.testing.assert_array_equal(out.vector, np.sqrt(max(lam, 0.0)) * q)


def test_beamformer_matches_closed_form_mrt(iid_scenario, rng):
    """With the interference cap inactive the optimum is max-ratio
    transmission at full power: objective P ||a||^2."""
    sc = dataclasses.replace(iid_scenario, gamma_w=1e9)
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
    sc = dataclasses.replace(iid_scenario, gamma_w=1e9)
    sc = dataclasses.replace(sc, n_ris=2)
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
                        ratio=1.0, iterations=1, feasible=True)
    out = extract_vector(res, "beamformer")
    np.testing.assert_allclose(np.abs(np.vdot(out, 2.0 * e)), 4.0, rtol=1e-12)


def test_extract_phases_anchors_last_entry(rng):
    raw = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    res = RankOneResult(x=np.outer(raw, raw.conj()), vector=2.0 * raw,
                        ratio=1.0, iterations=1, feasible=True)
    x = extract_vector(res, "phases")
    assert x[-1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(x), 1.0, rtol=1e-12)
    # relative phases preserved
    np.testing.assert_allclose(x[:-1] * raw[-1], raw[:-1], atol=1e-12)


def test_extract_refuses_low_rank_ratio(rng):
    res = RankOneResult(x=np.eye(3, dtype=complex), vector=np.ones(3),
                        ratio=1 / 3, iterations=5, feasible=False)
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
    assert constraint_violation(problem, out.x) <= 1e-5
    # tr(C X) of the returned X, the objective sdp.solve reports
    value = float(np.vdot(problem.c, out.x).real)
    assert value <= relaxed.objective + 1e-6 * (1 + abs(relaxed.objective))


def test_randomization_fallback_feasible(iid_scenario, rng):
    sc = dataclasses.replace(iid_scenario, gamma_w=1e9)
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
    assert constraint_violation(problem, np.outer(x, x.conj())) <= 1e-8


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


class _FixedDraws:
    """Generator stub whose standard normal draws are fixed arrays, handed
    out in order: the real parts, then the imaginary parts."""

    def __init__(self, *parts):
        self.parts = list(parts)

    def standard_normal(self, size):
        part = self.parts.pop(0)
        assert part.shape == size
        return part


def test_randomization_draws_from_relaxed_covariance():
    """X = [[1, rho e^{j phi}], [rho e^{-j phi}, 1]] puts the relative phase
    theta of the draws around phi, and a band constraint keeps only theta in
    [phi + 0.1, phi + 0.5]: the principal eigenvector (theta = phi) is cut
    off, draws from CN(0, X) reach the band and draws from CN(0, conj X),
    around -phi, do not."""
    phi, psi, half_width, rho = 1.5, 1.8, 0.2, 0.9
    x_relaxed = np.array([[1.0, rho * np.exp(1j * phi)],
                          [rho * np.exp(-1j * phi), 1.0]])
    band = np.array([[0.0, np.exp(1j * psi)], [np.exp(-1j * psi), 0.0]])
    # x^H band x = 2 cos(theta - psi) >= 2 cos(half_width)
    problem = SdpProblem(x_relaxed, (-band,), (-2.0 * np.cos(half_width),),
                         unit_diagonal=True)
    draws = np.random.default_rng(0).standard_normal((2, N_RANDOMIZATIONS, 2))
    x = randomize_phases(problem, x_relaxed, _FixedDraws(*draws))
    assert constraint_violation(problem, np.outer(x, x.conj())) <= 1e-8
    theta = np.angle(x[0] * np.conj(x[1]))
    assert phi + 0.1 <= theta <= phi + 0.5


def _reference_randomize_phases(problem, relaxed_x, rng):
    """randomize_phases as a loop over the candidates, each scored through
    its outer product u u^H with constraint_violation and
    tr(C^H u u^H)."""
    n = problem.dim
    x_psd = 0.5 * (relaxed_x + relaxed_x.conj().T)
    vals, vecs = np.linalg.eigh(x_psd)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    best_val, best_vec = -np.inf, None
    least_viol, least_vec = np.inf, None
    _, q = principal_eigpair(x_psd)
    candidates = [q]
    g = (rng.standard_normal((N_RANDOMIZATIONS, n))
         + 1j * rng.standard_normal((N_RANDOMIZATIONS, n))) / np.sqrt(2.0)
    candidates.extend(g @ root.T)
    for cand in candidates:
        mod = np.abs(cand)
        if np.any(mod < 1e-15):
            continue
        unit = cand / mod
        xx = np.outer(unit, unit.conj())
        viol = constraint_violation(problem, xx)
        if viol > 1e-8:
            if viol < least_viol:
                least_viol, least_vec = viol, unit
            continue
        val = float(np.tensordot(problem.c.conj(), xx).real)
        if val > best_val:
            best_val, best_vec = val, unit
    if best_vec is None:
        best_vec = least_vec
    return _anchor_last(best_vec)


_BAND_X = np.array([[1.0, 0.9 * np.exp(1.5j)], [0.9 * np.exp(-1.5j), 1.0]])


def _band_problem():
    """Objective _BAND_X and the row x^H band x >= 2 cos(0.2), where
    x^H band x = 2 cos(theta - 1.8) for the relative phase theta."""
    band = np.array([[0.0, np.exp(1.8j)], [np.exp(-1.8j), 0.0]])
    return SdpProblem(_BAND_X, (-band,), (-2.0 * np.cos(0.2),),
                      unit_diagonal=True)


def _picks(problem, x_relaxed, draws):
    """(randomize_phases, the loop) on the same fixed draws."""
    return (randomize_phases(problem, x_relaxed, _FixedDraws(*draws)),
            _reference_randomize_phases(problem, x_relaxed,
                                        _FixedDraws(*draws)))


def test_randomization_matches_loop_on_feasible_draws():
    problem = _band_problem()
    draws = np.random.default_rng(0).standard_normal((2, N_RANDOMIZATIONS, 2))
    x, ref = _picks(problem, _BAND_X, draws)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
    assert constraint_violation(problem, np.outer(x, x.conj())) <= 1e-8


def test_randomization_matches_loop_when_no_draw_is_feasible():
    """|h^H u| >= 1 - 0.5 - 0.2 for every unit-modulus u, so the cap
    |h^H u|^2 <= 1e-3 holds for no draw and the least-violating one wins."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x_relaxed = m @ m.conj().T
    h = np.array([1.0, 0.5j, -0.2])
    problem = SdpProblem(x_relaxed, (np.outer(h, h.conj()),), (1e-3,),
                         unit_diagonal=True)
    draws = rng.standard_normal((2, N_RANDOMIZATIONS, 3))
    x, ref = _picks(problem, x_relaxed, draws)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
    assert constraint_violation(problem, np.outer(x, x.conj())) > 1e-8


def test_randomization_matches_loop_past_zero_entries():
    """With X = I every candidate is its draw, and the principal eigenvector
    e_2 and every draw but the last 20 have a zero first entry: those are
    skipped, so the pick is among the last 20 draws."""
    problem = _band_problem()
    draws = np.random.default_rng(2).standard_normal((2, N_RANDOMIZATIONS, 2))
    draws[:, :-20, 0] = 0.0
    x, ref = _picks(problem, np.eye(2, dtype=complex), draws)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
    kept = (draws[0, -20:] + 1j * draws[1, -20:]) / np.sqrt(2.0)
    anchored = kept * np.exp(-1j * np.angle(kept[:, 1:]))
    unit = anchored / np.abs(anchored)
    assert np.abs(unit - x).max(axis=1).min() <= 1e-12
