"""Oracles for Algorithm 1: a grid oracle on one- and two-element surfaces,
a certified joint optimum at one SBS antenna, and a reference ascent on
the phases.

With the phases fixed, the beamformer subproblem max |a w|^2 s.t.
|b w|^2 <= Gamma, ||w||^2 <= P has a closed form (Zhang & Liang, IEEE JSTSP
2008): MRT at full power when it keeps C1; otherwise modulus
sqrt(Gamma) / ||b|| along b^H and the rest of the power on the part of a^H
orthogonal to it, giving |a w| = c s + sqrt(||a||^2 - c^2) sqrt(P - s^2)
with c = |a b^H| / ||b|| and s = sqrt(Gamma) / ||b||.  The grid oracle
evaluates it on a product grid over the N phases in one pass, so its
maximum is the design's optimum to within the grid's resolution: a 0.05
deg grid at N = 1 (7,200 points) and a 1 deg grid at N = 2 (129,600
points).
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from ris_crn import optimizer
from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.metrics import (DesignState, link_model, pattern_gains,
                             pu_interference, se_su, sinr_su)
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import apply_overrides

TILT = -30.0


def _cascades(sc, ch):
    """(sqrt(A_d) h_s^H, sqrt(A_i) f_p^H, and the SU and PU cascade rows
    sqrt(A_r) conj(u_n) G_n and sqrt(A_r) conj(v_n) G_n, one per element)."""
    a_d, a_r, a_i = pattern_gains(
        DesignState(np.zeros(sc.n_s, dtype=complex), np.zeros(sc.n_ris),
                    TILT), sc)
    g = np.sqrt(a_r) * ch.G
    return (np.sqrt(a_d) * ch.h_s.conj(), np.sqrt(a_i) * ch.f_p.conj(),
            ch.u.conj()[:, None] * g, ch.v.conj()[:, None] * g)


def _grid_best_signal(sc, ch, step_deg):
    """The largest |a w|^2 over the product grid of the N phases at
    ``step_deg``, each profile with its closed-form beamformer."""
    su_direct, pu_direct, su_cascade, pu_cascade = _cascades(sc, ch)
    alpha = np.radians(np.arange(0.0, 360.0, step_deg))
    grid = np.stack(np.meshgrid(*[alpha] * sc.n_ris, indexing="ij"), -1)
    coeffs = np.exp(1j * grid.reshape(-1, sc.n_ris))
    return _closed_form_signal(sc, su_direct + coeffs @ su_cascade,
                               pu_direct + coeffs @ pu_cascade).max()


def _closed_form_signal(sc, a, b):
    """|a w|^2 of the closed-form beamformer for each row pair: row i of
    ``a`` with row i of ``b``."""
    p, gamma = sc.p_max_w, sc.gamma_w
    a2 = np.sum(np.abs(a) ** 2, axis=1)
    b2 = np.sum(np.abs(b) ** 2, axis=1)
    ab2 = np.abs(np.sum(a * b.conj(), axis=1)) ** 2
    s2 = gamma / b2
    # where MRT keeps C1, s2 may exceed P; np.where discards those values
    capped = (np.sqrt(ab2 / b2 * s2) + np.sqrt(
        np.maximum(a2 - ab2 / b2, 0.0) * np.maximum(p - s2, 0.0))) ** 2
    return np.where(p * ab2 / a2 <= gamma, p * a2, capped)


def _se(sc, ch, signal):
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    return se_su(signal / (sc.noise_w + abs(np.vdot(ch.f_s, w_p)) ** 2))


def _grid_bound_signal(sc, ch, step_deg, best):
    """An upper bound on |a w|^2 over every feasible design, from the grid's
    best ``best``.  Rounding each phase to the grid moves it by at most
    h = step/2 radians, so the rows move by at most eps_a = h sum_n
    ||sqrt(A_r) conj(u_n) G_n|| and eps_b (v for u).  A feasible (w, alpha)
    then has, at its nearest grid profile, |b w| <= sqrt(Gamma) + eps_b
    sqrt(P); scaled by t = sqrt(Gamma) / (sqrt(Gamma) + eps_b sqrt(P)) it
    is feasible there, with |a w| at least t (|a(alpha) w| - eps_a sqrt(P)).
    So no design beats (sqrt(best) / t + eps_a sqrt(P))^2."""
    _, _, su_cascade, pu_cascade = _cascades(sc, ch)
    h = np.radians(step_deg) / 2
    eps_a = h * np.linalg.norm(su_cascade, axis=1).sum()
    eps_b = h * np.linalg.norm(pu_cascade, axis=1).sum()
    root_p, root_gamma = np.sqrt(sc.p_max_w), np.sqrt(sc.gamma_w)
    t = root_gamma / (root_gamma + eps_b * root_p)
    return (np.sqrt(best) / t + eps_a * root_p) ** 2


@pytest.mark.parametrize("n_s", [2, 4])
def test_single_element_loop_reaches_grid_optimum(n_s, iid_scenario):
    """iid, N = 1, -30 deg, seeds 0-19: every run is feasible with a
    positive SE within 1e-6 of the oracle.  (While the C1-binding
    beamformer step took the principal eigenvector of its relaxation, whose
    optimal face is rank two here, 9 of these runs at n_s=2 and 15 at
    n_s=4 ended with SE 0.0 and ``feasible`` set.)"""
    sc = apply_overrides(iid_scenario, {"n_s": n_s, "n_ris": 1})
    for seed in range(20):
        ch = generate_channels(sc, seed=seed)
        res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=TILT)
        assert res.feasible and res.se > 0.0, seed
        best = _se(sc, ch, _grid_best_signal(sc, ch, 0.05))
        assert res.se == pytest.approx(best, rel=1e-6), seed


@pytest.mark.parametrize("n_s", [2, 4])
def test_two_element_loop_within_grid_bound(n_s, iid_scenario):
    """iid, N = 2, -30 deg, seeds 0-9, on a 1 deg grid: every run is
    feasible, and its SE is at most the SE of _grid_bound_signal, the
    grid's best widened by the slack the grid's resolution allows.  The
    loop stops at a block-wise optimum that can sit below the oracle (the
    README gives the gap), so only this side is asserted."""
    sc = apply_overrides(iid_scenario, {"n_s": n_s, "n_ris": 2})
    for seed in range(10):
        ch = generate_channels(sc, seed=seed)
        res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=TILT)
        assert res.feasible, seed
        best = _grid_best_signal(sc, ch, 1.0)
        bound = _se(sc, ch, _grid_bound_signal(sc, ch, 1.0, best))
        assert res.se <= bound * (1 + 1e-12), seed


# -- one SBS antenna: a certified joint optimum -----------------------------

def _weber_minimizer_at_point(points, weights):
    """Whether sum_i weights_i |mu - points_i| is least at one of its points.
    By Kuhn's test, point k is the minimizer when the unit pulls of the
    others on it, weighted, sum to at most its own weight."""
    for k in range(points.size):
        d = points[k] - np.delete(points, k)
        if abs(np.sum(np.delete(weights, k) * d / np.abs(d))) <= weights[k]:
            return True
    return False


def _weber_minimizer(points, weights):
    """The minimizer of sum_i weights_i |mu - points_i| where it is at no
    point: Weiszfeld's iteration from the weighted mean brings mu near it,
    then Newton steps in the plane, halved until they do not increase the
    sum, polish it to rounding.  (BFGS alone can stop with a relative dual
    gap near 1e-7 and a leak above the cap.)"""
    def total(mu):
        return np.sum(weights * np.abs(mu - points))

    mu = np.sum(weights * points) / np.sum(weights)
    for _ in range(50):
        inv = weights / np.abs(mu - points)
        mu = np.sum(inv * points) / np.sum(inv)
    for _ in range(10):
        d = mu - points
        r = np.abs(d)
        u = np.stack([d.real, d.imag]) / r
        hess = np.sum(weights / r) * np.eye(2) - (weights / r * u) @ u.T
        step = np.linalg.solve(hess, u @ weights)
        t = 1.0
        while total(mu - t * complex(*step)) > total(mu) and t > 1e-6:
            t /= 2
        mu -= t * complex(*step)
    return mu


@pytest.mark.parametrize("n_ris, certified, gap_median",
                         [(8, 11, 4.12), (20, 19, 6.45)], ids=["N8", "N20"])
def test_single_antenna_certified_optimum(n_ris, certified, gap_median,
                                          iid_scenario):
    """iid, n_s = 1, -30 deg, seeds 0-19: a certified joint optimum that is
    feasible and never below Algorithm 1.

    With one antenna w is a scalar.  With y = [C_a; sqrt(A_d) h_s^H] and z
    likewise from the PU rows, |a w| = sqrt(P) |y^T xi| for xi = [e^{j
    alpha}; 1] w / sqrt(P), and relaxing |xi_i| = |w| / sqrt(P) to |xi_i| <=
    1 gives a convex problem with cap = sqrt(Gamma / P).  Its dual, min over
    complex mu of sum_i |y_i - mu z_i| + cap |mu|, is a weighted
    Fermat-Weber problem in the points y_i / z_i (weights |z_i|) and the
    origin (weight cap).  Where the minimizer mu is at no point, xi_i =
    conj(y_i - mu z_i) / |y_i - mu z_i| is unit-modulus and meets the dual
    bound, so w = sqrt(P) xi_{N+1} with those phases is the joint global
    optimum.  It meets C1 at the cap to rounding (1e-12 relative), and
    Algorithm 1 ends a median ``gap_median`` bps/Hz below it."""
    sc = apply_overrides(iid_scenario, {"n_s": 1, "n_ris": n_ris})
    cap = np.sqrt(sc.gamma_w / sc.p_max_w)
    gaps = []
    for seed in range(20):
        ch = generate_channels(sc, seed=seed)
        su_direct, pu_direct, su_cascade, pu_cascade = _cascades(sc, ch)
        y = np.append(su_cascade[:, 0], su_direct[0])
        z = np.append(pu_cascade[:, 0], pu_direct[0])
        points, weights = np.append(y / z, 0.0), np.append(np.abs(z), cap)
        if _weber_minimizer_at_point(points, weights):
            continue
        mu = _weber_minimizer(points, weights)
        e = y - mu * z
        xi = e.conj() / np.abs(e)
        bound = np.sum(np.abs(e)) + cap * abs(mu)
        assert abs(np.dot(y, xi)) == pytest.approx(bound, rel=1e-12), seed
        design = DesignState(np.sqrt(sc.p_max_w) * xi[-1:],
                             np.angle(xi[:-1] / xi[-1]), TILT)
        assert pu_interference(design, ch, sc) <= sc.gamma_w * (1 + 1e-12)
        assert abs(design.w_s[0]) ** 2 <= sc.p_max_w * (1 + 1e-12)
        se = se_su(sinr_su(design, ch, pbs_beamformer(ch.h_p, sc.pp_dbw),
                           sc))
        res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=TILT)
        assert res.feasible and se >= res.se, seed
        gaps.append(se - res.se)
    assert len(gaps) == certified
    assert np.median(gaps) == pytest.approx(gap_median, abs=0.005)


# -- a reference ascent on the phases ---------------------------------------

def _reference_ascent(sc, ch, res):
    """L-BFGS-B on -g(alpha), g the SE of the closed-form beamformer at the
    phases alpha (_mrt, or _c1_capped where MRT breaks C1), from Algorithm
    1's final phases.  Central differences of one batched closed-form
    evaluation give the gradient.  Returns the design at the phases found."""
    model = link_model(res.state, ch, sc, pbs_beamformer(ch.h_p, sc.pp_dbw))
    n, h = sc.n_ris, 1e-6
    offsets = np.vstack([np.zeros(n), h * np.eye(n), -h * np.eye(n)])

    def neg_se(phases):
        signal = _closed_form_signal(sc, *model.rows(phases + offsets))
        g = np.log2(1.0 + signal / model.sinr_denominator)
        return -g[0], -(g[1:n + 1] - g[n + 1:]) / (2 * h)

    phases = minimize(neg_se, res.state.phases, jac=True,
                      method="L-BFGS-B").x
    a, b = model.rows(phases)
    w = optimizer._mrt(a, sc.p_max_w)
    if model.leak(b, w) > sc.gamma_w:
        w = optimizer._c1_capped(w, b, sc)
    return DesignState(w, phases, res.state.theta_tilt_deg)


def test_reference_ascent_never_below_loop(iid_scenario):
    """iid, N = 20, -30 deg, n_s 2 and 4, seeds 0-9: the reference ascent
    is feasible and never below Algorithm 1, whose block ascent can stop
    short of joint stationarity where C1 couples w and the phases (the
    README gives the gap)."""
    for n_s in (2, 4):
        sc = apply_overrides(iid_scenario, {"n_s": n_s})
        for seed in range(10):
            ch = generate_channels(sc, seed=seed)
            w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
            res = run_algorithm1(ch, sc, seed=seed, fixed_tilt_deg=TILT)
            ref = _reference_ascent(sc, ch, res)
            assert pu_interference(ref, ch, sc) <= sc.gamma_w * (1 + 1e-12)
            assert np.vdot(ref.w_s, ref.w_s).real <= sc.p_max_w * (1 + 1e-12)
            assert se_su(sinr_su(ref, ch, w_p, sc)) >= res.se, (n_s, seed)
