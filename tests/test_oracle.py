"""A grid oracle for Algorithm 1 on one- and two-element surfaces.

With the phases fixed, the beamformer subproblem max |a w|^2 s.t.
|b w|^2 <= Gamma, ||w||^2 <= P has a closed form (Zhang & Liang, IEEE JSTSP
2008): MRT at full power when it keeps C1; otherwise modulus
sqrt(Gamma) / ||b|| along b^H and the rest of the power on the part of a^H
orthogonal to it, giving |a w| = c s + sqrt(||a||^2 - c^2) sqrt(P - s^2)
with c = |a b^H| / ||b|| and s = sqrt(Gamma) / ||b||.  The oracle evaluates
it on a product grid over the N phases in one pass, so its maximum is the
design's optimum to within the grid's resolution: a 0.05 deg grid at N = 1
(7,200 points) and a 1 deg grid at N = 2 (129,600 points).
"""

import numpy as np
import pytest

from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.metrics import DesignState, pattern_gains, se_su
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
    a = su_direct + coeffs @ su_cascade
    b = pu_direct + coeffs @ pu_cascade
    p, gamma = sc.p_max_w, sc.gamma_w
    a2 = np.sum(np.abs(a) ** 2, axis=1)
    b2 = np.sum(np.abs(b) ** 2, axis=1)
    ab2 = np.abs(np.sum(a * b.conj(), axis=1)) ** 2
    s2 = gamma / b2
    # where MRT keeps C1, s2 may exceed P; np.where discards those values
    capped = (np.sqrt(ab2 / b2 * s2) + np.sqrt(
        np.maximum(a2 - ab2 / b2, 0.0) * np.maximum(p - s2, 0.0))) ** 2
    return np.where(p * ab2 / a2 <= gamma, p * a2, capped).max()


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
