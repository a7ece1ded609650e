"""A grid oracle for Algorithm 1 on one-element surfaces.

With N = 1 the design is one phase and a beamformer.  At every phase the
beamformer subproblem max |a w|^2 s.t. |b w|^2 <= Gamma, ||w||^2 <= P has a
closed form (Zhang & Liang, IEEE JSTSP 2008): MRT at full power when it
keeps C1; otherwise modulus sqrt(Gamma) / ||b|| along b^H and the rest of
the power on the part of a^H orthogonal to it, giving
|a w| = c s + sqrt(||a||^2 - c^2) sqrt(P - s^2) with c = |a b^H| / ||b||
and s = sqrt(Gamma) / ||b||.  The oracle evaluates it on a 0.05 degree
phase grid (7,200 points) in one pass, so its maximum is the design's
optimum to within the grid's resolution.
"""

import numpy as np
import pytest

from ris_crn.channels import generate_channels, pbs_beamformer
from ris_crn.metrics import DesignState, pattern_gains, se_su
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import apply_overrides

TILT = -30.0


def _grid_best_se(sc, ch):
    """The largest SE over the phase grid, each phase with its closed-form
    beamformer."""
    a_d, a_r, a_i = pattern_gains(
        DesignState(np.zeros(sc.n_s, dtype=complex), np.zeros(1), TILT), sc)
    alpha = np.radians(np.arange(0.0, 360.0, 0.05))
    cascade = np.sqrt(a_r) * np.exp(1j * alpha)[:, None] * ch.G[0]
    a = np.sqrt(a_d) * ch.h_s.conj() + ch.u[0].conj() * cascade
    b = np.sqrt(a_i) * ch.f_p.conj() + ch.v[0].conj() * cascade
    p, gamma = sc.p_max_w, sc.gamma_w
    a2 = np.sum(np.abs(a) ** 2, axis=1)
    b2 = np.sum(np.abs(b) ** 2, axis=1)
    ab2 = np.abs(np.sum(a * b.conj(), axis=1)) ** 2
    s2 = gamma / b2
    # where MRT keeps C1, s2 may exceed P; np.where discards those values
    capped = (np.sqrt(ab2 / b2 * s2) + np.sqrt(
        np.maximum(a2 - ab2 / b2, 0.0) * np.maximum(p - s2, 0.0))) ** 2
    signal = np.where(p * ab2 / a2 <= gamma, p * a2, capped)
    w_p = pbs_beamformer(ch.h_p, sc.pp_dbw)
    return se_su(signal.max() / (sc.noise_w
                                 + abs(np.vdot(ch.f_s, w_p)) ** 2))


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
        assert res.se == pytest.approx(_grid_best_se(sc, ch), rel=1e-6), seed
