import dataclasses

import numpy as np
import pytest

from ris_crn.channels import ChannelSet, generate_channels
from ris_crn.metrics import (DesignState, effective_pu_row, effective_su_row,
                             pattern_gains, pu_interference, se_su, sinr_su)
from ris_crn.scenario import apply_overrides


def _state(scenario, rng, tilt=None):
    w = rng.standard_normal(scenario.n_s) + 1j * rng.standard_normal(scenario.n_s)
    w *= np.sqrt(scenario.p_max_w) / np.linalg.norm(w) / 2
    phases = rng.uniform(0, 2 * np.pi, scenario.n_ris)
    return DesignState(w, phases,
                       scenario.theta_r_deg if tilt is None else tilt)


def test_no_ris_boresight_row_is_direct_channel(scenario, rng):
    sc = apply_overrides(scenario, {"n_ris": 0})
    ch = generate_channels(sc, seed=3)
    state = DesignState(np.zeros(sc.n_s, dtype=complex), np.zeros(0),
                        sc.theta_d_deg)
    np.testing.assert_allclose(effective_su_row(state, ch, sc),
                               ch.h_s.conj(), rtol=1e-14)


def test_single_element_phase_rotation():
    sc_doc = {"n_ris": 1, "n_s": 1, "n_p": 1}
    from ris_crn.scenario import paper_default
    sc = apply_overrides(paper_default(), sc_doc)
    ch = ChannelSet(G=np.array([[1.0 + 0j]]), u=np.array([1.0 + 0j]),
                    v=np.array([1.0 + 0j]), h_s=np.array([0.0 + 0j]),
                    h_p=np.array([1.0 + 0j]), f_p=np.array([0.0 + 0j]),
                    f_s=np.array([0.0 + 0j]))
    state = DesignState(np.array([1.0 + 0j]), np.array([np.pi / 2]),
                        sc.theta_r_deg)
    row = effective_su_row(state, ch, sc)
    np.testing.assert_allclose(row, [1j], atol=1e-14)


def _diag_free_row(direct, vec_rx, state, ch, a_direct, a_ris):
    # independent expansion: u^H diag(phi) G written as phi^T diag(u^*) G
    phi = np.exp(1j * state.phases)
    return (np.sqrt(a_direct) * direct.conj()
            + np.sqrt(a_ris) * phi @ (np.diag(vec_rx.conj()) @ ch.G))


def test_su_row_matches_diag_free_expansion(scenario, channels, rng):
    state = _state(scenario, rng)
    a_d, a_r, _ = pattern_gains(state, scenario)
    expected = _diag_free_row(channels.h_s, channels.u, state, channels,
                              a_d, a_r)
    np.testing.assert_allclose(effective_su_row(state, scenario=scenario,
                                                channels=channels),
                               expected, rtol=1e-10)


def test_pu_row_matches_diag_free_expansion(scenario, channels, rng):
    state = _state(scenario, rng)
    a_d, a_r, a_i = pattern_gains(state, scenario)
    expected = _diag_free_row(channels.f_p, channels.v, state, channels,
                              a_i, a_r)
    np.testing.assert_allclose(effective_pu_row(state, scenario=scenario,
                                                channels=channels),
                               expected, rtol=1e-10)


def test_zero_beamformer_zero_sinr(scenario, channels):
    state = DesignState(np.zeros(scenario.n_s, dtype=complex),
                        np.zeros(scenario.n_ris), scenario.theta_r_deg)
    w_p = np.zeros(scenario.n_p, dtype=complex)
    assert sinr_su(state, channels, w_p, scenario) == 0.0
    assert pu_interference(state, channels, scenario) == 0.0


def test_unit_sinr_construction(scenario):
    sc = apply_overrides(scenario, {"n_ris": 0, "n_s": 1, "n_p": 1})
    noise_amp = np.sqrt(sc.noise_w)
    ch = ChannelSet(G=np.zeros((0, 1)), u=np.zeros(0), v=np.zeros(0),
                    h_s=np.array([1.0 + 0j]), h_p=np.array([1.0 + 0j]),
                    f_p=np.array([0.0 + 0j]), f_s=np.array([0.0 + 0j]))
    state = DesignState(np.array([noise_amp + 0j]), np.zeros(0),
                        sc.theta_d_deg)
    w_p = np.array([1.0 + 0j])
    assert sinr_su(state, ch, w_p, sc) == pytest.approx(1.0, rel=1e-12)


def test_se_pins():
    assert se_su(0.0) == 0.0
    assert se_su(1.0) == 1.0
    assert se_su(3.0) == pytest.approx(2.0, rel=1e-15)


def test_se_strictly_increasing():
    grid = np.linspace(0, 50, 101)
    vals = [se_su(s) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sinr_matches_scalar_hand_expansion(scenario, channels, rng):
    state = _state(scenario, rng)
    w_p = (rng.standard_normal(scenario.n_p)
           + 1j * rng.standard_normal(scenario.n_p))
    a_d, a_r, _ = pattern_gains(state, scenario)
    # scalar loop evaluation of the composite received amplitude
    sig = 0.0 + 0.0j
    for k in range(scenario.n_s):
        direct = np.sqrt(a_d) * np.conj(channels.h_s[k])
        refl = sum(np.sqrt(a_r) * np.conj(channels.u[n])
                   * np.exp(1j * state.phases[n]) * channels.G[n, k]
                   for n in range(scenario.n_ris))
        sig += (direct + refl) * state.w_s[k]
    inter = abs(sum(np.conj(channels.f_s[m]) * w_p[m]
                    for m in range(scenario.n_p))) ** 2
    expected = abs(sig) ** 2 / (scenario.noise_w + inter)
    assert sinr_su(state, channels, w_p, scenario) == pytest.approx(
        expected, rel=1e-10)


def test_null_steering_zero_interference(scenario, channels, rng):
    state = _state(scenario, rng)
    b = effective_pu_row(state, channels, scenario)
    # project the beamformer onto b's null space
    w = state.w_s - b.conj() * np.dot(b, state.w_s) / np.vdot(b, b).real
    state = dataclasses.replace(state, w_s=w)
    assert pu_interference(state, channels, scenario) <= 1e-20


def test_global_phase_invariance(scenario, channels, rng):
    state = _state(scenario, rng)
    w_p = (rng.standard_normal(scenario.n_p)
           + 1j * rng.standard_normal(scenario.n_p))
    rotated = dataclasses.replace(state, w_s=state.w_s * np.exp(1j * 1.234))
    assert sinr_su(rotated, channels, w_p, scenario) == pytest.approx(
        sinr_su(state, channels, w_p, scenario), rel=1e-12)
    assert pu_interference(rotated, channels, scenario) == pytest.approx(
        pu_interference(state, channels, scenario), rel=1e-12)


def test_no_ris_reduces_to_plain_miso(scenario, rng):
    sc = apply_overrides(scenario, {"n_ris": 0})
    ch = generate_channels(sc, seed=9)
    w = rng.standard_normal(sc.n_s) + 1j * rng.standard_normal(sc.n_s)
    w *= 1.0 / np.linalg.norm(w)
    state = DesignState(w, np.zeros(0), sc.theta_d_deg)
    w_p = rng.standard_normal(sc.n_p) + 1j * rng.standard_normal(sc.n_p)
    expected = (abs(np.vdot(ch.h_s, w)) ** 2
                / (sc.noise_w + abs(np.vdot(ch.f_s, w_p)) ** 2))
    assert sinr_su(state, ch, w_p, sc) == pytest.approx(expected, rel=1e-12)


def test_ris_coefficients_unit_modulus(scenario, rng):
    state = _state(scenario, rng)
    np.testing.assert_allclose(np.abs(state.ris_coefficients), 1.0,
                               rtol=1e-15)
