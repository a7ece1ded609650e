"""Effective channels, secondary SINR/SE and primary interference.

The tilt gains enter as amplitudes on the channel rows:
``a = sqrt(A_d) h_s^H + sqrt(A_r) u^H diag(e^{j alpha}) G`` toward the SU and
``b = sqrt(A_i) f_p^H + sqrt(A_r) v^H diag(e^{j alpha}) G`` toward the PU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .antenna import vertical_gain_linear
from .channels import ChannelSet, PbsBeamformer
from .scenario import Scenario


@dataclass(frozen=True)
class DesignState:
    w_s: np.ndarray          # (N_s,) complex, units watt^(1/2)
    phases: np.ndarray       # (N,) real radians; RIS coefficient e^{j phase}
    theta_tilt_deg: float

    @property
    def ris_coefficients(self) -> np.ndarray:
        return np.exp(1j * self.phases)

    def with_phases(self, phases: np.ndarray) -> "DesignState":
        return replace(self, phases=np.asarray(phases, dtype=float))

    def with_beamformer(self, w_s: np.ndarray) -> "DesignState":
        return replace(self, w_s=np.asarray(w_s, dtype=complex))


def pattern_gains(state: DesignState,
                  scenario: Scenario) -> tuple[float, float, float]:
    """(A_d, A_r, A_i) power gains for the current tilt."""
    g = lambda th_x: vertical_gain_linear(state.theta_tilt_deg, th_x,
                                          scenario.pattern)
    return (g(scenario.theta_d_deg), g(scenario.theta_r_deg),
            g(scenario.theta_i_deg))


def _effective_row(direct: np.ndarray, cascade_rx: np.ndarray,
                   state: DesignState, channels: ChannelSet,
                   a_direct: float, a_ris: float) -> np.ndarray:
    row = np.sqrt(a_direct) * direct.conj()
    if channels.G.shape[0] > 0:
        phi = state.ris_coefficients
        row = row + np.sqrt(a_ris) * (cascade_rx.conj() * phi) @ channels.G
    return row


def effective_su_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    a_d, a_r, _ = pattern_gains(state, scenario)
    return _effective_row(channels.h_s, channels.u, state, channels, a_d, a_r)


def effective_pu_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    a_d, a_r, a_i = pattern_gains(state, scenario)
    return _effective_row(channels.f_p, channels.v, state, channels, a_i, a_r)


def sinr_su(state: DesignState, channels: ChannelSet, w_p: PbsBeamformer,
            scenario: Scenario) -> float:
    a = effective_su_row(state, channels, scenario)
    signal = abs(np.dot(a, state.w_s)) ** 2
    interference = abs(np.vdot(channels.f_s, w_p.w_p)) ** 2
    return float(signal / (scenario.noise_w + interference))


def se_su(sinr: float) -> float:
    return float(np.log2(1.0 + sinr))


def pu_interference(state: DesignState, channels: ChannelSet,
                    scenario: Scenario) -> float:
    b = effective_pu_row(state, channels, scenario)
    return float(abs(np.dot(b, state.w_s)) ** 2)
