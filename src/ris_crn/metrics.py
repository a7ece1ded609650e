"""Effective channels, secondary SINR/SE and primary interference.

The tilt gains enter as amplitudes on the channel rows:
``a = sqrt(A_d) h_s^H + sqrt(A_r) u^H diag(e^{j alpha}) G`` toward the SU and
``b = sqrt(A_i) f_p^H + sqrt(A_r) v^H diag(e^{j alpha}) G`` toward the PU.
A ``LinkModel`` holds what the tilt, channels and scenario fix: the gains,
the scaled direct rows and the SINR denominator.  ``run_algorithm1`` builds
one per call; each public function below builds one per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antenna import vertical_gain_linear
from .channels import ChannelSet
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
        return DesignState(self.w_s, np.asarray(phases, dtype=float),
                           self.theta_tilt_deg)

    def with_beamformer(self, w_s: np.ndarray) -> "DesignState":
        return DesignState(np.asarray(w_s, dtype=complex), self.phases,
                           self.theta_tilt_deg)


def pattern_gains(state: DesignState,
                  scenario: Scenario) -> tuple[float, float, float]:
    """(A_d, A_r, A_i) power gains for the current tilt."""
    g = lambda th_x: vertical_gain_linear(state.theta_tilt_deg, th_x,
                                          scenario.pattern)
    return (g(scenario.theta_d_deg), g(scenario.theta_r_deg),
            g(scenario.theta_i_deg))


@dataclass(frozen=True)
class LinkModel:
    """What a tilt, channel set and scenario fix for every design state."""
    gains: tuple[float, float, float]   # (A_d, A_r, A_i)
    su_direct: np.ndarray               # sqrt(A_d) h_s^H
    pu_direct: np.ndarray               # sqrt(A_i) f_p^H
    u_h: np.ndarray                     # u^H
    v_h: np.ndarray                     # v^H
    G: np.ndarray
    sqrt_a_r: float
    sinr_denominator: float             # noise_w + |f_s^H w_p|^2, or NaN

    def _row(self, direct, cascade_h, state: DesignState) -> np.ndarray:
        if self.G.shape[0] == 0:
            return direct
        return direct + self.sqrt_a_r * (
            cascade_h * state.ris_coefficients) @ self.G

    def su_row(self, state: DesignState) -> np.ndarray:
        return self._row(self.su_direct, self.u_h, state)

    def pu_row(self, state: DesignState) -> np.ndarray:
        return self._row(self.pu_direct, self.v_h, state)

    def sinr(self, state: DesignState) -> float:
        signal = abs(np.dot(self.su_row(state), state.w_s)) ** 2
        return float(signal / self.sinr_denominator)

    def leak(self, state: DesignState) -> float:
        return float(abs(np.dot(self.pu_row(state), state.w_s)) ** 2)


def link_model(state: DesignState, channels: ChannelSet, scenario: Scenario,
               w_p: np.ndarray | None = None) -> LinkModel:
    """The LinkModel at the state's tilt; SINR needs the PBS beamformer."""
    a_d, a_r, a_i = gains = pattern_gains(state, scenario)
    denom = (np.nan if w_p is None
             else scenario.noise_w + abs(np.vdot(channels.f_s, w_p)) ** 2)
    return LinkModel(gains, np.sqrt(a_d) * channels.h_s.conj(),
                     np.sqrt(a_i) * channels.f_p.conj(), channels.u.conj(),
                     channels.v.conj(), channels.G, np.sqrt(a_r), denom)


def effective_su_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    return link_model(state, channels, scenario).su_row(state)


def effective_pu_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    return link_model(state, channels, scenario).pu_row(state)


def sinr_su(state: DesignState, channels: ChannelSet, w_p: np.ndarray,
            scenario: Scenario) -> float:
    return link_model(state, channels, scenario, w_p).sinr(state)


def se_su(sinr: float) -> float:
    return float(np.log2(1.0 + sinr))


def pu_interference(state: DesignState, channels: ChannelSet,
                    scenario: Scenario) -> float:
    return link_model(state, channels, scenario).leak(state)
