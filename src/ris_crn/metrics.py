"""Effective channels, secondary SINR/SE and primary interference.

The tilt gains enter as amplitudes, in the cascaded-channel form of Wu &
Zhang (IEEE TWC 2019): ``a = sqrt(A_d) h_s^H + e^{j alpha}^T C_a`` toward
the SU and ``b = sqrt(A_i) f_p^H + e^{j alpha}^T C_b`` toward the PU, with
``C_a = sqrt(A_r) diag(u^H) G`` and ``C_b = sqrt(A_r) diag(v^H) G``.  A
``LinkModel`` holds what the tilt, channels and scenario fix: the scaled
direct rows, the cascade matrices and the SINR denominator.  ``rows`` forms
both rows of a phase profile and ``sinr`` and ``leak`` take a row, so a
caller that keeps a profile's rows forms them once.  ``run_algorithm1``
builds one model per call.  The public functions here and the optimizer's
SDP builders take a ``DesignState`` and build one per evaluation; a model is
a function of the tilt, channels and scenario alone, so theirs holds the
same arrays as the loop's.
"""

from __future__ import annotations

import functools
import math
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


def pattern_gains(state: DesignState,
                  scenario: Scenario) -> tuple[float, float, float]:
    """(A_d, A_r, A_i) power gains for the current tilt."""
    return _gains(state.theta_tilt_deg, scenario.pattern, scenario.theta_d_deg,
                  scenario.theta_r_deg, scenario.theta_i_deg)


@functools.lru_cache(maxsize=256)   # a pure function of hashable values
def _gains(tilt, pattern, *angles):
    return tuple(vertical_gain_linear(tilt, th_x, pattern) for th_x in angles)


@dataclass(frozen=True)
class LinkModel:
    """What a tilt, channel set and scenario fix for every design state."""
    su_direct: np.ndarray               # sqrt(A_d) h_s^H
    pu_direct: np.ndarray               # sqrt(A_i) f_p^H
    su_cascade: np.ndarray              # sqrt(A_r) diag(u^H) G, (N, N_s)
    pu_cascade: np.ndarray              # sqrt(A_r) diag(v^H) G
    sinr_denominator: float             # noise_w + |f_s^H w_p|^2, or NaN

    def rows(self, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b): the effective SU and PU rows under a phase profile."""
        coeffs = np.exp(1j * phases)
        return (self.su_direct + coeffs @ self.su_cascade,
                self.pu_direct + coeffs @ self.pu_cascade)

    def sinr(self, a: np.ndarray, w_s: np.ndarray) -> float:
        return float(abs(np.dot(a, w_s)) ** 2 / self.sinr_denominator)

    @staticmethod
    def leak(b: np.ndarray, w_s: np.ndarray) -> float:
        return float(abs(np.dot(b, w_s)) ** 2)


def link_model(state: DesignState, channels: ChannelSet, scenario: Scenario,
               w_p: np.ndarray | None = None) -> LinkModel:
    """The LinkModel at the state's tilt; SINR needs the PBS beamformer."""
    amp_d, amp_r, amp_i = map(math.sqrt, pattern_gains(state, scenario))
    denom = (np.nan if w_p is None
             else scenario.noise_w + abs(np.vdot(channels.f_s, w_p)) ** 2)
    return LinkModel(amp_d * channels.h_s.conj(),
                     amp_i * channels.f_p.conj(),
                     amp_r * channels.u.conj()[:, None] * channels.G,
                     amp_r * channels.v.conj()[:, None] * channels.G,
                     denom)


def effective_su_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    return link_model(state, channels, scenario).rows(state.phases)[0]


def effective_pu_row(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> np.ndarray:
    return link_model(state, channels, scenario).rows(state.phases)[1]


def sinr_su(state: DesignState, channels: ChannelSet, w_p: np.ndarray,
            scenario: Scenario) -> float:
    model = link_model(state, channels, scenario, w_p)
    return model.sinr(model.rows(state.phases)[0], state.w_s)


def se_su(sinr: float) -> float:
    return float(np.log2(1.0 + sinr))


def pu_interference(state: DesignState, channels: ChannelSet,
                    scenario: Scenario) -> float:
    return LinkModel.leak(effective_pu_row(state, channels, scenario),
                          state.w_s)
