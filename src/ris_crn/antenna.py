"""Vertical sector-antenna gain model at the secondary base station.

The vertical pattern is the parabolic attenuation
``-min(12 ((theta_x - theta_tilt)/theta_3dB)^2, SLA_V)`` in dB; an unbounded
side-lobe floor (``sla_v_db=None``) removes the clipping.  All functions
return power-domain quantities; amplitude gains are the square roots, taken
at the call sites that compose effective channels.
"""

from __future__ import annotations

from .scenario import PatternParams


def vertical_attenuation_db(theta_tilt_deg: float, theta_x_deg: float,
                            params: PatternParams) -> float:
    """Vertical pattern attenuation in dB (<= 0)."""
    quad = 12.0 * ((theta_x_deg - theta_tilt_deg) / params.theta_3db_deg) ** 2
    if params.sla_v_db is not None:
        quad = min(quad, float(params.sla_v_db))
    return -quad


def vertical_gain_linear(theta_tilt_deg: float, theta_x_deg: float,
                         params: PatternParams) -> float:
    """Linear power gain in (0, 1]; equals 1 exactly on boresight."""
    return 10.0 ** (vertical_attenuation_db(theta_tilt_deg, theta_x_deg,
                                            params) / 10.0)
