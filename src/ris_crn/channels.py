"""Seeded generation of the seven network channels.

Each link combines a distance power-law path-loss amplitude with Rician
small-scale fading.  The line-of-sight component is built from
half-wavelength uniform-linear-array steering vectors at the geometric
elevation angle of the link, which keeps every LOS entry unit-modulus.
A link's path-loss amplitude and LOS term sqrt(K/(K+1)) LOS depend only on
its geometry, so ``_link_terms`` builds them once and draws share them.

``ChannelParams.iid_mode`` switches to the statistical model used by the
tilt-selection analysis: every entry iid CSCG(0, channel_sigma2) with no
path loss and no LOS structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scenario import ChannelParams, Scenario, dbw_to_watts, elevation_deg

# Fixed substream indices: the seven links, then the optimizer's phase
# initialization and phase randomization.  Adding streams must never
# renumber these.
STREAMS = {"G": 0, "u": 1, "v": 2, "h_s": 3, "h_p": 4, "f_p": 5, "f_s": 6,
           "phase_init": 7, "randomization": 8}


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelSet:
    G: np.ndarray    # (N, N_s)  SBS -> RIS
    u: np.ndarray    # (N,)      RIS -> SU
    v: np.ndarray    # (N,)      RIS -> PU
    h_s: np.ndarray  # (N_s,)    SBS -> SU
    h_p: np.ndarray  # (N_p,)    PBS -> PU
    f_p: np.ndarray  # (N_s,)    SBS -> PU
    f_s: np.ndarray  # (N_p,)    PBS -> SU

    def validate(self, scenario: Scenario):
        n, n_s, n_p = scenario.n_ris, scenario.n_s, scenario.n_p
        for name, shape in (("G", (n, n_s)), ("u", (n,)), ("v", (n,)),
                            ("h_s", (n_s,)), ("h_p", (n_p,)),
                            ("f_p", (n_s,)), ("f_s", (n_p,))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ChannelError(f"channel {name} has shape {arr.shape}, "
                                   f"expected {shape}")
            if np.count_nonzero(np.isfinite(arr)) != arr.size:
                raise ChannelError(f"channel {name} has non-finite entries")


def path_loss_amplitude(d_m: float, params: ChannelParams) -> float:
    if d_m <= 0:
        raise ChannelError(f"distance must be > 0, got {d_m}")
    zeta0 = 10.0 ** (params.zeta0_db / 10.0)
    return float(np.sqrt(zeta0 * (params.d0_m / d_m) ** params.alpha))


def ula_steering(n: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA steering vector, unit-modulus entries."""
    k = np.arange(n)
    return np.exp(1j * np.pi * k * np.sin(np.radians(angle_deg)))


def los_matrix(rows: int, cols: int, angle_deg: float) -> np.ndarray:
    """Rank-one unit-modulus LOS from receive/transmit steering vectors."""
    return np.outer(ula_steering(rows, angle_deg),
                    ula_steering(cols, angle_deg).conj())


def rician_sample(rows: int, cols: int, k: float, los: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Rician fading with unit per-entry second moment."""
    if k < 0:
        raise ChannelError(f"Rician factor must be >= 0, got {k}")
    w = (rng.standard_normal((rows, cols))
         + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * w


@functools.lru_cache(maxsize=128)   # keyed by value: dataclasses are frozen
def _link_terms(rows: int, cols: int, src, dst, params: ChannelParams):
    """(path-loss amplitude, read-only sqrt(K/(K+1)) LOS) of a link."""
    k = params.rician_k
    los_term = np.sqrt(k / (k + 1.0)) * los_matrix(rows, cols,
                                                   elevation_deg(src, dst))
    los_term.flags.writeable = False
    return path_loss_amplitude(src.distance_to(dst), params), los_term


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAMS[stream],))
    return np.random.Generator(np.random.PCG64(ss))


def generate_channels(scenario: Scenario, seed: int = 0) -> ChannelSet:
    """Draw all seven channels; deterministic in (scenario, seed)."""
    cp = scenario.channel
    n, n_s, n_p = scenario.n_ris, scenario.n_s, scenario.n_p
    pos = scenario.positions

    def draw(link, rows, cols, src, dst):
        rng = stream_rng(seed, link)
        w = (rng.standard_normal((rows, cols))
             + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
        if cp.iid_mode:
            return np.sqrt(cp.channel_sigma2) * w
        pl, los_term = _link_terms(rows, cols, pos[src], pos[dst], cp)
        return pl * (los_term + np.sqrt(1.0 / (cp.rician_k + 1.0)) * w)

    return ChannelSet(
        G=draw("G", n, n_s, "sbs", "ris"),
        u=draw("u", n, 1, "ris", "su")[:, 0],
        v=draw("v", n, 1, "ris", "pu")[:, 0],
        h_s=draw("h_s", n_s, 1, "sbs", "su")[:, 0],
        h_p=draw("h_p", n_p, 1, "pbs", "pu")[:, 0],
        f_p=draw("f_p", n_s, 1, "sbs", "pu")[:, 0],
        f_s=draw("f_s", n_p, 1, "pbs", "su")[:, 0],
    )


def pbs_beamformer(h_p: np.ndarray, pp_dbw: float) -> np.ndarray:
    """Matched-filter PBS beamformer scaled to the full PBS power budget."""
    norm = np.linalg.norm(h_p)
    if norm == 0:
        raise ChannelError("h_p is zero; PBS beamformer undefined")
    return np.sqrt(dbw_to_watts(pp_dbw)) * h_p / norm
