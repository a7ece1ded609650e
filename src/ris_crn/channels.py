"""Seeded generation of the seven network channels.

Each link combines a distance power-law path-loss amplitude with Rician
small-scale fading.  The line-of-sight component is built from
half-wavelength uniform-linear-array steering vectors at the geometric
elevation angle of the link, which keeps every LOS entry unit-modulus.

``_draw_plan`` builds all of a draw but the fading once per set of sizes,
positions and ``ChannelParams``; a draw fills one buffer from the links'
seed streams, combines all seven links at once and returns views of it.
A stream is numpy's PCG64 on ``SeedSequence(seed, spawn_key=(k,))`` bit for
bit; ``stream_rngs`` seeds a draw's together, as the tests check.

``ChannelParams.iid_mode`` switches to the statistical model used by the
tilt-selection analysis: every entry iid CSCG(0, channel_sigma2) with no
path loss and no LOS structure.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .scenario import ChannelParams, Scenario, dbw_to_watts, elevation_deg

# Fixed substream indices: the seven links, then the optimizer's phase
# initialization and phase randomization.  Adding streams must never
# renumber these.
STREAMS = {"G": 0, "u": 1, "v": 2, "h_s": 3, "h_p": 4, "f_p": 5, "f_s": 6,
           "phase_init": 7, "randomization": 8}


# numpy's SeedSequence constants; 0-d operands keep numpy on fast loops
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_R, _M32 = (
    0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded, 0x4973f715, 2**32 - 1)
_MIX_L, _SHIFT = np.array(0xca01f9dd, np.uint32), np.array(16, np.uint32)


class ChannelError(ValueError):
    pass


@functools.lru_cache(maxsize=32)
def _stream_plan(streams: tuple, n_words: int) -> tuple:
    """Per stream and uint32 word i of generate_state(4, uint64): pool word
    i % 4, its spawn word's mix term, and the xor and multiply of i's hash."""
    def hc(init, mult, calls):  # the hash constant after `calls` hashes
        return init * pow(mult, calls, 1 << 32) & _M32
    rows = []
    for k, i in itertools.product([STREAMS[n] for n in streams], range(8)):
        i ^= sys.byteorder == "big"  # big-endian: swap pairs for the u64 view
        a = hc(_INIT_A, _MULT_A, 4 * n_words + i % 4)  # after the entropy
        mixed = (k ^ a) * (a * _MULT_A) & _M32
        rows.append((i % 4, _MIX_R * (mixed ^ mixed >> 16) & _M32,
                     hc(_INIT_B, _MULT_B, i), hc(_INIT_B, _MULT_B, i + 1)))
    cols = np.array(rows).T.copy().reshape(4, len(streams), 8)
    plan = (cols[0].astype(np.intp), *cols[1:].astype(np.uint32))
    for arr in plan:
        arr.flags.writeable = False
    return plan


class _StreamState(np.random.bit_generator.ISeedSequence):
    """Seed words made beforehand, for PCG64's generate_state(4, uint64)."""
    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def stream_rngs(seed: int, streams: tuple) -> list:
    """Per name, Generator(PCG64(SeedSequence(seed, spawn_key=(STREAMS[name],
    )))) bit for bit: the spawn word's mix of the pool, then its hash."""
    ss = np.random.SeedSequence(seed)
    pool_words, mix_terms, gen_xor, gen_mul = _stream_plan(
        streams, max(4, -(-int(ss.entropy).bit_length() // 32)))
    state = ss.pool[pool_words]
    state *= _MIX_L             # mix(pool[d], hashmix(k))
    state -= mix_terms
    state ^= state >> _SHIFT
    state ^= gen_xor            # generate_state's hash
    state *= gen_mul
    state ^= state >> _SHIFT
    return [np.random.Generator(np.random.PCG64(_StreamState(words)))
            for words in state.view(np.uint64)]


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    return stream_rngs(seed, (stream,))[0]


def _links(n: int, n_s: int, n_p: int) -> tuple:
    """(field, shape, source, destination) of each link, in ChannelSet's
    field order."""
    return (("G", (n, n_s), "sbs", "ris"), ("u", (n,), "ris", "su"),
            ("v", (n,), "ris", "pu"), ("h_s", (n_s,), "sbs", "su"),
            ("h_p", (n_p,), "pbs", "pu"), ("f_p", (n_s,), "sbs", "pu"),
            ("f_s", (n_p,), "pbs", "su"))


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
        for name, shape, _, _ in _links(scenario.n_ris, scenario.n_s,
                                        scenario.n_p):
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


@functools.lru_cache(maxsize=128)   # keyed by value: dataclasses are frozen
def _draw_plan(n: int, n_s: int, n_p: int, params: ChannelParams,
               **pos) -> tuple:
    """All of a draw but the fading: the links' streams and each link's
    (slice, shape) in one buffer, in field order; the scale sqrt(1/(K+1)),
    or sqrt(channel_sigma2) in iid mode; and read-only arrays: the (2, size)
    Gaussian indices of the real and imaginary parts and, but in iid mode
    (empty there), each entry's path loss and sqrt(K/(K+1)) LOS."""
    links, parts, amplitude, los_term, start = [], [], [], [], 0
    k = params.rician_k
    for name, shape, src, dst in _links(n, n_s, n_p):
        size = math.prod(shape)
        links.append((slice(start, start + size), shape))
        # a link's stream gives its real parts, then its imaginary parts
        parts.append(np.arange(2 * start, 2 * (start + size)).reshape(2, size))
        start += size
        if not params.iid_mode:
            a, b = pos[src], pos[dst]
            amplitude += [path_loss_amplitude(a.distance_to(b), params)] * size
            los_term += list(np.sqrt(k / (k + 1.0)) * los_matrix(
                shape[0], math.prod(shape[1:]), elevation_deg(a, b)).ravel())
    arrays = (np.concatenate(parts, axis=1), np.array(amplitude),
              np.array(los_term))
    for arr in arrays:
        arr.flags.writeable = False
    return (tuple(name for name, *_ in _links(n, n_s, n_p)), tuple(links),
            np.sqrt(params.channel_sigma2 if params.iid_mode
                    else 1.0 / (k + 1.0)), *arrays)


def generate_channels(scenario: Scenario, seed: int = 0) -> ChannelSet:
    """Draw all seven channels; deterministic in (scenario, seed).  They are
    views of one buffer that belongs to this draw alone."""
    streams, links, scale, parts, amplitude, los_term = _draw_plan(
        scenario.n_ris, scenario.n_s, scenario.n_p, scenario.channel,
        **scenario.positions)
    gauss = np.empty(2 * parts.shape[1])
    for rng, (part, _) in zip(stream_rngs(seed, streams), links):
        rng.standard_normal(out=gauss[2 * part.start:2 * part.stop])
    re, im = gauss[parts]
    # pl * (sqrt(K/(K+1)) LOS + sqrt(1/(K+1)) w), on all seven links at once
    w = (re + 1j * im) / np.sqrt(2.0)
    w *= scale
    if not scenario.channel.iid_mode:
        w += los_term
        w *= amplitude
    return ChannelSet(*(w[part].reshape(shape) for part, shape in links))


def pbs_beamformer(h_p: np.ndarray, pp_dbw: float) -> np.ndarray:
    """Matched-filter PBS beamformer scaled to the full PBS power budget."""
    norm = np.linalg.norm(h_p)
    if norm == 0:
        raise ChannelError("h_p is zero; PBS beamformer undefined")
    return np.sqrt(dbw_to_watts(pp_dbw)) * h_p / norm
