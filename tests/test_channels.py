import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ris_crn import channels as channels_module
from ris_crn.channels import (STREAMS, ChannelError, generate_channels,
                              los_matrix, path_loss_amplitude, pbs_beamformer,
                              stream_rng, stream_rngs, ula_steering)
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import ChannelParams, apply_overrides, elevation_deg

CP = ChannelParams(zeta0_db=-30.0, d0_m=1.0, alpha=3.0, rician_k=1.0)
LINKS = ("G", "u", "v", "h_s", "h_p", "f_p", "f_s")


def test_path_loss_reference_distance():
    assert path_loss_amplitude(1.0, CP) == pytest.approx(np.sqrt(1e-3))
    assert path_loss_amplitude(1.0, CP) == pytest.approx(0.031623, abs=1e-6)


def test_path_loss_hundred_meters():
    assert path_loss_amplitude(100.0, CP) == pytest.approx(
        np.sqrt(1e-3 * 1e-6), rel=1e-12)
    assert path_loss_amplitude(100.0, CP) == pytest.approx(3.1623e-5,
                                                           abs=1e-9)


def test_path_loss_at_derived_distance(scenario):
    p = scenario.positions
    d = p["sbs"].distance_to(p["su"])
    assert path_loss_amplitude(d, CP) == pytest.approx(5.545e-5, abs=2e-8)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ChannelError):
        path_loss_amplitude(0.0, CP)


def test_distance_doubling_divides_power_by_eight():
    ratio = (path_loss_amplitude(50.0, CP) / path_loss_amplitude(100.0, CP))
    assert ratio ** 2 == pytest.approx(8.0, rel=1e-12)


def test_steering_entries_unit_modulus():
    v = ula_steering(16, -37.0)
    np.testing.assert_allclose(np.abs(v), 1.0, rtol=1e-14)
    los = los_matrix(4, 3, -12.0)
    np.testing.assert_allclose(np.abs(los), 1.0, rtol=1e-14)


def scattered(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """CSCG(0, 1) entries from the real parts, then the imaginary parts."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def rician_sample(rows: int, cols: int, k: float, los: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Rician fading with unit per-entry second moment, one link at a time:
    the reference of the one-pass draw, which runs its operations in its
    order."""
    if k < 0:
        raise ChannelError(f"Rician factor must be >= 0, got {k}")
    return (np.sqrt(k / (k + 1.0)) * los
            + np.sqrt(1.0 / (k + 1.0)) * scattered(rows, cols, rng))


def numpy_stream(seed, name: str) -> np.random.Generator:
    """numpy's own spawned stream: the reference of stream_rng(s)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAMS[name],))
    return np.random.Generator(np.random.PCG64(ss))


def _assert_numpy_streams(seed, names: tuple):
    want = [numpy_stream(seed, name).bit_generator.state for name in names]
    assert [rng.bit_generator.state
            for rng in stream_rngs(seed, names)] == want
    assert [stream_rng(seed, name).bit_generator.state
            for name in names] == want


@pytest.mark.parametrize("seed", [0, 1, 7, 1_000_000, 2**32 - 1, 2**32,
                                  2**64, 2**128 - 1, 2**128,
                                  np.int64(2**40 + 3)])
def test_streams_are_numpys_spawned_streams(seed):
    """Every stream, in any order or subset, is numpy's SeedSequence stream
    state for state, across the seed word boundaries (the spawn word's
    place in the entropy moves at 2**128)."""
    names = tuple(STREAMS)
    for subset in (names, names[::-1], ("randomization", "G", "f_s"),
                   ("phase_init",), ("u", "u")):
        _assert_numpy_streams(seed, subset)
    rng, = stream_rngs(seed, ("h_p",))
    assert (rng.standard_normal(5)
            == numpy_stream(seed, "h_p").standard_normal(5)).all()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**256),
       st.lists(st.sampled_from(tuple(STREAMS)), min_size=1, max_size=9))
def test_streams_match_numpy_on_any_seed(seed, names):
    _assert_numpy_streams(seed, tuple(names))


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, np.float64(2.0)])
def test_stream_seed_errors_are_numpys(seed):
    with pytest.raises((TypeError, ValueError)) as want:
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    for make in (lambda: stream_rng(seed, "G"),
                 lambda: stream_rngs(seed, ("G", "phase_init"))):
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            make()


def test_rician_pure_los_limit(rng):
    los = los_matrix(3, 2, -20.0)
    out = rician_sample(3, 2, 1e12, los, rng)
    np.testing.assert_allclose(out, los, atol=1e-5)


def test_rician_rayleigh_power(rng):
    draws = rician_sample(100_000, 1, 0.0, np.ones((100_000, 1)), rng)
    mean_p = np.mean(np.abs(draws) ** 2)
    assert 0.98 <= mean_p <= 1.02


def test_rician_k1_moments(rng):
    n = 100_000
    los = np.ones((n, 1), dtype=complex)
    draws = rician_sample(n, 1, 1.0, los, rng)
    mean_p = np.mean(np.abs(draws) ** 2)
    assert 0.98 <= mean_p <= 1.02
    # mean equals sqrt(1/2) * los entry; scattered part has std 1/sqrt(2n)
    se = np.sqrt(0.5 / n)
    assert abs(np.mean(draws) - np.sqrt(0.5)) <= 3 * se * np.sqrt(2)


def test_rician_rejects_negative_k(rng):
    with pytest.raises(ChannelError):
        rician_sample(2, 2, -0.1, los_matrix(2, 2, 0.0), rng)


def test_generate_same_seed_is_identical(scenario):
    a = generate_channels(scenario, seed=5)
    b = generate_channels(scenario, seed=5)
    for name in LINKS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# sha256 prefixes of every drawn array, recorded before the per-geometry
# link terms were cached; the empty digest e3b0... is an N=0 link's
PINNED_DRAWS = {
    ("paper_default", 0): "74571c938a396d02 62da19c636a4cedb 5cd61539eb61f0fc "
    "df29ddebaa112639 9f7b08393ab4a46f cb98003a9e05b410 46cf11cf2575cc2d",
    ("paper_default", 7): "0fc724f2fb7bd5ef a6b63eb2d687ff40 315fbb2b4f7d090a "
    "b3d1710bf0c1a1c1 fbc351f0fea0a44d 79a315cb861b6716 a857a8ae375e4b9e",
    ("paper_default", 1_000_000): "55dfb36212c3e3db ee4f99b8ea1af916 "
    "362b8e41bebfae28 2bf99dcb06095955 98d4c366d2e3df44 3cf6194a68d46987 "
    "2f814dc5e6bcc181",
    ("iid-ns4", 0): "66c2dc823dbd2b4a 9019b1ff3e937ccf 24c57e224c4b8a62 "
    "9495fd0b9e0f695f a7433d23ee4ec1d4 daa664560a927afd 8e10ee3966e5301c",
    ("iid-ns4", 7): "ce473638c3c8cf33 8c5a4837846fe6c5 2c707c7c7db89075 "
    "a75edf8612befef4 0bb2e3b27aae79f5 a070d1783ab607d4 1d611f8228de4522",
    ("iid-ns4", 1_000_000): "89794c32961dbc91 a4cafef485986001 "
    "8e0998d754cff629 30e5d4c528782319 7fe733066ac7ae8b 7a19f2be8daf3c38 "
    "69eed80b33fee8e9",
    ("no-ris", 0): "e3b0c44298fc1c14 e3b0c44298fc1c14 e3b0c44298fc1c14 "
    "df29ddebaa112639 9f7b08393ab4a46f cb98003a9e05b410 46cf11cf2575cc2d",
    ("no-ris", 7): "e3b0c44298fc1c14 e3b0c44298fc1c14 e3b0c44298fc1c14 "
    "b3d1710bf0c1a1c1 fbc351f0fea0a44d 79a315cb861b6716 a857a8ae375e4b9e",
    ("no-ris", 1_000_000): "e3b0c44298fc1c14 e3b0c44298fc1c14 "
    "e3b0c44298fc1c14 2bf99dcb06095955 98d4c366d2e3df44 3cf6194a68d46987 "
    "2f814dc5e6bcc181",
}

DRAW_CASES = {"paper_default": {}, "no-ris": {"n_ris": 0},
              "iid-ns4": {"channel": {"iid_mode": True}, "n_s": 4}}


def _digests(ch):
    return " ".join(
        hashlib.sha256(getattr(ch, name).tobytes()).hexdigest()[:16]
        for name in LINKS)


@pytest.mark.parametrize("case, seed", list(PINNED_DRAWS))
def test_draws_pinned(case, seed, scenario):
    """Every array of a draw is the same bytes as before the link terms
    were cached, on the first draw of a geometry and on a repeat."""
    sc = apply_overrides(scenario, DRAW_CASES[case])
    for _ in range(2):
        assert _digests(generate_channels(sc, seed=seed)) == PINNED_DRAWS[
            case, seed]


# (field, rows, cols, source, destination) of each link
LINK_ENDS = (("G", "n_ris", "n_s", "sbs", "ris"),
             ("u", "n_ris", 1, "ris", "su"), ("v", "n_ris", 1, "ris", "pu"),
             ("h_s", "n_s", 1, "sbs", "su"), ("h_p", "n_p", 1, "pbs", "pu"),
             ("f_p", "n_s", 1, "sbs", "pu"), ("f_s", "n_p", 1, "pbs", "su"))


def test_draw_matches_rician_reference(scenario):
    """Each of the seven links is pl * rician_sample(...) on the link's LOS
    matrix and numpy's SeedSequence stream, bit for bit, with the draw plan
    cached; with N = 0 the RIS links are empty; in iid mode a link is
    sqrt(channel_sigma2) times the scattered part."""
    for case, seed in itertools.product(DRAW_CASES, (0, 3)):
        sc = apply_overrides(scenario, DRAW_CASES[case])
        pos, cp = sc.positions, sc.channel
        ch = generate_channels(sc, seed=seed)
        for name, rows, cols, src, dst in LINK_ENDS:
            rows = getattr(sc, rows)
            cols = cols if cols == 1 else getattr(sc, cols)
            a, b = pos[src], pos[dst]
            rng = numpy_stream(seed, name)
            if cp.iid_mode:
                ref = np.sqrt(cp.channel_sigma2) * scattered(rows, cols, rng)
            else:
                los = los_matrix(rows, cols, elevation_deg(a, b))
                ref = path_loss_amplitude(a.distance_to(b), cp) * (
                    rician_sample(rows, cols, cp.rician_k, los, rng))
            got = getattr(ch, name)
            assert got.shape == ((rows, cols) if name == "G" else (rows,))
            assert got.tobytes() == ref.tobytes()


def test_writing_a_draw_leaves_the_next_unchanged(scenario):
    """The seven fields of a draw share one buffer but no entry: writing
    one leaves the other six as drawn, and no write reaches a later draw."""
    pinned = PINNED_DRAWS["paper_default", 0].split()
    for name in LINKS:
        draw = generate_channels(scenario, seed=0)
        getattr(draw, name)[...] = 1.0 + 1.0j
        assert ([d == p for d, p in zip(_digests(draw).split(), pinned)]
                == [other != name for other in LINKS])
    for name in LINKS:
        getattr(draw, name)[...] = 1.0 + 1.0j
    assert (_digests(generate_channels(scenario, seed=0))
            == PINNED_DRAWS["paper_default", 0])


def test_cached_link_terms_read_only(scenario):
    """The draw plan is cached by value, and its arrays (the Gaussian
    indices, per-entry path-loss amplitudes and LOS terms) are read-only."""
    generate_channels(scenario, seed=0)
    pos = scenario.positions
    hits = channels_module._draw_plan.cache_info().hits
    generate_channels(scenario, seed=1)
    assert channels_module._draw_plan.cache_info().hits == hits + 1
    _, _, _, *arrays = channels_module._draw_plan(
        scenario.n_ris, scenario.n_s, scenario.n_p, scenario.channel, **pos)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0] = 0
    amplitude = arrays[1][:scenario.n_ris * scenario.n_s]     # G's entries
    assert (amplitude == path_loss_amplitude(
        pos["sbs"].distance_to(pos["ris"]), scenario.channel)).all()


def test_moving_the_pu_redraws_only_its_links(scenario):
    """The plan is keyed by value: moving the PU changes exactly the three
    links that end at it, and a scenario rebuilt with equal values (a JSON
    round trip) draws the same bytes from the same plan."""
    moved = apply_overrides(scenario, {"positions": {"pu": {"x": 45.0}}})
    rebuilt = apply_overrides(scenario, {})
    assert rebuilt == scenario and rebuilt is not scenario
    for seed in (0, 7):
        base = generate_channels(scenario, seed=seed)
        misses = channels_module._draw_plan.cache_info().misses
        again = generate_channels(rebuilt, seed=seed)
        assert channels_module._draw_plan.cache_info().misses == misses
        assert _digests(again) == _digests(base)
        after = generate_channels(moved, seed=seed)
        changed = [name for name in LINKS if getattr(after, name).tobytes()
                   != getattr(base, name).tobytes()]
        assert changed == ["v", "h_p", "f_p"]


def test_generate_different_seed_differs(scenario):
    a = generate_channels(scenario, seed=5)
    b = generate_channels(scenario, seed=6)
    assert not np.allclose(a.h_s, b.h_s)
    assert not np.allclose(a.G, b.G)


def test_no_ris_degenerate_shapes(scenario):
    sc = apply_overrides(scenario, {"n_ris": 0})
    ch = generate_channels(sc, seed=5)
    assert ch.G.shape == (0, sc.n_s)
    assert ch.u.shape == (0,)
    assert ch.v.shape == (0,)
    ch.validate(sc)


def test_direct_channel_second_moment(scenario):
    sc = apply_overrides(scenario, {"n_ris": 1, "n_p": 1})
    d = sc.positions["sbs"].distance_to(sc.positions["su"])
    expected = sc.n_s * path_loss_amplitude(d, sc.channel) ** 2
    total = 0.0
    n_seeds = 10_000
    for seed in range(n_seeds):
        total += float(np.vdot(*(2 * [generate_channels(sc, seed=seed).h_s])).real)
    assert total / n_seeds == pytest.approx(expected, rel=0.02)


def test_iid_mode_unit_variance(iid_scenario):
    powers = [np.mean(np.abs(generate_channels(iid_scenario, seed=s).G) ** 2)
              for s in range(200)]
    assert np.mean(powers) == pytest.approx(1.0, rel=0.02)


def test_pbs_beamformer_aligned_unit_power():
    out = pbs_beamformer(np.array([1.0 + 0j, 0.0]), 0.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_pbs_beamformer_power_budget(rng):
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = pbs_beamformer(h, 5.0)
    assert np.vdot(out, out).real == pytest.approx(10 ** 0.5, rel=1e-9)


def test_pbs_beamformer_phase_invariance(rng):
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f_s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = abs(np.vdot(f_s, pbs_beamformer(h, 5.0)))
    rotated = abs(np.vdot(f_s, pbs_beamformer(h * np.exp(1j * 0.77), 5.0)))
    assert rotated == pytest.approx(base, rel=1e-12)


def test_pbs_beamformer_rejects_zero_channel():
    with pytest.raises(ChannelError):
        pbs_beamformer(np.zeros(2, dtype=complex), 5.0)


def test_validate_rejects_wrong_shapes(scenario, channels):
    bad = apply_overrides(scenario, {"n_ris": scenario.n_ris + 1})
    with pytest.raises(ChannelError, match="shape"):
        channels.validate(bad)


def _strided(vec):
    """A non-contiguous array with the entries of vec (every other entry
    of a doubled copy)."""
    strided = np.repeat(vec, 2)[::2]
    assert not strided.flags.c_contiguous
    return strided


def test_validate_accepts_strided_channels(scenario, channels):
    strided = dataclasses.replace(channels, u=_strided(channels.u),
                                  G=np.asfortranarray(channels.G))
    strided.validate(scenario)
    assert (run_algorithm1(strided, scenario, seed=7).se_trace
            == run_algorithm1(channels, scenario, seed=7).se_trace)


def test_validate_rejects_nan_in_strided_channel(scenario, channels):
    u = _strided(channels.u)
    u[1] = np.nan
    with pytest.raises(ChannelError, match="u has non-finite"):
        dataclasses.replace(channels, u=u).validate(scenario)
