"""Alternating optimization of the SBS beamformer, RIS phases and tilt.

The loop fixes the tilt first (pointing at the RIS when the expected
reflected power beats the expected direct power), then alternates between
the beamformer step and the phase step.  The beamformer step is
maximum-ratio transmission (MRT) at full power where that keeps the
interference cap C1, and the optimum with C1 at its cap where it does not
(Zhang & Liang, IEEE JSTSP 2008); the phase step co-phases every reflected
path with the direct one where that keeps C1.  Each is then its step's
global optimum.  Only where MRT keeps C1 and its co-phased profile does
not does the beamformer step take the principal eigenvector of its tight
semidefinite relaxation.  A phase step whose co-phased profile breaks C1
solves a relaxation: an SDP over the link model's cascaded-channel rows
whose one dense row is C1 and whose unit-modulus entries are the solver's
implicit unit diagonal.  Its
principal eigenvector, projected to unit modulus, is taken when it keeps
C1 and reaches the relaxation's bound (a certified global optimum);
otherwise sequential rank-one constraint relaxation (SROCR) recovers the
phases, and Gaussian randomization where SROCR stalls.  Every accepted
iterate is feasible and the spectral-efficiency trace is non-decreasing
by construction: a recovered candidate that would lower the objective is
discarded in favor of the previous iterate.  The loop stops when the SE
gain falls below EPSILON, or at a fixed point: an iteration that leaves
the phases where it found them is recorded once more, as the iteration
that would repeat it, and not run again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sdp, srocr
from .channels import ChannelSet, pbs_beamformer, stream_rng
# perfbench/spans.py wraps sinr_su and pu_interference in this namespace
from .metrics import (DesignState, LinkModel, link_model, pu_interference,
                      se_su, sinr_su)
from .scenario import Scenario, _check_angle

EPSILON = 1e-3         # relative SE gain below which the loop stops
MAX_OUTER_ITERS = 20
C1_REPAIR_PASSES = 8   # extra C1 rescales after one that missed the cap


@dataclass(frozen=True)
class TiltDecision:
    theta_tilt_deg: float
    branch: str                # "direct" or "ris"
    direct_power: float
    cascade_power: float


@dataclass
class OptimizerResult:
    state: DesignState
    se_trace: list[float]
    tilt: TiltDecision
    pu_interference_w: float
    power_w: float
    feasible: bool
    diagnostics: list[dict]

    @property
    def se(self) -> float:
        return self.se_trace[-1]

    @property
    def outer_iterations(self) -> int:
        return len(self.se_trace)


# -- tilt selection -------------------------------------------------------

def expected_direct_power(w_s: np.ndarray, sigma2: float) -> float:
    """E|h^H w|^2 under iid CSCG(0, sigma2) channel entries."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    return sigma2 * float(np.vdot(w_s, w_s).real)


def expected_cascade_power(w_s: np.ndarray, sigma2: float, n_ris: int) -> float:
    """E|u^H Phi G w|^2 under the same iid model; scales as sigma^4 N."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    return sigma2 ** 2 * n_ris * float(np.vdot(w_s, w_s).real)


def select_tilt(scenario: Scenario) -> TiltDecision:
    """Point the tilt at the RIS or at the SU, whichever path carries more
    expected power under the iid model (sigma^4 N against sigma^2)."""
    branch, direct, cascade = _tilt_branch(scenario.channel.channel_sigma2,
                                           scenario.n_ris)
    return TiltDecision(scenario.theta_r_deg if branch == "ris"
                        else scenario.theta_d_deg, branch, direct, cascade)


@functools.lru_cache(maxsize=128)
def _tilt_branch(sigma2: float, n_ris: int) -> tuple[str, float, float]:
    """(branch, direct, cascade) of the tilt rule; no angle is in the key,
    where -0.0 and 0.0 (or -30 and -30.0) would be one."""
    w_ref = np.ones(1)
    direct = expected_direct_power(w_ref, sigma2)
    cascade = expected_cascade_power(w_ref, sigma2, n_ris)
    # ties point at the RIS, matching the large-N regime
    return ("ris" if cascade >= direct else "direct"), direct, cascade


# -- subproblem builders --------------------------------------------------

def build_ws_problem(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> sdp.SdpProblem:
    """Beamformer subproblem: max a W a^H s.t. b W b^H <= Gamma, tr W <= P,
    for the rows (a, b) under the state's phases."""
    a, b = link_model(state, channels, scenario).rows(state.phases)
    return sdp.SdpProblem(np.outer(a.conj(), a),
                          (np.outer(b.conj(), b), np.eye(scenario.n_s)),
                          (scenario.gamma_w, scenario.p_max_w))


def build_phase_problem(state: DesignState, channels: ChannelSet,
                        scenario: Scenario):
    """Phase subproblem in homogenized form.

    Returns (SdpProblem over X of size N+1, l1, l2) with objective
    l1 + tr(H1 X), the one dense row l2 + tr(H2 X) <= Gamma and X_pp = 1
    (``unit_diagonal``).  With y = [C_a w_s; sqrt(A_d) h_s^H w_s],
    |a(alpha) w_s|^2 = |y^T x|^2 for x = [e^{j alpha}; 1]: H1 is conj(y) y^T
    with its corner moved into l1, and H2, l2 likewise from the PU row.  No
    entry passes through A_d A_r, which underflows far off boresight.
    """
    model = link_model(state, channels, scenario)
    n = scenario.n_ris

    def homogenized(cascade, direct):
        y = np.append(cascade @ state.w_s, direct @ state.w_s)
        h = np.outer(y.conj(), y)
        ell = float(h[n, n].real)
        h[n, n] = 0.0
        return h, ell

    h1, l1 = homogenized(model.su_cascade, model.su_direct)
    h2, l2 = homogenized(model.pu_cascade, model.pu_direct)
    return (sdp.SdpProblem(h1, (h2,), (scenario.gamma_w - l2,),
                           unit_diagonal=True), l1, l2)


# -- main loop ------------------------------------------------------------

def initial_phases(n_ris: int, seed: int) -> np.ndarray:
    """Phase initialization; the random draw is shared with the
    random-phase baseline so method comparisons are paired."""
    rng = stream_rng(seed, "phase_init")
    return rng.uniform(0.0, 2.0 * np.pi, size=n_ris)


def _mrt(a: np.ndarray, p_max_w: float) -> np.ndarray:
    """Maximum-ratio transmission at full power, sqrt(P) a^H / ||a||, or
    zero for a zero row (no signal, no leak).  The row is scaled by its
    largest entry first, so its norm (np.linalg.norm's sqrt(re.re + im.im)
    without its dispatch) neither underflows nor overflows off boresight."""
    peak = np.abs(a).max(initial=0.0)
    if peak == 0.0:
        return np.zeros(a.shape, dtype=complex)
    unit = a.conj() / peak
    re, im = unit.real, unit.imag
    return math.sqrt(p_max_w) * unit / np.sqrt(re.dot(re) + im.dot(im))


def _c1_capped(w_mrt: np.ndarray, b: np.ndarray, scenario: Scenario):
    """argmax |a w|^2 s.t. |b w|^2 <= Gamma, ||w||^2 <= P where the MRT
    ``w_mrt`` breaks C1 (Zhang & Liang, IEEE JSTSP 2008): sqrt(Gamma)/||b||
    on b_hat = b^H/||b||, in phase with b_hat^H a^H, and the rest of the
    power on the part of a^H orthogonal to b_hat, taken with two
    Gram-Schmidt passes and dropped below 1e-12 ||a|| (parallel rows)."""
    b_hat = _mrt(b, 1.0)
    along = np.vdot(b_hat, w_mrt)
    perp = w_mrt - along * b_hat
    perp = perp - np.vdot(b_hat, perp) * b_hat
    s = np.sqrt(scenario.gamma_w) / abs(np.dot(b, b_hat))
    w = s * np.exp(1j * np.angle(along)) * b_hat
    rest = np.linalg.norm(perp)
    if rest > 1e-12 * np.sqrt(scenario.p_max_w):
        w = w + np.sqrt(max(scenario.p_max_w - s * s, 0.0)) * perp / rest
    return w


def _beamformer_step(state: DesignState, rows: tuple, channels: ChannelSet,
                     scenario: Scenario, model: LinkModel,
                     update_phases: bool, diag: dict):
    """Beamformer step for the state and its ``rows``: (w, (w, |b w|^2)
    or None, _cophased_within_cap's move for w or None).

    MRT when it keeps C1 (it maximizes |a w|^2 over ||w||^2 <= P), with
    the co-phased profile for it when that keeps C1 too (see _solve_phases)
    or alone when the phases are frozen; _c1_capped where MRT breaks C1.
    Where MRT keeps C1 and its co-phased profile does not, w is
    sqrt(lambda_1) q_1 of ``build_ws_problem``'s relaxed X, or MRT, the
    relaxation's optimum, when it is not solved to optimality.  The
    relaxation is tight (a complex SDP with two constraints has a rank-one
    optimum: Huang & Palomar, IEEE TSP 2010), and lambda_1 q_1 q_1^H <= X
    meets both constraints whenever X does.
    """
    a, b = rows
    w = _mrt(a, scenario.p_max_w)
    taken = (w, model.leak(b, w))
    if taken[1] > scenario.gamma_w:
        diag["ws_step"] = "closed-form"
        return _c1_capped(w, b, scenario), None, None
    move = (_cophased_within_cap(w, state.phases, rows, channels, scenario,
                                 model) if update_phases else None)
    if move is not None or not update_phases:
        diag["ws_step"] = "mrt"
        if move is not None:
            diag["phase_recovery"] = "cophase"
        return w, taken, move
    diag["ws_step"] = "sdp"
    relaxed = sdp.solve(build_ws_problem(state, channels, scenario))
    diag["ws_sdp_status"] = relaxed.status
    if relaxed.status != "optimal":
        return w, taken, None
    lam, q = sdp.principal_eigpair(relaxed.x)
    return np.sqrt(max(lam, 0.0)) * q, None, None


def cophased_phases(w: np.ndarray, channels: ChannelSet) -> np.ndarray:
    """Phases that add every reflected path in phase with the direct one
    under the beamformer w: alpha_n = arg(h_s^H w) - arg(conj(u_n) (G w)_n),
    each arg taken as np.angle takes it, arctan2(imag, real), without its
    dispatch.

    The tilt gains only scale each path by a positive amount and do not
    enter, so the angles stay right where A_d underflows to zero.
    """
    c = np.vdot(channels.h_s, w)
    z = channels.u.conj() * (channels.G @ w)
    return np.arctan2(c.imag, c.real) - np.arctan2(z.imag, z.real)


def _cophased_within_cap(w: np.ndarray, phases: np.ndarray, rows: tuple,
                         channels: ChannelSet, scenario: Scenario,
                         model: LinkModel):
    """(co-phased profile, its rows, (w, |b w|^2)) for the beamformer w if
    that profile keeps C1; ``rows`` are those of ``phases``, the current
    profile, and are reused if the co-phased profile is the same."""
    cophased = cophased_phases(w, channels)
    if cophased.tobytes() != phases.tobytes():
        rows = model.rows(cophased)
    taken = (w, model.leak(rows[1], w))
    return (cophased, rows, taken) if taken[1] <= scenario.gamma_w else None


def _sdr_gap(problem: sdp.SdpProblem, bound: float,
             phases: np.ndarray) -> tuple[float, np.ndarray]:
    """How far the phases fall short of the relaxation's bound tr(H1 X),
    (tr(H1 X) - x^H H1 x) / |tr(H1 X)|, and the x = [e^{j phases}; 1] it
    is taken at."""
    x = np.append(np.exp(1j * phases), 1.0)
    value = float(np.vdot(x, problem.c @ x).real)
    return (bound - value) / max(abs(bound), np.finfo(float).tiny), x


def _solve_phases(state: DesignState, rows: tuple, channels: ChannelSet,
                  scenario: Scenario, model: LinkModel, seed: int,
                  diag: dict) -> tuple[np.ndarray, tuple, tuple | None]:
    """Phase step: (phases, their rows, (w, |b w|^2) or None), for the
    state and its ``rows``, from the first of these recoveries that applies.

    1. Co-phase: the co-phased profile maximizes |a(alpha) w|^2 over all
       unit-modulus profiles, so when it keeps C1 it is the subproblem's
       global optimum and no SDP is built.
    2. Certified projection: the principal eigenvector of the relaxed X,
       projected to unit modulus with its last entry 1, when it keeps C1
       with no slack and reaches the bound tr(H1 X) within sdp.TOL.  A
       feasible rank-one point at a relaxation's bound solves the
       subproblem (Huang & Palomar, IEEE TSP 2010; Wu & Zhang, IEEE TWC
       2019).
    3. SROCR, from that same eigenpair.
    4. Gaussian randomization where SROCR stalls, drawn afresh from the
       trial ``seed``'s randomization stream each time, so the step is a
       function of the state alone.

    ``phase_sdr_gap`` is the relative gap to tr(H1 X) of the phases taken,
    on every step that solved the relaxation.
    """
    cophased = _cophased_within_cap(state.w_s, state.phases, rows, channels,
                                    scenario, model)
    if cophased is not None:
        diag["phase_recovery"] = "cophase"
        return cophased
    problem, _, _ = build_phase_problem(state, channels, scenario)
    relaxed = sdp.solve(problem)
    diag["phase_sdp_status"] = relaxed.status
    if relaxed.status != "optimal":
        return state.phases, rows, None
    unit = srocr.project_unit_modulus(sdp.principal_eigpair(relaxed.x)[1])
    phases = np.angle(unit[:-1] * unit[-1].conj())
    gap, x = _sdr_gap(problem, relaxed.objective, phases)
    if gap <= sdp.TOL and np.vdot(x, problem.a[0] @ x).real <= problem.b[0]:
        diag["phase_recovery"] = "certified"
    else:
        result = srocr.refine(problem, relaxed, unit_modulus=True)
        diag["phase_srocr_ratio"] = result.ratio
        diag["phase_srocr_iters"] = result.iterations
        if result.feasible:
            x = srocr.extract_vector(result, "phases")
            diag["phase_recovery"] = "srocr"
        else:
            x = srocr.randomize_phases(
                problem, relaxed.x, stream_rng(seed, "randomization"))
            diag["phase_recovery"] = "randomization"
        phases = np.angle(x[:-1])
        gap, _ = _sdr_gap(problem, relaxed.objective, phases)
    diag["phase_sdr_gap"] = gap
    return phases, model.rows(phases), None


def run_algorithm1(channels: ChannelSet, scenario: Scenario,
                   seed: int = 0, fixed_tilt_deg: float | None = None,
                   update_phases: bool = True,
                   zero_phase_start: bool = False) -> OptimizerResult:
    """Alternating beamformer/phase optimization at a fixed tilt.

    With ``update_phases=False`` the RIS coefficients stay at their
    initialization and only the beamformer is optimized; the baselines in
    the experiment harness run through this same loop so feasibility
    repair and reporting are identical across methods.  The phases start
    at the seeded random draw, or at zero with ``zero_phase_start``.  A
    fixed tilt must lie in [-180, 0] degrees, like the scenario's angles.
    """
    if fixed_tilt_deg is not None:
        _check_angle("fixed_tilt_deg", fixed_tilt_deg)
    channels.validate(scenario)
    phases0 = (np.zeros(scenario.n_ris) if zero_phase_start
               else initial_phases(scenario.n_ris, seed))
    tilt = (select_tilt(scenario) if fixed_tilt_deg is None else
            TiltDecision(float(fixed_tilt_deg), "fixed", np.nan, np.nan))
    state = DesignState(np.zeros(scenario.n_s, dtype=complex), phases0,
                        tilt.theta_tilt_deg)
    model = link_model(state, channels, scenario,
                       pbs_beamformer(channels.h_p, scenario.pp_dbw))
    p_max, cap = scenario.p_max_w, scenario.gamma_w * (1.0 - 1e-9)

    def accept(w, phases, cand_rows: tuple, taken, kept: tuple):
        """Repair the beamformer w; keep (w, phases) if the SE does not drop.

        A beamformer meets C1 and the budget only to the IPM's tolerance,
        and a phase move changes the effective PU row under the kept
        beamformer, so w is scaled down until both hold with margin (or
        C1_REPAIR_PASSES more rescales have missed).  ``taken``, a step's
        (w', |b w'|^2) or None, gives the leak when w is w'.  ``kept`` and
        the result are a (state, rows, SE) triple.
        """
        a, b = cand_rows
        power = float(np.vdot(w, w).real)
        scale2 = p_max / power if power > p_max else 1.0
        leak = taken[1] if taken and taken[0] is w else model.leak(b, w)
        leak_rescaled = leak > cap
        if leak_rescaled:
            scale2 = min(scale2, cap / leak)
        if scale2 < 1.0:
            w = w * math.sqrt(scale2)
        # where |b w| sits at the rounding floor of ||b|| ||w||, one
        # rescale can land above the cap; repeat it while it does
        for _ in range(C1_REPAIR_PASSES if leak_rescaled else 0):
            leak = model.leak(b, w)
            if leak <= scenario.gamma_w:
                break
            w = w * math.sqrt(cap / leak)
        se_cand = se_su(model.sinr(a, w))
        return ((DesignState(w, phases, tilt.theta_tilt_deg), cand_rows,
                 se_cand) if se_cand >= kept[2] else kept)

    se_now = 0.0       # the zero beamformer carries no signal
    se_prev = 0.0
    se_trace: list[float] = []
    diagnostics: list[dict] = []
    update_phases = update_phases and scenario.n_ris > 0
    rows = model.rows(state.phases)    # the current phases' (a, b)
    for t in range(1, MAX_OUTER_ITERS + 1):
        diag = {"iteration": t}
        start = state.phases.tobytes()
        w, taken, move = _beamformer_step(state, rows, channels, scenario,
                                          model, update_phases, diag)
        state, rows, se_now = accept(w, state.phases, rows, taken,
                                     (state, rows, se_now))
        if update_phases:
            phases, move_rows, taken = move or _solve_phases(
                state, rows, channels, scenario, model, seed, diag)
            state, rows, se_now = accept(state.w_s, phases, move_rows, taken,
                                         (state, rows, se_now))
        se_trace.append(se_now)
        diag["se"] = se_now
        diagnostics.append(diag)
        if se_now <= 0.0:
            break
        err = (se_now - se_prev) / se_now
        se_prev = se_now
        if err < EPSILON:
            break
        # The beamformer step depends only on the phases it starts from and
        # the phase step only on the state the beamformer step leaves (its
        # randomization draws afresh from the seed), so an iteration that
        # ends at the phases it started from is a fixed point: the next
        # would repeat it and stop with gain 0.  It is recorded, not run.
        if t < MAX_OUTER_ITERS and state.phases.tobytes() == start:
            se_trace.append(se_now)
            diagnostics.append(dict(diag, iteration=t + 1, replayed=True))
            break

    leak = model.leak(rows[1], state.w_s)
    power = float(np.vdot(state.w_s, state.w_s).real)
    feasible = (leak <= scenario.gamma_w * (1.0 + 1e-6)
                and power <= scenario.p_max_w * (1.0 + 1e-6))
    return OptimizerResult(state=state, se_trace=se_trace, tilt=tilt,
                           pu_interference_w=leak, power_w=power,
                           feasible=feasible, diagnostics=diagnostics)
