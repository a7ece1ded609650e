"""Alternating optimization of the SBS beamformer, RIS phases and tilt.

The loop fixes the tilt first (pointing at the RIS when the expected
reflected power beats the expected direct power), then alternates between
the beamformer step and the phase step.  An outer iteration in which the
interference cap C1 binds at neither block is solved in closed form:
maximum-ratio transmission (MRT) at full power, then the phase profile that
co-phases every reflected path with the direct one, each the global optimum
of its step while it keeps C1.  Every other iteration takes the principal
eigenvector of the beamformer's tight semidefinite relaxation (the last
solve is reused while that relaxation stays byte-equal), then the same
co-phased profile where it keeps C1.  Only where it does not does the phase
step solve a relaxation: an SDP whose one dense row is C1
and whose unit-modulus entries are the solver's implicit unit diagonal.
Its principal eigenvector, projected to unit modulus, is taken when it
keeps C1 and reaches the relaxation's bound (a certified global optimum);
otherwise sequential rank-one constraint relaxation (SROCR) recovers the
phases, and Gaussian randomization where SROCR stalls.  Every accepted
iterate is feasible and the spectral-efficiency trace is non-decreasing
by construction: a recovered candidate that would lower the objective is
discarded in favor of the previous iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp, srocr
from .channels import ChannelSet, pbs_beamformer, stream_rng
from .metrics import (DesignState, effective_pu_row, effective_su_row,
                      pattern_gains, pu_interference, se_su, sinr_su)
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
        return self.se_trace[-1] if self.se_trace else 0.0

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
    w_ref = np.ones(1)
    direct = expected_direct_power(w_ref, scenario.channel.channel_sigma2)
    cascade = expected_cascade_power(w_ref, scenario.channel.channel_sigma2,
                                     scenario.n_ris)
    # ties point at the RIS, matching the large-N regime
    if cascade >= direct:
        return TiltDecision(scenario.theta_r_deg, "ris", direct, cascade)
    return TiltDecision(scenario.theta_d_deg, "direct", direct, cascade)


# -- subproblem builders --------------------------------------------------

def build_ws_problem(state: DesignState, channels: ChannelSet,
                     scenario: Scenario) -> sdp.SdpProblem:
    """Beamformer subproblem: max a W a^H s.t. b W b^H <= Gamma, tr W <= P."""
    a = effective_su_row(state, channels, scenario)
    b = effective_pu_row(state, channels, scenario)
    n_s = scenario.n_s
    return sdp.SdpProblem(np.outer(a.conj(), a),
                          (np.outer(b.conj(), b), np.eye(n_s)),
                          (scenario.gamma_w, scenario.p_max_w))


def build_phase_problem(state: DesignState, channels: ChannelSet,
                        scenario: Scenario):
    """Phase subproblem in homogenized form.

    Returns (SdpProblem over X of size N+1, l1, l2) with objective
    l1 + tr(H1 X), the one dense row l2 + tr(H2 X) <= Gamma and X_pp = 1
    (``unit_diagonal``).  For every unit-modulus x = [e^{j alpha}; 1],
    l1 + x^H H1 x equals |a(alpha) w_s|^2 exactly.
    """
    a_d, a_r, a_i = pattern_gains(state, scenario)
    w = state.w_s
    gw = channels.G @ w
    n = scenario.n_ris

    def quad(vec_rx, direct_ch, gain_direct):
        c = complex(np.vdot(direct_ch, w))              # direct term
        r = np.conj(vec_rx.conj() * gw)                 # cascade, conjugated
        h = np.zeros((n + 1, n + 1), dtype=complex)
        h[:n, :n] = a_r * np.outer(r, r.conj())
        cross = np.sqrt(gain_direct * a_r) * r * c
        h[:n, n] = cross
        h[n, :n] = cross.conj()
        ell = gain_direct * abs(c) ** 2
        return h, ell

    h1, l1 = quad(channels.u, channels.h_s, a_d)
    h2, l2 = quad(channels.v, channels.f_p, a_i)
    return (sdp.SdpProblem(h1, (h2,), (scenario.gamma_w - l2,),
                           unit_diagonal=True), l1, l2)


# -- main loop ------------------------------------------------------------

def initial_phases(n_ris: int, seed: int) -> np.ndarray:
    """Phase initialization; the random draw is shared with the
    random-phase baseline so method comparisons are paired."""
    rng = stream_rng(seed, "phase_init")
    return rng.uniform(0.0, 2.0 * np.pi, size=n_ris)


def _solve_ws(problem: sdp.SdpProblem, diag: dict) -> np.ndarray | None:
    """Beamformer step on ``build_ws_problem``'s relaxation: sqrt(lambda_1)
    q_1 of the relaxed X, or None (the beamformer is kept) when the
    relaxation is not solved to optimality.

    Tightness: a complex SDP with two constraints has a rank-one optimum
    (rank(X)^2 <= 2; Huang & Palomar, IEEE TSP 2010).  Feasibility:
    lambda_1 q_1 q_1^H <= X, so the vector meets both PSD "<=" constraints
    whenever X does, even for a non-rank-one X.
    """
    relaxed = sdp.solve(problem)
    diag["ws_sdp_status"] = relaxed.status
    if relaxed.status != "optimal":
        return None
    lam, q = sdp.principal_eigpair(relaxed.x)
    return np.sqrt(max(lam, 0.0)) * q


def _mrt(a: np.ndarray, p_max_w: float) -> np.ndarray | None:
    """Maximum-ratio transmission at full power, sqrt(P) a^H / ||a||, or
    None for a zero row.  The row is scaled by its largest entry first, so
    the norm neither underflows nor overflows far off boresight."""
    peak = np.max(np.abs(a), initial=0.0)
    if peak == 0.0:
        return None
    unit = a.conj() / peak
    return np.sqrt(p_max_w) * unit / np.linalg.norm(unit)


def _closed_form_step(state: DesignState, channels: ChannelSet,
                      scenario: Scenario, update_phases: bool):
    """(beamformer, phases) of an outer iteration in which C1 binds at
    neither block, or None.

    MRT maximizes |a w|^2 over ||w||^2 <= P, so when it keeps C1 under the
    current phases it is the beamformer step's optimum (the C1-slack case
    of Zhang & Liang, IEEE JSTSP 2008), and the co-phased profile for it is
    the phase step's optimum when that keeps C1 too (see _solve_phases).
    The phases are None when they are frozen.
    """
    w = _mrt(effective_su_row(state, channels, scenario), scenario.p_max_w)
    if w is None:
        return None
    state = state.with_beamformer(w)
    if pu_interference(state, channels, scenario) > scenario.gamma_w:
        return None
    if not update_phases:
        return w, None
    phases = _cophased_within_cap(state, channels, scenario)
    return None if phases is None else (w, phases)


def cophased_phases(state: DesignState, channels: ChannelSet) -> np.ndarray:
    """Phases that add every reflected path in phase with the direct one:
    alpha_n = arg(h_s^H w) - arg(conj(u_n) (G w)_n).

    The tilt gains only scale each path by a positive amount and do not
    enter, so the angles stay right where A_d (or the product A_d A_r in
    the homogenized cross column) underflows to zero.
    """
    w = state.w_s
    c = np.vdot(channels.h_s, w)
    return np.angle(c) - np.angle(channels.u.conj() * (channels.G @ w))


def _cophased_within_cap(state: DesignState, channels: ChannelSet,
                         scenario: Scenario) -> np.ndarray | None:
    """The co-phased profile for the state's beamformer when it keeps C1,
    else None."""
    phases = cophased_phases(state, channels)
    if (pu_interference(state.with_phases(phases), channels, scenario)
            <= scenario.gamma_w):
        return phases
    return None


def _sdr_gap(problem: sdp.SdpProblem, bound: float,
             phases: np.ndarray) -> tuple[float, np.ndarray]:
    """How far the phases fall short of the relaxation's bound tr(H1 X),
    (tr(H1 X) - x^H H1 x) / |tr(H1 X)|, and the x = [e^{j phases}; 1] it
    is taken at."""
    x = np.append(np.exp(1j * phases), 1.0)
    value = float(np.vdot(x, problem.c @ x).real)
    return (bound - value) / max(abs(bound), np.finfo(float).tiny), x


def _solve_phases(state: DesignState, channels: ChannelSet,
                  scenario: Scenario, rng: np.random.Generator,
                  diag: dict) -> np.ndarray:
    """Phase step: the first of these recoveries that applies.

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
    4. Gaussian randomization, where the SROCR schedule stalls.

    ``phase_sdr_gap`` is the relative gap to tr(H1 X) of the phases taken,
    on every step that solved the relaxation.
    """
    cophased = _cophased_within_cap(state, channels, scenario)
    if cophased is not None:
        diag["phase_recovery"] = "cophase"
        return cophased
    problem, _, _ = build_phase_problem(state, channels, scenario)
    relaxed = sdp.solve(problem)
    diag["phase_sdp_status"] = relaxed.status
    if relaxed.status != "optimal":
        return state.phases
    eigpair = sdp.principal_eigpair(relaxed.x)
    unit = srocr.project_unit_modulus(eigpair[1])
    phases = np.angle(unit[:-1] * unit[-1].conj())
    gap, x = _sdr_gap(problem, relaxed.objective, phases)
    if gap <= sdp.TOL and np.vdot(x, problem.a[0] @ x).real <= problem.b[0]:
        diag["phase_recovery"] = "certified"
    else:
        result = srocr.refine(problem, relaxed, unit_modulus=True,
                              eigpair=eigpair)
        diag["phase_srocr_ratio"] = result.ratio
        diag["phase_srocr_iters"] = result.iterations
        if result.feasible:
            x = srocr.extract_vector(result, "phases")
            diag["phase_recovery"] = "srocr"
        else:
            x = srocr.randomize_phases(problem, relaxed.x, rng)
            diag["phase_recovery"] = "randomization"
        phases = np.angle(x[:-1])
        gap, _ = _sdr_gap(problem, relaxed.objective, phases)
    diag["phase_sdr_gap"] = gap
    return phases


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
    w_p = pbs_beamformer(channels.h_p, scenario.pp_dbw)

    phases0 = (np.zeros(scenario.n_ris) if zero_phase_start
               else initial_phases(scenario.n_ris, seed))
    if fixed_tilt_deg is not None:
        tilt = TiltDecision(float(fixed_tilt_deg), "fixed", np.nan, np.nan)
    else:
        tilt = select_tilt(scenario)
    state = DesignState(np.zeros(scenario.n_s, dtype=complex), phases0,
                        tilt.theta_tilt_deg)
    fallback_rng = stream_rng(seed, "randomization")

    def accept(cand: DesignState, current: DesignState, se: float):
        """Repair cand, then keep it only if the SE does not drop.

        A beamformer meets C1 and the budget only to the IPM's tolerance,
        and a phase move changes the effective PU row under the kept
        beamformer, so the beamformer is scaled down until both hold with
        margin (or C1_REPAIR_PASSES more rescales have missed); returns
        the kept state and its SE.
        """
        scale2 = 1.0
        power = float(np.vdot(cand.w_s, cand.w_s).real)
        if power > scenario.p_max_w:
            scale2 = min(scale2, scenario.p_max_w / power)
        cap = scenario.gamma_w * (1.0 - 1e-9)
        leak = pu_interference(cand, channels, scenario)
        leak_rescaled = leak > cap
        if leak_rescaled:
            scale2 = min(scale2, cap / leak)
        if scale2 < 1.0:
            cand = cand.with_beamformer(cand.w_s * np.sqrt(scale2))
        # where |b w| sits at the rounding floor of ||b|| ||w||, one
        # rescale can land above the cap; repeat it while it does
        for _ in range(C1_REPAIR_PASSES if leak_rescaled else 0):
            leak = pu_interference(cand, channels, scenario)
            if leak <= scenario.gamma_w:
                break
            cand = cand.with_beamformer(cand.w_s * np.sqrt(cap / leak))
        se_cand = se_su(sinr_su(cand, channels, w_p, scenario))
        return (cand, se_cand) if se_cand >= se else (current, se)

    se_now = 0.0       # the zero beamformer carries no signal
    se_prev = 0.0
    se_trace: list[float] = []
    diagnostics: list[dict] = []
    # The beamformer SDP differs between steps only in its objective and C1
    # matrices (tilt, channels, P and Gamma are fixed within a call), so a
    # step whose two matrices are byte-equal to those of the last solve
    # reuses that solve's result and diagnostics, as every step after the
    # first does while the phases are frozen.
    ws_key, ws_step, ws_diag = None, None, {}
    update_phases = update_phases and scenario.n_ris > 0
    for t in range(1, MAX_OUTER_ITERS + 1):
        diag = {"iteration": t}
        closed = _closed_form_step(state, channels, scenario, update_phases)
        if closed is not None:
            w, phases = closed
            diag["ws_step"] = "mrt"
            state, se_now = accept(state.with_beamformer(w), state, se_now)
            if update_phases:
                diag["phase_recovery"] = "cophase"
                state, se_now = accept(state.with_phases(phases), state,
                                       se_now)
        else:
            diag["ws_step"] = "sdp"
            problem = build_ws_problem(state, channels, scenario)
            key = problem.c.tobytes() + problem.a[0].tobytes()
            reused = key == ws_key
            if not reused:
                ws_key, ws_diag = key, {}
                ws_step = _solve_ws(problem, ws_diag)
            diag.update(ws_diag, ws_reused=reused)
            state, se_now = accept(state.with_beamformer(
                state.w_s if ws_step is None else ws_step), state, se_now)
            if update_phases:
                state, se_now = accept(state.with_phases(_solve_phases(
                    state, channels, scenario, fallback_rng, diag)),
                    state, se_now)
        se_trace.append(se_now)
        diag["se"] = se_now
        diagnostics.append(diag)
        if se_now <= 0.0:
            break
        err = (se_now - se_prev) / se_now
        se_prev = se_now
        if err < EPSILON:
            break

    leak = pu_interference(state, channels, scenario)
    power = float(np.vdot(state.w_s, state.w_s).real)
    feasible = (leak <= scenario.gamma_w * (1.0 + 1e-6)
                and power <= scenario.p_max_w * (1.0 + 1e-6))
    return OptimizerResult(state=state, se_trace=se_trace, tilt=tilt,
                           pu_interference_w=leak, power_w=power,
                           feasible=feasible, diagnostics=diagnostics)
