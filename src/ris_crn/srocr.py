"""Sequential rank-one constraint relaxation (SROCR).

After the semidefinite relaxation is solved, the rank-one constraint is
restored gradually: each round adds the alignment constraint
``q^H X q >= w * tr(X)`` with ``q`` the principal eigenvector of the previous
round's solution, and re-solves while pushing ``w`` toward 1.  When the
schedule stalls, a Gaussian randomization fallback returns the best
feasible unit-modulus draw, or the least-violating one when no draw is
feasible; the optimizer then scales the beamformer down to meet the
interference cap.

The optimizer runs it only on phase steps where co-phasing violates the
interference cap; its beamformer relaxation is tight and needs no recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .sdp import SdpProblem, SdpSolution


class SrocrError(ValueError):
    pass


RANK_TOL = 0.999        # lambda_1 / tr(X) at which X counts as rank one
DELTA_INIT = 0.1        # first step of the alignment weight
SHRINK = 0.5            # step shrink factor after an infeasible round
MAX_ROUNDS = 30
N_RANDOMIZATIONS = 200  # Gaussian draws of the randomization fallback


@dataclass
class RankOneResult:
    x: np.ndarray
    vector: np.ndarray
    ratio: float
    iterations: int
    feasible: bool
    objective: float


def rank_one_ratio(x: np.ndarray) -> float:
    """lambda_1 / tr as a rank-one progress measure, in [1/n, 1]."""
    return _ratio_eigpair(x)[0]


def _ratio_eigpair(x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """rank_one_ratio(x) with the principal eigenpair it is computed from."""
    tr = float(np.trace(x).real)
    if tr <= 0:
        raise SrocrError(f"trace must be > 0, got {tr}")
    lam, q = sdp.principal_eigpair(x)
    return min(lam / tr, 1.0), lam, q


def _align_direction(q: np.ndarray, unit_modulus: bool) -> np.ndarray:
    """Alignment direction for the next tightening round from the principal
    eigenvector q of the current solution.

    For unit-modulus problems the raw eigenvector can have a (near) zero
    entry, e.g. the homogenizing entry when the direct link is attenuated
    away; aligning with it caps lambda_1 strictly below tr(X) and stalls
    the schedule.  Projecting every entry onto equal modulus keeps full
    alignment achievable by a feasible rank-one point.
    """
    if not unit_modulus:
        return q
    n = q.size
    mod = np.abs(q)
    unit = np.where(mod > 1e-12, q / np.maximum(mod, 1e-300), 1.0)
    return unit / np.sqrt(n)


def refine(problem: SdpProblem, relaxed: SdpSolution,
           unit_modulus: bool = False) -> RankOneResult:
    """Tighten the relaxed solution toward rank one."""
    if relaxed.status != "optimal":
        raise SrocrError(f"relaxed solution status is {relaxed.status}")

    # x is the last accepted solution; its eigenpair serves both the next
    # round's alignment and the final extraction
    x, objective = relaxed.x, relaxed.objective
    ratio, lam, q = _ratio_eigpair(x)
    w = ratio
    delta = DELTA_INIT
    n = problem.dim
    iterations = 0
    # the weight of the last failed round; q only moves on success, so a
    # round that tries this weight again (w + delta clipped at 1 twice)
    # would solve the identical problem and fail identically
    failed_w = None
    while ratio < RANK_TOL and w < 1.0 and iterations < MAX_ROUNDS:
        iterations += 1
        w_try = min(1.0, w + delta)
        sol = None
        if w_try != failed_w:
            align = _align_direction(q, unit_modulus)
            # a^H X a >= w * tr(X)  <=>  tr((w I - a a^H) X) <= 0
            sol = sdp.solve(problem.with_constraint(
                w_try * np.eye(n) - np.outer(align, align.conj()), "<=", 0.0))
        # A unit-modulus round at w_try = 1 has one feasible point:
        # tr((I - a a^H) X) <= 0 forces X = c a a^H, and the unit diagonal
        # gives X = u u^H with u = sqrt(n) a.  With no interior point the
        # solve ends non-optimal even where u u^H meets C1, so such a round
        # counts as failed although its problem is feasible.
        if sol is None or sol.status != "optimal":
            failed_w = w_try
            delta *= SHRINK
            if delta < 1e-6:
                break
            continue
        failed_w = None
        w = w_try
        x, objective = sol.x, sol.objective
        ratio, lam, q = _ratio_eigpair(x)

    return RankOneResult(x=x, vector=np.sqrt(max(lam, 0.0)) * q, ratio=ratio,
                         iterations=iterations, feasible=ratio >= RANK_TOL,
                         objective=objective)


def extract_vector(result: RankOneResult, target: str) -> np.ndarray:
    """Turn an effectively rank-one X into the design vector.

    ``beamformer``: sqrt(lambda_1) q_1.  ``phases``: the homogenized vector
    rotated so its last entry is exactly 1; callers take entrywise angles.
    """
    if not result.feasible:
        raise SrocrError("solution not rank-one; use the randomization fallback")
    if target == "beamformer":
        return result.vector
    if target == "phases":
        return _anchor_last(result.vector)
    raise SrocrError(f"unknown target {target!r}")


def _anchor_last(vec: np.ndarray) -> np.ndarray:
    last = vec[-1]
    if abs(last) < 1e-12:
        raise SrocrError("homogenizing entry is numerically zero")
    return vec * (abs(last) / last) / abs(last)


def randomize_phases(problem: SdpProblem, relaxed_x: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Gaussian randomization fallback for the unit-modulus problem.

    Draws candidates from CN(0, X), projects every entry to unit modulus,
    and keeps the best feasible candidate under the problem objective.  If
    no draw is feasible, returns the least-violating candidate instead:
    phases are always unit-modulus, and the caller repairs any residual
    interference overshoot by scaling the beamformer down.
    """
    n = problem.dim
    x_psd = 0.5 * (relaxed_x + relaxed_x.conj().T)
    vals, vecs = np.linalg.eigh(x_psd)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    best_val, best_vec = -np.inf, None
    least_viol, least_vec = np.inf, None
    _, q = sdp.principal_eigpair(x_psd)
    candidates = [q]
    g = (rng.standard_normal((N_RANDOMIZATIONS, n))
         + 1j * rng.standard_normal((N_RANDOMIZATIONS, n))) / np.sqrt(2.0)
    candidates.extend(g @ root.conj().T)
    for cand in candidates:
        mod = np.abs(cand)
        if np.any(mod < 1e-15):
            continue
        unit = cand / mod
        xx = np.outer(unit, unit.conj())
        viol = problem.constraint_violation(xx)
        if viol > 1e-8:
            if viol < least_viol:
                least_viol, least_vec = viol, unit
            continue
        val = float(np.tensordot(problem.c.conj(), xx).real)
        if val > best_val:
            best_val, best_vec = val, unit
    if best_vec is None:
        best_vec = least_vec
    if best_vec is None:
        raise SrocrError("randomization produced no usable candidate")
    return _anchor_last(best_vec)
