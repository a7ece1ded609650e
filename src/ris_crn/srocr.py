"""Sequential rank-one constraint relaxation (SROCR).

After the semidefinite relaxation is solved, the rank-one constraint is
restored gradually: each round adds the alignment constraint
``q^H X q >= w * tr(X)`` with ``q`` the principal eigenvector of the previous
round's solution, and re-solves while pushing ``w`` toward 1.  A
unit-modulus round at ``w = 1`` has one feasible point, ``u u^H``, and no
interior, so it is decided from that point: where ``u u^H`` keeps every
dense row, the interior-point method cannot end optimal and the round
fails unsolved; the IPM runs only where ``u u^H`` breaks a row.  When the
schedule stalls, a Gaussian randomization fallback returns the best
feasible unit-modulus draw, or the least-violating one when no draw is
feasible; the optimizer then scales the beamformer down to meet the
interference cap.

The optimizer runs it only on phase steps where co-phasing violates the
interference cap and the unit-modulus projection of the relaxed solution's
principal eigenvector is not certified optimal; its beamformer step is in
closed form, or a tight relaxation that needs no recovery.
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


def _ratio_eigpair(x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """lambda_1 / tr as a rank-one progress measure, in [1/n, 1], with the
    principal eigenpair it is computed from."""
    tr = float(np.trace(x).real)
    if tr <= 0:
        raise SrocrError(f"trace must be > 0, got {tr}")
    lam, q = sdp.principal_eigpair(x)
    return min(lam / tr, 1.0), lam, q


def project_unit_modulus(q: np.ndarray) -> np.ndarray:
    """Every entry of q projected onto the unit circle; a (near) zero entry,
    which has no phase to keep, becomes 1."""
    mod = np.abs(q)
    return np.where(mod > 1e-12, q / np.maximum(mod, 1e-300), 1.0)


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
    return project_unit_modulus(q) / np.sqrt(q.size)


def refine(problem: SdpProblem, relaxed: SdpSolution,
           unit_modulus: bool = False) -> RankOneResult:
    """Tighten the relaxed solution toward rank one."""
    if relaxed.status != "optimal":
        raise SrocrError(f"relaxed solution status is {relaxed.status}")

    # x is the last accepted solution; its eigenpair serves both the next
    # round's alignment and the final extraction
    x = relaxed.x
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
            # At w_try = 1 a unit-modulus round's one feasible point is
            # u u^H with u = sqrt(n) a: tr((I - a a^H) X) <= 0 forces
            # X = c a a^H, and the unit diagonal fixes c.  Where u u^H keeps
            # every dense row, the IPM, with no interior to follow, cannot
            # end optimal, so the round fails unsolved.
            u = np.sqrt(n) * align
            if not (unit_modulus and w_try == 1.0 and all(
                    np.vdot(u, a @ u).real <= b
                    for a, b in zip(problem.a, problem.b))):
                # a^H X a >= w * tr(X)  <=>  tr((w I - a a^H) X) <= 0
                sol = sdp.solve(problem.with_constraint(
                    w_try * np.eye(n) - np.outer(align, align.conj()), 0.0))
        if sol is None or sol.status != "optimal":
            failed_w = w_try
            delta *= SHRINK
            if delta < 1e-6:
                break
            continue
        failed_w = None
        w = w_try
        x = sol.x
        ratio, lam, q = _ratio_eigpair(x)

    return RankOneResult(x=x, vector=np.sqrt(max(lam, 0.0)) * q, ratio=ratio,
                         iterations=iterations, feasible=ratio >= RANK_TOL)


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

    The candidates are the principal eigenvector of X and N_RANDOMIZATIONS
    draws from CN(0, X), each projected entrywise to unit modulus, so the
    diagonal rows hold; all are scored at once by u^H C u and the dense
    rows' u^H A_i u.  A candidate with an entry below 1e-15 is skipped.
    The best objective among candidates whose worst relative row violation
    is at most 1e-8 wins, else the least-violating one, the first on ties:
    phases are always unit-modulus, and the caller repairs any residual
    interference overshoot by scaling the beamformer down.
    """
    n = problem.dim
    vals, vecs = np.linalg.eigh(0.5 * (relaxed_x + relaxed_x.conj().T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    g = (rng.standard_normal((N_RANDOMIZATIONS, n))
         + 1j * rng.standard_normal((N_RANDOMIZATIONS, n))) / np.sqrt(2.0)
    cands = np.vstack([vecs[:, -1], g @ root.T])  # root @ g_i ~ CN(0, X)
    mod = np.abs(cands)
    usable = (mod >= 1e-15).all(axis=1)
    if not usable.any():
        raise SrocrError("randomization produced no usable candidate")
    units = cands[usable] / mod[usable]

    def forms(mat):     # u^H mat u for every candidate u
        return (units.conj() * (units @ mat.T)).sum(axis=1).real

    viol = np.zeros(len(units))
    for a, b in zip(problem.a, problem.b):
        np.maximum(viol, (forms(a) - b) / (1.0 + abs(b)), out=viol)
    feasible = np.flatnonzero(viol <= 1e-8)
    best = (feasible[np.argmax(forms(problem.c)[feasible])] if feasible.size
            else np.argmin(viol))
    return _anchor_last(units[best])
