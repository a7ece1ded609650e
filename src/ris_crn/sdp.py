"""Semidefinite programming over small Hermitian matrices.

Solves  maximize tr(C X)  s.t.  tr(A_i X) {<=,=} b_i,  X >= 0 (PSD)
with a primal-dual path-following interior-point method (Mehrotra
predictor-corrector, HKM direction) run directly in complex Hermitian
arithmetic.  Problem dimensions here stay below ~70, so X and Z are dense.
The constraints are split once, at set-up: a diagonal-entry constraint,
A_i = d_i e_p e_p^T, touches only X_pp, and the Schur complement block of
two such rows is d_i d_j Re(X_pq Zinv_qp), so the N+1 unit-modulus rows of
a phase SDP cost O(n^2) per iteration in all (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 1996).  Only the other rows, the interference cap
and an SROCR alignment, go through dense X A_j Zinv products.  The maps
A(X) and A^T(y) stay one dense product each, which at these sizes is as
fast as the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

HERM_TOL = 1e-12
TOL = 1e-7          # relative residuals and gap of an optimal solve
MAX_ITERS = 100


class SdpError(ValueError):
    pass


def check_hermitian(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SdpError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if np.abs(mat - mat.conj().T).max(initial=0.0) > HERM_TOL * scale:
        raise SdpError(f"{name} is not Hermitian")
    return 0.5 * (mat + mat.conj().T)


@dataclass(frozen=True)
class SdpConstraint:
    a: np.ndarray       # Hermitian coefficient matrix
    relation: str       # "<=" or "="; tr(A X) >= b is (-A, "<=", -b)
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", check_hermitian(self.a, "constraint matrix"))
        if self.relation not in ("<=", "="):
            raise SdpError(f"unknown relation {self.relation!r}")
        if not np.isfinite(self.b):
            raise SdpError("constraint bound must be finite")


@dataclass(frozen=True)
class SdpProblem:
    """maximize tr(C X) subject to the listed trace constraints and X PSD."""
    c: np.ndarray
    constraints: list[SdpConstraint] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "c", check_hermitian(self.c, "objective"))
        n = self.c.shape[0]
        for con in self.constraints:
            if con.a.shape != (n, n):
                raise SdpError(f"constraint matrix shape {con.a.shape} does "
                               f"not match objective dimension {n}")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def with_constraint(self, a, relation, b) -> "SdpProblem":
        return SdpProblem(self.c,
                          list(self.constraints) + [SdpConstraint(a, relation, b)])

    def constraint_violation(self, x: np.ndarray) -> float:
        """Worst relative violation of the trace constraints at X = x."""
        worst = 0.0
        for con in self.constraints:
            val = float(np.tensordot(con.a.conj(), x).real)
            scale = 1.0 + abs(con.b)
            if con.relation == "<=":
                worst = max(worst, (val - con.b) / scale)
            else:
                worst = max(worst, abs(val - con.b) / scale)
        return worst


@dataclass
class SdpSolution:
    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | max-iterations | numerical-failure
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float


def principal_eigpair(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector, canonical global phase."""
    x = check_hermitian(x, "eigpair input")
    vals, vecs = np.linalg.eigh(x)
    lam = float(vals[-1])
    q = vecs[:, -1]
    # rotate so the first entry of non-negligible modulus has phase 0
    idx = np.flatnonzero(np.abs(q) > 1e-12 * np.abs(q).max())
    if idx.size:
        pivot = q[idx[0]]
        q = q * (abs(pivot) / pivot)
    return lam, q


def _max_steps(linv: np.ndarray, dmats: np.ndarray) -> list[float]:
    """Largest alpha with mat + alpha*dmat PSD, for each stacked pair.

    ``linv`` stacks the inverse lower Cholesky factors of the matrices,
    mat = (linv^-1)(linv^-1)^H; the step is inf when dmat is PSD.
    """
    w = linv @ dmats @ linv.conj().swapaxes(-1, -2)
    lam_min = np.linalg.eigvalsh(0.5 * (w + w.conj().swapaxes(-1, -2)))[:, 0]
    return [np.inf if lam >= 0 else -1.0 / lam for lam in lam_min]


def _unit_scale(mat: np.ndarray, b: float = 0.0) -> float:
    """Divisor that brings the term (mat, b) to unit size: max(||mat||_F, |b|).

    However small a nonzero term is, it is scaled up to unit size rather
    than left at its own scale, where the solver cannot tell it from zero.
    Where the squares in the Frobenius norm underflow, the largest entry
    stands in for the norm; only an all-zero term keeps the scale 1.
    """
    scale = max(float(np.linalg.norm(mat)), abs(b))
    if scale == 0.0:
        scale = float(np.abs(mat).max(initial=0.0)) or 1.0
    return scale


class _SchurComplement:
    """HKM Schur complement M_ij = Re tr(A_i X A_j Zinv) of a constraint
    stack, assembled in blocks from its diagonal-entry rows (A_i =
    d_i e_p e_p^T) and its dense rows.

    Swapping i and j conjugates the trace, so M is symmetric.  A diagonal
    row meets a dense row j in d_i Re(X A_j Zinv)_pp, so only the dense rows
    need the products X A_j Zinv.  Without diagonal-entry rows, as in the
    beamformer SDP, M is the dense block alone.
    """

    def __init__(self, amats: np.ndarray):
        m, n, _ = amats.shape
        flat = amats.reshape(m, n * n)
        nonzero = flat != 0
        # a Hermitian matrix's one nonzero entry can only be on the diagonal
        is_diag = nonzero.sum(axis=1) == 1
        di, gi = np.flatnonzero(is_diag), np.flatnonzero(~is_diag)
        self.pos = np.argmax(nonzero[di], axis=1) // (n + 1)   # the p of e_p
        self.d = flat[di, self.pos * (n + 1)].real
        self.dd = np.outer(self.d, self.d)
        self.dense = amats[gi]
        self.dense_conj_flat = flat[gi].conj()
        self.ix_pp = np.ix_(self.pos, self.pos)
        self.ix_gg, self.ix_dd = np.ix_(gi, gi), np.ix_(di, di)
        self.ix_dg, self.ix_gd = np.ix_(di, gi), np.ix_(gi, di)
        self.shape = (m, m)

    def __call__(self, x: np.ndarray, zinv: np.ndarray) -> np.ndarray:
        t = x @ self.dense @ zinv                  # (dense rows, n, n)
        dense_block = (self.dense_conj_flat
                       @ t.reshape(self.dense_conj_flat.shape).T).real
        if not self.pos.size:
            return dense_block
        big_m = np.empty(self.shape)
        big_m[self.ix_gg] = dense_block
        big_m[self.ix_dd] = self.dd * (x[self.ix_pp] * zinv[self.ix_pp].T).real
        cross = self.d[:, None] * t[:, self.pos, self.pos].real.T
        big_m[self.ix_dg] = cross
        big_m[self.ix_gd] = cross.T
        return big_m


def solve(problem: SdpProblem) -> SdpSolution:
    """Interior-point solve; deterministic for fixed inputs."""
    n = problem.dim
    m = len(problem.constraints)
    if m == 0:
        raise SdpError("problem needs at least one constraint bounding X")

    # normalize: scale objective and constraints to unit size
    cmat = problem.c / _unit_scale(problem.c)
    amats = np.empty((m, n, n), dtype=complex)
    bvec = np.empty(m)
    ineq = np.empty(m, dtype=bool)
    for i, con in enumerate(problem.constraints):
        sc = _unit_scale(con.a, con.b)
        amats[i] = con.a / sc
        bvec[i] = con.b / sc
        ineq[i] = con.relation != "="
    schur = _SchurComplement(amats)
    k = int(ineq.sum())
    aconj_flat = amats.conj().reshape(m, n * n)
    a_flat = amats.reshape(m, n * n)

    def opA(xmat):  # <A_i, X> for all i
        return (aconj_flat @ xmat.ravel()).real

    def opAt(yvec):  # sum_i y_i A_i
        return (yvec @ a_flat).reshape(n, n)

    ident = np.eye(n)
    tau = max(1.0, float(np.abs(bvec).max(initial=1.0)))
    x = tau * ident.astype(complex)
    z = max(1.0, float(np.linalg.norm(cmat))) * ident.astype(complex)
    y = np.zeros(m)
    y[ineq] = 1.0
    s = np.zeros(m)
    s[ineq] = tau

    b_norm = 1.0 + float(np.linalg.norm(bvec))
    c_norm = 1.0 + float(np.linalg.norm(cmat))
    cconj_flat = cmat.conj().ravel()
    status = "max-iterations"
    iters = 0

    def certificate():
        """Residuals, dual objective and relative gap at the current iterate."""
        rp = bvec - opA(x) - s                     # primal residual
        rd = cmat - opAt(y) + z                    # dual residual (Hermitian)
        pobj = float(np.dot(cconj_flat, x.ravel()).real)
        dobj = float(bvec @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return (rp, rd, dobj, float(np.linalg.norm(rp)) / b_norm,
                float(np.linalg.norm(rd)) / c_norm, gap)

    for iters in range(1, MAX_ITERS + 1):
        rp, rd, dobj, pres, dres, gap = certificate()
        mu = (float(np.dot(x.conj().ravel(), z.ravel()).real)
              + float(s @ y)) / (n + max(k, 1))

        if pres <= TOL and dres <= TOL and gap <= TOL:
            status = "optimal"
            break
        if (dobj < -1e9 * b_norm or np.linalg.norm(y) > 1e10) and pres > TOL:
            status = "infeasible"
            break
        if not np.isfinite(mu) or mu < 0:
            status = "numerical-failure"
            break

        # inverse lower Cholesky factors of X and Z; zpotrf zeroes the
        # factor's upper triangle and ztrtri leaves it so
        ell_x, info_x = sla.lapack.zpotrf(x, lower=1)
        ell_z, info_z = sla.lapack.zpotrf(z, lower=1)
        if info_x or info_z:
            status = "numerical-failure"
            break
        linv_x, info_x = sla.lapack.ztrtri(ell_x, lower=1)
        linv_z, info_z = sla.lapack.ztrtri(ell_z, lower=1)
        if info_x or info_z:
            status = "numerical-failure"
            break
        linv = np.stack((linv_x, linv_z))
        zinv = linv_z.conj().T @ linv_z
        zinv = 0.5 * (zinv + zinv.conj().T)

        # Schur complement M_ij = <A_i, X A_j Zinv> (+ s_i/y_i on the diagonal)
        big_m = schur(x, zinv)
        diag = np.zeros(m)
        diag[ineq] = s[ineq] / y[ineq]
        big_m = big_m + np.diag(diag)
        xrdzi = x @ rd @ zinv
        base = (aconj_flat @ xrdzi.ravel()).real - bvec
        tr_a_zinv = (aconj_flat @ zinv.ravel()).real
        inv_y = np.zeros(m)
        inv_y[ineq] = 1.0 / y[ineq]

        # a zero pivot (info > 0): the Schur complement is exactly singular,
        # as it is when the same equality is given twice
        lu, piv, info = sla.lapack.dgetrf(big_m)
        if info != 0:
            status = "numerical-failure"
            break

        def direction(sigma_mu, corr_sdp=None, corr_lp=None):
            rhs = base + sigma_mu * (tr_a_zinv + inv_y)
            if corr_lp is not None:
                rhs = rhs - corr_lp * inv_y
            corr_term = None
            if corr_sdp is not None:
                corr_term = corr_sdp @ zinv
                rhs = rhs - (aconj_flat @ corr_term.ravel()).real
            dy = sla.lapack.dgetrs(lu, piv, rhs)[0]
            dz = opAt(dy) - rd
            dz = 0.5 * (dz + dz.conj().T)
            dx = sigma_mu * zinv - x - x @ dz @ zinv
            if corr_term is not None:
                dx = dx - corr_term
            dx = 0.5 * (dx + dx.conj().T)
            ds = np.zeros(m)
            if k:
                ds[ineq] = rp[ineq] - (aconj_flat[ineq] @ dx.ravel()).real
            return dx, dy, dz, ds

        def step_lengths(dx, dy, dz, ds):
            ap, ad = _max_steps(linv, np.stack((dx, dz)))
            mask_s = ineq & (ds < 0)
            mask_y = ineq & (dy < 0)
            # far off boresight the data is ~1e-235 and the ratio can
            # overflow; inf means the step is unbounded in that direction
            with np.errstate(over="ignore"):
                ratio_s = -s[mask_s] / ds[mask_s]
                ratio_y = -y[mask_y] / dy[mask_y]
            ap = min(ap, float(ratio_s.min(initial=np.inf)))
            ad = min(ad, float(ratio_y.min(initial=np.inf)))
            return min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)

        # predictor
        dx_a, dy_a, dz_a, ds_a = direction(0.0)
        ap, ad = step_lengths(dx_a, dy_a, dz_a, ds_a)
        mu_aff = (float(np.dot((x + ap * dx_a).conj().ravel(),
                               (z + ad * dz_a).ravel()).real)
                  + float((s + ap * ds_a) @ (y + ad * dy_a))) / (n + max(k, 1))
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector
        dx, dy, dz, ds = direction(sigma * mu, corr_sdp=dx_a @ dz_a,
                                   corr_lp=dy_a * ds_a)
        ap, ad = step_lengths(dx, dy, dz, ds)
        if ap <= 1e-14 and ad <= 1e-14:
            status = "numerical-failure"
            break
        x = x + ap * dx
        s = s + ap * ds
        y = y + ad * dy
        z = z + ad * dz
        s[ineq] = np.maximum(s[ineq], 1e-300)
        y[ineq] = np.maximum(y[ineq], 1e-300)

    x_out = 0.5 * (x + x.conj().T)
    objective = float(np.dot(problem.c.conj().ravel(), x_out.ravel()).real)
    _, _, _, pres, dres, gap = certificate()
    return SdpSolution(x=x_out, objective=objective, status=status,
                       iterations=iters, primal_residual=pres,
                       dual_residual=dres, gap=gap)
