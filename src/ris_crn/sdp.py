"""Semidefinite programming over small Hermitian matrices.

Solves  maximize tr(C X)  s.t.  tr(A_i X) <= b_i,  [X_pp = 1 for all p],
X >= 0 (PSD) with a primal-dual path-following interior-point method
(Mehrotra predictor-corrector, HKM direction) run directly in complex
Hermitian arithmetic.  These are the two shapes the optimizer builds: a
few dense "<=" rows (the beamformer's power budget and interference cap,
a phase SDP's interference cap, an SROCR alignment), plus, with
``unit_diagonal``, the unit-modulus rows of a phase SDP.  Problem
dimensions stay below ~70, so X and Z are dense.  A unit-diagonal row
touches only X_pp: A(X) ends in Re diag X, A^T(y) adds Diag(y), and the
Schur complement block of two such rows is Re(X_pq Zinv_qp), so the N+1
rows cost O(n^2) per iteration in all (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 1996).  Only the dense rows go through
X A_j Zinv products.  The first ``solve`` of a process imports the LAPACK
bindings, so a process that solves no SDP never loads scipy.linalg.

Set-up runs once per solve: it scales every dense term to unit size (a
unit-diagonal row already has it) and allocates the buffers that each
iteration rewrites in place.  At these sizes an iteration costs mostly
numpy call overhead, so it makes few calls, but its arithmetic and the
order of every reduction are fixed: the norms are np.linalg.norm's dot
products, the Schur diagonal is s_i / y_i and every symmetrization stays.
Reordering any of them moves the iterates at rounding level, and with them
the SROCR path and the reported SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
TOL = 1e-7          # relative residuals and gap of an optimal solve
MAX_ITERS = 100


class SdpError(ValueError):
    pass


def check_hermitian(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SdpError(f"{name} must be square, got shape {mat.shape}")
    peak = float(np.abs(mat).max(initial=0.0))    # NaN if any entry is NaN
    if not math.isfinite(peak):
        raise SdpError(f"{name} has non-finite entries")
    adj = mat.conj().T
    if np.abs(mat - adj).max(initial=0.0) > HERM_TOL * max(1.0, peak):
        raise SdpError(f"{name} is not Hermitian")
    return 0.5 * mat + 0.5 * adj     # 0.5 * (mat + adj) can overflow


@dataclass(frozen=True)
class SdpProblem:
    """maximize tr(C X) subject to tr(A_i X) <= b_i for each dense row
    (A_i, b_i), X_pp = 1 for every p when ``unit_diagonal`` is set, and
    X PSD.  tr(A X) >= b is the row (-A, -b)."""
    c: np.ndarray
    a: tuple[np.ndarray, ...] = ()
    b: tuple[float, ...] = ()
    unit_diagonal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c", check_hermitian(self.c, "objective"))
        n = self.dim
        a = tuple(check_hermitian(mat, "constraint matrix") for mat in self.a)
        b = tuple(float(v) for v in self.b)
        if len(a) != len(b):
            raise SdpError(f"{len(a)} constraint matrices but {len(b)} bounds")
        for mat in a:
            if mat.shape != (n, n):
                raise SdpError(f"constraint matrix shape {mat.shape} does "
                               f"not match objective dimension {n}")
        if not all(map(math.isfinite, b)):
            raise SdpError("constraint bound must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def constraints(self) -> tuple[tuple[np.ndarray, float], ...]:
        """Every row as (A_i, b_i): the dense rows, then X_pp = 1 as
        (e_p e_p^T, 1) for each p."""
        rows = tuple(zip(self.a, self.b))
        if self.unit_diagonal:
            rows += tuple((np.diag(e), 1.0)
                          for e in np.eye(self.dim, dtype=complex))
        return rows

    def with_constraint(self, a, b) -> "SdpProblem":
        return SdpProblem(self.c, self.a + (a,), self.b + (b,),
                          self.unit_diagonal)

    def constraint_violation(self, x: np.ndarray) -> float:
        """Worst relative violation of the constraints at X = x."""
        worst = 0.0
        for a, b in zip(self.a, self.b):
            val = float(np.tensordot(a.conj(), x).real)
            worst = max(worst, (val - b) / (1.0 + abs(b)))
        if self.unit_diagonal:
            gaps = np.abs(x.diagonal().real - 1.0)     # |X_pp - 1| / (1 + 1)
            worst = max(worst, float(gaps.max()) / 2.0)
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
    Where the squares in the Frobenius norm underflow or overflow, the
    largest entry stands in for the norm; only an all-zero term keeps the
    scale 1.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(mat))
    scale = max(norm, abs(b))
    if scale == 0.0 or norm == math.inf:
        scale = max(float(np.abs(mat).max(initial=0.0)), abs(b)) or 1.0
    return scale


def _schur_complement(x: np.ndarray, zinv: np.ndarray, amats: np.ndarray,
                      aconj_flat: np.ndarray, unit_diagonal: bool):
    """HKM Schur complement M_ij = Re tr(A_i X A_j Zinv) of the dense rows
    ``amats`` (``aconj_flat`` holds their conjugates, one row each),
    followed with ``unit_diagonal`` by the rows X_pp = 1 (A = e_p e_p^T).

    Swapping i and j conjugates the trace, so M is symmetric.  Two diagonal
    rows p and q meet in Re(X_pq Zinv_qp), and a diagonal row p meets a
    dense row j in Re(X A_j Zinv)_pp, so only the dense rows need the
    products X A_j Zinv.
    """
    t = x @ amats @ zinv                       # (dense rows, n, n)
    dense_block = (aconj_flat @ t.reshape(aconj_flat.shape).T).real
    if not unit_diagonal:
        return dense_block
    cross = t.diagonal(axis1=1, axis2=2).real  # (dense rows, n)
    return np.block([[dense_block, cross], [cross.T, (x * zinv.T).real]])


def solve(problem: SdpProblem) -> SdpSolution:
    """Interior-point solve; deterministic for fixed inputs."""
    from scipy.linalg.lapack import dgetrf, dgetrs, zpotrf, ztrtri
    n = problem.dim
    k = len(problem.a)                   # the dense "<=" rows come first
    unit_diagonal = problem.unit_diagonal
    m = k + (n if unit_diagonal else 0)
    if m == 0:
        raise SdpError("problem needs at least one constraint bounding X")

    # normalize: scale objective and dense rows to unit size; a diagonal
    # row's scale max(||e_p e_p^T||_F, 1) is 1
    cmat = problem.c / _unit_scale(problem.c)
    scale = np.array([_unit_scale(a, b) for a, b in zip(problem.a, problem.b)])
    amats = (np.array(problem.a, dtype=complex).reshape(k, n, n)
             / scale[:, None, None])
    bvec = np.concatenate([np.array(problem.b) / scale, np.ones(m - k)])
    aconj_flat = amats.conj().reshape(k, n * n)
    a_flat = amats.reshape(k, n * n)

    def opA(xmat):  # <A_i, X> for all i
        ax = (aconj_flat @ xmat.ravel()).real
        if unit_diagonal:
            return np.concatenate([ax, xmat.diagonal().real])
        return ax

    def opAt(yvec):  # sum_i y_i A_i
        t = (yvec[:k] @ a_flat).reshape(n, n)
        if unit_diagonal:
            t.flat[::n + 1] += yvec[k:]
        return t

    ident = np.eye(n, dtype=complex)
    c_frob = float(np.linalg.norm(cmat))
    tau = max(1.0, float(np.abs(bvec).max(initial=1.0)))
    x = tau * ident
    z = max(1.0, c_frob) * ident
    y = np.zeros(m)
    y[:k] = 1.0
    s = np.zeros(m)                            # slacks; 0 on the diagonal rows
    s[:k] = tau

    b_norm = 1.0 + float(np.linalg.norm(bvec))
    c_norm = 1.0 + c_frob
    cconj_flat = cmat.conj().ravel()
    status = "max-iterations"
    iters = 0

    # rewritten in place every iteration
    linv = np.empty((2, n, n), dtype=complex)  # inverse Cholesky factors
    dmats = np.empty((2, n, n), dtype=complex)
    dx, dz = dmats                             # the current step
    sy_diag = np.zeros((m, m))                 # diag(s_i / y_i)
    inv_y = np.zeros(m)                        # 1 / y_i on the "<=" rows

    def certificate():
        """Residuals, dual objective and relative gap at the current iterate."""
        rp = bvec - opA(x) - s                     # primal residual
        rd = cmat - opAt(y) + z                    # dual residual (Hermitian)
        pobj = float(np.dot(cconj_flat, x.ravel()).real)
        dobj = float(bvec @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return (rp, rd, dobj, math.sqrt(rp.dot(rp)) / b_norm,
                float(np.linalg.norm(rd)) / c_norm, gap)

    def direction(sigma_mu, corr_term=None, corr_lp=None):
        """Newton step for centring target sigma_mu, with the corrector's
        second-order terms; writes (dx, dz) and returns (dy, ds)."""
        rhs = base + sigma_mu * ta
        if corr_lp is not None:
            rhs = rhs - corr_lp * inv_y
        if corr_term is not None:
            rhs = rhs - opA(corr_term)
        dy = dgetrs(lu, piv, rhs)[0]
        t = opAt(dy) - rd
        np.multiply(0.5, t + t.conj().T, out=dz)
        t = sigma_mu * zinv - x - x @ dz @ zinv
        if corr_term is not None:
            t = t - corr_term
        np.multiply(0.5, t + t.conj().T, out=dx)
        ds = np.zeros(m)
        ds[:k] = rp[:k] - (aconj_flat @ dx.ravel()).real
        return dy, ds

    def step_lengths(dy, ds):
        ap, ad = _max_steps(linv, dmats)
        # far off boresight the data is ~1e-235 and a ratio can overflow;
        # Python's float division gives inf then, an unbounded step
        for i in range(k):
            if ds[i] < 0:
                ap = min(ap, -float(s[i]) / float(ds[i]))
            if dy[i] < 0:
                ad = min(ad, -float(y[i]) / float(dy[i]))
        return min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)

    for iters in range(1, MAX_ITERS + 1):
        rp, rd, dobj, pres, dres, gap = certificate()
        mu = (float(np.dot(x.conj().ravel(), z.ravel()).real)
              + float(s @ y)) / (n + max(k, 1))

        if pres <= TOL and dres <= TOL and gap <= TOL:
            status = "optimal"
            break
        if (dobj < -1e9 * b_norm or math.sqrt(y.dot(y)) > 1e10) and pres > TOL:
            status = "infeasible"
            break
        if not math.isfinite(mu) or mu < 0:
            status = "numerical-failure"
            break

        # inverse lower Cholesky factors of X and Z; zpotrf zeroes the
        # factor's upper triangle and ztrtri leaves it so
        ell_x, info_x = zpotrf(x, lower=1)
        ell_z, info_z = zpotrf(z, lower=1)
        if info_x or info_z:
            status = "numerical-failure"
            break
        linv_x, info_x = ztrtri(ell_x, lower=1)
        linv_z, info_z = ztrtri(ell_z, lower=1)
        if info_x or info_z:
            status = "numerical-failure"
            break
        linv[0] = linv_x
        linv[1] = linv_z
        zinv = linv_z.conj().T @ linv_z
        zinv = 0.5 * (zinv + zinv.conj().T)

        # Schur complement M_ij = <A_i, X A_j Zinv> (+ s_i/y_i on the
        # diagonal); s/y, not s * (1/y), which rounds differently
        for i in range(k):
            sy_diag[i, i] = s[i] / y[i]
            inv_y[i] = 1.0 / y[i]
        big_m = (_schur_complement(x, zinv, amats, aconj_flat, unit_diagonal)
                 + sy_diag)
        base = opA(x @ rd @ zinv) - bvec
        ta = opA(zinv) + inv_y                     # tr(A_i Zinv) + 1/y_i

        # a zero pivot (info > 0): the Schur complement is exactly singular
        lu, piv, info = dgetrf(big_m)
        if info != 0:
            status = "numerical-failure"
            break

        # predictor
        dy_a, ds_a = direction(0.0)
        ap, ad = step_lengths(dy_a, ds_a)
        mu_aff = (float(np.dot((x + ap * dx).conj().ravel(),
                               (z + ad * dz).ravel()).real)
                  + float((s + ap * ds_a) @ (y + ad * dy_a))) / (n + max(k, 1))
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector; its second-order term is taken before dx, dz move on
        dy, ds = direction(sigma * mu, corr_term=dx @ dz @ zinv,
                           corr_lp=dy_a * ds_a)
        ap, ad = step_lengths(dy, ds)
        if ap <= 1e-14 and ad <= 1e-14:
            status = "numerical-failure"
            break
        x = x + ap * dx
        s = s + ap * ds
        y = y + ad * dy
        z = z + ad * dz
        for i in range(k):
            if s[i] < 1e-300:
                s[i] = 1e-300
            if y[i] < 1e-300:
                y[i] = 1e-300

    x_out = 0.5 * (x + x.conj().T)
    objective = float(np.dot(problem.c.conj().ravel(), x_out.ravel()).real)
    _, _, _, pres, dres, gap = certificate()
    return SdpSolution(x=x_out, objective=objective, status=status,
                       iterations=iters, primal_residual=pres,
                       dual_residual=dres, gap=gap)
