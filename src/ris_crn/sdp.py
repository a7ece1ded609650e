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
X A_j Zinv products.  The first ``solve`` of a process loads scipy's LAPACK
extension module alone (``_lapack``), never the scipy.linalg package.

Set-up runs once per solve: it scales every dense term to unit size (a
unit-diagonal row already has it), allocates every array an iteration
rewrites, the iterate included, and takes the views into them once.  An
iteration then pays for its LAPACK and BLAS calls (two zpotrf and two
ztrtri, run in place, one dgetrf, two dgetrs, two eigvalsh on a stack of
two matrices and about twenty complex n x n products) and over a hundred
small numpy calls that allocate almost nothing.  With n = 21 and one dense row
that is about 330 us an iteration on a 2-vCPU Xeon (numpy 2.4, OpenBLAS
0.3.31), two thirds of it in the LAPACK and BLAS calls and a third in
eigvalsh alone.

The iterates are fixed bit for bit, so a faster kernel has to reproduce
them: each LAPACK and BLAS call sees the same operands, the norms are
np.linalg.norm's strided dot products, mu and the objective take vdot's
conjugated dot product, the Schur diagonal is s_i / y_i, every
symmetrization 0.5 (T + T^H) stays and no reduction is reordered.
Reordering any of them moves the iterates at rounding level, and with them
the SROCR path and the reported SE; tests/data/sdp_pin.json pins every
solve of six trials to the last bit.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigvalsh_lo

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
        """This problem with the dense row (a, b) appended."""
        return replace(self, a=self.a + (a,), b=self.b + (b,))


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


@functools.cache
def _lapack():
    """dgetrf, dgetrs, zpotrf and ztrtri from scipy.linalg._flapack.

    Only the extension module is loaded, not the scipy.linalg package
    (3-9 ms against 170-290 ms on a 2-vCPU Xeon), and it is registered
    under its own name, so a later ``import scipy.linalg`` reuses it and
    scipy.linalg.lapack gives the very same functions.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")   # does not import scipy
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "linalg")
                   for d in scipy.submodule_search_locations])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dgetrf, module.dgetrs, module.zpotrf, module.ztrtri


def _eigenvalues_did_not_converge(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# np.linalg.eigvalsh's gufunc under its error state, so a LAPACK failure
# still raises LinAlgError, without the wrapper's argument checks
_eigvalsh = np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                        over="ignore", divide="ignore",
                        under="ignore")(eigvalsh_lo)


def _hermitian_part(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 * (t + t^H) into ``out``, which must not share memory with t."""
    # copying the transpose and conjugating in place is faster than
    # conjugating the strided view
    out[...] = t.swapaxes(-1, -2)
    np.conjugate(out, out)
    np.add(t, out, out)
    return np.multiply(0.5, out, out)


def _max_steps(linv: np.ndarray, linv_h: np.ndarray,
               dmats: np.ndarray) -> list[float]:
    """Largest alpha with mat + alpha*dmat PSD, for each stacked pair.

    ``linv`` stacks the inverse lower Cholesky factors of the matrices,
    mat = (linv^-1)(linv^-1)^H, and ``linv_h`` their conjugate transposes;
    the step is inf when dmat is PSD.
    """
    w = linv @ dmats @ linv_h
    lam_min = _eigvalsh(_hermitian_part(w, np.empty_like(w)))[:, 0]
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


def _schur_complement(x: np.ndarray, zinv: np.ndarray, t: np.ndarray,
                      aconj_flat: np.ndarray, unit_diagonal: bool,
                      out: np.ndarray):
    """HKM Schur complement M_ij = Re tr(A_i X A_j Zinv) of the dense rows
    (``aconj_flat`` holds their conjugates, one row each, and ``t`` the
    products X A_j Zinv), followed with ``unit_diagonal`` by the rows
    X_pp = 1 (A = e_p e_p^T).  Returns a function of no arguments that
    writes M into ``out`` from the current contents of x, zinv and t, which
    are rewritten in place between calls.

    Swapping i and j conjugates the trace, so M is symmetric.  Two diagonal
    rows p and q meet in Re(X_pq Zinv_qp), and a diagonal row p meets a
    dense row j in Re(X A_j Zinv)_pp, so only the dense rows need the
    products X A_j Zinv.
    """
    k = len(t)
    t_flat = t.reshape(aconj_flat.shape).T
    cross = t.diagonal(axis1=1, axis2=2).real  # (dense rows, n)
    dense_block, cross_block = out[:k, :k], out[:k, k:]
    cross_block_t, diagonal_block = out[k:, :k], out[k:, k:]
    zinv_t = zinv.T
    prod = np.empty_like(x)

    def apply():
        dense_block[...] = np.dot(aconj_flat, t_flat).real
        if unit_diagonal:
            cross_block[...] = cross
            cross_block_t[...] = cross.T
            diagonal_block[...] = np.multiply(x, zinv_t, prod).real
        return out
    return apply


def solve(problem: SdpProblem) -> SdpSolution:
    """Interior-point solve; deterministic for fixed inputs."""
    dgetrf, dgetrs, zpotrf, ztrtri = _lapack()
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
    mu_den = n + max(k, 1)
    status = "max-iterations"
    iters = 0

    # Every array below, and the iterate above, is rewritten in place, and
    # the views into them are taken here once.
    def square():
        return np.empty((n, n), dtype=complex)

    # the dense rows' matrices and the dual residual share one stack, so
    # one product X [A_1 .. A_k, rd] Zinv serves both the Schur complement
    # and the right-hand side
    stack = np.empty((k + 1, n, n), dtype=complex)
    stack[:k] = amats
    rd = stack[k]                              # dual residual (Hermitian)
    rd_flat = rd.reshape(n * n)
    rd_re, rd_im = rd_flat.real, rd_flat.imag
    xs, xsz = np.empty_like(stack), np.empty_like(stack)   # X stack (Zinv)
    rp = np.empty(m)                           # primal residual
    ax = np.empty(m)                           # A(X) or A(corr), as used
    at = square()                              # A^T(y) or A^T(dy), as used
    at_flat = at.reshape(n * n)
    at_diag = at_flat[::n + 1]
    yc = np.zeros(m, dtype=complex)            # y or dy, cast once for A^T
    yc_re, yc_dense, yc_rest = yc.real, yc[:k], yc[k:]
    # inverse lower Cholesky factors of X and Z, each Fortran-ordered so
    # that zpotrf and ztrtri work in place, their conjugates in the same
    # order and their adjoints
    linv = np.empty((2, n, n), dtype=complex).swapaxes(-1, -2)
    linv_x, linv_z = linv
    linv_c = np.empty((2, n, n), dtype=complex).swapaxes(-1, -2)
    linv_h = linv_c.swapaxes(-1, -2)
    zinv, prod, prod2, work = square(), square(), square(), square()
    corr = square()                            # the corrector's dx dz Zinv
    big_m = np.empty((m, m))                   # Schur complement
    sy_diag = np.zeros((m, m))                 # diag(s_i / y_i)
    sy_dense = sy_diag.reshape(m * m)[:k * (m + 1):m + 1]
    inv_y = np.zeros(m)                        # 1 / y_i on the "<=" rows
    base, ta, rhs = np.empty(m), np.empty(m), np.empty(m)
    dmats = np.empty((2, n, n), dtype=complex)
    dx, dz = dmats                             # the current step
    dx_flat = dx.reshape(n * n)
    ds_a, ds = np.zeros(m), np.zeros(m)        # slack steps; 0 on the
    ds_a_dense, ds_dense = ds_a[:k], ds[:k]    # diagonal rows
    rp_dense, s_dense = rp[:k], s[:k]
    y_dense, inv_y_dense = y[:k], inv_y[:k]

    def opA(mat, out):
        """A(mat) -> out, as a function of no arguments: <A_i, mat> on the
        dense rows, Re mat_pp on the unit-diagonal ones."""
        flat, diag = mat.reshape(n * n), mat.diagonal().real
        dense, rest = out[:k], out[k:]

        def apply():
            dense[...] = np.dot(aconj_flat, flat).real
            if unit_diagonal:
                rest[...] = diag
            return out
        return apply

    def opAt(yvec):  # sum_i y_i A_i, into at
        yc_re[...] = yvec
        np.dot(yc_dense, a_flat, at_flat)
        if unit_diagonal:
            np.add(at_diag, yc_rest, at_diag)
        return at

    a_x, a_corr = opA(x, ax), opA(corr, ax)
    a_xsz = opA(xsz[k], base)                  # <A_i, X rd Zinv>
    a_zinv = opA(zinv, ta)
    schur = _schur_complement(x, zinv, xsz[:k], aconj_flat, unit_diagonal,
                              big_m)

    def certificate():
        """Dual objective, residual norms and relative gap at the current
        iterate; leaves the residuals in rp and rd."""
        np.subtract(bvec, a_x(), rp)
        np.subtract(rp, s, rp)
        np.subtract(cmat, opAt(y), rd)
        np.add(rd, z, rd)
        pobj = float(np.vdot(cmat, x).real)
        dobj = float(bvec.dot(y))
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        # np.linalg.norm(rd): the same two strided dot products
        return (dobj, math.sqrt(rp.dot(rp)) / b_norm,
                math.sqrt(rd_re.dot(rd_re) + rd_im.dot(rd_im)) / c_norm, gap)

    def direction(sigma_mu, ds_dense, corr_term=None, corr_lp=None):
        """Newton step for centring target sigma_mu, with the corrector's
        second-order terms; writes (dx, dz) and the dense rows' slack step
        ds_dense and returns dy."""
        np.multiply(sigma_mu, ta, rhs)
        np.add(base, rhs, rhs)
        if corr_lp is not None:
            np.subtract(rhs, corr_lp * inv_y, rhs)
        if corr_term is not None:
            np.subtract(rhs, a_corr(), rhs)
        dy = dgetrs(lu, piv, rhs)[0]
        np.subtract(opAt(dy), rd, at)
        _hermitian_part(at, dz)
        np.multiply(sigma_mu, zinv, work)
        np.subtract(work, x, work)
        np.dot(x, dz, prod)
        np.subtract(work, np.dot(prod, zinv, prod2), work)
        if corr_term is not None:
            np.subtract(work, corr_term, work)
        _hermitian_part(work, dx)
        np.subtract(rp_dense, np.dot(aconj_flat, dx_flat).real, ds_dense)
        return dy

    def step_lengths(dy, ds):
        ap, ad = _max_steps(linv, linv_h, dmats)
        # far off boresight the data is ~1e-235 and a ratio can overflow;
        # Python's float division gives inf then, an unbounded step
        for i in range(k):
            if ds[i] < 0:
                ap = min(ap, -float(s[i]) / float(ds[i]))
            if dy[i] < 0:
                ad = min(ad, -float(y[i]) / float(dy[i]))
        return min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)

    for iters in range(1, MAX_ITERS + 1):
        dobj, pres, dres, gap = certificate()
        mu = (float(np.vdot(x, z).real) + float(s.dot(y))) / mu_den

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
        linv_x[...] = x
        linv_z[...] = z
        info_x = zpotrf(linv_x, lower=1, overwrite_a=1)[1]
        info_z = zpotrf(linv_z, lower=1, overwrite_a=1)[1]
        if info_x or info_z:
            status = "numerical-failure"
            break
        info_x = ztrtri(linv_x, lower=1, overwrite_c=1)[1]
        info_z = ztrtri(linv_z, lower=1, overwrite_c=1)[1]
        if info_x or info_z:
            status = "numerical-failure"
            break
        np.conjugate(linv, linv_c)
        _hermitian_part(np.dot(linv_h[1], linv_z, prod), zinv)

        # Schur complement M_ij = <A_i, X A_j Zinv> (+ s_i/y_i on the
        # diagonal); s/y, not s * (1/y), which rounds differently
        np.divide(s_dense, y_dense, sy_dense)
        np.divide(1.0, y_dense, inv_y_dense)
        np.matmul(np.matmul(x, stack, xs), zinv, xsz)
        np.add(schur(), sy_diag, big_m)
        np.subtract(a_xsz(), bvec, base)
        np.add(a_zinv(), inv_y, ta)                # tr(A_i Zinv) + 1/y_i

        # a zero pivot (info > 0): the Schur complement is exactly singular
        lu, piv, info = dgetrf(big_m)
        if info != 0:
            status = "numerical-failure"
            break

        # predictor
        dy_a = direction(0.0, ds_a_dense)
        ap, ad = step_lengths(dy_a, ds_a)
        mu_aff = (float(np.vdot(x + ap * dx, z + ad * dz).real)
                  + float((s + ap * ds_a).dot(y + ad * dy_a))) / mu_den
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector; its second-order term is taken before dx, dz move on
        dy = direction(sigma * mu, ds_dense,
                       corr_term=np.dot(np.dot(dx, dz, prod), zinv, corr),
                       corr_lp=dy_a * ds_a)
        ap, ad = step_lengths(dy, ds)
        if ap <= 1e-14 and ad <= 1e-14:
            status = "numerical-failure"
            break
        x += ap * dx
        s += ap * ds
        y += ad * dy
        z += ad * dz
        for i in range(k):
            if s[i] < 1e-300:
                s[i] = 1e-300
            if y[i] < 1e-300:
                y[i] = 1e-300

    x_out = 0.5 * (x + x.conj().T)
    objective = float(np.vdot(problem.c, x_out).real)
    _, pres, dres, gap = certificate()
    return SdpSolution(x=x_out, objective=objective, status=status,
                       iterations=iters, primal_residual=pres,
                       dual_residual=dres, gap=gap)
