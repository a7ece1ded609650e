import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import record
from conftest import constraint_violation

import ris_crn
from ris_crn import sdp
from ris_crn.sdp import (SdpProblem, _max_steps, _schur_complement,
                         _unit_scale, check_hermitian, principal_eigpair,
                         solve)


def _random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def _random_psd(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T


# -- input checks ---------------------------------------------------------

def test_check_hermitian(rng):
    check_hermitian(_random_hermitian(3, rng))
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_hermitian_keeps_huge_finite_entries():
    # a sum of two entries near the float limit overflows; halving each
    # first does not, and is exact
    big = np.array([[1e308, 1e308 + 1e308j], [1e308 - 1e308j, -1e308]])
    np.testing.assert_array_equal(check_hermitian(big), big)


def test_embedding_rejects_non_hermitian(rng):
    # Every matrix that enters the solver, as objective, constraint or
    # eigenpair input, is rejected if it is not Hermitian or not finite.
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        SdpProblem(m)
    with pytest.raises(ValueError):
        SdpProblem(np.eye(3), (m,), (1.0,))
    with pytest.raises(ValueError):
        principal_eigpair(m)
    for bad in (np.nan, np.inf):
        m = np.diag([bad, 1.0])
        with pytest.raises(sdp.SdpError, match="objective has non-finite"):
            SdpProblem(m, (np.eye(2),), (1.0,))
        with pytest.raises(sdp.SdpError,
                           match="constraint matrix has non-finite"):
            SdpProblem(np.eye(2), (m,), (1.0,))
        with pytest.raises(sdp.SdpError,
                           match="eigpair input has non-finite"):
            principal_eigpair(m)


def test_problem_shape_checks():
    """Bounds must be finite and match the matrices one to one and in
    shape; a problem with no rows at all leaves X unbounded."""
    with pytest.raises(sdp.SdpError, match="bound must be finite"):
        SdpProblem(np.eye(2), (np.eye(2),), (np.inf,))
    with pytest.raises(sdp.SdpError, match="1 constraint matrices but 2"):
        SdpProblem(np.eye(2), (np.eye(2),), (1.0, 2.0))
    with pytest.raises(sdp.SdpError, match="does not match"):
        SdpProblem(np.eye(2), (np.eye(3),), (1.0,))
    with pytest.raises(sdp.SdpError, match="at least one constraint"):
        solve(SdpProblem(np.eye(2)))


def test_with_constraint_keeps_unit_diagonal():
    """``with_constraint`` appends a dense row, keeps the unit diagonal
    and checks every row as the constructor does."""
    problem = SdpProblem(np.eye(3), (np.eye(3),), (2.0,), unit_diagonal=True)
    grown = problem.with_constraint(-np.eye(3), -1.0)
    assert grown.unit_diagonal and grown.b == (2.0, -1.0)
    assert len(grown.constraints) == 5
    # every row is checked again; a checked row comes back unchanged
    np.testing.assert_array_equal(grown.c, problem.c)
    np.testing.assert_array_equal(grown.a[0], problem.a[0])
    np.testing.assert_array_equal(grown.a[1], -np.eye(3))
    assert problem.b == (2.0,)
    for a, b, match in ((np.triu(np.ones((3, 3))), 0.0, "not Hermitian"),
                        (np.eye(2), 0.0, "does not match"),
                        (np.eye(3), np.inf, "must be finite")):
        with pytest.raises(sdp.SdpError, match=match):
            problem.with_constraint(a, b)


# -- solver ---------------------------------------------------------------

def test_rank_one_objective_trace_ball(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = 4.0
    problem = SdpProblem(np.outer(a, a.conj()), (np.eye(3),), (p,))
    sol = solve(problem)
    assert sol.status == "optimal"
    norm2 = np.vdot(a, a).real
    assert sol.objective == pytest.approx(p * norm2, rel=1e-6)
    np.testing.assert_allclose(sol.x, p * np.outer(a, a.conj()) / norm2,
                               atol=1e-5 * p * norm2)


def test_contradictory_trace_constraints_infeasible():
    problem = SdpProblem(np.eye(2), (np.eye(2), -np.eye(2)), (1.0, -2.0))
    sol = solve(problem)
    assert sol.status == "infeasible"


def test_unit_diagonal_equalities(rng):
    n = 4
    c = _random_hermitian(n, rng)
    sol = solve(SdpProblem(c, unit_diagonal=True))
    assert sol.status == "optimal"
    np.testing.assert_allclose(np.diag(sol.x).real, 1.0, atol=1e-6)
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-7 * np.trace(sol.x).real


def test_constraint_scaling_invariance(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    bb = np.outer(b, b.conj())
    c = np.outer(a, a.conj())
    s1 = solve(SdpProblem(c, (bb, np.eye(4)), (0.5, 2.0)))
    s2 = solve(SdpProblem(c, (37.0 * bb, 0.01 * np.eye(4)),
                          (37.0 * 0.5, 0.01 * 2.0)))
    assert s1.status == s2.status == "optimal"
    assert s2.objective == pytest.approx(s1.objective, rel=1e-5)
    np.testing.assert_allclose(s2.x, s1.x, atol=1e-5 * (1 + abs(s1.objective)))


@pytest.mark.parametrize("scale", [1e-40, 1e-200])
def test_tiny_objective_scaled_to_unit_size(scale, rng):
    """A tiny objective is optimized, not mistaken for zero: far off
    boresight the beamformer objective is ~1e-120, and a fixed floor on
    its scale left the analytic centre of the feasible set (X ~ I) as the
    reported optimum.  At 1e-200 the squares in the norm underflow."""
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cons = ((np.outer(b, b.conj()), np.eye(4)), (0.5, 2.0))
    c = np.outer(a, a.conj())
    unit = solve(SdpProblem(c, *cons))
    tiny = solve(SdpProblem(scale * c, *cons))
    assert unit.status == tiny.status == "optimal"
    np.testing.assert_allclose(tiny.x, unit.x, atol=1e-6)
    assert tiny.objective == pytest.approx(scale * unit.objective, rel=1e-6)


def test_tiny_homogeneous_constraint_enforced():
    """max x11 + 0.5 x22 s.t. tr X <= 1 and eps * x11 <= 0: the tiny
    constraint still forces x11 = 0, so X = E22 as for eps = 1."""
    c = np.diag([1.0, 0.5])
    e11 = np.diag([1.0, 0.0])

    def solve_with(eps):
        return solve(SdpProblem(c, (np.eye(2), eps * e11), (1.0, 0.0)))

    unit, tiny = solve_with(1.0), solve_with(1e-40)
    assert unit.status == tiny.status == "optimal"
    np.testing.assert_allclose(unit.x, np.diag([0.0, 1.0]), atol=1e-6)
    np.testing.assert_allclose(tiny.x, unit.x, atol=1e-6)


def test_all_zero_objective_keeps_unit_scale():
    # nothing to optimize: any feasible X is optimal
    sol = solve(SdpProblem(np.zeros((2, 2)), (np.eye(2),), (1.0,)))
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert np.trace(sol.x).real <= 1.0 + 1e-6


def test_solution_certificates(rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    problem = SdpProblem(np.outer(a, a.conj()),
                         (np.outer(b, b.conj()), np.eye(5)), (1.0, 10.0))
    sol = solve(problem)
    assert sol.status == "optimal"
    assert constraint_violation(problem, sol.x) <= 1e-6 * (1 + sol.objective)
    assert sol.gap <= 1e-6 * (1 + abs(sol.objective))
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-7 * np.trace(sol.x).real


def test_solver_deterministic(rng):
    c = _random_hermitian(4, rng)
    problem = SdpProblem(c, (np.eye(4), _random_psd(4, rng)), (3.0, 5.0))
    s1 = solve(problem)
    s2 = solve(problem)
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def test_max_iterations_certificate_describes_final_iterate(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    a = np.array([1.0, 1j, -1.0, 0.5 - 0.5j])
    b = np.array([0.5, 1.0, 1j, -1.0])
    problem = SdpProblem(np.outer(a.conj(), a),
                         (np.outer(b.conj(), b), np.eye(4)), (0.5, 2.0))
    sol = solve(problem)
    assert sol.status == "max-iterations"
    assert sol.iterations == 3
    # residuals and gap after the third step, not at the top of the third
    # iteration
    assert sol.primal_residual == pytest.approx(9.420232725710029e-05, rel=1e-9)
    assert sol.dual_residual == pytest.approx(0.0, abs=1e-15)
    assert sol.gap == pytest.approx(0.0007600559448408535, rel=1e-9)
    assert sol.objective == pytest.approx(5.055633406254458, rel=1e-12)


def test_step_length_reaches_psd_boundary(rng):
    n = 5
    mats = np.stack([_random_psd(n, rng) + 0.1 * np.eye(n) for _ in range(2)])
    linv = np.linalg.inv(np.linalg.cholesky(mats))
    for _ in range(5):
        dmats = np.stack([_random_hermitian(n, rng) for _ in range(2)])
        steps = _max_steps(linv, linv.conj().swapaxes(-1, -2), dmats)
        for mat, dmat, alpha in zip(mats, dmats, steps):
            assert np.isfinite(alpha) and alpha > 0
            assert np.linalg.eigvalsh(mat + 0.999 * alpha * dmat)[0] >= 0
            assert np.linalg.eigvalsh(mat + 1.001 * alpha * dmat)[0] < 0
    # a PSD direction never leaves the cone: primal and dual unbounded
    dmats = np.stack([_random_psd(n, rng), np.zeros((n, n))])
    assert _max_steps(linv, linv.conj().swapaxes(-1, -2), dmats) == [
        np.inf, np.inf]


def test_eigvalsh_gufunc_matches_numpy(rng):
    """The step lengths' eigvalsh is np.linalg.eigvalsh's gufunc: the same
    eigenvalues bit for bit, and LinAlgError where LAPACK fails."""
    stack = np.stack([_random_hermitian(6, rng) for _ in range(2)])
    np.testing.assert_array_equal(sdp._eigvalsh(stack),
                                  np.linalg.eigvalsh(stack))
    for eig in (np.linalg.eigvalsh, sdp._eigvalsh):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eig(np.full((2, 3, 3), np.nan, dtype=complex))


def test_schur_complement_blocks_match_dense_reference(rng):
    """The block-built Schur complement equals Re tr(A_i^H X A_j Zinv)
    entry by entry over the dense rows (a lone off-diagonal pair, a scaled
    diagonal entry, the identity and a dense Hermitian matrix), followed
    with ``unit_diagonal`` by the rows e_p e_p^T; also with no dense rows,
    and again after X, Zinv and the products are rewritten in place."""
    n = 6
    eye = np.eye(n)
    off = np.zeros((n, n), dtype=complex)
    off[1, 4], off[4, 1] = 2.0 - 1.0j, 2.0 + 1.0j
    dense = np.stack([off, 3.0 * np.outer(eye[2], eye[2]), eye,
                      _random_hermitian(n, rng)]).astype(complex)
    unit = np.stack([np.outer(e, e) for e in eye]).astype(complex)
    x = np.empty((n, n), dtype=complex)
    zinv = np.empty((n, n), dtype=complex)
    for amats, unit_diagonal in ((dense, False), (dense, True),
                                 (dense[:0], True)):
        rows = np.concatenate([amats, unit]) if unit_diagonal else amats
        aconj_flat = amats.conj().reshape(len(amats), n * n)
        t = np.empty(amats.shape, dtype=complex)
        out = np.empty((len(rows), len(rows)))
        schur = _schur_complement(x, zinv, t, aconj_flat, unit_diagonal, out)
        for _ in range(2):
            x[...] = _random_psd(n, rng) + 0.1 * eye
            zinv[...] = np.linalg.inv(_random_psd(n, rng) + 0.1 * eye)
            zinv[...] = 0.5 * (zinv + zinv.conj().T)
            t[...] = x @ amats @ zinv
            reference = np.array([[np.trace(ai.conj().T @ x @ aj @ zinv).real
                                   for aj in rows] for ai in rows])
            got = schur()
            assert got is out
            assert np.abs(got - reference).max() <= (
                1e-12 * np.abs(reference).max())


def test_unit_scale_edge_cases(rng):
    """max(||A||_F, |b|) for single-entry terms (unit, scaled, negative,
    with a dominant |b|, d*d subnormal, d*d zero), dense terms and the
    all-zero term."""
    e00 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert _unit_scale(e00, 1.0) == 1.0
    assert _unit_scale(3.0 * e00, 0.5) == 3.0
    assert _unit_scale(-2.5 * e00) == 2.5
    assert _unit_scale(1e-3 * e00, 40.0) == 40.0
    # the Frobenius norm of 1e-160 * e_p e_p^T is inexact, not |d|; at
    # 1e-170 it underflows to 0, so the entry itself is the scale
    assert _unit_scale(1e-160 * e00) == np.sqrt(1e-160 * 1e-160) != 1e-160
    assert _unit_scale(1e-170 * e00) == 1e-170
    a = _random_hermitian(3, rng)
    assert _unit_scale(a, 1e-3) == np.linalg.norm(a)
    small = 0.01 * np.eye(3)
    assert _unit_scale(small, 0.015) == np.linalg.norm(small)
    assert _unit_scale(np.zeros((3, 3))) == 1.0
    assert _unit_scale(np.zeros((3, 3)), -2.0) == 2.0


def test_overflowing_norm_scales_by_largest_entry():
    """Where the squares in the Frobenius norm overflow, the largest entry
    is the scale, without a warning, and the solve finds the optimum."""
    c = np.diag([1e200, 2e200]).astype(complex)
    assert _unit_scale(c) == 2e200
    assert _unit_scale(1e200 * np.eye(2), 3e200) == 3e200
    sol = solve(SdpProblem(c, (np.eye(2),), (1.0,)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2e200, rel=1e-6)
    np.testing.assert_allclose(sol.x, np.diag([0.0, 1.0]), atol=1e-6)


# -- principal eigenpair --------------------------------------------------

def test_eigpair_identity():
    lam, q = principal_eigpair(np.eye(2, dtype=complex))
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(np.eye(2) @ q - lam * q) <= 1e-8 * (1 + lam)


def test_eigpair_diagonal():
    lam, q = principal_eigpair(np.diag([3.0, 1.0]).astype(complex))
    assert lam == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(q), [1.0, 0.0], atol=1e-12)


def test_eigpair_matches_dense_oracle(rng):
    x = _random_psd(6, rng)
    lam, q = principal_eigpair(x)
    vals = np.linalg.eigvalsh(x)
    assert lam == pytest.approx(vals[-1], rel=1e-9)
    assert np.linalg.norm(x @ q - lam * q) <= 1e-8 * (1 + lam)
    assert np.linalg.norm(q) == pytest.approx(1.0, rel=1e-12)


def test_eigpair_canonical_phase(rng):
    x = _random_psd(5, rng)
    _, q = principal_eigpair(x)
    first = q[np.flatnonzero(np.abs(q) > 1e-9)[0]]
    assert abs(first.imag) <= 1e-12 * abs(first)
    assert first.real > 0


LAPACK_PROBE = """
import json
import sys
MODULES = ("scipy", "multiprocessing", "scipy.linalg", "scipy.linalg._flapack")
def loaded():
    return [name for name in MODULES if name in sys.modules]
import ris_crn
stages = {"import": loaded()}
from ris_crn import run_algorithm1, sdp
from ris_crn.channels import generate_channels
from ris_crn.scenario import apply_overrides, paper_default
sc = paper_default()
for seed in range(20):
    run_algorithm1(generate_channels(sc, seed=seed), sc, seed=seed)
stages["pathloss"] = loaded()
iid = apply_overrides(sc, {"channel": {"iid_mode": True}, "n_s": 4})
run_algorithm1(generate_channels(iid, seed=2), iid, seed=2,
               fixed_tilt_deg=-30.0)
stages["iid"] = loaded()
import scipy.linalg.lapack as lapack
stages["same"] = [getattr(lapack, name) is fn for name, fn in
                  zip(("dgetrf", "dgetrs", "zpotrf", "ztrtri"), sdp._lapack())]
print(json.dumps(stages))
"""


def test_lapack_loaded_by_first_solve():
    """``import ris_crn`` loads neither scipy nor multiprocessing, and 20
    path-loss solves (all closed form) load no LAPACK.  An iid -30 deg
    solve, whose C1-binding steps solve SDPs, loads scipy's LAPACK
    extension module and nothing else of scipy; a later import of
    scipy.linalg.lapack gives the very functions sdp.solve called."""
    src = str(Path(ris_crn.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", LAPACK_PROBE],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout) == {
        "import": [], "pathloss": [], "iid": ["scipy.linalg._flapack"],
        "same": [True] * 4}


# -- bit pin --------------------------------------------------------------
def test_sdp_pin_covers_every_shape_and_ends_optimal():
    """The pinned trials hold the beamformer relaxation (d4m2) and the
    phase relaxation at N = 20 and 32 with its SROCR rounds (d21m22,
    d21m23, d33m34), and every solve ends ``optimal``: the full-weight
    SROCR rounds that ended ``numerical-failure`` or ``max-iterations``
    are decided without a solve.  Those exits are reached by the rounds
    rebuilt in test_optimizer.py and by its tight-cap set."""
    solves = [rec for recs in record.committed("sdp_pin.json").values()
              for rec in recs]
    assert {rec[0] for rec in solves} == {"d4m2", "d21m22", "d21m23",
                                          "d33m34"}
    assert {rec[1] for rec in solves} == {"optimal"}
