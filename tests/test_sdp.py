import numpy as np
import pytest

from ris_crn import sdp
from ris_crn.sdp import (SdpConstraint, SdpProblem, _max_steps,
                         _SchurComplement, check_hermitian, principal_eigpair,
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


def test_embedding_rejects_non_hermitian(rng):
    # Every matrix that enters the solver, as objective, constraint or
    # eigenpair input, is rejected if it is not Hermitian.
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        SdpProblem(m)
    with pytest.raises(ValueError):
        SdpConstraint(m, "<=", 1.0)
    with pytest.raises(ValueError):
        principal_eigpair(m)


def test_greater_or_equal_relation_rejected():
    # tr(A X) >= b is written as (-A, "<=", -b)
    with pytest.raises(sdp.SdpError, match="unknown relation"):
        SdpConstraint(np.eye(2), ">=", 1.0)


# -- solver ---------------------------------------------------------------

def test_rank_one_objective_trace_ball(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = 4.0
    problem = SdpProblem(np.outer(a, a.conj()),
                         [SdpConstraint(np.eye(3), "<=", p)])
    sol = solve(problem)
    assert sol.status == "optimal"
    norm2 = np.vdot(a, a).real
    assert sol.objective == pytest.approx(p * norm2, rel=1e-6)
    np.testing.assert_allclose(sol.x, p * np.outer(a, a.conj()) / norm2,
                               atol=1e-5 * p * norm2)


def test_contradictory_trace_constraints_infeasible():
    problem = SdpProblem(np.eye(2),
                         [SdpConstraint(np.eye(2), "<=", 1.0),
                          SdpConstraint(-np.eye(2), "<=", -2.0)])
    sol = solve(problem)
    assert sol.status == "infeasible"


def test_unit_diagonal_equalities(rng):
    n = 4
    c = _random_hermitian(n, rng)
    cons = [SdpConstraint(np.outer(np.eye(n)[i], np.eye(n)[i]), "=", 1.0)
            for i in range(n)]
    sol = solve(SdpProblem(c, cons))
    assert sol.status == "optimal"
    np.testing.assert_allclose(np.diag(sol.x).real, 1.0, atol=1e-6)
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-7 * np.trace(sol.x).real


def test_constraint_scaling_invariance(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    base = [SdpConstraint(np.outer(b, b.conj()), "<=", 0.5),
            SdpConstraint(np.eye(4), "<=", 2.0)]
    scaled = [SdpConstraint(37.0 * np.outer(b, b.conj()), "<=", 37.0 * 0.5),
              SdpConstraint(0.01 * np.eye(4), "<=", 0.01 * 2.0)]
    c = np.outer(a, a.conj())
    s1 = solve(SdpProblem(c, base))
    s2 = solve(SdpProblem(c, scaled))
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
    cons = [SdpConstraint(np.outer(b, b.conj()), "<=", 0.5),
            SdpConstraint(np.eye(4), "<=", 2.0)]
    c = np.outer(a, a.conj())
    unit = solve(SdpProblem(c, cons))
    tiny = solve(SdpProblem(scale * c, cons))
    assert unit.status == tiny.status == "optimal"
    np.testing.assert_allclose(tiny.x, unit.x, atol=1e-6)
    assert tiny.objective == pytest.approx(scale * unit.objective, rel=1e-6)


def test_tiny_homogeneous_constraint_enforced():
    """max x11 + 0.5 x22 s.t. tr X <= 1 and eps * x11 <= 0: the tiny
    constraint still forces x11 = 0, so X = E22 as for eps = 1."""
    c = np.diag([1.0, 0.5])
    e11 = np.diag([1.0, 0.0])

    def solve_with(eps):
        return solve(SdpProblem(c, [SdpConstraint(np.eye(2), "<=", 1.0),
                                    SdpConstraint(eps * e11, "<=", 0.0)]))

    unit, tiny = solve_with(1.0), solve_with(1e-40)
    assert unit.status == tiny.status == "optimal"
    np.testing.assert_allclose(unit.x, np.diag([0.0, 1.0]), atol=1e-6)
    np.testing.assert_allclose(tiny.x, unit.x, atol=1e-6)


def test_all_zero_objective_keeps_unit_scale():
    # nothing to optimize: any feasible X is optimal
    sol = solve(SdpProblem(np.zeros((2, 2)),
                           [SdpConstraint(np.eye(2), "<=", 1.0)]))
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert np.trace(sol.x).real <= 1.0 + 1e-6


def test_solution_certificates(rng):
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    problem = SdpProblem(np.outer(a, a.conj()),
                         [SdpConstraint(np.outer(b, b.conj()), "<=", 1.0),
                          SdpConstraint(np.eye(5), "<=", 10.0)])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert problem.constraint_violation(sol.x) <= 1e-6 * (1 + sol.objective)
    assert sol.gap <= 1e-6 * (1 + abs(sol.objective))
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-7 * np.trace(sol.x).real


def test_solver_deterministic(rng):
    c = _random_hermitian(4, rng)
    problem = SdpProblem(c, [SdpConstraint(np.eye(4), "<=", 3.0),
                             SdpConstraint(_random_psd(4, rng), "<=", 5.0)])
    s1 = solve(problem)
    s2 = solve(problem)
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def test_redundant_constraints_report_numerical_failure():
    # two copies of one equality make the Schur complement exactly singular
    problem = SdpProblem(np.diag([1.0, 2.0, 0.5]),
                         [SdpConstraint(np.eye(3), "=", 1.0),
                          SdpConstraint(np.eye(3), "=", 1.0)])
    sol = solve(problem)
    assert sol.status == "numerical-failure"


def test_max_iterations_certificate_describes_final_iterate(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    a = np.array([1.0, 1j, -1.0, 0.5 - 0.5j])
    b = np.array([0.5, 1.0, 1j, -1.0])
    problem = SdpProblem(np.outer(a.conj(), a),
                         [SdpConstraint(np.outer(b.conj(), b), "<=", 0.5),
                          SdpConstraint(np.eye(4), "<=", 2.0)])
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
        for mat, dmat, alpha in zip(mats, dmats, _max_steps(linv, dmats)):
            assert np.isfinite(alpha) and alpha > 0
            assert np.linalg.eigvalsh(mat + 0.999 * alpha * dmat)[0] >= 0
            assert np.linalg.eigvalsh(mat + 1.001 * alpha * dmat)[0] < 0
    # a PSD direction never leaves the cone: primal and dual unbounded
    dmats = np.stack([_random_psd(n, rng), np.zeros((n, n))])
    assert _max_steps(linv, dmats) == [np.inf, np.inf]


def test_schur_complement_blocks_match_dense_reference(rng):
    """The block-built Schur complement equals Re tr(A_i^H X A_j Zinv)
    entry by entry, with diagonal-entry rows (unit and scaled) mixed in
    among dense rows: a lone off-diagonal pair, the identity and a dense
    Hermitian matrix."""
    n = 6
    eye = np.eye(n)
    off = np.zeros((n, n), dtype=complex)
    off[1, 4], off[4, 1] = 2.0 - 1.0j, 2.0 + 1.0j
    amats = np.stack([np.outer(eye[0], eye[0]), off,
                      3.0 * np.outer(eye[2], eye[2]), eye,
                      np.outer(eye[5], eye[5]), _random_hermitian(n, rng),
                      np.outer(eye[3], eye[3])]).astype(complex)
    x = _random_psd(n, rng) + 0.1 * eye
    zinv = np.linalg.inv(_random_psd(n, rng) + 0.1 * eye)
    zinv = 0.5 * (zinv + zinv.conj().T)
    schur = _SchurComplement(amats)
    # only the four diagonal-entry rows skip the dense products
    assert schur.dense.shape[0] == 3
    np.testing.assert_array_equal(schur.d, [1.0, 3.0, 1.0, 1.0])
    reference = np.array([[np.trace(ai.conj().T @ x @ aj @ zinv).real
                           for aj in amats] for ai in amats])
    got = schur(x, zinv)
    assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()


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
