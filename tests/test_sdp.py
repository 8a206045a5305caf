"""Tests for the interior-point solver and the lifting decision procedure."""

import numpy as np
import pytest

from qcoupling import linalg, quantum, sdp
from qcoupling.errors import InputError, SolverFailure
from qcoupling.linalg import Subspace
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import rand_density, rand_hermitian, rand_subspace, rand_unitary


def _bell_vec(d):
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0 / np.sqrt(d)
    return psi


def bell_state(d=2):
    psi = _bell_vec(d)
    return DensityOperator(np.outer(psi, psi.conj()))


def point_problem():
    """rho1 = |0><0|, rho2 = |1><1|, subspace span{|00>}: no coupling fits."""
    rho1 = DensityOperator(np.diag([1.0, 0.0]))
    rho2 = DensityOperator(np.diag([0.0, 1.0]))
    sub = Subspace.from_span([np.eye(4)[0]])
    return CouplingProblem(rho1, rho2, sub)


# ---------------------------------------------------------------------------
# internal machinery


def test_herm_basis_is_orthonormal_and_complete():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        basis = sdp._herm_basis(n)
        assert basis.shape == (n * n, n, n)
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        assert np.allclose(gram, np.eye(n * n), atol=1e-14)
        h = rand_hermitian(rng, n)
        coeffs = np.einsum("aij,ij->a", basis.conj(), h)
        assert np.allclose(coeffs.imag, 0.0, atol=1e-13)
        rebuilt = np.einsum("a,aij->ij", coeffs, basis)
        assert np.allclose(rebuilt, h, atol=1e-13)


def test_hvec_round_trip_preserves_norm():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        t = sdp._herm_basis(n).reshape(n * n, n * n)
        for _ in range(20):
            h = rand_hermitian(rng, n)
            v = sdp._coords(t, h)
            assert v.shape == (n * n,)
            assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(h), rel=1e-12)
            assert np.allclose(sdp._from_coords(t, v, n), h, atol=1e-14)


def test_phi_matches_partial_traces():
    rng = np.random.default_rng(2)
    for d1, d2 in [(2, 2), (2, 3), (3, 2)]:
        x = rand_hermitian(rng, d1 * d2)
        p1, p2 = linalg.partial_traces(x, d1, d2)
        assert np.allclose(p1, linalg.partial_trace(x, d1, d2, "second"), atol=1e-13)
        assert np.allclose(p2, linalg.partial_trace(x, d1, d2, "first"), atol=1e-13)


def test_phi_star_adjoint_to_phi():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rand_hermitian(rng, d1 * d2)
        y1, y2 = rand_hermitian(rng, d1), rand_hermitian(rng, d2)
        p1, p2 = linalg.partial_traces(x, d1, d2)
        lhs = np.vdot(y1, p1) + np.vdot(y2, p2)
        rhs = np.vdot(sdp._phi_star(y1, y2), x)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_schur_kernel_direction_annihilates():
    # the adjoint's one-dimensional kernel is span{(I, -I)}; the cached unit
    # vector must reproduce it exactly in basis coordinates
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        t1, t2, kernel = sdp._schur_data(d1, d2)
        k1 = sdp._from_coords(t1, kernel[: d1 * d1], d1)
        k2 = sdp._from_coords(t2, kernel[d1 * d1 :], d2)
        assert np.linalg.norm(sdp._phi_star(k1, k2)) < 1e-13
        assert np.linalg.norm(kernel) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d1, d2", [(1, 2), (2, 3), (3, 2), (3, 3), (4, 5)])
def test_schur_matches_dense_kron_reference(d1, d2):
    # reference: Re tr(G_a X G_b Z^-1) with every basis operator G built
    # explicitly as E (x) I or I (x) E
    rng = np.random.default_rng(12)
    d = d1 * d2
    x = rand_density(rng, d).mat + 0.1 * np.eye(d)
    z = rand_density(rng, d).mat + 0.1 * np.eye(d)
    zinv = np.linalg.inv(z)
    zinv = (zinv + zinv.conj().T) / 2.0
    basis1 = sdp._herm_basis(d1)
    basis2 = sdp._herm_basis(d2)
    gs = [np.kron(e, np.eye(d2)) for e in basis1] + [np.kron(np.eye(d1), e) for e in basis2]
    ref = np.array([[np.trace(ga @ x @ gb @ zinv).real for gb in gs] for ga in gs])
    got = sdp._schur(x, zinv, d1, d2)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# solver on instances with known optima


def test_full_subspace_optimum_is_the_trace():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        t = float(rng.uniform(0.2, 1.0))
        rho1 = rand_density(rng, d1, trace=t)
        rho2 = rand_density(rng, d2, trace=t)
        problem = CouplingProblem(rho1, rho2, Subspace.full(d1 * d2))
        sol = sdp.solve_coupling_sdp(problem)
        assert sol.primal_value == pytest.approx(t, abs=1e-7)
        assert sol.gap <= 1e-8
        assert max(sol.primal_residual, sol.dual_residual) <= 1e-8


def test_bell_span_reaches_full_trace_and_pins_the_witness():
    for d in (2, 3):
        bell = bell_state(d)
        sub = Subspace.from_span([_bell_vec(d)])
        problem = CouplingProblem(
            quantum.uniform_density(d), quantum.uniform_density(d), sub
        )
        sol = sdp.solve_coupling_sdp(problem)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        # tr(XP) = tr(X) forces supp(X) inside the line, so the optimizer
        # is the Bell state itself
        assert np.linalg.norm(sol.primal_x - bell.mat) < 1e-5


def test_incompatible_point_masses_have_zero_optimum():
    sol = sdp.solve_coupling_sdp(point_problem())
    assert sol.primal_value <= 1e-7
    assert sol.dual_value <= 1e-7
    assert sol.gap <= 1e-8


def test_weak_duality_holds_after_residual_correction():
    # writing zhat = Phi*(Y) - A (the dual slack up to the dual residual),
    # dval - pval = <X, zhat> + <Rp1,Y1> + <Rp2,Y2> is an algebraic identity,
    # and <X, zhat> >= -dres * ||X|| since X, Z >= 0 at the returned iterates.
    # A naked dval >= pval - 1e-9 claim would be unsound at eps = 1e-8.
    rng = np.random.default_rng(5)
    for _ in range(10):
        d1 = d2 = 3
        t = float(rng.uniform(0.3, 1.0))
        rho1 = rand_density(rng, d1, trace=t)
        u = rand_unitary(rng, d2)
        rho2 = DensityOperator(u @ rho1.mat @ u.conj().T)
        sub = rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 * d2 + 1)))
        sol = sdp.solve_coupling_sdp(CouplingProblem(rho1, rho2, sub))
        zhat = sdp._phi_star(sol.dual_y1, sol.dual_y2) - sub.projector
        rp1 = rho1.mat - linalg.partial_trace(sol.primal_x, d1, d2, "second")
        rp2 = rho2.mat - linalg.partial_trace(sol.primal_x, d1, d2, "first")
        corr = (
            np.vdot(sol.primal_x, zhat).real
            + np.vdot(rp1, sol.dual_y1).real
            + np.vdot(rp2, sol.dual_y2).real
        )
        assert sol.dual_value - sol.primal_value == pytest.approx(corr, abs=1e-9)
        slack = sol.dual_residual * np.linalg.norm(sol.primal_x) + 1e-12
        assert np.vdot(sol.primal_x, zhat).real >= -slack


def test_solver_reports_iterations_and_converges_fast():
    sol = sdp.solve_coupling_sdp(point_problem())
    assert 0 < sol.iterations <= 60


def test_solver_failure_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    with pytest.raises(SolverFailure) as err:
        sdp.solve_coupling_sdp(point_problem())
    best = err.value.best
    assert best is not None
    assert best.iterations <= 2
    assert best.primal_x.shape == (4, 4)


def _near_singular(rng, d, eps):
    u = rand_unitary(rng, d)
    m = (u * np.array([1.0] + [eps] * (d - 1))) @ u.conj().T
    return DensityOperator(m / np.trace(m).real)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_near_singular_marginals_decide_or_fail_cleanly(eps):
    # marginals U diag(1, eps, eps) U^dagger sit between the support cut and
    # the well-conditioned regime; no raw LinAlgError may escape, and every
    # verdict must carry a proof object that re-verifies
    rng = np.random.default_rng(13)
    for _ in range(8):
        rho1 = _near_singular(rng, 3, eps)
        rho2 = _near_singular(rng, 3, eps)
        problem = CouplingProblem(rho1, rho2, rand_subspace(rng, 9, int(rng.integers(1, 10))))
        try:
            verdict = sdp.check_quantum_lifting(problem)
        except SolverFailure as err:
            assert err.best is not None
            continue
        if verdict.exists:
            assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-7)
        else:
            assert sdp.verify_dual_certificate(*verdict.certificate, problem, tol=1e-7)


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_near_singular_not_exists_decides_at_the_first_refuting_iterate(eps):
    # the dual iterate refutes every coupling long before the ill-conditioned
    # primal converges, so each input decides with a certificate that
    # re-verifies against the original marginals
    rng = np.random.default_rng(16)
    for _ in range(12):
        problem = CouplingProblem(
            _near_singular(rng, 3, eps),
            _near_singular(rng, 3, eps),
            rand_subspace(rng, 9, int(rng.integers(1, 9))),
        )
        verdict = sdp.check_quantum_lifting(problem)
        assert not verdict.exists
        assert sdp.verify_dual_certificate(*verdict.certificate, problem, tol=1e-7)


def _planted_near_singular(rng, d, eps):
    """A pure witness with Schmidt spectrum proportional to (1, eps, ..., eps),
    so both marginals are truly near-singular, inside its span plus 0-3
    random vectors."""
    lam = np.array([1.0] + [eps] * (d - 1))
    a, b = rand_unitary(rng, d), rand_unitary(rng, d)
    w = np.einsum("i,ai,bi->ab", np.sqrt(lam / lam.sum()), a, b).reshape(-1)
    x = np.outer(w, w.conj())
    extra = rng.normal(size=(int(rng.integers(0, 4)), d * d))
    return CouplingProblem(
        DensityOperator(linalg.partial_trace(x, d, d, "second")),
        DensityOperator(linalg.partial_trace(x, d, d, "first")),
        Subspace.from_span([w, *extra]),
    )


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
def test_marginals_below_the_old_support_cut_decide(eps):
    # eigenvalue ratios below RANK_TOL count as absent, so these marginals are
    # compressed to rank one and every input decides with a proof object
    # that re-verifies against the original, uncompressed marginals
    rng = np.random.default_rng(14)
    for planted in (False, True):
        for _ in range(8):
            if planted:
                problem = _planted_near_singular(rng, 3, eps)
            else:
                problem = CouplingProblem(
                    _near_singular(rng, 3, eps),
                    _near_singular(rng, 3, eps),
                    rand_subspace(rng, 9, int(rng.integers(1, 9))),
                )
            verdict = sdp.check_quantum_lifting(problem)
            assert verdict.exists == planted
            if planted:
                assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-7)
            else:
                assert sdp.verify_dual_certificate(*verdict.certificate, problem, tol=1e-7)


def test_planted_near_singular_marginals_decide():
    # eigenvalue ratios of 1e-8 lie above RANK_TOL, so these marginals keep
    # full rank and are solved in their eigenbases; every planted input
    # decides Exists with a witness that re-verifies
    rng = np.random.default_rng(15)
    for _ in range(8):
        problem = _planted_near_singular(rng, 3, 1e-8)
        verdict = sdp.check_quantum_lifting(problem)
        assert verdict.exists
        assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-7)


def test_solve_rejects_trace_mismatch_and_zero_trace():
    rho1 = DensityOperator(np.eye(2) / 2)
    rho2 = DensityOperator(np.eye(2) / 4)
    with pytest.raises(InputError):
        sdp.solve_coupling_sdp(CouplingProblem(rho1, rho2, Subspace.full(4)))
    zero = DensityOperator(np.zeros((2, 2)))
    with pytest.raises(InputError):
        sdp.solve_coupling_sdp(CouplingProblem(zero, zero, Subspace.full(4)))


# ---------------------------------------------------------------------------
# certificate toolkit


def test_condition_a_transform_is_an_involution_and_exact_pivot():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        y1, y2 = rand_hermitian(rng, d1), rand_hermitian(rng, d2)
        a1, a2 = sdp.condition_a_transform(y1, y2)
        b1, b2 = sdp.condition_a_transform(a1, a2)
        assert np.allclose(b1, y1, atol=1e-14) and np.allclose(b2, y2, atol=1e-14)
        # dual feasibility and the separating inequality are the same matrix
        # inequality: Phi*(y1,y2) - P == P_perp - (a1 (x) I - I (x) a2)
        sub = rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 * d2 + 1)))
        lhs = sdp._phi_star(y1, y2) - sub.projector
        rhs = sub.perp - (
            np.kron(a1, np.eye(d2)) - np.kron(np.eye(d1), a2)
        )
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_shift_positive_makes_psd_and_keeps_the_difference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        y1, y2 = rand_hermitian(rng, d1), rand_hermitian(rng, d2)
        s1, s2, lam = sdp.shift_positive(y1, y2)
        assert linalg.is_psd(s1, 1e-11) and linalg.is_psd(s2, 1e-11)
        low = min(
            np.linalg.eigvalsh(y1).min(), np.linalg.eigvalsh(y2).min()
        )
        assert lam == pytest.approx(low, abs=1e-9)
        before = np.kron(y1, np.eye(d2)) - np.kron(np.eye(d1), y2)
        after = np.kron(s1, np.eye(d2)) - np.kron(np.eye(d1), s2)
        assert np.allclose(before, after, atol=1e-12)


def test_verify_dual_certificate_accepts_and_rejects():
    problem = point_problem()
    y1 = np.diag([1.0, 0.0])
    y2 = np.diag([1.0, 0.0])
    assert sdp.verify_dual_certificate(y1, y2, problem, tol=1e-9)
    # swap the states: the margin flips sign
    swapped = CouplingProblem(problem.rho2, problem.rho1, problem.subspace)
    assert not sdp.verify_dual_certificate(y1, y2, swapped, tol=1e-9)
    # Y1 = I breaks the operator inequality at |00>
    assert not sdp.verify_dual_certificate(np.eye(2), np.zeros((2, 2)), problem)
    with pytest.raises(InputError):
        sdp.verify_dual_certificate(np.eye(3), y2, problem)


def _public_certificate(sol, problem):
    """The certificate pipeline through the validating public steps, with the
    rescale's operator norm taken by SVD."""
    t1 = problem.rho1.trace
    v1, v2 = problem.rho1.support_isometry, problem.rho2.support_isometry
    y1, y2 = sdp._complete_dual(sol, v1, v2, t1)
    y1, y2 = sdp.condition_a_transform(y1, y2)
    y1, y2, _ = sdp.shift_positive(y1, y2)
    norm = max(np.linalg.norm(y1, 2), np.linalg.norm(y2, 2))
    margin = quantum.expectation(y1, problem.rho1) - quantum.expectation(y2, problem.rho2)
    if norm > 1.0 and margin / norm > max(sdp.EPS_DECIDE, 10 * sdp.EPS_SOLVE):
        return y1 / norm, y2 / norm
    return y1, y2


@pytest.mark.parametrize("rank", [None, 1], ids=["full-rank", "rank-deficient"])
def test_one_pass_certificate_matches_the_public_pipeline(rank):
    rng = np.random.default_rng(31)
    seen = 0
    for k in range(16):
        d1, d2 = 2 + k % 2, 2 + k // 2 % 2
        problem = CouplingProblem(
            rand_density(rng, d1, rank=rank),
            rand_density(rng, d2, rank=rank),
            rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 * d2))),
        )
        verdict = sdp.check_quantum_lifting(problem)
        if verdict.exists:
            continue
        seen += 1
        for got, want in zip(verdict.certificate, _public_certificate(verdict.diagnostics, problem)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert seen >= 6


def _verify_by_kron(y1, y2, problem, tol):
    d1, d2 = problem.dims
    diff = np.kron(y1, np.eye(d2)) - np.kron(np.eye(d1), y2)
    if not linalg.is_psd(problem.subspace.perp - diff, tol):
        return False
    return quantum.expectation(y1, problem.rho1) - quantum.expectation(y2, problem.rho2) > tol


def test_verify_dual_certificate_matches_the_kron_formula():
    # accepted certificates, the same pairs rejected on their trace gap alone,
    # and random pairs that break the operator inequality, with d1 != d2
    rng = np.random.default_rng(32)
    answers = []
    for k in range(24):
        d1, d2 = (2, 3) if k % 2 else (3, 2)
        problem = CouplingProblem(
            rand_density(rng, d1), rand_density(rng, d2),
            rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 + 1))),
        )
        verdict = sdp.check_quantum_lifting(problem)
        pairs = [((rand_hermitian(rng, d1), rand_hermitian(rng, d2)), 1e-7)]
        if not verdict.exists:
            y1, y2 = verdict.certificate
            margin = quantum.expectation(y1, problem.rho1) - quantum.expectation(y2, problem.rho2)
            pairs += [((y1, y2), 1e-7), ((y1, y2), 2.0 * margin)]
        for (y1, y2), tol in pairs:
            ok = sdp.verify_dual_certificate(y1, y2, problem, tol)
            assert ok == _verify_by_kron(y1, y2, problem, tol)
            answers.append(ok)
    assert answers.count(True) >= 6 and answers.count(False) >= 12


# ---------------------------------------------------------------------------
# end-to-end decisions


def test_check_lifting_exists_on_bell_instance():
    problem = CouplingProblem(
        quantum.uniform_density(2),
        quantum.uniform_density(2),
        Subspace.from_span([_bell_vec(2)]),
    )
    verdict = sdp.check_quantum_lifting(problem)
    assert verdict.exists
    assert verdict.certificate is None
    assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-7)
    assert np.linalg.norm(verdict.witness.mat - bell_state(2).mat) < 1e-5


def test_check_lifting_not_exists_with_verified_certificate():
    problem = point_problem()
    verdict = sdp.check_quantum_lifting(problem)
    assert not verdict.exists
    assert verdict.witness is None
    y1, y2 = verdict.certificate
    assert sdp.verify_dual_certificate(y1, y2, problem, tol=1e-7)
    # normalized certificates stay within operator norm one
    assert max(np.abs(np.linalg.eigvalsh(y1)).max(),
               np.abs(np.linalg.eigvalsh(y2)).max()) <= 1.0 + 1e-9
    assert verdict.diagnostics.primal_value <= 1e-6


def test_check_lifting_zero_states_short_circuit():
    zero = DensityOperator(np.zeros((3, 3)))
    problem = CouplingProblem(zero, zero, Subspace.from_span([np.eye(9)[4]]))
    verdict = sdp.check_quantum_lifting(problem)
    assert verdict.exists
    assert verdict.diagnostics.iterations == 0
    assert np.all(verdict.witness.mat == 0)


def test_check_lifting_rejects_eps_decide_at_or_above_the_trace():
    # at such a threshold no coupling can be refuted, so a verdict would be
    # "exists" whatever the subspace
    for eps_decide in (1.0, 2.0):
        with pytest.raises(InputError, match="eps_decide"):
            sdp.check_quantum_lifting(point_problem(), 0.2, eps_decide)
    half = DensityOperator(np.eye(2) / 4)
    with pytest.raises(InputError, match="eps_decide"):
        sdp.check_quantum_lifting(
            CouplingProblem(half, half, Subspace.full(4)), eps_decide=0.5
        )
    # the zero state is decided before the threshold is read
    zero = DensityOperator(np.zeros((2, 2)))
    problem = CouplingProblem(zero, zero, Subspace.full(4))
    assert sdp.check_quantum_lifting(problem, eps_decide=2.0).exists


@pytest.mark.parametrize("value", [float("nan"), -1.0, 0.0, float("inf")])
def test_thresholds_must_be_finite_and_positive(value):
    problem = point_problem()
    with pytest.raises(InputError, match="finite and positive"):
        sdp.solve_coupling_sdp(problem, value)
    with pytest.raises(InputError, match="eps_solve"):
        sdp.check_quantum_lifting(problem, eps_solve=value)
    with pytest.raises(InputError, match="eps_decide"):
        sdp.check_quantum_lifting(problem, eps_decide=value)
    # read before the zero state is decided
    zero = DensityOperator(np.zeros((2, 2)))
    with pytest.raises(InputError, match="eps_decide"):
        sdp.check_quantum_lifting(
            CouplingProblem(zero, zero, Subspace.full(4)), eps_decide=value
        )


def test_certificate_keeps_its_scale_when_rescaling_would_fail_verification():
    # at eps_solve = 0.01 verification demands a trace gap above 0.1; the
    # completed pair has gap about 0.7 but norm about 18, so scaling it to norm
    # one would leave a gap of about 0.04 and reject a valid certificate
    problem = point_problem()
    verdict = sdp.check_quantum_lifting(problem, eps_solve=0.01)
    assert not verdict.exists
    y1, y2 = verdict.certificate
    assert sdp.verify_dual_certificate(y1, y2, problem, tol=0.1)
    assert max(np.linalg.norm(y1, 2), np.linalg.norm(y2, 2)) > 1.0


def test_check_lifting_rejects_trace_mismatch():
    rho1 = DensityOperator(np.eye(2) / 2)
    rho2 = DensityOperator(np.eye(2) / 3)
    with pytest.raises(InputError):
        sdp.check_quantum_lifting(CouplingProblem(rho1, rho2, Subspace.full(4)))


def test_pure_marginals_match_the_analytic_optimum():
    # with both marginals pure the only coupling is the product state, so
    # the optimum is exactly t * <psi x phi| P |psi x phi> -- a closed-form
    # oracle that exercises the support-compressed solve end to end
    rng = np.random.default_rng(11)
    for k in range(20):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        t = float(rng.uniform(0.2, 1.0))
        psi = rng.normal(size=d1) + 1j * rng.normal(size=d1)
        psi /= np.linalg.norm(psi)
        phi = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        phi /= np.linalg.norm(phi)
        rho1 = DensityOperator(t * np.outer(psi, psi.conj()))
        rho2 = DensityOperator(t * np.outer(phi, phi.conj()))
        prod = np.kron(psi, phi)
        if k % 2 == 0:
            sub = Subspace.from_span([prod])
            expect = t
        else:
            sub = rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 * d2)))
            expect = t * float(np.vdot(prod, sub.projector @ prod).real)
        problem = CouplingProblem(rho1, rho2, sub)
        verdict = sdp.check_quantum_lifting(problem)
        sol = verdict.diagnostics
        assert sol.primal_value == pytest.approx(expect, abs=1e-7)
        if verdict.exists:
            assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-6)
        else:
            assert sdp.verify_dual_certificate(*verdict.certificate, problem, tol=1e-6)


def test_compressed_solve_reports_original_space_objects():
    # rank-1 marginals force the compressed path; the returned optimizer
    # must still live in the full space with the true marginals
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    rho = DensityOperator(0.8 * np.outer(psi, psi))
    problem = CouplingProblem(rho, rho, Subspace.full(9))
    sol = sdp.solve_coupling_sdp(problem)
    assert sol.primal_x.shape == (9, 9)
    assert sol.dual_y1.shape == (3, 3)
    r1 = linalg.partial_trace(sol.primal_x, 3, 3, "second")
    r2 = linalg.partial_trace(sol.primal_x, 3, 3, "first")
    assert np.linalg.norm(r1 - rho.mat) < 1e-7
    assert np.linalg.norm(r2 - rho.mat) < 1e-7
    assert sol.primal_value == pytest.approx(0.8, abs=1e-7)


def test_random_instances_produce_sound_proof_objects():
    rng = np.random.default_rng(8)
    seen_exists = seen_not = 0
    for _ in range(40):
        d1 = d2 = int(rng.integers(2, 4))
        t = float(rng.uniform(0.3, 1.0))
        rho1 = rand_density(rng, d1, trace=t, rank=int(rng.integers(1, d1 + 1)))
        u = rand_unitary(rng, d2)
        rho2 = DensityOperator(u @ rho1.mat @ u.conj().T)
        sub = rand_subspace(rng, d1 * d2, int(rng.integers(1, d1 * d2 + 1)))
        problem = CouplingProblem(rho1, rho2, sub)
        verdict = sdp.check_quantum_lifting(problem)
        if verdict.exists:
            seen_exists += 1
            assert quantum.is_lifting_witness(verdict.witness, problem, tol=1e-6)
        else:
            seen_not += 1
            y1, y2 = verdict.certificate
            assert sdp.verify_dual_certificate(y1, y2, problem, tol=1e-6)
        sol = verdict.diagnostics
        if verdict.exists:
            # Exists stops at the first primal iterate within eps of tr(rho1)
            assert sol.primal_residual <= sdp.EPS_SOLVE
            assert problem.rho1.trace - sol.primal_value <= sdp.EPS_SOLVE
        else:
            # NotExists stops at the first dual iterate that refutes every coupling
            assert sol.dual_residual <= sdp.EPS_SOLVE
            assert sol.dual_value < problem.rho1.trace - sdp.EPS_DECIDE
        # the SDP itself still converges on every instance
        full = sdp.solve_coupling_sdp(problem)
        assert max(full.gap, full.primal_residual, full.dual_residual) <= 1e-8
    # the sweep must exercise both branches to mean anything
    assert seen_exists >= 5 and seen_not >= 5


def test_not_exists_stops_no_later_than_the_full_solve():
    # the decision target only adds a way to stop, so the early NotExists
    # iterate comes no later than convergence of the default solve
    rng = np.random.default_rng(22)
    early = full = seen = 0
    for k in range(12):
        d = 2 + k % 2
        rho1, rho2 = rand_density(rng, d), rand_density(rng, d)
        sub = rand_subspace(rng, d * d, int(rng.integers(1, d + 1)))
        problem = CouplingProblem(rho1, rho2, sub)
        verdict = sdp.check_quantum_lifting(problem)
        if verdict.exists:
            continue
        seen += 1
        stop = sdp.solve_coupling_sdp(problem, dual_target=rho1.trace - sdp.EPS_DECIDE)
        conv = sdp.solve_coupling_sdp(problem)
        assert stop.iterations == verdict.diagnostics.iterations
        assert stop.iterations <= conv.iterations
        early += stop.iterations
        full += conv.iterations
    assert seen >= 4 and early < full


def _rank_one_problem():
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    rho = DensityOperator(0.8 * np.outer(psi, psi))
    return CouplingProblem(rho, rho, Subspace.full(9))


@pytest.mark.parametrize("make, full_rank, exists", [
    (lambda: CouplingProblem(quantum.uniform_density(2), quantum.uniform_density(2),
                             Subspace.from_span([_bell_vec(2)])), True, True),
    (lambda: CouplingProblem(quantum.uniform_density(2), quantum.uniform_density(2),
                             Subspace.from_span([np.eye(4)[0]])), True, False),
    (_rank_one_problem, False, True),
    (point_problem, False, False),
], ids=["full-rank-exists", "full-rank-not-exists", "rank-deficient-exists",
        "rank-deficient-not-exists"])
def test_check_lifting_solves_through_the_module_attribute_once(
    monkeypatch, make, full_rank, exists
):
    """check_quantum_lifting reaches the solver through the attribute
    sdp.solve_coupling_sdp, once per nonzero decision, so wrapping that
    attribute sees (and can time) every solve; each state's support comes
    from one eigendecomposition, shared by the solve and the certificate."""
    calls = []
    solve = sdp.solve_coupling_sdp
    eighs = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(solve(*args, **kwargs))
        return calls[-1]

    def counting_eigh(h, *args, **kwargs):
        eighs.append(h.shape)
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(sdp, "solve_coupling_sdp", counting)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    problem = make()
    ranks = [np.linalg.matrix_rank(r.mat) for r in (problem.rho1, problem.rho2)]
    assert (ranks == list(problem.dims)) == full_rank
    verdict = sdp.check_quantum_lifting(problem)
    assert verdict.exists == exists
    assert len(calls) == 1 and verdict.diagnostics is calls[0]
    assert len(eighs) == len({id(problem.rho1), id(problem.rho2)})
    zero = DensityOperator(np.zeros((2, 2)))
    sdp.check_quantum_lifting(CouplingProblem(zero, zero, Subspace.full(4)))
    assert len(calls) == 1  # the zero state is decided without a solve
    assert len(eighs) == len({id(problem.rho1), id(problem.rho2)})


def _lapack_breaks(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_certificate_lapack_failure_is_a_solver_failure(monkeypatch):
    """A LAPACK failure after the solve, while the dual is completed and
    rescaled into a certificate (spectral norms), is a SolverFailure
    carrying the solution."""
    solve = sdp.solve_coupling_sdp

    def solve_then_break(*args, **kwargs):
        sol = solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", _lapack_breaks)
        return sol

    monkeypatch.setattr(sdp, "solve_coupling_sdp", solve_then_break)
    with pytest.raises(SolverFailure) as info:
        sdp.check_quantum_lifting(point_problem())
    assert info.value.best is not None


def _seeded_state(rng, kind):
    if kind == "full-rank":
        return rand_density(rng, 3)
    if kind == "rank-deficient":
        return rand_density(rng, 3, rank=2)
    return _near_singular(rng, 3, 1e-6)


def _hermitian_core_problems(kind):
    """Seeded d = 3 problems whose marginals are of one kind: two with a
    random subspace, two identity couplings (Exists, several steps)."""
    rng = np.random.default_rng(53)
    for _ in range(2):
        span = rand_subspace(rng, 9, int(rng.integers(1, 9)))
        yield CouplingProblem(_seeded_state(rng, kind), _seeded_state(rng, kind), span)
        rho = _seeded_state(rng, kind)
        yield CouplingProblem(rho, rho, quantum.coupling_identity_basis(rho)[1])


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "near-singular"])
def test_iterates_are_hermitian_without_symmetrization(monkeypatch, kind):
    """The loop never symmetrizes X, Y1, Y2 or Z, yet they leave it exactly
    Hermitian: every update is a sum of exactly Hermitian terms."""
    cores = []
    core = sdp._solve_core

    def recording(*args):
        cores.append(core(*args))
        return cores[-1]

    monkeypatch.setattr(sdp, "_solve_core", recording)
    for problem in _hermitian_core_problems(kind):
        sdp.check_quantum_lifting(problem)
    assert len(cores) == 4
    for sol in cores:
        assert sol.iterations > 0
        for m in (sol.primal_x, sol.dual_y1, sol.dual_y2):
            assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("routine, calls_per_step", [("cholesky", 1), ("solve", 4)])
def test_loop_linalg_failure_is_a_solver_failure(monkeypatch, routine, calls_per_step):
    """With no fallback in the loop, a LinAlgError at its factorization or
    its Newton solve ends the decision as a SolverFailure carrying the best
    iterate before the failing step; no raw LinAlgError escapes."""
    rho = rand_density(np.random.default_rng(61), 3)
    problem = CouplingProblem(rho, rho, quantum.coupling_identity_basis(rho)[1])
    k = 3  # the failing step; its iterate is number k - 1
    assert sdp.check_quantum_lifting(problem).diagnostics.iterations >= k
    calls = []
    real = getattr(np.linalg, routine)

    def breaking_at_step_k(*args, **kwargs):
        calls.append(None)
        if len(calls) > calls_per_step * (k - 1):
            _lapack_breaks()
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, breaking_at_step_k)
    with pytest.raises(SolverFailure) as info:
        sdp.check_quantum_lifting(problem)
    assert f"broke down at iteration {k - 1}" in str(info.value)
    best = info.value.best
    assert best.iterations < k
    assert best.primal_x.shape == (9, 9)


def test_full_rank_certificates_are_strictly_feasible():
    """The completion adds a quarter of the margin to the dual slack, so a
    full-rank NotExists certificate clears its operator inequality by at
    least a fifth of its own trace margin, not by round-off."""
    rng = np.random.default_rng(21)
    seen = 0
    for k in range(8):
        d = 2 + k % 2
        rho1, rho2 = rand_density(rng, d), rand_density(rng, d)
        sub = rand_subspace(rng, d * d, int(rng.integers(1, d + 1)))
        problem = CouplingProblem(rho1, rho2, sub)
        verdict = sdp.check_quantum_lifting(problem)
        if verdict.exists:
            continue
        seen += 1
        y1, y2 = verdict.certificate
        diff = np.kron(y1, np.eye(d)) - np.kron(np.eye(d), y2)
        slack = np.linalg.eigvalsh(sub.perp - diff)[0]
        margin = quantum.expectation(y1, rho1) - quantum.expectation(y2, rho2)
        assert margin > 1e-6
        assert slack >= margin / 5.0
    assert seen >= 4


def test_completion_refuses_a_margin_the_dual_residual_can_eat():
    """A margin of at most 4 * dual_residual leaves no provable slack, so the
    completion raises SolverFailure carrying the solution it was given."""
    d = 2
    eye = np.eye(d, dtype=np.complex128)
    sol = sdp.SdpSolution(
        np.eye(d * d) / (d * d), 0.45 * eye, 0.45 * eye,
        0.0, 0.9, 0.9, 0.0, 0.025, 7,
    )
    assert 1.0 - sol.dual_value <= 4.0 * sol.dual_residual
    with pytest.raises(SolverFailure, match="margin") as info:
        sdp._complete_dual(sol, eye, eye, 1.0)
    assert info.value.best is sol
