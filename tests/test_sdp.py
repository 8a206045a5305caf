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


def test_solver_failure_carries_best_iterate():
    with pytest.raises(SolverFailure) as err:
        sdp.solve_coupling_sdp(point_problem(), max_iter=2)
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
        assert max(sol.gap, sol.primal_residual, sol.dual_residual) <= 1e-8
    # the sweep must exercise both branches to mean anything
    assert seen_exists >= 5 and seen_not >= 5
