"""Tests for states, coupling constructors, and witness predicates."""

import numpy as np
import pytest

from qcoupling import linalg, quantum
from qcoupling.errors import InputError
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import rand_density, rand_hermitian, rand_unitary


def bell_state(d=2):
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0 / np.sqrt(d)
    return DensityOperator(np.outer(psi, psi.conj()))


def diag_subspace(d, diag_pairs):
    span = [np.eye(d * d)[i * d + j] for i, j in diag_pairs]
    return linalg.Subspace.from_span(span)


def test_density_operator_validates():
    DensityOperator(np.eye(2) / 2)  # fine
    DensityOperator(np.zeros((3, 3)))  # zero state is a partial density operator
    with pytest.raises(InputError):
        DensityOperator(np.diag([1.0, -0.1]))  # not PSD
    with pytest.raises(InputError):
        DensityOperator(np.diag([0.8, 0.4]))  # trace 1.2 > 1
    with pytest.raises(InputError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InputError):
        DensityOperator(np.zeros((0, 0)))  # empty


def test_density_operator_accepts_subnormalized():
    rho = DensityOperator(np.diag([0.25, 0.25]))
    assert rho.trace == pytest.approx(0.5)
    assert rho.dim == 2


def test_density_mat_is_read_only():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


def test_marginal_deviation_and_is_coupling():
    rng = np.random.default_rng(0)
    rho1, rho2 = rand_density(rng, 2), rand_density(rng, 3)
    prod = DensityOperator(linalg.tensor(rho1.mat, rho2.mat))
    r1, r2 = quantum.marginal_deviation(prod, rho1, rho2)
    assert max(r1, r2) < 1e-12
    assert quantum.is_coupling(prod, rho1, rho2)
    other = rand_density(rng, 2)
    assert not quantum.is_coupling(prod, other, rho2, tol=1e-3)


def test_support_leakage_and_witness_predicate():
    half = quantum.uniform_density(2)
    sub = diag_subspace(2, [(0, 0), (1, 1)])
    bell = bell_state()
    assert quantum.support_leakage(bell, sub) < 1e-12
    problem = CouplingProblem(half, half, sub)
    assert quantum.is_lifting_witness(bell, problem, 1e-9)
    # the product state couples (I/2, I/2) but leaks outside span{|00>,|11>}
    prod = DensityOperator(np.eye(4) / 4)
    assert quantum.is_coupling(prod, half, half)
    assert not quantum.is_lifting_witness(prod, problem, 1e-3)
    assert quantum.support_leakage(prod, sub) == pytest.approx(0.5)
    # their mixtures couple (I/2, I/2) too and leak half the product's weight:
    # the leakage alone decides, on either side of the tolerance
    for leak, verdict in ((0.9e-6, True), (1.1e-6, False)):
        rho = DensityOperator((1 - 2 * leak) * bell.mat + 2 * leak * prod.mat)
        assert quantum.is_coupling(rho, half, half, 1e-12)
        assert quantum.is_lifting_witness(rho, problem, 1e-6) is verdict


def test_bell_witness_for_equality_subspace():
    """The maximally entangled state witnesses I/d = I/d inside span{|ii>}."""
    for d in (2, 3):
        uniform = quantum.uniform_density(d)
        sub = diag_subspace(d, [(i, i) for i in range(d)])
        assert quantum.is_lifting_witness(
            bell_state(d), CouplingProblem(uniform, uniform, sub), 1e-9
        )


def test_uniform_density():
    u = quantum.uniform_density(4)
    assert u.trace == pytest.approx(1.0)
    assert np.array_equal(u.mat, np.eye(4) / 4)
    with pytest.raises(InputError):
        quantum.uniform_density(0)


def test_coupling_unitary_marginals_and_support():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        u = rand_unitary(rng, d)
        rho_u, sub = quantum.coupling_unitary(u)
        uniform = quantum.uniform_density(d)
        r1, r2 = quantum.marginal_deviation(rho_u, uniform, uniform)
        assert max(r1, r2) < 1e-9
        assert sub.rank == d
        assert quantum.is_lifting_witness(
            rho_u, CouplingProblem(uniform, uniform, sub), 1e-9
        )


def test_coupling_unitary_rejects_nonunitary():
    with pytest.raises(InputError):
        quantum.coupling_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_couplings_of_distinct_unitaries_differ():
    """U = I and U = X give different couplings of the same pair."""
    rho_i, _ = quantum.coupling_unitary(np.eye(2))
    rho_x, _ = quantum.coupling_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    uniform = quantum.uniform_density(2)
    for rho in (rho_i, rho_x):
        assert max(quantum.marginal_deviation(rho, uniform, uniform)) < 1e-12
    assert np.linalg.norm(rho_i.mat - rho_x.mat) > 0.5


def test_coupling_identity_basis_default():
    rng = np.random.default_rng(2)
    rho = rand_density(rng, 3)
    coup, sub = quantum.coupling_identity_basis(rho)
    assert max(quantum.marginal_deviation(coup, rho, rho)) < 1e-9
    assert quantum.is_lifting_witness(coup, CouplingProblem(rho, rho, sub), 1e-9)
    assert sub.rank == 3


def test_coupling_identity_basis_rank_deficient():
    rho = DensityOperator(np.diag([0.7, 0.3, 0.0]))
    coup, sub = quantum.coupling_identity_basis(rho)
    assert sub.rank == 2
    assert max(quantum.marginal_deviation(coup, rho, rho)) < 1e-12


def test_identity_coupling_depends_on_eigenbasis():
    """For I/2 both the computational and the Hadamard eigenbases are valid,
    and they induce genuinely different couplings (non-uniqueness)."""
    half = quantum.uniform_density(2)
    comp = np.eye(2, dtype=complex)
    hada = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    c1, s1 = quantum.coupling_identity_basis(half, basis=comp)
    c2, s2 = quantum.coupling_identity_basis(half, basis=hada)
    for c, s in ((c1, s1), (c2, s2)):
        assert max(quantum.marginal_deviation(c, half, half)) < 1e-9
        assert quantum.is_lifting_witness(c, CouplingProblem(half, half, s), 1e-9)
    assert np.linalg.norm(c1.mat - c2.mat) > 0.1


def test_coupling_identity_basis_rejects_bad_basis():
    half = quantum.uniform_density(2)
    with pytest.raises(InputError):
        quantum.coupling_identity_basis(half, basis=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        quantum.coupling_identity_basis(half, basis=np.eye(3))
    # orthonormal, but not an eigenbasis: its identity coupling would have
    # both marginals 0.28 away from rho
    hada = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    with pytest.raises(InputError):
        quantum.coupling_identity_basis(DensityOperator(np.diag([0.7, 0.3])), basis=hada)


def test_coupling_tensor():
    rng = np.random.default_rng(3)
    rho1, rho2 = rand_density(rng, 2), rand_density(rng, 3)
    prod = quantum.coupling_tensor(rho1, rho2)
    assert max(quantum.marginal_deviation(prod, rho1, rho2)) < 1e-12
    with pytest.raises(InputError):
        quantum.coupling_tensor(DensityOperator(np.diag([0.5, 0.0])), rho2)


def test_equality_witnesses_have_equal_marginals():
    """Any state supported inside span{|ii>} of an orthonormal basis has
    equal marginals: checked for random mixtures of random vectors in the
    span, over random bases."""
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        basis = rand_unitary(rng, d)
        span = np.stack([np.kron(basis[:, i], basis[:, i]) for i in range(d)])
        k = int(rng.integers(1, d + 1))
        rho = np.zeros((d * d, d * d), dtype=complex)
        weights = rng.dirichlet([1.0] * k)
        for w in weights:
            coeff = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = coeff @ span
            psi /= np.linalg.norm(psi)
            rho += w * np.outer(psi, psi.conj())
        m1 = linalg.partial_trace(rho, d, d, "second")
        m2 = linalg.partial_trace(rho, d, d, "first")
        assert np.linalg.norm(m1 - m2) <= 1e-9


def test_couplings_imply_equal_trace():
    rng = np.random.default_rng(5)
    rho1 = rand_density(rng, 2, trace=0.8)
    rho2 = rand_density(rng, 3, trace=0.8)
    prod = DensityOperator(linalg.tensor(rho1.mat, rho2.mat) / 0.8)
    t1, t2 = quantum.couplings_imply_equal_trace(prod, rho1, rho2)
    assert abs(t1 - t2) < 1e-12
    assert t1 == pytest.approx(0.8)
    with pytest.raises(InputError):
        quantum.couplings_imply_equal_trace(
            prod, rho1, rand_density(rng, 3, trace=0.5)
        )


def test_couplings_imply_equal_trace_allows_the_trace_norm_bound():
    # marginals within tol in Frobenius norm can move a d-dimensional trace
    # by up to sqrt(d) * tol each, so the traces may differ by more than 2*tol
    tol = 1e-7
    base = 0.3 * np.eye(3)
    shift = 0.999 * tol / np.sqrt(3) * np.eye(3)
    rho = DensityOperator(np.kron(base, base) / 0.9)
    rho1, rho2 = DensityOperator(base + shift), DensityOperator(base - shift)
    assert quantum.is_coupling(rho, rho1, rho2, tol)
    t1, t2 = quantum.couplings_imply_equal_trace(rho, rho1, rho2, tol)
    assert t1 - t2 == pytest.approx(6 * 0.999 * tol / np.sqrt(3))


def test_expectation():
    rho = DensityOperator(np.diag([0.75, 0.25]))
    z = np.diag([1.0, -1.0])
    assert quantum.expectation(z, rho) == pytest.approx(0.5)
    with pytest.raises(InputError):
        quantum.expectation(np.eye(3), rho)


def test_coupling_problem_validates_dimensions():
    rng = np.random.default_rng(6)
    rho1, rho2 = rand_density(rng, 2), rand_density(rng, 2)
    with pytest.raises(InputError):
        CouplingProblem(rho1, rho2, linalg.Subspace.full(5))
    prob = CouplingProblem(rho1, rho2, linalg.Subspace.full(4))
    assert prob.dims == (2, 2)
