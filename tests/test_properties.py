"""The paper's basic properties of quantum couplings, used as oracles: each
relation predicts one lifting verdict from others, so a solver that gets
one side wrong breaks it."""

import numpy as np

from qcoupling import linalg, quantum, sdp
from qcoupling.linalg import Subspace
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import rand_density, rand_subspace, rand_unitary


def _planted(rng, d, rank):
    """Marginals of a random rank-`rank` state on C^d (x) C^d, inside its
    range: a coupling exists."""
    g = rng.normal(size=(d * d, rank)) + 1j * rng.normal(size=(d * d, rank))
    x = g @ g.conj().T
    x /= np.trace(x).real
    return CouplingProblem(
        DensityOperator(linalg.partial_trace(x, d, d, "second")),
        DensityOperator(linalg.partial_trace(x, d, d, "first")),
        Subspace.from_span(g.T),
    )


def _problem(rng, d, k):
    """Every third problem planted (Exists); the rest random normalized
    marginals in a random subspace of rank 1 to d*d - 1, mostly NotExists
    at low rank and mixed at high rank."""
    if k % 3 == 0:
        return _planted(rng, d, int(rng.integers(1, d + 1)))
    return CouplingProblem(
        rand_density(rng, d),
        rand_density(rng, d),
        rand_subspace(rng, d * d, int(rng.integers(1, d * d))),
    )


def _tensor(a: CouplingProblem, b: CouplingProblem) -> CouplingProblem:
    """(rho1 (x) sigma1, rho2 (x) sigma2) in X (x) Y, with X (x) Y reordered
    from (a1, a2, b1, b2) to the parties' order (a1, b1, a2, b2)."""
    (da1, da2), (db1, db2) = a.dims, b.dims
    p = np.kron(a.subspace.projector, b.subspace.projector)
    order = (0, 2, 1, 3, 4, 6, 5, 7)
    p = p.reshape((da1, da2, db1, db2) * 2).transpose(order).reshape(p.shape)
    return CouplingProblem(
        DensityOperator(np.kron(a.rho1.mat, b.rho1.mat)),
        DensityOperator(np.kron(a.rho2.mat, b.rho2.mat)),
        Subspace.from_projector(p),
    )


def test_tensor_products_lift_iff_both_factors_do():
    # a coupling of both factors tensors into one inside X (x) Y; one inside
    # X (x) Y traces down to a coupling of each factor (traces are one)
    rng = np.random.default_rng(2026)
    seen = {}
    for k in range(60):
        a, b = _problem(rng, 2, k), _problem(rng, 2, k // 3)
        factors = sdp.check_quantum_lifting(a).exists, sdp.check_quantum_lifting(b).exists
        assert sdp.check_quantum_lifting(_tensor(a, b)).exists == all(factors), k
        seen[factors] = seen.get(factors, 0) + 1
    # each of the four combinations of factor verdicts occurs
    assert len(seen) == 4 and min(seen.values()) >= 5


def test_enlarging_the_subspace_keeps_a_coupling():
    # Exists in S implies Exists in every S' containing S, and S's own
    # witness lifts in S' too
    rng = np.random.default_rng(2027)
    seen = {True: 0, False: 0}
    for k in range(150):
        small = _problem(rng, 3, k)
        u = rand_unitary(rng, 9)[:, : int(rng.integers(1, 4))]
        span = np.concatenate([small.subspace.projector, u], axis=1)
        large = CouplingProblem(small.rho1, small.rho2, Subspace.from_span(span.T))
        verdict = sdp.check_quantum_lifting(small)
        seen[verdict.exists] += 1
        if verdict.exists:
            assert sdp.check_quantum_lifting(large).exists, k
            assert quantum.is_lifting_witness(verdict.witness, large), k
    assert min(seen.values()) >= 20
