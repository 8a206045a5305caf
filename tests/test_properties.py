"""The paper's basic properties of quantum couplings, used as oracles: each
relation predicts one lifting verdict from others, so a solver that gets
one side wrong breaks it."""

import numpy as np

from qcoupling import linalg, quantum, sdp
from qcoupling.linalg import Subspace
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import rand_density, rand_hermitian, rand_subspace, rand_unitary


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


def _in_span(rng, g):
    """A random state of full rank on the range of g, as a D x D matrix."""
    c = rng.normal(size=(g.shape[1],) * 2) + 1j * rng.normal(size=(g.shape[1],) * 2)
    x = g @ c @ c.conj().T @ g.conj().T
    return x / np.trace(x).real


def test_mixtures_of_couplings_in_one_subspace_couple():
    # two planted pairs that share a subspace: their mixture lifts, and the
    # mixture of their witnesses is a lifting witness of it
    rng = np.random.default_rng(2028)
    for k in range(30):
        d = 2 + k % 2
        r = int(rng.integers(1, d * d))
        g = rng.normal(size=(d * d, r)) + 1j * rng.normal(size=(d * d, r))
        sub = Subspace.from_span(g.T)
        lam = float(rng.uniform(0.1, 0.9))
        pairs, witnesses = [], []
        for _ in range(2):
            x = _in_span(rng, g)
            problem = CouplingProblem(
                DensityOperator(linalg.partial_trace(x, d, d, "second")),
                DensityOperator(linalg.partial_trace(x, d, d, "first")),
                sub,
            )
            verdict = sdp.check_quantum_lifting(problem)
            assert verdict.exists, k
            pairs.append(problem)
            witnesses.append(verdict.witness.mat)
        a, b = pairs
        mixed = CouplingProblem(
            DensityOperator(lam * a.rho1.mat + (1 - lam) * b.rho1.mat),
            DensityOperator(lam * a.rho2.mat + (1 - lam) * b.rho2.mat),
            sub,
        )
        assert sdp.check_quantum_lifting(mixed).exists, k
        witness = DensityOperator(lam * witnesses[0] + (1 - lam) * witnesses[1])
        assert quantum.is_lifting_witness(witness, mixed, 10 * sdp.EPS_SOLVE), k


def _tilted(rng, d):
    """A planted problem whose subspace is turned by exp(i theta H), with
    ||H|| = 1 and theta = 10^U(-2.5, -1): mostly NotExists, many within a
    few eps_decide of the threshold."""
    planted = _planted(rng, d, int(rng.integers(1, d + 1)))
    w, v = np.linalg.eigh(rand_hermitian(rng, d * d))
    u = (v * np.exp(1j * 10.0 ** rng.uniform(-2.5, -1) * w / abs(w).max())) @ v.conj().T
    p = u @ planted.subspace.projector @ u.conj().T
    return CouplingProblem(planted.rho1, planted.rho2, Subspace.from_projector(p))


def test_scaling_both_marginals_keeps_the_verdict():
    # (c rho1, c rho2) lifts iff (rho1, rho2) does, for partial density
    # operators; compared where the scaled least leakage c * delta stays
    # clear of the threshold: delta (bounded below by tr(rho1) less a full
    # solve's dual value) is at most eps_solve, or c * delta > 10 * eps_decide
    rng = np.random.default_rng(2029)
    seen = {True: 0, False: 0}
    for k in range(90):
        d = 2 + k % 2
        problem = _tilted(rng, d) if k % 3 == 2 else _problem(rng, d, k)
        verdict = sdp.check_quantum_lifting(problem)
        delta = problem.rho1.trace - sdp.solve_coupling_sdp(problem).dual_value
        for c in (0.5, 0.25):
            if sdp.EPS_SOLVE < delta and c * delta <= 10 * sdp.EPS_DECIDE:
                continue
            scaled = CouplingProblem(
                DensityOperator(c * problem.rho1.mat),
                DensityOperator(c * problem.rho2.mat),
                problem.subspace,
            )
            assert sdp.check_quantum_lifting(scaled).exists == verdict.exists, (k, c)
            seen[verdict.exists] += 1
    assert min(seen.values()) >= 40
