"""Tests for the validation boundary: public entry points validate their
input, states the library makes valid by construction skip the checks, and
every proof object is still verified before it is returned."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from qcoupling import classical, jsonio, linalg, quantum, reduction, sdp
from qcoupling.classical import Relation
from qcoupling.errors import InputError
from qcoupling.linalg import Subspace
from qcoupling.quantum import PSD_TOL, CouplingProblem, DensityOperator
from qcoupling.reduction import EmbeddingReport

from helpers import rand_density, rand_matched_rationals, rand_relation, rand_unitary

HALF = [0.5, 0.5]
NAN, INF = float("nan"), float("inf")


def _uniform_problem(dim):
    half = quantum.uniform_density(2)
    return CouplingProblem(half, half, Subspace.full(dim))


# Each entry point with every kind of invalid input it rejects.
DOOR = {
    "density-non-hermitian": lambda: DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]])),
    "density-not-psd": lambda: DensityOperator(np.diag([1.0, -0.5])),
    "density-trace-above-one": lambda: DensityOperator(np.diag([0.7, 0.6])),
    "density-non-finite": lambda: DensityOperator(np.diag([NAN, 0.5])),
    "from-projector-not-idempotent": lambda: Subspace.from_projector(np.diag([0.5, 1.0])),
    "from-span-empty": lambda: Subspace.from_span([]),
    "from-span-non-finite": lambda: Subspace.from_span([[INF, 0.0]]),
    "coupling-problem-dims": lambda: _uniform_problem(3),
    "embed-distribution-negative": lambda: reduction.embed_distribution([0.6, -0.1]),
    "embed-distribution-non-finite": lambda: reduction.embed_distribution([NAN, 0.5]),
    "embed-distribution-mass": lambda: reduction.embed_distribution([0.8, 0.3]),
    "embed-joint-negative": lambda: reduction.embed_joint([[0.6, -0.1], [0.0, 0.0]]),
    "embed-joint-non-finite": lambda: reduction.embed_joint([[INF, 0.0], [0.0, 0.0]]),
    "embed-joint-mass": lambda: reduction.embed_joint([[0.8, 0.0], [0.0, 0.3]]),
    "cross-check-negative": lambda: reduction.cross_check(
        [0.6, -0.1], HALF, Relation.full(2, 2)),
    "cross-check-non-finite": lambda: reduction.cross_check(
        [NAN, 0.5], HALF, Relation.full(2, 2)),
    "cross-check-unequal-exact-totals": lambda: reduction.cross_check(
        [Fr(1, 2), Fr(1, 2)], [Fr(1, 2), Fr(1, 3)], Relation.full(2, 2)),
    "maxflow-negative": lambda: classical.check_lifting_maxflow(
        [0.6, -0.1], HALF, Relation.full(2, 2)),
    "maxflow-mass": lambda: classical.check_lifting_maxflow(
        [0.8, 0.3], HALF, Relation.full(2, 2)),
    "maxflow-unequal-exact-totals": lambda: classical.check_lifting_maxflow(
        [Fr(1, 2), Fr(1, 2)], [Fr(1, 2), Fr(1, 3)], Relation.full(2, 2)),
    "classical-witness-shape": lambda: classical.is_lifting_witness_classical(
        [[0.5, 0.0], [0.0, 0.5]], HALF, HALF, Relation.full(3, 3)),
    "certificate-dims": lambda: sdp.verify_dual_certificate(
        np.eye(3), np.eye(2), _uniform_problem(4)),
    "certificate-non-hermitian": lambda: sdp.verify_dual_certificate(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), _uniform_problem(4)),
    "parse-density-not-psd": lambda: jsonio.parse_density({"re": [[1.0, 0.0], [0.0, -0.5]]}),
    "parse-density-trace": lambda: jsonio.parse_density({"re": [[1.0, 0.0], [0.0, 1.0]]}),
    "parse-density-non-hermitian": lambda: jsonio.parse_density(
        {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.2], [0.0, 0.0]]}),
}


@pytest.mark.parametrize("call", DOOR.values(), ids=DOOR.keys())
def test_public_entry_points_reject_invalid_input(call):
    with pytest.raises(InputError):
        call()


def _planted(rng, d, rank, k1=None, k2=None):
    """A problem whose marginals are those of a random rank-`rank` state on
    C^k1 (x) C^k2 placed inside C^d (x) C^d, with its range as the subspace;
    the marginals have rank at most k1 and k2 (d by default)."""
    k1, k2 = k1 or d, k2 or d
    iso = np.kron(rand_unitary(rng, d)[:, :k1], rand_unitary(rng, d)[:, :k2])
    g = iso @ (rng.normal(size=(k1 * k2, rank)) + 1j * rng.normal(size=(k1 * k2, rank)))
    x = g @ g.conj().T
    x /= np.trace(x).real
    return CouplingProblem(
        DensityOperator(linalg.partial_trace(x, d, d, "second")),
        DensityOperator(linalg.partial_trace(x, d, d, "first")),
        Subspace.from_span(g.T),
    )


def _refuted(rng, d):
    """Full-rank random marginals and a one-dimensional random subspace."""
    span = rng.normal(size=(1, d * d)) + 1j * rng.normal(size=(1, d * d))
    return CouplingProblem(rand_density(rng, d), rand_density(rng, d), Subspace.from_span(span))


@pytest.mark.parametrize("exists", [True, False], ids=["exists", "not-exists"])
def test_each_proof_object_is_diagonalized_once(monkeypatch, exists):
    """A witness is diagonalized only by its PSD projection and a certificate
    only by its PSD test: one Jacobi run on a D x D matrix per decision."""
    rng = np.random.default_rng(3)
    problem = _planted(rng, 3, 4) if exists else _refuted(rng, 3)
    shapes = []
    eig = linalg._eig

    def counting(h):
        shapes.append(h.shape[0])
        return eig(h)

    monkeypatch.setattr(linalg, "_eig", counting)
    verdict = sdp.check_quantum_lifting(problem)
    assert verdict.exists == exists
    assert shapes.count(9) == 1


def test_unchecked_witnesses_pass_every_check_of_the_door():
    """Over full-rank and rank-deficient d = 3 and d = 4 inputs, every
    witness built without the state checks passes them all the same."""
    rng = np.random.default_rng(29)
    seen = 0
    for k in range(40):
        d = 3 + k % 2
        if k % 4 < 2:
            problem = _planted(rng, d, int(rng.integers(1, d + 2)))
        elif k % 4 == 2:
            problem = _planted(rng, d, int(rng.integers(1, 3)), d - 1, d - 2)
        else:
            problem = _refuted(rng, d)
        verdict = sdp.check_quantum_lifting(problem)
        if not verdict.exists:
            continue
        seen += 1
        w = verdict.witness.mat
        DensityOperator(w)
        assert np.linalg.eigvalsh(w)[0] >= -PSD_TOL
        assert np.trace(w).real <= 1.0 + PSD_TOL
        assert quantum.is_lifting_witness(verdict.witness, problem, 10 * sdp.EPS_SOLVE)
    assert seen >= 25


def _reference_cross_check(mu1, mu2, relation):
    """cross_check through the public, validating entry points only."""
    cv = classical.check_lifting_maxflow(mu1, mu2, relation)
    problem = CouplingProblem(
        reduction.embed_distribution(mu1),
        reduction.embed_distribution(mu2),
        reduction.embed_relation(relation),
    )
    qv = sdp.check_quantum_lifting(problem)
    tol = 10 * sdp.EPS_SOLVE
    roundtrip = 0.0
    if cv.exists:
        embedded = reduction.embed_joint(cv.witness)
        roundtrip = max(quantum.marginal_deviation(embedded, problem.rho1, problem.rho2))
        assert quantum.is_lifting_witness(embedded, problem, tol)
    if qv.exists:
        joint = reduction.extract_joint(qv.witness, relation.m, relation.n)
        flo1, flo2 = [float(w) for w in mu1], [float(w) for w in mu2]
        ext1, ext2 = classical.marginals(joint)
        roundtrip = max([roundtrip] + [abs(a - b) for a, b in zip(ext1 + ext2, flo1 + flo2)])
        assert classical.is_lifting_witness_classical(joint, flo1, flo2, relation, tol)
    tag = lambda exists: "exists" if exists else "not_exists"
    return EmbeddingReport(tag(cv.exists), tag(qv.exists), roundtrip, cv.exists == qv.exists)


def test_cross_check_matches_the_validating_reference():
    rng = np.random.default_rng(41)
    for _ in range(40):
        mu1, mu2 = rand_matched_rationals(rng, 3, 3)
        rel = rand_relation(rng, 3, 3)
        got = reduction.cross_check(mu1, mu2, rel)
        want = _reference_cross_check(mu1, mu2, rel)
        assert got.classical_verdict == want.classical_verdict
        assert got.quantum_verdict == want.quantum_verdict
        assert got.agreement == want.agreement
        assert abs(got.witness_roundtrip_error - want.witness_roundtrip_error) <= 1e-15
