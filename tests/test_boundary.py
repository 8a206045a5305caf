"""Tests for the validation boundary: public entry points validate their
input, states the library makes valid by construction skip the checks, and
every proof object is still verified before it is returned."""

from dataclasses import fields
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
    "subspace-scaled-identity": lambda: Subspace(4, 2 * np.eye(4)),
    "subspace-not-idempotent": lambda: Subspace(4, np.ones((4, 4))),
    "subspace-negative-identity": lambda: Subspace(4, -np.eye(4)),
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
    """A witness is the stopping iterate, never diagonalized, and a
    certificate is diagonalized only by its PSD test: Exists makes no Jacobi
    run at all, NotExists exactly one, on a D x D matrix."""
    rng = np.random.default_rng(3)
    problem = _planted(rng, 3, 4) if exists else _refuted(rng, 3)
    shapes = []
    eigvals = linalg._jacobi_eigvals

    def counting(h):
        shapes.append(h.shape[0])
        return eigvals(h)

    monkeypatch.setattr(linalg, "_jacobi_eigvals", counting)
    verdict = sdp.check_quantum_lifting(problem)
    assert verdict.exists == exists
    assert shapes == ([] if exists else [9])


def _near_singular_planted(rng, d, eps):
    """A random rank-d state on C^d (x) C^d pushed through S (x) S with
    S = U diag(1, sqrt(eps), ..., sqrt(eps)) U^dagger, its range as the
    subspace: full-rank marginals with eigenvalue ratios of order eps."""
    u = rand_unitary(rng, d)
    s = (u * np.sqrt([1.0] + [eps] * (d - 1))) @ u.conj().T
    g = np.kron(s, s) @ (rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d)))
    x = g @ g.conj().T
    x /= np.trace(x).real
    return CouplingProblem(
        DensityOperator(linalg.partial_trace(x, d, d, "second")),
        DensityOperator(linalg.partial_trace(x, d, d, "first")),
        Subspace.from_span(g.T),
    )


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "near-singular"])
def test_witness_matches_the_projected_iterate(kind):
    """The witness, taken straight from the stopping iterate, equals the
    PSD-projected, trace-matched, symmetrized iterate to round-off, and
    passes the validating constructor."""
    rng = np.random.default_rng(67)
    seen = 0
    for _ in range(6):
        if kind == "full-rank":
            problem = _planted(rng, 3, 4)
        elif kind == "rank-deficient":
            problem = _planted(rng, 3, 2, 2, 2)
        else:
            problem = _near_singular_planted(rng, 3, 1e-6)
        verdict = sdp.check_quantum_lifting(problem)
        if not verdict.exists:
            continue
        seen += 1
        t1 = problem.rho1.trace
        x = sdp.solve_coupling_sdp(problem, dual_target=t1 - sdp.EPS_DECIDE).primal_x
        p = linalg.psd_project(x)
        want = linalg.herm(p * (t1 / np.trace(p).real))
        w = verdict.witness.mat
        assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)
        DensityOperator(w)
    assert seen >= 4


def test_verdicts_keep_only_their_proof_objects():
    """diagnostics holds the stopping iterate's numbers and no matrix, so a
    NotExists verdict holds no array larger than its d x d certificate."""
    rng = np.random.default_rng(71)
    for problem, exists in ((_planted(rng, 3, 4), True), (_refuted(rng, 3), False)):
        verdict = sdp.check_quantum_lifting(problem)
        assert verdict.exists == exists
        stats = vars(verdict.diagnostics)
        assert set(stats) == {f.name for f in fields(sdp.IterateStats)}
        assert not any(isinstance(v, np.ndarray) for v in stats.values())
        if not exists:
            assert verdict.witness is None
            assert [y.shape for y in verdict.certificate] == [(3, 3), (3, 3)]


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "degenerate-basis"])
def test_identity_coupling_is_not_diagonalized(monkeypatch, kind):
    """coupling_identity_basis builds its d^2 x d^2 coupling unchecked: only
    the d x d state may be diagonalized, and the coupling still passes every
    check of the door."""
    rng = np.random.default_rng(59)
    d, basis = 4, None
    if kind == "full-rank":
        rho = rand_density(rng, d)
    elif kind == "rank-deficient":
        rho = rand_density(rng, d, rank=2)
    else:
        # spectrum (0.3, 0.3, 0.2, 0.2): any unitary mix inside each pair of
        # eigenvectors is another eigenbasis
        u = rand_unitary(rng, d)
        rho = DensityOperator((u * [0.3, 0.3, 0.2, 0.2]) @ u.conj().T)
        mix = np.kron(np.eye(2), rand_unitary(rng, 2))
        basis = u @ mix
    shapes = []
    eigvals = linalg._jacobi_eigvals

    def counting(h):
        shapes.append(h.shape[0])
        return eigvals(h)

    monkeypatch.setattr(linalg, "_jacobi_eigvals", counting)
    coupling, subspace = quantum.coupling_identity_basis(rho, basis)
    assert d * d not in shapes
    monkeypatch.undo()
    DensityOperator(coupling.mat)
    assert quantum.is_coupling(coupling, rho, rho, 1e-9)
    assert quantum.support_leakage(coupling, subspace) <= 1e-9


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
