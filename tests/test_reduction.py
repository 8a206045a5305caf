"""Tests for the diagonal embedding and the classical/quantum cross-check."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from qcoupling import classical, linalg, quantum, reduction, sdp
from qcoupling.classical import Relation
from qcoupling.errors import InputError, SolverFailure
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import all_relations, rand_matched_rationals, rand_relation

HALF = [Fr(1, 2), Fr(1, 2)]


def embedded_problem(mu1, mu2, rel):
    return CouplingProblem(
        reduction.embed_distribution(mu1),
        reduction.embed_distribution(mu2),
        reduction.embed_relation(rel),
    )


def test_embed_distribution_is_the_diagonal_state():
    rho = reduction.embed_distribution(HALF)
    assert np.array_equal(rho.mat, np.diag([0.5, 0.5]).astype(complex))
    point = reduction.embed_distribution([1, 0, 0])
    assert np.array_equal(point.mat, np.diag([1.0, 0.0, 0.0]).astype(complex))
    zero = reduction.embed_distribution([0.0, 0.0])
    assert np.all(zero.mat == 0)
    with pytest.raises(InputError):
        reduction.embed_distribution([0.7, 0.7])  # total mass above one


def test_embed_relation_exact_projectors():
    eq = reduction.embed_relation(Relation.equality(2))
    assert np.array_equal(eq.projector, np.diag([1.0, 0, 0, 1.0]).astype(complex))
    empty = reduction.embed_relation(Relation.from_pairs(2, 2, []))
    assert np.all(empty.projector == 0)
    full = reduction.embed_relation(Relation.full(2, 3))
    assert np.array_equal(full.projector, np.eye(6).astype(complex))
    # composite index convention: (i, j) sits at i*n + j
    one = reduction.embed_relation(Relation.from_pairs(2, 3, [(1, 0)]))
    assert one.projector[3, 3] == 1.0
    assert np.trace(one.projector) == 1.0


def test_embedded_relations_pass_the_validating_constructor():
    """embed_relation builds its projector unchecked; on every relation on
    [2] x [2] and [1] x [3] it is what the validating constructor accepts,
    read-only, and the problem it makes is exactly diagonal."""
    half = reduction.embed_distribution(HALF)
    relations = [*all_relations(2, 2), *all_relations(1, 3)]
    for rel in relations:
        sub = reduction.embed_relation(rel)
        checked = linalg.Subspace(sub.ambient_dim, sub.projector)
        assert checked.ambient_dim == sub.ambient_dim == rel.m * rel.n
        assert np.array_equal(checked.projector, sub.projector)
        assert sub.projector.dtype == np.complex128 and not sub.projector.flags.writeable
        if rel.m == 2:
            assert CouplingProblem(half, half, sub).diagonal


def test_embed_joint_marginals_and_witness_transfer():
    mu_id = [[Fr(1, 2), Fr(0)], [Fr(0), Fr(1, 2)]]
    rho = reduction.embed_joint(mu_id)
    assert np.array_equal(rho.mat, np.diag([0.5, 0, 0, 0.5]).astype(complex))
    tr2 = linalg.partial_trace(rho.mat, 2, 2, "second")
    assert np.array_equal(tr2, np.diag([0.5, 0.5]).astype(complex))
    # a max-flow witness embeds into a quantum witness at 1e-9
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 25:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rel = Relation.from_pairs(
            m, n, [(i, j) for i in range(m) for j in range(n) if rng.random() < 0.7]
        )
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        cv = classical.check_lifting_maxflow(mu1, mu2, rel)
        if not cv.exists:
            continue
        problem = embedded_problem(mu1, mu2, rel)
        emb = reduction.embed_joint(cv.witness)
        assert quantum.is_lifting_witness(emb, problem, tol=1e-9)
        checked += 1


def test_extract_joint_round_trips_and_reads_bell_diagonal():
    joint = [[0.3, 0.1], [0.0, 0.6]]
    rho = reduction.embed_joint(joint)
    assert reduction.extract_joint(rho, 2, 2) == joint
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = DensityOperator(np.outer(psi, psi))
    got = np.array(reduction.extract_joint(bell, 2, 2))
    assert np.allclose(got, np.diag([0.5, 0.5]), atol=1e-12)
    with pytest.raises(InputError):
        reduction.extract_joint(bell, 2, 3)  # 6 != 4


def test_extract_joint_clamps_float_dust_at_zero():
    eps = 1e-12
    rho = DensityOperator(np.diag([0.5 - eps, -eps / 2, eps / 2, 0.5]))
    out = reduction.extract_joint(rho, 2, 2)
    assert out[0][1] == 0.0
    assert all(v >= 0.0 for row in out for v in row)


def test_cross_check_equality_flip_agrees_exists():
    report = reduction.cross_check(HALF, HALF, Relation.equality(2))
    assert report.agreement
    assert report.classical_verdict == report.quantum_verdict == "exists"
    assert report.witness_roundtrip_error <= 1e-6


def test_cross_check_single_pair_agrees_not_exists():
    report = reduction.cross_check(HALF, HALF, Relation.from_pairs(2, 2, [(0, 0)]))
    assert report.agreement
    assert report.classical_verdict == report.quantum_verdict == "not_exists"
    assert report.witness_roundtrip_error == 0.0


def test_cross_check_uniform_bijection_agrees_exists():
    unif = [Fr(1, 3)] * 3
    perm = Relation.from_pairs(3, 3, [(0, 2), (1, 0), (2, 1)])
    report = reduction.cross_check(unif, unif, perm)
    assert report.agreement
    assert report.classical_verdict == "exists"


def test_cross_check_rejects_mismatched_totals():
    with pytest.raises(InputError):
        reduction.cross_check([Fr(1, 2), Fr(1, 2)], [Fr(1, 3), Fr(1, 3)],
                              Relation.full(2, 2))


def test_threshold_boundary_input_decides_with_a_certificate():
    # the optimum 1 - 1e-4 lies within eps_decide = 1e-3 of tr(rho1), so the
    # primal side reads Exists, yet no coupling puts all its mass in R and the
    # cleaned-up optimizer cannot verify at 10*eps_solve; the dual of the same
    # solve proves NotExists, as max-flow finds
    mu1, mu2 = [0.5001, 0.4999], [0.5, 0.5]
    rel = Relation.from_pairs(2, 2, [(0, 0), (1, 1)])
    problem = embedded_problem(mu1, mu2, rel)
    verdict = sdp.check_quantum_lifting(problem, eps_decide=1e-3)
    assert not verdict.exists
    assert problem.rho1.trace - verdict.diagnostics.primal_value <= 1e-3
    y1, y2 = verdict.certificate
    assert sdp.verify_dual_certificate(y1, y2, problem, 10 * sdp.EPS_SOLVE)
    assert not classical.check_lifting_maxflow(mu1, mu2, rel).exists
    report = reduction.cross_check(mu1, mu2, rel, eps_decide=1e-3)
    assert report.agreement
    assert report.quantum_verdict == "not_exists"


def test_theorem_2_decisions_stop_no_later_than_the_full_solve():
    # the primal early stop decides Exists at the first eps-optimal iterate:
    # verdicts still match max-flow, every witness re-verifies, and no
    # decision takes more iterations than the solve without a target
    rng = np.random.default_rng(64)
    early = full = 0
    for _ in range(64):
        mu1, mu2 = rand_matched_rationals(rng, 3, 3)
        rel = rand_relation(rng, 3, 3)
        problem = embedded_problem(mu1, mu2, rel)
        verdict = sdp.check_quantum_lifting(problem)
        assert verdict.exists == classical.check_lifting_maxflow(mu1, mu2, rel).exists
        if not verdict.exists:
            continue
        assert quantum.is_lifting_witness(verdict.witness, problem, 1e-7)
        if problem.rho1.trace > 0:
            conv = sdp.solve_coupling_sdp(problem)
            assert verdict.diagnostics.iterations <= conv.iterations
            early += verdict.diagnostics.iterations
            full += conv.iterations
    assert full >= 40 and early < full


def test_quantum_verdict_matches_exhaustive_oracle_on_two_by_two():
    rng = np.random.default_rng(1)
    for rel in all_relations(2, 2):
        for _ in range(3):
            mu1, mu2 = rand_matched_rationals(rng, 2, 2)
            verdict = sdp.check_quantum_lifting(embedded_problem(mu1, mu2, rel))
            expect = classical.check_strassen_exhaustive(mu1, mu2, rel) is None
            assert verdict.exists == expect


def test_quantum_verdict_matches_exhaustive_oracle_spot_checks():
    rng = np.random.default_rng(2)
    agree_exists = agree_not = 0
    for _ in range(30):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rel = Relation.from_pairs(
            m, n, [(i, j) for i in range(m) for j in range(n) if rng.random() < 0.5]
        )
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        report = reduction.cross_check(mu1, mu2, rel)
        expect = classical.check_strassen_exhaustive(mu1, mu2, rel) is None
        assert report.agreement
        assert (report.quantum_verdict == "exists") == expect
        if expect:
            agree_exists += 1
            assert report.witness_roundtrip_error <= 1e-6
        else:
            agree_not += 1
    assert agree_exists >= 5 and agree_not >= 5


def test_dual_certificate_diagonal_transfers_to_lemma_system():
    """NotExists certificates, restricted to their diagonals, satisfy the
    observable-pair constraint system and make the expectation inequality
    fail -- the diagonal reduction of the dual side."""
    rng = np.random.default_rng(3)
    seen = 0
    while seen < 15:
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rel = Relation.from_pairs(
            m, n, [(i, j) for i in range(m) for j in range(n) if rng.random() < 0.4]
        )
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        if classical.check_strassen_exhaustive(mu1, mu2, rel) is None:
            continue
        verdict = sdp.check_quantum_lifting(embedded_problem(mu1, mu2, rel))
        assert not verdict.exists
        y1, y2 = verdict.certificate
        d1 = np.diagonal(y1).real
        d2 = np.diagonal(y2).real
        assert d1.min() >= -1e-8 and d2.min() >= -1e-8
        y1d = [max(float(v), 0.0) for v in d1]
        y2d = [max(float(v), 0.0) for v in d2]
        holds = classical.check_statement_2prime(
            [float(w) for w in mu1], [float(w) for w in mu2], rel,
            y1d, y2d, constraint_tol=1e-7,
        )
        assert not holds  # the certificate is exactly a violated inequality
        seen += 1


def test_embedding_report_fields_consistent():
    report = reduction.cross_check(HALF, HALF, Relation.equality(2))
    assert report.agreement == (report.classical_verdict == report.quantum_verdict)


def test_deficiency_just_above_tol_decides_with_the_hall_pair():
    # delta = mu1({0}) - mu2({1}) = 1.28e-7 exceeds tol = 1e-7 by less than a
    # completion would spend, so the completed dense-style certificate failed
    # and the decision was a witness-cleanup SolverFailure; the 0/1 pair
    # keeps the whole deficiency as its trace gap
    mu1 = [0.0971250823382149, 0.9028749176617852]
    mu2 = [0.9028750453668901, 0.09712495463310994]
    rel = Relation.from_pairs(2, 2, [(0, 1), (1, 0)])
    problem = embedded_problem(mu1, mu2, rel)
    verdict = sdp.check_quantum_lifting(problem)
    assert not verdict.exists
    y1, y2 = verdict.certificate
    assert np.array_equal(y1, np.diag([1.0, 0.0])) and np.array_equal(y2, np.diag([0.0, 1.0]))
    assert Fr(mu1[0]) - Fr(mu2[1]) > Fr(10 * sdp.EPS_SOLVE)


def _near_threshold_inputs(count):
    """Seeded diagonal inputs near the Hall threshold: m, n in [2, 5], each
    pair in R with probability 1/2, a random joint on R with 20 % of its
    entries zeroed whose marginals are mu1 and mu2, then mass 10^U(-8, -3)
    moved between two rows of mu1."""
    rng = np.random.default_rng(7)
    while count:
        m, n = (int(v) for v in rng.integers(2, 6, size=2))
        rel = rng.random((m, n)) < 0.5
        joint = rng.random((m, n)) * rel * (rng.random((m, n)) >= 0.2)
        if joint.sum() == 0.0:
            continue
        joint /= joint.sum()
        mu1, mu2 = joint.sum(axis=1), joint.sum(axis=0)
        i, k = rng.choice(m, size=2, replace=False)
        moved = min(10.0 ** rng.uniform(-8, -3), mu1[i])
        mu1[i] -= moved
        mu1[k] += moved
        count -= 1
        yield mu1.tolist(), mu2.tolist(), Relation.from_pairs(m, n, zip(*np.nonzero(rel)))


def _hall_deficiency(mu1, mu2, rel):
    """max over S of mu1(S) - mu2(R(S)), exact in Fractions of the weights."""
    w1, w2 = [Fr(w) for w in mu1], [Fr(w) for w in mu2]
    best = Fr(0)
    for bits in range(1, 1 << rel.m):
        s = {i for i in range(rel.m) if bits >> i & 1}
        image = {j for i, j in rel.pairs if i in s}
        best = max(best, sum(w1[i] for i in s) - sum(w2[j] for j in image))
    return best


def test_near_threshold_diagonal_sweep_agrees_with_hall():
    """3 000 diagonal inputs whose Hall deficiency delta straddles the
    verification tolerance tol = 10*eps_solve. Every decided verdict is
    NotExists iff delta > tol. The 0/1 certificate has trace gap delta, so
    no input above tol is lost; a witness-cleanup failure is left only
    where delta lies within eps_solve of tol, where an eps_solve-optimal
    witness leaks more than tol and the certificate's gap is at most tol.
    The one linear-algebra breakdown is a known LP failure (CHANGES.md)."""
    eps, tol = sdp.EPS_SOLVE, 10 * sdp.EPS_SOLVE
    failures = {}
    for k, (mu1, mu2, rel) in enumerate(_near_threshold_inputs(3000)):
        delta = _hall_deficiency(mu1, mu2, rel)
        try:
            verdict = sdp.check_quantum_lifting(embedded_problem(mu1, mu2, rel))
        except SolverFailure as err:
            failures[k] = str(err)
            if "witness cleanup" in str(err):
                assert abs(delta - Fr(tol)) < eps, (k, float(delta))
            continue
        assert verdict.exists == (delta <= Fr(tol)), (k, float(delta))
    assert set(failures) <= {821, 2767}
    assert "linear algebra broke down" in failures.get(821, "linear algebra broke down")
