"""Tests for the validation boundary: public entry points validate their
input, states the library makes valid by construction skip the checks, and
every proof object is still verified before it is returned."""

from dataclasses import fields
from fractions import Fraction as Fr

import numpy as np
import pytest

from qcoupling import classical, jsonio, linalg, quantum, reduction, sdp
from qcoupling.classical import Relation
from qcoupling.errors import SLACK, InputError
from qcoupling.linalg import Subspace
from qcoupling.quantum import CouplingProblem, DensityOperator
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
    "classical-witness-marginal-sizes": lambda: classical.is_lifting_witness_classical(
        [[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5, 0.0], HALF, Relation.full(2, 2)),
    "joint-ragged": lambda: classical.marginals([[0.5], [0.25, 0.25]]),
    "exhaustive-sizes": lambda: classical.check_strassen_exhaustive(
        HALF, [1.0], Relation.full(2, 2)),
    "maxflow-sizes": lambda: classical.check_lifting_maxflow(
        HALF, [1.0], Relation.full(2, 2)),
    "y2-min-size": lambda: classical.y2_min([1.0, 0.0, 0.0], Relation.full(2, 2)),
    "statement-2prime-observable-sizes": lambda: classical.check_statement_2prime(
        HALF, HALF, Relation.full(2, 2), [1.0], [1.0, 1.0]),
    "statement-2prime-distribution-sizes": lambda: classical.check_statement_2prime(
        [1.0], HALF, Relation.full(2, 2), [1.0, 0.0], [1.0, 1.0]),
    "marginal-deviation-dims": lambda: quantum.marginal_deviation(
        DensityOperator(np.eye(3) / 3), quantum.uniform_density(2), quantum.uniform_density(2)),
    "support-leakage-dims": lambda: quantum.support_leakage(
        quantum.uniform_density(2), Subspace.full(4)),
    "certificate-dims": lambda: sdp.verify_dual_certificate(
        np.eye(3), np.eye(2), _uniform_problem(4)),
    "certificate-non-hermitian": lambda: sdp.verify_dual_certificate(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), _uniform_problem(4)),
    "parse-density-not-psd": lambda: jsonio.parse_density({"re": [[1.0, 0.0], [0.0, -0.5]]}),
    "parse-density-trace": lambda: jsonio.parse_density({"re": [[1.0, 0.0], [0.0, 1.0]]}),
    "parse-density-non-hermitian": lambda: jsonio.parse_density(
        {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.2], [0.0, 0.0]]}),
    "parse-density-trace-check-string": lambda: jsonio.parse_density(
        {"re": [[1.0]], "trace_check": "false"}),
    "parse-density-trace-check-integer": lambda: jsonio.parse_density(
        {"re": [[0.5]], "trace_check": 0}),
}
# numpy scalars are not Python floats, yet a NaN or infinite one is no weight
for _name, _bad in {"nan": np.float32(NAN), "inf": np.float32(INF)}.items():
    DOOR |= {
        f"subdistribution-float32-{_name}": lambda b=_bad: classical.check_subdistribution(
            [b, 0.1]),
        f"maxflow-float32-{_name}": lambda b=_bad: classical.check_lifting_maxflow(
            [b, 0.5], HALF, Relation.full(2, 2)),
        f"statement-2prime-float32-{_name}": lambda b=_bad: classical.check_statement_2prime(
            HALF, HALF, Relation.full(2, 2), [b, 0.0], [1.0, 1.0]),
        f"level-sets-float32-{_name}": lambda b=_bad: classical.level_set_decomposition(
            [b, 0.5]),
    }


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# Each door that forgives round-off in caller data reads errors.SLACK. Each
# entry builds an input off by k * SLACK in the door's own measure: k = 2 is
# rejected (in DOOR), k = 1/2 accepted (test_slack_doors_accept_half_the_slack).
SLACK_DOOR = {
    # anti-Hermitian part of norm k * SLACK, against max(1, ||M||_F) = 1
    "density-hermiticity": lambda k: DensityOperator(
        np.array([[0.5, k * SLACK / np.sqrt(2)], [0.0, 0.5]])),
    "hermitize-default": lambda k: linalg.hermitize(
        np.array([[0.5, k * SLACK / np.sqrt(2)], [0.0, 0.5]])),
    "density-psd": lambda k: DensityOperator(np.diag([0.5, -k * SLACK])),
    "density-trace": lambda k: DensityOperator(np.diag([0.5, 0.5 + k * SLACK])),
    "inner-product-imaginary": lambda k: linalg.inner_product(
        np.diag([1.0, 0.0]), np.diag([1.0 + 1j * k * SLACK, 0.0])),
    "lifting-trace-match": lambda k: sdp.check_quantum_lifting(CouplingProblem(
        DensityOperator(np.diag(HALF)), DensityOperator(np.diag([0.5, 0.5 - k * SLACK])),
        Subspace.full(4))),
    "maxflow-float-totals": lambda k: classical.check_lifting_maxflow(
        HALF, [0.5, 0.5 - k * SLACK], Relation.full(2, 2)),
    "parse-density-trace-check": lambda k: jsonio.parse_density(
        {"re": [[0.5, 0.0], [0.0, 0.5 - k * SLACK]], "trace_check": True}),
    "coupling-tensor-trace": lambda k: quantum.coupling_tensor(
        DensityOperator(np.diag([0.5, 0.5 - k * SLACK])), quantum.uniform_density(2)),
    # ||U^dagger U - I||_F = sqrt(2) * k * SLACK, against SLACK * sqrt(d)
    "coupling-unitary": lambda k: quantum.coupling_unitary(
        np.array([[1.0, k * SLACK], [0.0, 1.0]])),
    "identity-basis-orthonormal": lambda k: quantum.coupling_identity_basis(
        quantum.uniform_density(2), np.array([[1.0, k * SLACK / np.sqrt(2)], [0.0, 1.0]])),
    # the rotated state's off-diagonal part has norm 0.2 * sqrt(2) * sin(2 theta)
    "identity-basis-diagonalizes": lambda k: quantum.coupling_identity_basis(
        DensityOperator(np.diag([0.7, 0.3])),
        _rotation(np.arcsin(k * SLACK / (0.2 * np.sqrt(2))) / 2)),
    # the floor is for the solver's own witnesses, which are built unchecked
    "extract-joint-floor": lambda k: reduction.extract_joint(
        DensityOperator._trusted(np.diag([0.5, 0.5, 0.0, -k * SLACK]).astype(complex)), 2, 2),
}
DOOR |= {f"slack-{name}": lambda f=f: f(2.0) for name, f in SLACK_DOOR.items()}

# (diag(1, 0), diag(0, 1), span{|00>}) has no coupling at all, yet at an
# infinite tolerance I/4 would pass as one: every public verifier rejects a
# tol that is not finite and positive.
POINT = CouplingProblem(
    DensityOperator(np.diag([1.0, 0.0])),
    DensityOperator(np.diag([0.0, 1.0])),
    Subspace.from_span([[1.0, 0.0, 0.0, 0.0]]),
)
MIXED = DensityOperator(np.eye(4) / 4)
for _name, _tol in {"zero": 0.0, "negative": -1.0, "nan": NAN, "inf": INF}.items():
    DOOR |= {
        f"is-coupling-tol-{_name}": lambda t=_tol: quantum.is_coupling(
            MIXED, POINT.rho1, POINT.rho2, t),
        f"is-lifting-witness-tol-{_name}": lambda t=_tol: quantum.is_lifting_witness(
            MIXED, POINT, t),
        f"equal-trace-tol-{_name}": lambda t=_tol: quantum.couplings_imply_equal_trace(
            MIXED, POINT.rho1, POINT.rho2, t),
        f"certificate-tol-{_name}": lambda t=_tol: sdp.verify_dual_certificate(
            np.eye(2), np.eye(2), POINT, t),
    }
    # tol = 0 stays open to the classical verifier: an exact check, which
    # Fraction inputs can pass
    if _tol != 0.0:
        DOOR[f"classical-witness-tol-{_name}"] = lambda t=_tol: (
            classical.is_lifting_witness_classical(
                [[0.25, 0.25], [0.25, 0.25]], [1.0, 0.0], [0.0, 1.0],
                Relation.from_pairs(2, 2, [(0, 0)]), t))


@pytest.mark.parametrize("call", DOOR.values(), ids=DOOR.keys())
def test_public_entry_points_reject_invalid_input(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("door", SLACK_DOOR.values(), ids=SLACK_DOOR.keys())
def test_slack_doors_accept_half_the_slack(door):
    door(0.5)


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
        assert np.linalg.eigvalsh(w)[0] >= -SLACK
        assert np.trace(w).real <= 1.0 + SLACK
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
