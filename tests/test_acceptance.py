"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
criterion also asserts, so a FAIL line always fails the test run. The
Theorem-2 sweep (criteria 1 and 2) is computed once and shared.
"""

from fractions import Fraction as Fr

import numpy as np
import pytest

from qcoupling import classical, linalg, quantum, reduction, sdp
from qcoupling.classical import Relation
from qcoupling.errors import InputError, SolverFailure
from qcoupling.quantum import CouplingProblem, DensityOperator

from helpers import (
    all_relations,
    rand_density,
    rand_hermitian,
    rand_matched_rationals,
    rand_relation,
    rand_subspace,
    rand_unitary,
)


def _report(num: int, label: str, ok: bool, detail: str):
    print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _embedded(mu1, mu2, rel):
    return CouplingProblem(
        reduction.embed_distribution(mu1),
        reduction.embed_distribution(mu2),
        reduction.embed_relation(rel),
    )


# ---------------------------------------------------------------- criteria 1+2

_SWEEP: dict = {}


def _theorem2_sweep():
    """512 relations on [3]x[3], 20 rational pairs each, solved and checked."""
    if _SWEEP:
        return _SWEEP
    rng = np.random.default_rng(20260821)
    disagree = []
    bad_witness = []
    bad_certificate = []
    n_exists = n_not = 0
    max_residual = 0.0
    max_leakage = 0.0
    min_margin = float("inf")
    for rel in all_relations(3, 3):
        for _ in range(20):
            mu1, mu2 = rand_matched_rationals(rng, 3, 3)
            problem = _embedded(mu1, mu2, rel)
            verdict = sdp.check_quantum_lifting(problem)
            expect = classical.check_strassen_exhaustive(mu1, mu2, rel) is None
            if verdict.exists != expect:
                disagree.append((mu1, mu2, sorted(rel.pairs)))
                continue
            if verdict.exists:
                n_exists += 1
                r1, r2 = quantum.marginal_deviation(
                    verdict.witness, problem.rho1, problem.rho2
                )
                leak = quantum.support_leakage(verdict.witness, problem.subspace)
                max_residual = max(max_residual, r1, r2)
                max_leakage = max(max_leakage, leak)
                if not quantum.is_lifting_witness(verdict.witness, problem, 1e-6):
                    bad_witness.append(sorted(rel.pairs))
            else:
                n_not += 1
                y1, y2 = verdict.certificate
                if not sdp.verify_dual_certificate(y1, y2, problem, 1e-6):
                    bad_certificate.append(sorted(rel.pairs))
                else:
                    margin = quantum.expectation(y1, problem.rho1) - quantum.expectation(
                        y2, problem.rho2
                    )
                    min_margin = min(min_margin, margin)
    _SWEEP.update(
        total=n_exists + n_not + len(disagree),
        disagree=disagree,
        bad_witness=bad_witness,
        bad_certificate=bad_certificate,
        n_exists=n_exists,
        n_not=n_not,
        max_residual=max_residual,
        max_leakage=max_leakage,
        min_margin=min_margin,
    )
    return _SWEEP


def test_criterion_1_decision_agreement_on_embedded_instances():
    s = _theorem2_sweep()
    ok = not s["disagree"] and s["total"] == 512 * 20
    detail = (
        f"{s['total'] - len(s['disagree'])}/{s['total']} agree, "
        f"{s['n_exists']} exists / {s['n_not']} not-exists"
    )
    if s["disagree"]:
        detail += f"; first disagreement {s['disagree'][0]}"
    _report(1, "quantum vs exhaustive on all [3]x[3] relations x 20 pairs", ok, detail)


def test_criterion_2_verdict_soundness_across_the_sweep():
    s = _theorem2_sweep()
    ok = not s["bad_witness"] and not s["bad_certificate"]
    detail = (
        f"max marginal residual {s['max_residual']:.2e}, "
        f"max support leakage {s['max_leakage']:.2e}, "
        f"min certificate margin {s['min_margin']:.2e}"
    )
    if not ok:
        detail = (
            f"{len(s['bad_witness'])} witnesses / "
            f"{len(s['bad_certificate'])} certificates failed verification; " + detail
        )
    _report(2, "every witness and certificate re-verifies", ok, detail)


# ------------------------------------------------------------------ criterion 3


def test_criterion_3_random_quantum_instances():
    rng = np.random.default_rng(77)
    failures = []
    max_gap = max_res = 0.0
    max_full_dev = 0.0
    for k in range(200):
        t = float(rng.uniform(0.3, 1.0))
        rho1 = rand_density(rng, 3, trace=t, rank=int(rng.integers(1, 4)))
        u = rand_unitary(rng, 3)
        rho2 = DensityOperator(u @ rho1.mat @ u.conj().T)
        sub = rand_subspace(rng, 9, int(rng.integers(1, 10)))
        problem = CouplingProblem(rho1, rho2, sub)
        try:
            verdict = sdp.check_quantum_lifting(problem)
        except SolverFailure as err:
            failures.append(f"instance {k}: {err}")
            continue
        sol = verdict.diagnostics
        if verdict.exists:
            # Exists stops at the first primal iterate within eps of tr(rho1)
            if not (
                sol.primal_residual <= sdp.EPS_SOLVE
                and problem.rho1.trace - sol.primal_value <= sdp.EPS_SOLVE
            ):
                failures.append(f"instance {k}: Exists iterate is not eps-optimal")
        elif not (
            sol.dual_residual <= sdp.EPS_SOLVE
            and sol.dual_value < problem.rho1.trace - sdp.EPS_DECIDE
        ):
            # NotExists stops at the first dual iterate that refutes every coupling
            failures.append(f"instance {k}: NotExists iterate does not refute")
        # the SDP itself still converges on every instance
        conv = sdp.solve_coupling_sdp(problem)
        max_gap = max(max_gap, conv.gap)
        max_res = max(max_res, conv.primal_residual, conv.dual_residual)
        if max(conv.gap, conv.primal_residual, conv.dual_residual) > 1e-8:
            failures.append(f"instance {k}: gap/residual above 1e-8")
        if verdict.exists:
            if not quantum.is_lifting_witness(verdict.witness, problem, 1e-6):
                failures.append(f"instance {k}: witness failed")
        else:
            y1, y2 = verdict.certificate
            if not sdp.verify_dual_certificate(y1, y2, problem, 1e-6):
                failures.append(f"instance {k}: certificate failed")
        # the full space always admits a lifting with optimum tr(rho1)
        full = CouplingProblem(rho1, rho2, linalg.Subspace.full(9))
        fsol = sdp.solve_coupling_sdp(full)
        max_full_dev = max(max_full_dev, abs(fsol.primal_value - t))
    ok = not failures and max_full_dev <= 1e-8
    detail = (
        f"200 instances, max gap {max_gap:.2e}, max residual {max_res:.2e}, "
        f"full-space optimum off tr(rho1) by at most {max_full_dev:.2e}"
    )
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}; " + detail
    _report(3, "d=3 random states, unitarily matched, random-rank subspaces", ok, detail)


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_classical_checker_equivalence():
    rng = np.random.default_rng(4)
    disagree = inexact = 0
    total = violating = 0
    for rel in all_relations(3, 3):
        for _ in range(50):
            mu1, mu2 = rand_matched_rationals(rng, 3, 3)
            total += 1
            viol = classical.check_strassen_exhaustive(mu1, mu2, rel)
            cv = classical.check_lifting_maxflow(mu1, mu2, rel)
            if cv.exists != (viol is None):
                disagree += 1
                continue
            if cv.exists:
                # exact rational mode: the witness marginals match exactly
                if not classical.is_lifting_witness_classical(
                    cv.witness, mu1, mu2, rel, tol=0
                ):
                    inexact += 1
            else:
                violating += 1
                s = cv.violating
                image = classical.relation_image(rel, s)
                lhs = sum((mu1[i] for i in s), Fr(0))
                rhs = sum((mu2[j] for j in image), Fr(0))
                if not lhs > rhs:
                    inexact += 1
    ok = disagree == 0 and inexact == 0 and total == 512 * 50
    detail = (
        f"{total - disagree}/{total} agree, {violating} violating sets, "
        f"all witnesses and violations exact"
    )
    if not ok:
        detail = f"{disagree} disagreements, {inexact} inexact proof objects; " + detail
    _report(4, "max-flow vs exhaustive on all [3]x[3] relations x 50 pairs", ok, detail)


# ------------------------------------------------------------------ criterion 5


def test_criterion_5_observable_pair_suite():
    rng = np.random.default_rng(5)
    problems = []

    # level-set reconstruction, exact, with strictly decreasing supports
    recon_trials = 300
    for _ in range(recon_trials):
        k = int(rng.integers(1, 7))
        y1 = [Fr(int(rng.integers(0, 25)), int(rng.integers(1, 13))) for _ in range(k)]
        decomp = classical.level_set_decomposition(y1)
        back = [Fr(0)] * k
        prev_support = None
        for lam, z in decomp:
            if lam <= 0:
                problems.append("nonpositive level coefficient")
            support = {i for i, v in enumerate(z) if v}
            if prev_support is not None and not support < prev_support:
                problems.append("level supports do not strictly decrease")
            prev_support = support
            back = [b + lam * v for b, v in zip(back, z)]
        if back != y1:
            problems.append(f"reconstruction mismatch {y1}")

    # y2_min equals the per-column maximum and every valid Y2 dominates it
    minimality_trials = 1000
    for _ in range(minimality_trials):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rel = rand_relation(rng, m, n)
        y1 = [Fr(int(rng.integers(0, 13)), 12) for _ in range(m)]
        ymin = classical.y2_min(y1, rel)
        colmax = [
            max((y1[i] for i in range(m) if (i, j) in rel.pairs), default=Fr(0))
            for j in range(n)
        ]
        if ymin != colmax:
            problems.append(f"y2_min disagrees with the column maxima: {y1}")
            continue
        draw = [Fr(int(rng.integers(0, 25)), 12) for _ in range(n)]
        valid = [max(c, v) for c, v in zip(colmax, draw)]  # valid by construction
        if any(v < m_ for v, m_ in zip(valid, ymin)):
            problems.append("a valid observable fell below y2_min")

    # domination for all S implies the expectation inequality, via y2_min
    forward = 0
    while forward < 200:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rel = rand_relation(rng, m, n)
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        if classical.check_strassen_exhaustive(mu1, mu2, rel) is not None:
            continue
        y1 = [Fr(int(rng.integers(0, 13)), 12) for _ in range(m)]
        if not classical.check_statement_2prime(
            mu1, mu2, rel, y1, classical.y2_min(y1, rel)
        ):
            problems.append(f"expectation inequality failed on a dominated instance")
        forward += 1

    # a violated S, rephrased as 0/1 observables, breaks the inequality
    backward = 0
    while backward < 200:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rel = rand_relation(rng, m, n)
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        viol = classical.check_strassen_exhaustive(mu1, mu2, rel)
        if viol is None:
            continue
        y1 = [Fr(1) if i in viol else Fr(0) for i in range(m)]
        if classical.check_statement_2prime(
            mu1, mu2, rel, y1, classical.y2_min(y1, rel)
        ):
            problems.append(f"indicator pair failed to refute: S = {sorted(viol)}")
        backward += 1

    ok = not problems
    detail = (
        f"reconstruction exact on {recon_trials}, minimality on "
        f"{minimality_trials} trials, implication checked both ways on 200 each"
    )
    if problems:
        detail = f"{len(problems)} problems, first: {problems[0]}"
    _report(5, "level sets, minimal completions, both implication directions", ok, detail)


# ------------------------------------------------------------------ criterion 6


def _example_flip_couplings():
    flip = [Fr(1, 2), Fr(1, 2)]
    mu_id = [[Fr(1, 2), Fr(0)], [Fr(0), Fr(1, 2)]]
    mu_neg = [[Fr(0), Fr(1, 2)], [Fr(1, 2), Fr(0)]]
    eq = Relation.equality(2)
    neg = Relation.from_pairs(2, 2, [(0, 1), (1, 0)])
    assert classical.marginals(mu_id) == (flip, flip)
    assert classical.marginals(mu_neg) == (flip, flip)
    assert classical.is_lifting_witness_classical(mu_id, flip, flip, eq, tol=0)
    assert classical.is_lifting_witness_classical(mu_neg, flip, flip, neg, tol=0)
    assert not classical.is_lifting_witness_classical(mu_neg, flip, flip, eq, tol=0)


def _example_bijection_coupling():
    f = {0: 2, 1: 0, 2: 1}
    mu1 = [Fr(1, 2), Fr(1, 3), Fr(1, 6)]
    mu2 = [Fr(0)] * 3
    joint = [[Fr(0)] * 3 for _ in range(3)]
    for i, j in f.items():
        joint[i][j] = mu1[i]
        mu2[j] = mu1[i]
    graph = Relation.from_pairs(3, 3, list(f.items()))
    assert classical.marginals(joint) == (mu1, mu2)
    assert classical.is_lifting_witness_classical(joint, mu1, mu2, graph, tol=0)
    cv = classical.check_lifting_maxflow(mu1, mu2, graph)
    assert cv.exists
    assert [list(row) for row in cv.witness] == joint  # the witness is unique here


def _example_identity_coupling_two_bases():
    half = quantum.uniform_density(2)
    comp, sub_comp = quantum.coupling_identity_basis(half, basis=np.eye(2))
    hada = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rot, sub_rot = quantum.coupling_identity_basis(half, basis=hada)
    expect_comp = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.linalg.norm(comp.mat - expect_comp) <= 1e-9
    for rho, sub in ((comp, sub_comp), (rot, sub_rot)):
        problem = CouplingProblem(half, half, sub)
        assert quantum.is_lifting_witness(rho, problem, 1e-9)
    # same pair of marginals, genuinely different couplings
    assert np.linalg.norm(comp.mat - rot.mat) > 0.1


def _example_tensor_coupling():
    rng = np.random.default_rng(6)
    rho1 = rand_density(rng, 2)
    rho2 = rand_density(rng, 3)
    rho = quantum.coupling_tensor(rho1, rho2)
    r1, r2 = quantum.marginal_deviation(rho, rho1, rho2)
    assert max(r1, r2) <= 1e-9
    with pytest.raises(InputError):
        quantum.coupling_tensor(rand_density(rng, 2, trace=0.5), rho2)


def _example_bell_witness():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        basis = rand_unitary(rng, d)
        span = [np.kron(basis[:, i], basis[:, i]) for i in range(d)]
        psi = sum(span) / np.sqrt(d)
        bell = DensityOperator(np.outer(psi, psi.conj()))
        problem = CouplingProblem(
            quantum.uniform_density(d),
            quantum.uniform_density(d),
            linalg.Subspace.from_span(span),
        )
        assert quantum.is_lifting_witness(bell, problem, 1e-9)
        verdict = sdp.check_quantum_lifting(problem)
        assert verdict.exists


def _example_unitary_couplings_differ():
    rho_i, sub_i = quantum.coupling_unitary(np.eye(2))
    rho_x, sub_x = quantum.coupling_unitary(np.array([[0, 1], [1, 0]]))
    assert np.linalg.norm(rho_i.mat - np.diag([0.5, 0, 0, 0.5])) <= 1e-9
    assert np.linalg.norm(rho_x.mat - np.diag([0, 0.5, 0.5, 0])) <= 1e-9
    half = quantum.uniform_density(2)
    assert quantum.is_lifting_witness(rho_i, CouplingProblem(half, half, sub_i), 1e-9)
    assert quantum.is_lifting_witness(rho_x, CouplingProblem(half, half, sub_x), 1e-9)
    assert np.linalg.norm(rho_i.mat - rho_x.mat) > 0.5


def test_criterion_6_worked_example_regressions():
    examples = {
        "flip-couplings": _example_flip_couplings,
        "bijection-coupling": _example_bijection_coupling,
        "identity-coupling-two-bases": _example_identity_coupling_two_bases,
        "tensor-coupling": _example_tensor_coupling,
        "bell-witness": _example_bell_witness,
        "unitary-couplings-differ": _example_unitary_couplings_differ,
    }
    failed = []
    for name, fn in examples.items():
        try:
            fn()
        except AssertionError:
            failed.append(name)
    ok = not failed
    detail = (
        f"all {len(examples)} named examples reproduced to 1e-9"
        if ok
        else "failed: " + ", ".join(failed)
    )
    _report(6, "worked examples regression", ok, detail)


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_numerics():
    rng = np.random.default_rng(7)
    max_recon = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        h = rand_hermitian(rng, d)
        spec = linalg.hermitian_eig(h)
        v = spec.eigenvectors
        rel = np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - h) / max(
            np.linalg.norm(h), 1e-300
        )
        max_recon = max(max_recon, rel)

    max_adj = 0.0
    for _ in range(200):
        d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = rand_hermitian(rng, d1 * d2)
        n1 = rand_hermitian(rng, d1)
        n2 = rand_hermitian(rng, d2)
        lhs = linalg.inner_product(
            linalg.partial_trace(m, d1, d2, "second"), n1
        ) + linalg.inner_product(linalg.partial_trace(m, d1, d2, "first"), n2)
        star = linalg.tensor(n1, np.eye(d2)) + linalg.tensor(np.eye(d1), n2)
        rhs = linalg.inner_product(m, star)
        scale = max(abs(lhs), abs(rhs), 1.0)
        max_adj = max(max_adj, abs(lhs - rhs) / scale)

    ok = max_recon <= 1e-9 and max_adj <= 1e-9
    detail = (
        f"1000 eigendecompositions, worst relative reconstruction {max_recon:.2e}; "
        f"200 adjointness triples, worst relative deviation {max_adj:.2e}"
    )
    _report(7, "eigensolver reconstruction and marginal-map adjointness", ok, detail)


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_equal_trace_necessity():
    rejected = False
    try:
        sdp.check_quantum_lifting(
            CouplingProblem(
                quantum.uniform_density(2),
                DensityOperator(np.diag([0.3, 0.3]).astype(complex)),
                linalg.Subspace.full(4),
            )
        )
    except InputError:
        rejected = True

    rng = np.random.default_rng(88)
    max_dev = 0.0
    for k in range(100):
        kind = k % 3
        if kind == 0:
            d = int(rng.integers(2, 5))
            rho, _ = quantum.coupling_unitary(rand_unitary(rng, d))
            d1 = d2 = d
        elif kind == 1:
            d = int(rng.integers(2, 5))
            state = rand_density(rng, d)
            rho, _ = quantum.coupling_identity_basis(state)
            d1 = d2 = d
        else:
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            rho = quantum.coupling_tensor(rand_density(rng, d1), rand_density(rng, d2))
        m1 = DensityOperator(linalg.partial_trace(rho.mat, d1, d2, "second"))
        m2 = DensityOperator(linalg.partial_trace(rho.mat, d1, d2, "first"))
        t1, t2 = quantum.couplings_imply_equal_trace(rho, m1, m2)
        max_dev = max(max_dev, abs(t1 - t2))

    ok = rejected and max_dev <= 1e-12
    detail = (
        f"trace mismatch rejected, max |tr(rho1) - tr(rho2)| = {max_dev:.2e} "
        f"over 100 constructor couplings"
    )
    if not rejected:
        detail = "trace mismatch was NOT rejected; " + detail
    _report(8, "equal traces are necessary and preserved by constructors", ok, detail)
