"""Diagonal embedding of classical lifting problems into quantum ones.

A sub-distribution becomes the diagonal state with its weights, and a
relation becomes the span of the computational product vectors |ij> it
contains. Classical lifting witnesses embed as diagonal coupling
witnesses; conversely the diagonal of any quantum witness for an
embedded problem is already a classical witness, so the two checkers
must agree verdict-for-verdict. cross_check runs both sides on the same
instance and translates whichever witness appears across the divide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical, linalg, quantum, sdp
from .classical import Relation
from .errors import SLACK, InputError, NumericalError
from .quantum import CouplingProblem, DensityOperator


@dataclass(frozen=True)
class EmbeddingReport:
    """Verdicts from both checkers on one instance, plus witness round-trip.

    witness_roundtrip_error is the largest marginal deviation seen when
    translating a witness to the other side (0.0 when both say NotExists).
    agreement is simply classical_verdict == quantum_verdict.
    """

    classical_verdict: str
    quantum_verdict: str
    witness_roundtrip_error: float
    agreement: bool


def _diag(weights) -> np.ndarray:
    return np.diag(np.array(weights, dtype=np.float64)).astype(np.complex128)


def embed_distribution(weights) -> DensityOperator:
    """Diagonal state with rho[i, i] = mu(i)."""
    return DensityOperator(_diag(classical.check_subdistribution(weights)))


def embed_relation(relation: Relation) -> linalg.Subspace:
    """span{|i>|j> : (i, j) in R} as a diagonal projector, built exactly:
    its 0/1 diagonal is a projector by construction, so it is not checked."""
    d = relation.m * relation.n
    p = np.zeros((d, d), dtype=np.complex128)
    for i, j in relation.pairs:
        k = linalg.pair_index(i, j, relation.n)
        p[k, k] = 1.0
    return linalg.Subspace._trusted(p)


def embed_joint(joint) -> DensityOperator:
    """Diagonal operator on the product space with mu(i, j) at index i*n+j."""
    rows = classical.check_joint(joint)
    return DensityOperator(_diag([w for r in rows for w in r]))


def extract_joint(rho: DensityOperator, m: int, n: int) -> list[list[float]]:
    """Diagonal readout mu(i, j) = <ij| rho |ij>, clamped at the -SLACK floor.

    Off-diagonal structure is deliberately ignored: for embedded problems
    only the diagonal carries classical meaning, and it already inherits
    the marginal and support properties of the full operator.
    """
    if rho.dim != m * n:
        raise InputError(f"state dimension {rho.dim} != m*n = {m * n}")
    diag = np.diagonal(rho.mat).real
    if diag.min() < -SLACK:
        raise InputError(f"diagonal entry {diag.min():.3e} below the {-SLACK:g} floor")
    return [
        [max(float(diag[linalg.pair_index(i, j, n)]), 0.0) for j in range(n)]
        for i in range(m)
    ]


def cross_check(
    mu1,
    mu2,
    relation: Relation,
    eps_solve: float = sdp.EPS_SOLVE,
    eps_decide: float = sdp.EPS_DECIDE,
) -> EmbeddingReport:
    """Run both checkers on one instance and translate witnesses across.

    Classical Exists: the max-flow witness is embedded and must verify
    quantum-side. Quantum Exists: the SDP witness's diagonal is extracted
    and must verify classical-side. Both verify at 10*eps_solve; a failure
    to translate is a numerical failure, not a verdict. Max-flow validates
    the weights, so the diagonal states, the embedded witness among them,
    are built unchecked, from the weights converted to floats once.
    """
    cv = classical.check_lifting_maxflow(mu1, mu2, relation)
    flo1, flo2 = [float(w) for w in mu1], [float(w) for w in mu2]
    state = lambda weights: DensityOperator._trusted(_diag(weights))
    problem = CouplingProblem(state(flo1), state(flo2), embed_relation(relation))
    qv = sdp.check_quantum_lifting(problem, eps_solve, eps_decide)
    tol = sdp._VERIFY_FACTOR * eps_solve

    roundtrip = 0.0
    if cv.exists:
        embedded = state([w for r in cv.witness for w in r])
        roundtrip = max(quantum.marginal_deviation(embedded, problem.rho1, problem.rho2))
        if not quantum.is_lifting_witness(embedded, problem, tol):
            raise NumericalError("embedded classical witness failed quantum verification")
    if qv.exists:
        joint = extract_joint(qv.witness, relation.m, relation.n)
        ext1, ext2 = classical._sums(joint)
        roundtrip = max([roundtrip] + [abs(a - b) for a, b in zip(ext1 + ext2, flo1 + flo2)])
        if not classical._is_witness(joint, flo1, flo2, relation, tol):
            raise NumericalError("extracted quantum witness failed classical verification")

    tag = lambda exists: "exists" if exists else "not_exists"
    return EmbeddingReport(tag(cv.exists), tag(qv.exists), roundtrip, cv.exists == qv.exists)
