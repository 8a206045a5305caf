"""Deciding quantum lifting existence by semidefinite programming.

The primal problem maximizes <P_X, X> over bipartite states X with both
partial traces pinned: tr_2(X) = rho1, tr_1(X) = rho2, X >= 0. A lifting
witness exists exactly when the optimum reaches tr(rho1). The dual
minimizes <rho1, Y1> + <rho2, Y2> subject to Y1 (x) I + I (x) Y2 >= P_X,
and a dual point with value below tr(rho1) converts into a separating
certificate pair (see the end of this docstring).

The solver is an infeasible-start primal-dual path-following method with
Mehrotra-style adaptive centering. Each iteration eliminates the primal
and slack directions and solves a Schur system on the dual block; that
operator is positive semidefinite with a one-dimensional kernel spanned by
(I1, -I2) (both constraint blocks fix the same total trace), which is
deflated exactly: each Newton direction is one LU solve of the deflated,
positive-definite matrix, with no refinement pass and no ridge. Strict
dual feasibility always holds at the start Y = (I1, I2), Z = 2I - P_X >= I.

The loop is written once and runs on one of two cones, chosen once per
problem from its input. If every off-diagonal entry of rho1, rho2 and the
projector P is exactly 0.0, as for every embedded Theorem-2 instance and
for span{|ii>} with diagonal marginals, the iterates stay diagonal and the
problem is an LP on the diagonals, decided on vectors from input to proof
object: the supports are read off the marginals' diagonals by the one
support rule, compression is indexing, the diagonal cone keeps X and Z as
length-D vectors and Y1, Y2 as length-d1 and -d2 vectors, its Schur matrix
is the (d1+d2)-square [[diag(G 1), G], [G^T, diag(1^T G)]] with G = X/Z as
a d1 x d2 array, its step length is the ratio test, and the lift scatters
into zeros. No D x D matrix is formed before verification: only the
returned witness and certificate become (diagonal) matrices, checked
against the original problem like any other. This is the
fixed-point-algebra reduction of Gatermann & Parrilo ("Symmetry groups,
semidefinite programs, and sums of squares", 2004) in its simplest case.
Any other input, a round-off entry included, runs on the dense cone
described next, even when its compression happens to be diagonal, so the
choice can change the cost but not a verdict.

On the dense cone the dual block is Herm(d1) (+) Herm(d2), and a Hermitian
n x n matrix h has the n*n real coordinates (Re h + Im h).ravel(): Re h is
symmetric and Im h antisymmetric, so the map is an isometry, and its
inverse takes C = v.reshape(n, n) to C*(1+i)/2 plus its conjugate
transpose, which is exactly Hermitian in floating point.

The Schur entries <G_a, X G_b Z^-1>, with G = E (x) I or I (x) E, are
contracted straight from X and Z^-1 viewed as (d1, d2, d1, d2) tensors, one
block per pair of constraint families with rows and columns indexed by
matrix units, and each block is read into the coordinates through four
axis permutations of its 4-D view; no stacked Phi*(basis) tensor and no
basis matrix exists. That is O(d^6) time and O(d^4) memory per iteration
for d1 = d2 = d. X and Z are Cholesky-factored once per
iterate; the inverse factors give Z^-1 and all four step-length tests.
The iterates are Hermitian by construction, so only products are
symmetrized. The loop has no fallback: a LinAlgError in it, like the
iteration cap, ends the solve as a SolverFailure with the best iterate.

Every feasible X lives on supp(rho1) (x) supp(rho2), so a rank-deficient
marginal leaves no strictly feasible X and a raw iteration stalls or breaks
down. Every problem is therefore solved on its compression to that product
support (facial reduction; Drusvyatskiy & Wolkowicz, "The many faces of
degeneracy in conic optimization", 2017), where the marginals are positive
definite, and lifted back (the primal optimizer exactly, the dual pair
padded with zeros off the supports). For full-rank marginals the
compression is the change to their eigenbases.

The dual iterates stay feasible up to round-off, so each one bounds the
optimum from above (weak duality), and the optimum is also bounded by
tr(rho1), since no coupling puts more mass in the subspace. A decision
therefore stops at the first iterate that settles it, dual or primal, with
its gap possibly far above eps (solve_coupling_sdp states the rule).
On the dense cone a NotExists certificate is the stopping dual completed
to a strictly feasible full-space pair (spending at most a quarter of its
trace margin; its dual residual bounds the slack), condition-A transformed,
shifted to PSD and rescaled, in one pass with eigvalsh as its one spectral
routine. On the diagonal cone it is Strassen's 0/1 pair (1_S, 1_R(S)) for
a sub-level set S of the dual y1 with rho1(S) > rho2(R(S)), whose trace gap
is that deficiency. An Exists witness is the stopping
primal iterate, lifted and rescaled to trace tr(rho1): every iterate is
positive definite, so the witness is a state by construction and is never
diagonalized. A verdict keeps its proof object and the stopping iterate's
numbers; the iterate's arrays stay with solve_coupling_sdp's SdpSolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import linalg, quantum
from .errors import SLACK, InputError, SolverFailure, check_threshold
from .quantum import CouplingProblem, DensityOperator

EPS_SOLVE = 1e-8
EPS_DECIDE = 1e-6

_VERIFY_FACTOR = 10.0  # proof objects verify at 10*eps_solve, the Exists stop's residual
_MAX_ITER = 200
_BOUNDARY = 0.98
_FLAT = 1e-16  # a direction eigenvalue above -_FLAT bounds no step
_SIGMA_MIN, _SIGMA_MAX = 0.01, 0.9


@dataclass(frozen=True)
class IterateStats:
    """The numbers of one interior-point iterate: objective values, duality
    gap, residuals and the iteration count."""

    primal_value: float
    dual_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int


@dataclass(frozen=True, init=False)
class SdpSolution(IterateStats):
    """An iterate's numbers plus its primal/dual pair: matrices, or for an
    exactly diagonal problem (decided on the diagonal cone) their diagonals
    as 1-D arrays.

    Built as SdpSolution(primal_x, dual_y1, dual_y2, *numbers), with the
    numbers in IterateStats' field order, or with any of them by name."""

    primal_x: np.ndarray
    dual_y1: np.ndarray
    dual_y2: np.ndarray

    def __init__(self, primal_x, dual_y1, dual_y2, *numbers, **named):
        super().__init__(*numbers, **named)
        object.__setattr__(self, "primal_x", primal_x)
        object.__setattr__(self, "dual_y1", dual_y1)
        object.__setattr__(self, "dual_y2", dual_y2)

    def stats(self) -> IterateStats:
        """The iterate's numbers alone, without its matrices."""
        return IterateStats(*(getattr(self, f.name) for f in fields(IterateStats)))


@dataclass(frozen=True)
class LiftingVerdict:
    """Decision plus its proof object.

    exists=True carries a witness state; exists=False carries a certificate
    pair (Y1, Y2) with P_perp >= Y1 (x) I - I (x) Y2 and
    tr(rho1 Y1) > tr(rho2 Y2). The witness is the stopping primal iterate
    itself, rescaled to trace tr(rho1) and never diagonalized. diagnostics
    holds the numbers of the underlying solve's stopping iterate and no
    matrix: the first iterate that settles the decision, by the stop rule of
    ``solve_coupling_sdp``. For Exists that is a primal iterate, whose gap
    and dual residual may be far above eps_solve and whose primal residual
    may reach 10*eps_solve. For NotExists it is, short of a
    threshold-boundary input, the first whose dual refutes every coupling,
    and its gap and primal residual may be far above eps_solve.
    """

    exists: bool
    witness: DensityOperator | None
    certificate: tuple[np.ndarray, np.ndarray] | None
    diagnostics: IterateStats


def _coords(h: np.ndarray) -> np.ndarray:
    """The n*n real coordinates (Re h + Im h).ravel() of Hermitian h."""
    return (h.real + h.imag).ravel()


def _from_coords(v: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix with coordinates v: C*(1+i)/2 plus its
    conjugate transpose, for C = v.reshape(n, n)."""
    h = v.reshape(n, n) * (0.5 + 0.5j)
    return h + h.conj().T


@lru_cache(maxsize=32)
def _eye(n: int) -> np.ndarray:
    """Read-only real identity of order n, shared by every caller."""
    e = np.eye(n)
    e.flags.writeable = False
    return e


def _in_coords(m: np.ndarray) -> np.ndarray:
    """The real block S[a,b] = Re sum_uv h_a[u] M[u,v] h_b[v] of a
    contraction M over matrix units, given as its 4-D view m[i,j,p,q] =
    M[(i,j),(p,q)]; h_a is the Hermitian matrix with coordinates e_a,
    ((1+i) e_ij + (1-i) e_ji)/2 for a = (i,j). With a' the transposed unit,
    S[a,b] = (Re M[a',b] + Re M[a,b'] + Im M[a',b'] - Im M[a,b])/2."""
    n1, n2 = m.shape[0] ** 2, m.shape[2] ** 2
    s = (m.transpose(1, 0, 2, 3).real + m.transpose(0, 1, 3, 2).real
         + m.transpose(1, 0, 3, 2).imag - m.imag)
    return s.reshape(n1, n2) / 2.0


def _schur(x: np.ndarray, zinv: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Schur matrix Re<G_a, X G_b Z^-1> in the coordinates of Herm(d1) (+)
    Herm(d2) (_coords), with G_a = h_a (x) I on the first block and
    I (x) h_a on the second.

    Over matrix units each block is one contraction of X and Z^-1
    viewed as (d1, d2, d1, d2) tensors; e.g. tr((e_ij (x) I) X (e_pr (x) I)
    Z^-1) = sum_kq X[j,k,p,q] Z^-1[r,q,i,k]. Each contraction runs as one
    matrix product of regrouped copies of X and Z^-1, and _in_coords reads
    it into the coordinates. The second off-diagonal block is the transpose
    of the first because X and Z^-1 are Hermitian.
    """
    xt = x.reshape(d1, d2, d1, d2)
    wt = zinv.reshape(d1, d2, d1, d2)
    n1, n2, d = d1 * d1, d2 * d2, d1 * d2
    # c11[(j,p),(r,i)], c12[(j,q),(i,s)], c22[(l,q),(k,s)], each summed over
    # the two indices on which the pair of G's acts as the identity
    c11 = xt.transpose(0, 2, 1, 3).reshape(n1, n2) @ wt.transpose(3, 1, 0, 2).reshape(n2, n1)
    c12 = xt.transpose(0, 3, 1, 2).reshape(d, d) @ wt.transpose(3, 0, 2, 1).reshape(d, d)
    c22 = xt.transpose(1, 3, 0, 2).reshape(n2, n1) @ wt.transpose(2, 0, 3, 1).reshape(n1, n2)
    schur = np.empty((n1 + n2, n1 + n2))
    schur[:n1, :n1] = _in_coords(c11.reshape(d1, d1, d1, d1).transpose(3, 0, 1, 2))
    schur[:n1, n1:] = _in_coords(c12.reshape(d1, d2, d1, d2).transpose(2, 0, 1, 3))
    schur[n1:, :n1] = schur[:n1, n1:].T
    schur[n1:, n1:] = _in_coords(c22.reshape(d2, d2, d2, d2).transpose(2, 0, 1, 3))
    return (schur + schur.T) / 2.0


def _phi_star(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Y1 (x) I + I (x) Y2, formed by broadcasting over (d1, d2, d1, d2)."""
    d1, d2 = y1.shape[0], y2.shape[0]
    t = y1[:, None, :, None] * _eye(d2)[:, None, :] + _eye(d1)[:, None, :, None] * y2[:, None, :]
    return t.reshape(d1 * d2, d1 * d2)


def _alphas(lam) -> list[float]:
    """Largest steps along (dX, dZ) given the smallest eigenvalues lam of
    X^-1/2 dX X^-1/2 and Z^-1/2 dZ Z^-1/2: unbounded (inf) unless
    negative."""
    return [math.inf if v >= -_FLAT else -1.0 / v for v in lam]


def _step_len(linv: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> list[float]:
    """Largest alphas with X + alpha*dX and Z + alpha*dZ PSD, given the
    stacked inverse Cholesky factors of X and Z."""
    w = linv @ np.stack([dx, dz]) @ linv.conj().swapaxes(-1, -2)
    return _alphas(np.linalg.eigvalsh(linalg.herm(w))[:, 0].tolist())


def _newton_solve(m: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    """One LU solve, with no refinement pass and no ridge, of the deflated,
    positive-definite Schur system m for the dual direction (dY1, dY2) given
    the right-hand side pair (r1, r2); both travel in _coords."""
    d1, d2 = r1.shape[0], r2.shape[0]
    dy = np.linalg.solve(m, np.concatenate([_coords(r1), _coords(r2)]))
    return _from_coords(dy[: d1 * d1], d1), _from_coords(dy[d1 * d1 :], d2)


class _DenseCone:
    """The semidefinite cone: X and Z are D x D Hermitian matrices and Y1, Y2
    are d1 x d1 and d2 x d2 ones; products are matrix products, symmetrized
    where the loop asks. Cholesky factors of X and Z give Z^-1 and the
    eigenvalue step-length tests (_step_len), and the Schur matrix lives on
    the coordinates of Herm(d1) (+) Herm(d2) (_schur, _newton_solve). A
    support is an isometry, and compression and lift are congruences by it."""

    mul = staticmethod(np.matmul)
    sym = staticmethod(linalg.herm)
    kron = staticmethod(np.kron)
    traces = staticmethod(linalg.partial_traces)

    def __init__(self, d1: int, d2: int):
        self.d1, self.d2 = d1, d2

    @staticmethod
    def inputs(problem: CouplingProblem):
        """A, rho1 and rho2 as matrices, and the support isometries of rho1
        and rho2 (one cached eigendecomposition per state)."""
        rho1, rho2 = problem.rho1, problem.rho2
        return (problem.subspace.projector, rho1.mat, rho2.mat,
                rho1.support_isometry, rho2.support_isometry)

    @staticmethod
    def compress(m: np.ndarray, v: np.ndarray) -> np.ndarray:
        return linalg.herm(v.conj().T @ m @ v)

    @staticmethod
    def lift(m: np.ndarray, v: np.ndarray) -> np.ndarray:
        return linalg.herm(v @ m @ v.conj().T)

    @staticmethod
    def matrix(m: np.ndarray) -> np.ndarray:
        return m

    @staticmethod
    def trace(b: np.ndarray) -> float:
        return float(np.trace(b).real)

    eye = staticmethod(_eye)
    phi_star = staticmethod(_phi_star)
    newton = staticmethod(_newton_solve)
    step_len = staticmethod(_step_len)

    @staticmethod
    def factor(x, z):
        linv = np.linalg.inv(np.linalg.cholesky(np.stack([x, z])))
        return linv, linalg.herm(linv[1].conj().T @ linv[1])

    def schur(self, x, zinv):
        return _schur(x, zinv, self.d1, self.d2)


class _DiagonalCone:
    """The LP for problems whose off-diagonal entries are all exactly 0.0: X
    and Z are length-D vectors (the diagonals), Y1 and Y2 length-d1 and -d2
    ones, and every product is elementwise. With G = X/Z as a d1 x d2
    array, the Schur matrix is [[diag(G 1), G], [G^T, diag(1^T G)]], and a
    step length is the ratio test min(dv/v). A support is a boolean mask,
    compression is indexing and a lift scatters into zeros. A NotExists
    certificate is the 0/1 Hall pair (_hall_pair); only a proof object
    becomes a (diagonal) matrix."""

    mul = staticmethod(np.multiply)

    def __init__(self, d1: int, d2: int):
        self.d1, self.d2 = d1, d2

    @staticmethod
    def inputs(problem: CouplingProblem):
        """The diagonals of A, rho1 and rho2, and the support masks of rho1
        and rho2 (``linalg.support_mask`` of their diagonals)."""
        a, b1, b2 = (
            np.diagonal(m).real
            for m in (problem.subspace.projector, problem.rho1.mat, problem.rho2.mat)
        )
        return a, b1, b2, linalg.support_mask(b1), linalg.support_mask(b2)

    @staticmethod
    def compress(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return v[mask]

    @staticmethod
    def lift(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(mask.size)
        out[mask] = v
        return out

    @staticmethod
    def matrix(v: np.ndarray) -> np.ndarray:
        return np.diag(v.astype(np.complex128))

    @staticmethod
    def sym(v: np.ndarray) -> np.ndarray:
        return v

    @staticmethod
    def eye(n: int) -> np.ndarray:
        return np.ones(n)

    @staticmethod
    def trace(b: np.ndarray) -> float:
        return float(b.sum())

    @staticmethod
    def traces(x, d1, d2):
        t = x.reshape(d1, d2)
        return t.sum(axis=1), t.sum(axis=0)

    @staticmethod
    def kron(b1, b2):
        return np.outer(b1, b2).ravel()

    @staticmethod
    def phi_star(y1, y2):
        return (y1[:, None] + y2).ravel()

    @staticmethod
    def factor(x, z):
        # the ratio test keeps both positive; this mirrors Cholesky's refusal
        if not (x.min() > 0.0 and z.min() > 0.0):
            raise np.linalg.LinAlgError("iterate is not positive")
        return (x, z), 1.0 / z

    def schur(self, x, zinv):
        d1 = self.d1
        g = (x * zinv).reshape(d1, self.d2)
        m = np.diag(np.concatenate([g.sum(axis=1), g.sum(axis=0)]))
        m[:d1, d1:] = g
        m[d1:, :d1] = g.T
        return m

    def newton(self, m, r1, r2):
        dy = np.linalg.solve(m, np.concatenate([r1, r2]))
        return dy[: self.d1], dy[self.d1 :]

    @staticmethod
    def step_len(xz, dx, dz):
        x, z = xz
        return _alphas([float((dx / x).min()), float((dz / z).min())])


def _cone(problem: CouplingProblem):
    """The cone a problem is decided on, chosen from its input: the LP when
    it is exactly diagonal (``CouplingProblem.diagonal``), else the dense
    cone."""
    return _DiagonalCone if problem.diagonal else _DenseCone


def _check_traces(problem: CouplingProblem) -> float:
    """tr(rho1), once it is checked to match tr(rho2)."""
    t1 = problem.rho1.trace
    t2 = problem.rho2.trace
    if abs(t1 - t2) > SLACK:
        raise InputError(
            f"marginal traces differ ({t1:.12g} vs {t2:.12g}); "
            "a coupling forces equal traces"
        )
    return t1


def solve_coupling_sdp(
    problem: CouplingProblem,
    eps: float = EPS_SOLVE,
    *,
    dual_target: float | None = None,
) -> SdpSolution:
    """Solve the lifting SDP to duality gap and residuals at most eps.

    With dual_target set (a decision), it also stops at the first iterate
    that settles the decision; this is the decision's one stop rule:

    - a dual iterate with dual residual at most eps and dual value below
      dual_target, whose gap and primal residual may be far above eps; by
      weak duality it refutes every coupling;
    - a primal iterate with primal residual at most 10*eps, the tolerance
      its witness is verified at (``check_quantum_lifting``), and primal
      value within eps of tr(rho1) and at least dual_target, whose gap and
      dual residual may be far above eps. No coupling puts more than
      tr(rho1) in the subspace, so its value is eps-optimal.

    Raises InputError unless eps is finite and positive,
    and SolverFailure, with the best iterate attached, if the iteration cap
    is reached first or the loop's linear algebra raises LinAlgError. The
    initial primal point is a strictified version of the always-feasible
    product state rho1 (x) rho2 / tr(rho1).

    The problem is solved on its compression to supp(rho1) (x) supp(rho2)
    through the states' support isometries V1, V2 and lifted back; for a
    full-rank marginal V is its eigenbasis and the compression a unitary
    change of basis. The lifted primal optimizer is exact (its marginals and
    objective value are unchanged). The dual pair is padded with zeros off
    the supports, which keeps its objective value but, when a marginal is
    rank-deficient, not the full-space operator inequality: primal values,
    dual values, and the gap are the true ones, while the reported dual
    residual refers to the compressed system. The primal residual is
    recomputed against the original marginals.

    An exactly diagonal problem (``CouplingProblem.diagonal``) is solved as
    an LP on vectors from start to finish, with supports read off the
    marginals' diagonals; its solution, like the best iterate of its
    SolverFailure, holds the diagonals of X, Y1 and Y2 as 1-D real arrays
    (lengths d1*d2, d1 and d2). Any other problem runs on the dense cone,
    and its solution holds the matrices.
    """
    check_threshold("eps", eps)
    if _check_traces(problem) <= 0.0:
        raise InputError("tr(rho1) must be positive (zero states are decided upstream)")
    d1, d2 = problem.dims
    cone = _cone(problem)
    a, b1, b2, v1, v2 = cone.inputs(problem)
    w = cone.kron(v1, v2)
    at, bt1, bt2 = cone.compress(a, w), cone.compress(b1, v1), cone.compress(b2, v2)

    def lift(sol: SdpSolution) -> SdpSolution:
        x = cone.lift(sol.primal_x, w)
        p1, p2 = cone.traces(x, d1, d2)
        pres = math.hypot(np.linalg.norm(b1 - p1), np.linalg.norm(b2 - p2))
        return SdpSolution(
            x,
            cone.lift(sol.dual_y1, v1),
            cone.lift(sol.dual_y2, v2),
            sol.primal_value,
            sol.dual_value,
            sol.gap,
            float(pres),
            sol.dual_residual,
            sol.iterations,
        )

    try:
        core = _solve_core(cone(bt1.shape[0], bt2.shape[0]), at, bt1, bt2, eps, dual_target)
    except SolverFailure as err:
        raise SolverFailure(str(err), lift(err.best)) from None
    return lift(core)


def _solve_core(
    cone: _DenseCone | _DiagonalCone,
    a: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    eps: float,
    dual_target: float | None,
) -> SdpSolution:
    """Run the interior-point iteration on assembled problem data, on the
    cone given (_DenseCone or _DiagonalCone, built for the data's d1, d2)
    and in its form: matrices, or the diagonals as 1-D arrays.

    Requires strictly positive-definite b1, b2 (solve_coupling_sdp passes
    the marginals compressed to their supports) and a <= I so that
    Z = 2I - a starts strictly feasible; a need not be a projector.
    """
    d1, d2 = cone.d1, cone.d2
    d = d1 * d2
    t = cone.trace(b1)
    # the Schur operator's kernel direction (I1, -I2), in the cone's form
    kernel = np.concatenate([cone.eye(d1).ravel(), -cone.eye(d2).ravel()]) / math.sqrt(d1 + d2)
    m = kernel.size
    eye = cone.eye(d)

    x = 0.9 / t * cone.kron(b1, b2) + 0.1 * t / d * eye
    y1 = cone.eye(d1)
    y2 = cone.eye(d2)
    z = 2.0 * eye - a

    def snapshot(iters):
        # the loop rebinds x, y1, y2 and never writes into them
        return SdpSolution(x, y1, y2, pval, dval, gap, pres, dres, iters)

    def direction(corr, smu):
        # Newton direction (dX, dY1, dY2, dZ) at the current iterate, with
        # second-order term corr and centring target smu = sigma * mu;
        # direction(0, 0) is the affine predictor. Reads the loop's current
        # x, rd, xrd, zinv, zi1, zi2 and schur.
        w1, w2 = cone.traces(cone.sym(cone.mul(xrd - corr, zinv)), d1, d2)
        dy1, dy2 = cone.newton(schur, smu * zi1 - b1 + w1, smu * zi2 - b2 + w2)
        dz = cone.phi_star(dy1, dy2) - rd
        dx = smu * zinv - x - cone.sym(cone.mul(corr + cone.mul(x, dz), zinv))
        return dx, dy1, dy2, dz

    best = None
    best_score = np.inf
    try:
        for it in range(_MAX_ITER + 1):
            p1, p2 = cone.traces(x, d1, d2)
            rp1 = b1 - p1
            rp2 = b2 - p2
            rd = a + z - cone.phi_star(y1, y2)
            mu = float(np.vdot(x, z).real) / d
            pres = math.hypot(np.linalg.norm(rp1), np.linalg.norm(rp2))
            dres = float(np.linalg.norm(rd))
            pval = float(np.vdot(a, x).real)
            dval = float(np.vdot(b1, y1).real + np.vdot(b2, y2).real)
            gap = abs(dval - pval)
            score = max(gap, pres, dres)
            if score < best_score:
                best_score = score
                best = snapshot(it)
            # a decision also stops at the first iterate that settles it
            # (solve_coupling_sdp states the rule)
            decided = dual_target is not None and (
                (dres <= eps and dval < dual_target)
                or (pres <= _VERIFY_FACTOR * eps and t - pval <= eps and pval >= dual_target)
            )
            if decided or (dres <= eps and gap <= eps and pres <= eps):
                return snapshot(it)
            if it == _MAX_ITER:
                break

            factors, zinv = cone.factor(x, z)
            schur = cone.schur(x, zinv)
            deflate = max(1.0, float(np.trace(schur)) / m)
            schur = schur + deflate * np.outer(kernel, kernel)

            zi1, zi2 = cone.traces(zinv, d1, d2)
            xrd = cone.mul(x, rd)
            dxa, _, _, dza = direction(0.0, 0.0)
            ap_aff, ad_aff = (min(1.0, s) for s in cone.step_len(factors, dxa, dza))
            mu_aff = max(
                0.0, float(np.vdot(x + ap_aff * dxa, z + ad_aff * dza).real) / d
            )
            sigma = min(_SIGMA_MAX, max(_SIGMA_MIN, (mu_aff / mu) ** 3)) if mu > 0 else _SIGMA_MAX
            dx, dy1, dy2, dz = direction(cone.mul(dxa, dza), sigma * mu)

            ap, ad = (min(1.0, _BOUNDARY * s) for s in cone.step_len(factors, dx, dz))
            x = x + ap * dx
            y1 = y1 + ad * dy1
            y2 = y2 + ad * dy2
            z = z + ad * dz
    except np.linalg.LinAlgError as err:
        raise SolverFailure(
            f"interior-point linear algebra broke down at iteration {it} ({err}); "
            f"best gap {best.gap:.3e}, residuals {best.primal_residual:.3e}/"
            f"{best.dual_residual:.3e}",
            best,
        ) from err

    raise SolverFailure(
        f"interior-point solve did not reach {eps:.1e} within {_MAX_ITER} iterations "
        f"(best gap {best.gap:.3e}, residuals {best.primal_residual:.3e}/"
        f"{best.dual_residual:.3e})",
        best,
    )


def condition_a_transform(y1: np.ndarray, y2: np.ndarray):
    """Swap between dual-feasible pairs and separating pairs: Y1 -> I - Y1.

    (Y1 (x) I + I (x) Y2 >= P_X) holds iff (P_perp >= (I-Y1) (x) I - I (x) Y2),
    and applying the map twice returns the original pair.
    """
    y1 = linalg.hermitize(y1)
    return _eye(y1.shape[0]) - y1, linalg.hermitize(y2)


def _shift(y1: np.ndarray, y2: np.ndarray):
    """The positivity shift on a trusted dense pair, plus the operator norm
    of the shifted pair: both are PSD, so it is the largest eigenvalue less
    lam, read off the same LAPACK spectra that _complete_dual reads. A
    construction step, not a check."""
    w1, w2 = np.linalg.eigvalsh(y1), np.linalg.eigvalsh(y2)
    lam = min(w1[0], w2[0])
    norm = max(w1[-1], w2[-1]) - lam
    return y1 - lam * _eye(y1.shape[0]), y2 - lam * _eye(y2.shape[0]), lam, norm


def shift_positive(y1: np.ndarray, y2: np.ndarray):
    """Shift both operators by the joint minimum eigenvalue, making them PSD.

    Returns (Y1 - lam*I, Y2 - lam*I, lam). The difference
    Y1 (x) I - I (x) Y2 is unchanged, so the separating inequality is
    preserved exactly; with equal traces the expectation margin is too.
    """
    return _shift(linalg.hermitize(y1), linalg.hermitize(y2))[:3]


def _margin(y1: np.ndarray, y2: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    """Trace gap tr(rho1 Y1) - tr(rho2 Y2) of a trusted pair, with the
    marginals b1, b2 in the pair's form (matrices, or diagonals)."""
    return float(np.vdot(y1, b1).real - np.vdot(y2, b2).real)


def verify_dual_certificate(
    y1: np.ndarray,
    y2: np.ndarray,
    problem: CouplingProblem,
    tol: float = quantum.DEFAULT_TOL,
) -> bool:
    """Check a separating pair: operator inequality plus strict trace gap.

    True iff P_perp - (Y1 (x) I - I (x) Y2) is PSD within tol and
    tr(rho1 Y1) > tr(rho2 Y2) + tol. Such a pair refutes every candidate
    witness at once. The pair and tol are validated, then tested by
    ``_verify``.
    """
    check_threshold("tol", tol)
    y1, y2 = linalg.hermitize(y1), linalg.hermitize(y2)
    d1, d2 = problem.dims
    if y1.shape[0] != d1 or y2.shape[0] != d2:
        raise InputError("certificate dimensions do not match the problem")
    return _verify(y1, y2, problem, tol)


def _verify(y1: np.ndarray, y2: np.ndarray, problem: CouplingProblem, tol: float) -> bool:
    """The certificate test on a trusted Hermitian pair of the problem's
    dimensions; the difference is formed by broadcasting, as Y1 (x) I + I (x) (-Y2)."""
    diff = linalg.herm(problem.subspace.perp - _phi_star(y1, -y2))
    return linalg._is_psd(diff, tol) and _margin(y1, y2, problem.rho1.mat, problem.rho2.mat) > tol


def _complete_dual(sol: SdpSolution, v1: np.ndarray, v2: np.ndarray, t1: float):
    """Complete a lifted dense dual pair, with the support isometries v1, v2
    of the marginals, to a strictly feasible full-space one.

    The solve keeps Z positive definite with phi*(y) - A = Z - R_d on the
    support block, so that block's slack is at least -dual_residual. The
    completion adds eta * I there (spending eta * tr(rho1), at most a
    quarter of the trace margin), leaving slack eta_eff = eta -
    dual_residual, and raises the orthocomplements of the supports until
    their slack is at least 2/eta_eff, so the Schur complement across the
    cross block (norm at most ||P|| = 1) keeps slack eta_eff/2. The raise is
    sized from the pair's spectral norm, max(-lam_min, lam_max) of the
    LAPACK spectra, read as _shift reads them; it grows like 1/margin. With
    full-rank marginals I - V V^dagger is 0 only up to round-off (about
    1e-15 per entry), which big multiplies.
    """
    margin = t1 - sol.dual_value
    eta = margin / (4.0 * max(t1, 1.0))
    eta_eff = eta - sol.dual_residual
    if eta_eff <= 0.0:
        raise SolverFailure(
            "trace margin too small to complete the dual certificate "
            f"(margin {margin:.3e}, dual residual {sol.dual_residual:.3e})",
            sol,
        )
    y1, y2 = sol.dual_y1, sol.dual_y2
    norm = max(abs(np.linalg.eigvalsh(y)).max() for y in (y1, y2))
    big = 1.0 + norm + 2.0 / eta_eff
    p1, p2 = v1 @ v1.conj().T, v2 @ v2.conj().T
    y1 = linalg.herm(y1 + eta * p1 + big * (_eye(y1.shape[0]) - p1))
    y2 = linalg.herm(y2 + big * (_eye(y2.shape[0]) - p2))
    return y1, y2


def _hall_pair(y1, a, b1, b2, mask1):
    """The 0/1 certificate (diag(1_S), diag(1_R(S))) of an exactly diagonal
    problem, from the lifted dual y1, the diagonals a, b1, b2 of P, rho1,
    rho2 and the support mask1 of rho1. Each prefix of supp(rho1) sorted by
    y1 ascending is a super-level set of the transformed Y1 = const - y1; S
    is the one with the largest deficiency rho1(S) - rho2(R(S)), the pair's
    trace gap, with R(S) read off the pairs the support rule keeps on a. By
    the level-set identity behind Statement 2', S violates Hall's condition
    whenever the dual refutes every coupling."""
    order = np.flatnonzero(mask1)[np.argsort(y1[mask1], kind="stable")]
    rel = linalg.support_mask(a).reshape(b1.size, b2.size)
    reach = np.logical_or.accumulate(rel[order], axis=0)
    k = int(np.argmax(np.cumsum(b1[order]) - reach @ b2))
    s = np.zeros(b1.size, dtype=np.complex128)
    s[order[: k + 1]] = 1.0
    return np.diag(s), np.diag(reach[k].astype(np.complex128))


def _refute(
    cone, sol: SdpSolution, problem: CouplingProblem, t1: float, eps_decide: float, tol: float
) -> LiftingVerdict:
    """The NotExists verdict carried by sol's dual, once its certificate
    verifies at tol; SolverFailure (carrying sol) otherwise. On the diagonal
    cone the certificate is the 0/1 Hall pair; on the dense cone it is
    completed, condition-A transformed, shifted to PSD and rescaled to
    operator norm 1 when its scaled trace gap still exceeds both eps_decide
    and tol, all on trusted matrices."""
    a, b1, b2, v1, v2 = cone.inputs(problem)
    if cone is _DiagonalCone:
        y1, y2 = _hall_pair(sol.dual_y1, a, b1, b2, v1)
    else:
        try:
            y1, y2 = _complete_dual(sol, v1, v2, t1)
            # the condition-A transform Y1 -> I - Y1, then the positivity shift
            y1, y2, _, norm = _shift(_eye(y1.shape[0]) - y1, y2)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"certificate linear algebra broke down ({err})", sol) from err
        if norm > 1.0 and _margin(y1, y2, b1, b2) / norm > max(eps_decide, tol):
            y1, y2 = y1 / norm, y2 / norm
    if not _verify(y1, y2, problem, tol):
        raise SolverFailure("dual certificate failed verification at 10*eps_solve", sol)
    return LiftingVerdict(False, None, (y1, y2), sol.stats())


def check_quantum_lifting(
    problem: CouplingProblem,
    eps_solve: float = EPS_SOLVE,
    eps_decide: float = EPS_DECIDE,
) -> LiftingVerdict:
    """Decide whether (rho1, rho2) admits a coupling inside the subspace.

    The solve stops at the first iterate that settles the decision, by the
    stop rule of ``solve_coupling_sdp`` with eps = eps_solve and dual target
    tr(rho1) - eps_decide. A dual iterate below the target refutes every
    coupling and decides NotExists, and only without one is the primal
    value read. Exists when the primal value reaches tr(rho1) - eps_decide;
    the witness is the stopping primal iterate rescaled to trace tr(rho1),
    with no diagonalization: the iterate is positive definite and its lift
    exactly Hermitian, so it is a state by construction; it must re-verify
    at 10*eps_solve (``quantum.is_lifting_witness``), the primal residual
    the stop rule allows. If not, the certificate of the same solve is
    tried, and NotExists is decided when it verifies; otherwise the verdict
    degrades to a solver failure. A NotExists certificate comes from the
    stopping dual: on an exactly diagonal problem it is the 0/1 pair
    (1_S, 1_R(S)) of a set S violating Hall's condition, whose trace gap is
    rho1(S) - rho2(R(S)); otherwise it is completed to a strictly feasible
    full-space pair, condition-A transformed, shifted to PSD, and rescaled
    to operator norm 1 when the scaled trace gap still exceeds both
    eps_decide and 10*eps_solve. ``verify_dual_certificate``'s test, less
    its input checks, verifies either at 10*eps_solve. The verdict's
    diagnostics are the stopping iterate's numbers only. Both thresholds
    must be finite and positive (InputError). The zero state couples with
    itself inside any subspace, via the zero witness. Otherwise eps_decide
    must lie below tr(rho1), or NotExists could never be reached
    (InputError).
    """
    check_threshold("eps_solve", eps_solve)
    check_threshold("eps_decide", eps_decide)
    t1 = _check_traces(problem)
    d1, d2 = problem.dims
    if t1 <= SLACK:
        zero = DensityOperator._trusted(np.zeros((d1 * d2, d1 * d2), dtype=np.complex128))
        return LiftingVerdict(True, zero, None, IterateStats(0.0, 0.0, 0.0, 0.0, 0.0, 0))
    if eps_decide >= t1:
        raise InputError(
            f"eps_decide {eps_decide:.3g} must be below tr(rho1) = {t1:.12g}; "
            "no coupling could be refuted"
        )

    target = t1 - eps_decide
    sol = solve_coupling_sdp(problem, eps_solve, dual_target=target)
    cone = _cone(problem)
    tol = _VERIFY_FACTOR * eps_solve
    # an early stop's primal iterate need not be feasible
    refuted = sol.dual_residual <= eps_solve and sol.dual_value < target
    if refuted or t1 - sol.primal_value > eps_decide:
        return _refute(cone, sol, problem, t1, eps_decide, tol)
    # every iterate is positive definite (each step stops at _BOUNDARY of the
    # distance to the PSD boundary), the lift is a congruence by an isometry
    # (or a scatter into zeros) that left it exactly Hermitian, and a
    # positive real scale keeps both
    x = sol.primal_x
    witness = DensityOperator._trusted(cone.matrix(x * (t1 / cone.trace(x))))
    if quantum.is_lifting_witness(witness, problem, tol):
        return LiftingVerdict(True, witness, None, sol.stats())
    # within eps_decide of the threshold the dual may still prove that no
    # coupling exists; a certificate that verifies decides
    try:
        return _refute(cone, sol, problem, t1, eps_decide, tol)
    except SolverFailure:
        raise SolverFailure(
            "witness cleanup pushed residuals beyond 10*eps_solve", sol
        ) from None
