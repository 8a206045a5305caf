"""Deciding quantum lifting existence by semidefinite programming.

The primal problem maximizes <P_X, X> over bipartite states X with both
partial traces pinned: tr_2(X) = rho1, tr_1(X) = rho2, X >= 0. A lifting
witness exists exactly when the optimum reaches tr(rho1). The dual
minimizes <rho1, Y1> + <rho2, Y2> subject to Y1 (x) I + I (x) Y2 >= P_X,
and a dual point with value below tr(rho1) converts into a separating
certificate pair via Y1 -> I - Y1 followed by a positivity shift.

The solver is an infeasible-start primal-dual path-following method with
Mehrotra-style adaptive centering. Each iteration eliminates the primal
and slack directions and solves a dense Schur system on the dual block
Herm(d1) (+) Herm(d2); that operator is positive semidefinite with a
one-dimensional kernel spanned by (I1, -I2) (both constraint blocks fix
the same total trace), which is deflated exactly. Strict dual feasibility
always holds at the start Y = (I1, I2), Z = 2I - P_X >= I.

The dual block has one coordinate system: the cached orthonormal real basis
of Herm(n) (diagonal, symmetric and antisymmetric units), held as a matrix
T whose rows are the flattened basis elements. A Hermitian h has
coordinates Re(conj(T) h.ravel()), and coordinates v give back the matrix
(T^T v) reshaped to n x n.

The Schur entries <G_a, X G_b Z^-1>, with G = E (x) I or I (x) E, are
contracted straight from X and Z^-1 viewed as (d1, d2, d1, d2) tensors, one
block per pair of constraint families, and then mapped onto the Herm basis;
no stacked Phi*(basis) tensor exists. That is O(d^6) time and O(d^4)
memory per iteration for d1 = d2 = d. X and Z are Cholesky-factored once per
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
optimum from above (weak duality). A decision therefore stops at the first
dual iterate whose value is below tr(rho1) - eps_decide: it already refutes
every coupling, and its gap may still be far above eps. The optimum is also
bounded by tr(rho1), since no coupling puts more mass in the subspace, so a
decision stops as well at the first primal iterate with residual at most
eps and value within eps of tr(rho1): it is eps-optimal whatever its dual.
Every NotExists dual is then completed to a strictly feasible full-space
pair, with the iterate's own dual residual as its slack bound, at the cost
of at most a quarter of its trace margin, and turned into a certificate in
one pass over these trusted arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, quantum
from .errors import InputError, SolverFailure
from .quantum import CouplingProblem, DensityOperator

EPS_SOLVE = 1e-8
EPS_DECIDE = 1e-6
TRACE_MATCH_TOL = 1e-9

_MAX_ITER = 200
_BOUNDARY = 0.98
_SIGMA_MIN, _SIGMA_MAX = 0.01, 0.9
_RIDGE = 1e-12
_SQRT2 = math.sqrt(2.0)
_BIG_STEP = 1e16


@dataclass(frozen=True)
class SdpSolution:
    """Primal/dual pair with values, duality gap, residuals, iteration count."""

    primal_x: np.ndarray
    dual_y1: np.ndarray
    dual_y2: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int


@dataclass(frozen=True)
class LiftingVerdict:
    """Decision plus its proof object.

    exists=True carries a witness state; exists=False carries a certificate
    pair (Y1, Y2) with P_perp >= Y1 (x) I - I (x) Y2 and
    tr(rho1 Y1) > tr(rho2 Y2). diagnostics is the stopping iterate of the
    underlying solve. For Exists it is the first primal iterate within
    eps_solve of tr(rho1), and its gap and dual residual may be far above
    eps_solve. For NotExists it is, short of a threshold-boundary input,
    the first whose dual refutes every coupling, and its gap and primal
    residual may be far above eps_solve.
    """

    exists: bool
    witness: DensityOperator | None
    certificate: tuple[np.ndarray, np.ndarray] | None
    diagnostics: SdpSolution


def _herm_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of Herm(n), ordered diag / sym / antisym,
    stacked as an (n*n, n, n) array."""
    i, j = np.triu_indices(n, 1)
    k = np.arange(i.size)
    sym = np.zeros((i.size, n, n), dtype=np.complex128)
    anti = np.zeros_like(sym)
    sym[k, i, j] = sym[k, j, i] = 1.0 / _SQRT2
    anti[k, i, j], anti[k, j, i] = 1j / _SQRT2, -1j / _SQRT2
    return np.concatenate([np.eye(n, dtype=np.complex128)[:, None] * np.eye(n), sym, anti])


def _coords(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian h over the Herm basis whose rows are t."""
    return (t.conj() @ h.ravel()).real


def _from_coords(t: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The n x n Hermitian matrix with coordinates v over the rows of t."""
    return (t.T @ v).reshape(n, n)


@lru_cache(maxsize=32)
def _eye(n: int) -> np.ndarray:
    """Read-only real identity of order n, shared by every caller."""
    e = np.eye(n)
    e.flags.writeable = False
    return e


@lru_cache(maxsize=32)
def _schur_data(d1: int, d2: int):
    """Cached per-dimension data: the Herm(d1) and Herm(d2) bases as rows
    over the matrix units (row a is basis element a, flattened) and the
    normalized kernel direction in their coordinates.

    These bases are the only coordinate system of the dual block: _schur
    maps its contractions through them, and _coords / _from_coords carry
    every Newton right-hand side and direction. No stacked Phi*(basis)
    tensor is kept: _schur contracts X and Z^-1 directly, in O(d^6) time
    and O(d^4) memory per iteration for d1 = d2 = d."""
    t1 = _herm_basis(d1).reshape(d1 * d1, d1 * d1)
    t2 = _herm_basis(d2).reshape(d2 * d2, d2 * d2)
    kernel = np.concatenate([_coords(t1, _eye(d1)), -_coords(t2, _eye(d2))])
    kernel /= np.linalg.norm(kernel)
    return t1, t2, kernel


def _schur(x: np.ndarray, zinv: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Schur matrix Re<G_a, X G_b Z^-1> over the Herm(d1) (+) Herm(d2) basis,
    with G_a = E_a (x) I on the first block and I (x) E_a on the second.

    In the matrix-unit basis each block is one contraction of X and Z^-1
    viewed as (d1, d2, d1, d2) tensors; e.g. tr((e_ij (x) I) X (e_pr (x) I)
    Z^-1) = sum_kq X[j,k,p,q] Z^-1[r,q,i,k]. Each contraction runs as one
    matrix product of regrouped copies of X and Z^-1. The second
    off-diagonal block is the transpose of the first because X and Z^-1 are
    Hermitian.
    """
    t1, t2, _ = _schur_data(d1, d2)
    xt = x.reshape(d1, d2, d1, d2)
    wt = zinv.reshape(d1, d2, d1, d2)
    n1, n2, d = d1 * d1, d2 * d2, d1 * d2
    # c11[(j,p),(r,i)], c12[(j,q),(i,s)], c22[(l,q),(k,s)], each summed over
    # the two indices on which the pair of G's acts as the identity
    c11 = xt.transpose(0, 2, 1, 3).reshape(n1, n2) @ wt.transpose(3, 1, 0, 2).reshape(n2, n1)
    c12 = xt.transpose(0, 3, 1, 2).reshape(d, d) @ wt.transpose(3, 0, 2, 1).reshape(d, d)
    c22 = xt.transpose(1, 3, 0, 2).reshape(n2, n1) @ wt.transpose(2, 0, 3, 1).reshape(n1, n2)
    m11 = c11.reshape(d1, d1, d1, d1).transpose(3, 0, 1, 2).reshape(n1, n1)
    m12 = c12.reshape(d1, d2, d1, d2).transpose(2, 0, 1, 3).reshape(n1, n2)
    m22 = c22.reshape(d2, d2, d2, d2).transpose(2, 0, 1, 3).reshape(n2, n2)
    schur = np.empty((n1 + n2, n1 + n2))
    schur[:n1, :n1] = (t1 @ m11 @ t1.T).real
    schur[:n1, n1:] = (t1 @ m12 @ t2.T).real
    schur[n1:, :n1] = schur[:n1, n1:].T
    schur[n1:, n1:] = (t2 @ m22 @ t2.T).real
    return (schur + schur.T) / 2.0


def _phi_star(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Y1 (x) I + I (x) Y2, formed by broadcasting over (d1, d2, d1, d2)."""
    d1, d2 = y1.shape[0], y2.shape[0]
    t = y1[:, None, :, None] * _eye(d2)[:, None, :] + _eye(d1)[:, None, :, None] * y2[:, None, :]
    return t.reshape(d1 * d2, d1 * d2)


def _step_len(linv: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> list[float]:
    """Largest alphas with X + alpha*dX and Z + alpha*dZ PSD, given the
    stacked inverse Cholesky factors of X and Z."""
    w = linv @ np.stack([dx, dz]) @ linv.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(linalg.herm(w))[:, 0]
    return [_BIG_STEP if v >= -1e-16 else -1.0 / v for v in lam.tolist()]


def _newton_solve(m: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    """Solve the Schur system m for the dual direction (dY1, dY2) given the
    right-hand side pair (r1, r2); both travel in Herm-basis coordinates."""
    d1, d2 = r1.shape[0], r2.shape[0]
    t1, t2, _ = _schur_data(d1, d2)
    rhs = np.concatenate([_coords(t1, r1), _coords(t2, r2)])
    dy = np.linalg.solve(m, rhs)
    dy += np.linalg.solve(m, rhs - m @ dy)  # one refinement pass
    return _from_coords(t1, dy[: d1 * d1], d1), _from_coords(t2, dy[d1 * d1 :], d2)


def _check_threshold(name: str, value: float) -> None:
    """Solver thresholds must be finite and positive."""
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def _check_traces(problem: CouplingProblem) -> float:
    """tr(rho1), once it is checked to match tr(rho2)."""
    t1 = problem.rho1.trace
    t2 = problem.rho2.trace
    if abs(t1 - t2) > TRACE_MATCH_TOL:
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
    that settles the decision: one with dual residual at most eps and dual
    value below dual_target, whose gap and primal residual may be far above
    eps, or one with primal residual at most eps and primal value within eps
    of tr(rho1) and at least dual_target, whose gap and dual residual may
    be. No coupling puts more than tr(rho1) in the subspace, so the latter
    is eps-optimal. Raises InputError unless eps is finite and positive,
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
    """
    _check_threshold("eps", eps)
    if _check_traces(problem) <= 0.0:
        raise InputError("tr(rho1) must be positive (zero states are decided upstream)")
    d1, d2 = problem.dims
    a, b1, b2 = problem.subspace.projector, problem.rho1.mat, problem.rho2.mat
    v1, v2 = problem.rho1.support_isometry, problem.rho2.support_isometry
    w = np.kron(v1, v2)
    at = linalg.herm(w.conj().T @ a @ w)
    bt1 = linalg.herm(v1.conj().T @ b1 @ v1)
    bt2 = linalg.herm(v2.conj().T @ b2 @ v2)

    def lift(sol: SdpSolution) -> SdpSolution:
        x = linalg.herm(w @ sol.primal_x @ w.conj().T)
        p1, p2 = linalg.partial_traces(x, d1, d2)
        pres = math.hypot(np.linalg.norm(b1 - p1), np.linalg.norm(b2 - p2))
        return SdpSolution(
            x,
            linalg.herm(v1 @ sol.dual_y1 @ v1.conj().T),
            linalg.herm(v2 @ sol.dual_y2 @ v2.conj().T),
            sol.primal_value,
            sol.dual_value,
            sol.gap,
            float(pres),
            sol.dual_residual,
            sol.iterations,
        )

    try:
        core = _solve_core(v1.shape[1], v2.shape[1], at, bt1, bt2, eps, dual_target)
    except SolverFailure as err:
        raise SolverFailure(str(err), lift(err.best)) from None
    return lift(core)


def _solve_core(
    d1: int,
    d2: int,
    a: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    eps: float,
    dual_target: float | None,
) -> SdpSolution:
    """Run the interior-point iteration on assembled problem data.

    Requires strictly positive-definite b1, b2 (solve_coupling_sdp passes
    the marginals compressed to their supports) and a <= I so that
    Z = 2I - a starts strictly feasible; a need not be a projector.
    """
    d = d1 * d2
    t = float(np.trace(b1).real)
    kernel = _schur_data(d1, d2)[2]
    m = kernel.size
    eye = np.eye(d, dtype=np.complex128)

    x = 0.9 / t * np.kron(b1, b2) + 0.1 * t / d * eye
    y1 = np.eye(d1, dtype=np.complex128)
    y2 = np.eye(d2, dtype=np.complex128)
    z = 2.0 * eye - a

    def snapshot(iters):
        # the loop rebinds x, y1, y2 and never writes into them
        return SdpSolution(x, y1, y2, pval, dval, gap, pres, dres, iters)

    def direction(corr, smu):
        # Newton direction (dX, dY1, dY2, dZ) at the current iterate, with
        # second-order term corr and centring target smu = sigma * mu;
        # direction(0, 0) is the affine predictor. Reads the loop's current
        # x, rd, xrd, zinv, zi1, zi2 and schur.
        w1, w2 = linalg.partial_traces(linalg.herm((xrd - corr) @ zinv), d1, d2)
        dy1, dy2 = _newton_solve(schur, smu * zi1 - b1 + w1, smu * zi2 - b2 + w2)
        dz = _phi_star(dy1, dy2) - rd
        dx = smu * zinv - x - linalg.herm((corr + x @ dz) @ zinv)
        return dx, dy1, dy2, dz

    best = None
    best_score = np.inf
    try:
        for it in range(_MAX_ITER + 1):
            p1, p2 = linalg.partial_traces(x, d1, d2)
            rp1 = b1 - p1
            rp2 = b2 - p2
            rd = a + z - _phi_star(y1, y2)
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
            # a decision also stops at the first iterate that settles it: a
            # dual one that refutes every coupling, or a primal one within
            # eps of the largest possible value t that meets the target
            decided = dual_target is not None and (
                (dres <= eps and dval < dual_target)
                or (pres <= eps and t - pval <= eps and pval >= dual_target)
            )
            if decided or (dres <= eps and gap <= eps and pres <= eps):
                return snapshot(it)
            if it == _MAX_ITER:
                break

            linv = np.linalg.inv(np.linalg.cholesky(np.stack([x, z])))
            zinv = linalg.herm(linv[1].conj().T @ linv[1])
            schur = _schur(x, zinv, d1, d2)
            deflate = max(1.0, float(np.trace(schur)) / m)
            schur = schur + deflate * np.outer(kernel, kernel) + _RIDGE * np.eye(m)

            zi1, zi2 = linalg.partial_traces(zinv, d1, d2)
            xrd = x @ rd
            dxa, _, _, dza = direction(0.0, 0.0)
            ap_aff, ad_aff = (min(1.0, s) for s in _step_len(linv, dxa, dza))
            mu_aff = max(
                0.0, float(np.vdot(x + ap_aff * dxa, z + ad_aff * dza).real) / d
            )
            sigma = min(_SIGMA_MAX, max(_SIGMA_MIN, (mu_aff / mu) ** 3)) if mu > 0 else _SIGMA_MAX
            dx, dy1, dy2, dz = direction(dxa @ dza, sigma * mu)

            ap, ad = (min(1.0, _BOUNDARY * s) for s in _step_len(linv, dx, dz))
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


def _condition_a(y1: np.ndarray, y2: np.ndarray):
    """The condition-A transform on trusted Hermitian arrays."""
    return _eye(y1.shape[0]) - y1, y2


def condition_a_transform(y1: np.ndarray, y2: np.ndarray):
    """Swap between dual-feasible pairs and separating pairs: Y1 -> I - Y1.

    (Y1 (x) I + I (x) Y2 >= P_X) holds iff (P_perp >= (I-Y1) (x) I - I (x) Y2),
    and applying the map twice returns the original pair.
    """
    return _condition_a(linalg.hermitize(y1), linalg.hermitize(y2))


def _shift(y1: np.ndarray, y2: np.ndarray):
    """The positivity shift on trusted Hermitian arrays, plus the operator
    norm of the shifted pair: both are PSD, so it is the largest eigenvalue
    less lam, read off the same two spectra."""
    w1, w2 = linalg._eig(y1).eigenvalues, linalg._eig(y2).eigenvalues
    lam = min(float(w1[-1]), float(w2[-1]))
    norm = max(float(w1[0]), float(w2[0])) - lam
    return y1 - lam * _eye(y1.shape[0]), y2 - lam * _eye(y2.shape[0]), lam, norm


def shift_positive(y1: np.ndarray, y2: np.ndarray):
    """Shift both operators by the joint minimum eigenvalue, making them PSD.

    Returns (Y1 - lam*I, Y2 - lam*I, lam). The difference
    Y1 (x) I - I (x) Y2 is unchanged, so the separating inequality is
    preserved exactly; with equal traces the expectation margin is too.
    """
    return _shift(linalg.hermitize(y1), linalg.hermitize(y2))[:3]


def _margin(y1: np.ndarray, y2: np.ndarray, problem: CouplingProblem) -> float:
    """Trace gap tr(rho1 Y1) - tr(rho2 Y2) of a trusted Hermitian pair."""
    return float(
        np.vdot(y1, problem.rho1.mat).real - np.vdot(y2, problem.rho2.mat).real
    )


def verify_dual_certificate(
    y1: np.ndarray,
    y2: np.ndarray,
    problem: CouplingProblem,
    tol: float = quantum.DEFAULT_TOL,
) -> bool:
    """Check a separating pair: operator inequality plus strict trace gap.

    True iff P_perp - (Y1 (x) I - I (x) Y2) is PSD within tol and
    tr(rho1 Y1) > tr(rho2 Y2) + tol. Such a pair refutes every candidate
    witness at once. The pair is validated, then tested by ``_verify``.
    """
    y1, y2 = linalg.hermitize(y1), linalg.hermitize(y2)
    d1, d2 = problem.dims
    if y1.shape[0] != d1 or y2.shape[0] != d2:
        raise InputError("certificate dimensions do not match the problem")
    return _verify(y1, y2, problem, tol)


def _verify(y1: np.ndarray, y2: np.ndarray, problem: CouplingProblem, tol: float) -> bool:
    """The certificate test on a trusted Hermitian pair of the problem's
    dimensions; the difference is formed by broadcasting, as Y1 (x) I + I (x) (-Y2)."""
    diff = linalg.herm(problem.subspace.perp - _phi_star(y1, -y2))
    return linalg._is_psd(diff, tol) and _margin(y1, y2, problem) > tol


def _complete_dual(sol: SdpSolution, v1: np.ndarray, v2: np.ndarray, t1: float):
    """Complete a lifted dual pair to a strictly feasible full-space one.

    The solve keeps Z positive definite with phi*(y) - A = Z - R_d on the
    support block, so that block's slack is at least -dual_residual. The
    completion adds eta * I there (spending eta * tr(rho1), at most a
    quarter of the trace margin), leaving slack eta_eff = eta -
    dual_residual, and raises the orthocomplements of the supports until
    their slack is at least 2/eta_eff, so the Schur complement across the
    cross block (norm at most ||P|| = 1) keeps slack eta_eff/2. For
    full-rank marginals that is Y1 + eta * I; else the norm grows like
    1/margin.
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
    big = 1.0 + max(np.linalg.norm(y1, 2), np.linalg.norm(y2, 2)) + 2.0 / eta_eff
    p1 = v1 @ v1.conj().T
    p2 = v2 @ v2.conj().T
    y1 = linalg.herm(y1 + eta * p1 + big * (_eye(y1.shape[0]) - p1))
    y2 = linalg.herm(y2 + big * (_eye(y2.shape[0]) - p2))
    return y1, y2


def _refute(
    sol: SdpSolution, problem: CouplingProblem, t1: float, eps_decide: float, tol: float
) -> LiftingVerdict:
    """The NotExists verdict carried by sol's dual, once its certificate
    verifies at tol; SolverFailure (carrying sol) otherwise. The certificate
    is built in one pass over trusted arrays: completed, condition-A
    transformed, shifted to PSD, and rescaled to operator norm 1 when its
    scaled trace gap still exceeds both eps_decide and tol."""
    v1, v2 = problem.rho1.support_isometry, problem.rho2.support_isometry
    try:
        y1, y2 = _condition_a(*_complete_dual(sol, v1, v2, t1))
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"certificate linear algebra broke down ({err})", sol) from err
    y1, y2, _, norm = _shift(y1, y2)
    if norm > 1.0 and _margin(y1, y2, problem) / norm > max(eps_decide, tol):
        y1, y2 = y1 / norm, y2 / norm
    if not _verify(y1, y2, problem, tol):
        raise SolverFailure("dual certificate failed verification at 10*eps_solve", sol)
    return LiftingVerdict(False, None, (y1, y2), sol)


def check_quantum_lifting(
    problem: CouplingProblem,
    eps_solve: float = EPS_SOLVE,
    eps_decide: float = EPS_DECIDE,
) -> LiftingVerdict:
    """Decide whether (rho1, rho2) admits a coupling inside the subspace.

    The solve stops at the first dual iterate with residual at most
    eps_solve and value below tr(rho1) - eps_decide; such an iterate
    refutes every coupling and decides NotExists, and only without one is
    the primal value read. It also stops at the first primal iterate with
    residual at most eps_solve and value within eps_solve of tr(rho1).
    Exists when the primal value reaches tr(rho1) - eps_decide; the witness
    is the cleaned-up primal iterate, PSD-projected (its one diagonalization),
    trace-matched and symmetrized, so a state by construction; it must
    re-verify at 10*eps_solve (``quantum.is_lifting_witness``). If not, the
    certificate of the same solve is tried, and NotExists is decided when it
    verifies; otherwise the verdict degrades to a solver failure. NotExists
    returns a certificate built from the stopping dual iterate in one pass:
    it is first completed to a strictly feasible full-space pair, at the
    cost of at most a quarter of its trace margin, then put through the
    condition-A transform and the positivity shift, and rescaled to
    operator norm at most 1 when the scaled trace gap still exceeds both
    eps_decide and 10*eps_solve; ``verify_dual_certificate``'s test, less its
    input checks, verifies it at 10*eps_solve. Both thresholds must be
    finite and positive (InputError). The zero state couples with itself
    inside any subspace, via the zero witness. Otherwise eps_decide must
    lie below tr(rho1), or NotExists could never be reached (InputError).
    """
    _check_threshold("eps_solve", eps_solve)
    _check_threshold("eps_decide", eps_decide)
    t1 = _check_traces(problem)
    d1, d2 = problem.dims
    d = d1 * d2
    if t1 <= TRACE_MATCH_TOL:
        zero = np.zeros((d, d), dtype=np.complex128)
        sol = SdpSolution(
            zero,
            np.zeros((d1, d1), dtype=np.complex128),
            np.zeros((d2, d2), dtype=np.complex128),
            0.0, 0.0, 0.0, 0.0, 0.0, 0,
        )
        return LiftingVerdict(True, DensityOperator._trusted(zero), None, sol)
    if eps_decide >= t1:
        raise InputError(
            f"eps_decide {eps_decide:.3g} must be below tr(rho1) = {t1:.12g}; "
            "no coupling could be refuted"
        )

    target = t1 - eps_decide
    sol = solve_coupling_sdp(problem, eps_solve, dual_target=target)
    tol = 10.0 * eps_solve
    # an early stop's primal iterate need not be feasible
    refuted = sol.dual_residual <= eps_solve and sol.dual_value < target
    if refuted or t1 - sol.primal_value > eps_decide:
        return _refute(sol, problem, t1, eps_decide, tol)
    w = linalg.psd_project(sol.primal_x)
    trw = float(np.trace(w).real)
    if trw > 0.0:
        w = w * (t1 / trw)
    witness = DensityOperator._trusted(linalg.herm(w))
    if quantum.is_lifting_witness(witness, problem, tol):
        return LiftingVerdict(True, witness, None, sol)
    # within eps_decide of the threshold the dual may still prove that no
    # coupling exists; a certificate that verifies decides
    try:
        return _refute(sol, problem, t1, eps_decide, tol)
    except SolverFailure:
        raise SolverFailure(
            "witness cleanup pushed residuals beyond 10*eps_solve", sol
        ) from None
