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

Strict primal feasibility fails outright when a marginal is rank-deficient:
every feasible X is then confined to supp(rho1) (x) supp(rho2), the central
path degenerates, and the raw iteration stalls or breaks down. Such
problems are solved on their compression to that product support, where
the compressed marginals are positive definite and the path is regular,
and the solution is lifted back (the primal optimizer exactly, the dual
pair padded with zeros off the supports).
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
_LSTSQ_RCOND = 1e-10
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
    tr(rho1 Y1) > tr(rho2 Y2). diagnostics is the underlying solve.
    """

    exists: bool
    witness: DensityOperator | None
    certificate: tuple[np.ndarray, np.ndarray] | None
    diagnostics: SdpSolution


def _herm_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of Herm(n), ordered diag / sym / antisym,
    stacked as an (n*n, n, n) array."""
    iu = np.triu_indices(n, 1)
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        mats.append(e)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, j] = e[j, i] = 1.0 / _SQRT2
        mats.append(e)
    for i, j in zip(*iu):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, j] = 1j / _SQRT2
        e[j, i] = -1j / _SQRT2
        mats.append(e)
    return np.stack(mats)


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


def _inv_factors(s: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factors L^-1 (with S = L L^H) of a stack of strictly
    positive-definite matrices."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        # a matrix grazed the boundary through roundoff; nudge and retry once
        n = s.shape[-1]
        shift = 1e-14 * np.abs(np.trace(s, axis1=-2, axis2=-1)) / n + 1e-300
        chol = np.linalg.cholesky(s + shift[:, None, None] * np.eye(n))
    return np.linalg.inv(chol)


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
    try:
        dy = np.linalg.solve(m, rhs)
        dy += np.linalg.solve(m, rhs - m @ dy)  # one refinement pass
    except np.linalg.LinAlgError:
        dy = np.linalg.lstsq(m, rhs, rcond=_LSTSQ_RCOND)[0]
    return _from_coords(t1, dy[: d1 * d1], d1), _from_coords(t2, dy[d1 * d1 :], d2)


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
    problem: CouplingProblem, eps: float = EPS_SOLVE, max_iter: int = _MAX_ITER
) -> SdpSolution:
    """Solve the lifting SDP to duality gap and residuals at most eps.

    Raises SolverFailure (with the best iterate attached) if the iteration
    cap is reached first. The initial primal point is a strictified version
    of the always-feasible product state rho1 (x) rho2 / tr(rho1).

    Rank-deficient marginals are solved on the compression to
    supp(rho1) (x) supp(rho2) and lifted back. The lifted primal optimizer
    is exact (its marginals and objective value are unchanged); the dual
    pair is padded with zeros off the supports, which keeps its objective
    value but not the full-space operator inequality, so primal values,
    dual values, and the gap are the true ones while the reported dual
    residual refers to the compressed system. The primal residual is
    recomputed against the original marginals.
    """
    if _check_traces(problem) <= 0.0:
        raise InputError("tr(rho1) must be positive (zero states are decided upstream)")
    d1, d2 = problem.dims
    a, b1, b2 = problem.subspace.projector, problem.rho1.mat, problem.rho2.mat
    v1 = linalg.support_isometry(b1, linalg.SUPPORT_CUT)
    v2 = linalg.support_isometry(b2, linalg.SUPPORT_CUT)
    r1, r2 = v1.shape[1], v2.shape[1]
    if r1 == d1 and r2 == d2:
        return _solve_core(d1, d2, a, b1, b2, eps, max_iter)

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
        core = _solve_core(r1, r2, at, bt1, bt2, eps, max_iter)
    except SolverFailure as err:
        best = lift(err.best) if err.best is not None else None
        raise SolverFailure(str(err), best) from None
    return lift(core)


def _solve_core(
    d1: int,
    d2: int,
    a: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    eps: float,
    max_iter: int,
) -> SdpSolution:
    """Run the interior-point iteration on assembled problem data.

    Requires strictly positive-definite b1, b2 (the caller compresses
    rank-deficient marginals away) and a <= I so that Z = 2I - a starts
    strictly feasible; a need not be a projector.
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

    best = None
    best_score = np.inf
    try:
        for it in range(max_iter + 1):
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
            if gap <= eps and pres <= eps and dres <= eps:
                return snapshot(it)
            if it == max_iter:
                break

            linv = _inv_factors(np.stack([x, z]))
            zinv = linalg.herm(linv[1].conj().T @ linv[1])
            schur = _schur(x, zinv, d1, d2)
            deflate = max(1.0, float(np.trace(schur)) / m)
            schur = schur + deflate * np.outer(kernel, kernel) + _RIDGE * np.eye(m)

            # affine (predictor) direction: sigma = 0, no correction term
            xrd = x @ rd
            w = linalg.herm(xrd @ zinv)
            w1, w2 = linalg.partial_traces(w, d1, d2)
            dy1a, dy2a = _newton_solve(schur, w1 - b1, w2 - b2)
            dza = _phi_star(dy1a, dy2a) - rd
            dxa = -x - linalg.herm((x @ dza) @ zinv)
            ap_aff, ad_aff = (min(1.0, s) for s in _step_len(linv, dxa, dza))
            mu_aff = max(
                0.0, float(np.vdot(x + ap_aff * dxa, z + ad_aff * dza).real) / d
            )
            sigma = min(_SIGMA_MAX, max(_SIGMA_MIN, (mu_aff / mu) ** 3)) if mu > 0 else _SIGMA_MAX

            # combined (corrector) direction
            corr = dxa @ dza
            w = linalg.herm((xrd - corr) @ zinv)
            w1, w2 = linalg.partial_traces(w, d1, d2)
            zi1, zi2 = linalg.partial_traces(zinv, d1, d2)
            rhs1 = sigma * mu * zi1 - b1 + w1
            rhs2 = sigma * mu * zi2 - b2 + w2
            dy1, dy2 = _newton_solve(schur, rhs1, rhs2)
            dz = _phi_star(dy1, dy2) - rd
            dx = sigma * mu * zinv - x - linalg.herm((corr + x @ dz) @ zinv)

            ap, ad = (min(1.0, _BOUNDARY * s) for s in _step_len(linv, dx, dz))
            x = linalg.herm(x + ap * dx)
            y1 = linalg.herm(y1 + ad * dy1)
            y2 = linalg.herm(y2 + ad * dy2)
            z = linalg.herm(z + ad * dz)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(
            f"interior-point linear algebra broke down at iteration {it} ({err}); "
            f"best gap {best.gap:.3e}, residuals {best.primal_residual:.3e}/"
            f"{best.dual_residual:.3e}",
            best,
        ) from err

    raise SolverFailure(
        f"interior-point solve did not reach {eps:.1e} within {max_iter} iterations "
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
    y2 = linalg.hermitize(y2)
    return np.eye(y1.shape[0]) - y1, y2


def shift_positive(y1: np.ndarray, y2: np.ndarray):
    """Shift both operators by the joint minimum eigenvalue, making them PSD.

    Returns (Y1 - lam*I, Y2 - lam*I, lam). The difference
    Y1 (x) I - I (x) Y2 is unchanged, so the separating inequality is
    preserved exactly; with equal traces the expectation margin is too.
    """
    y1 = linalg.hermitize(y1)
    y2 = linalg.hermitize(y2)
    lam = min(
        float(linalg.hermitian_eig(y1).eigenvalues[-1]),
        float(linalg.hermitian_eig(y2).eigenvalues[-1]),
    )
    return y1 - lam * np.eye(y1.shape[0]), y2 - lam * np.eye(y2.shape[0]), lam


def verify_dual_certificate(
    y1: np.ndarray,
    y2: np.ndarray,
    problem: CouplingProblem,
    tol: float = quantum.DEFAULT_TOL,
) -> bool:
    """Check a separating pair: operator inequality plus strict trace gap.

    True iff P_perp - (Y1 (x) I - I (x) Y2) is PSD within tol and
    tr(rho1 Y1) > tr(rho2 Y2) + tol. Such a pair refutes every candidate
    witness at once.
    """
    y1 = linalg.hermitize(y1)
    y2 = linalg.hermitize(y2)
    d1, d2 = problem.dims
    if y1.shape[0] != d1 or y2.shape[0] != d2:
        raise InputError("certificate dimensions do not match the problem")
    diff = np.kron(y1, np.eye(d2)) - np.kron(np.eye(d1), y2)
    if not linalg.is_psd(problem.subspace.perp - diff, tol):
        return False
    margin = quantum.expectation(y1, problem.rho1) - quantum.expectation(
        y2, problem.rho2
    )
    return margin > tol


def _spectral_norm(h: np.ndarray) -> float:
    w = linalg.hermitian_eig(h).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))


def _complete_dual(
    sol: SdpSolution,
    v1: np.ndarray,
    v2: np.ndarray,
    problem: CouplingProblem,
    t1: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Extend a support-compressed dual pair to a full-space feasible one.

    The zero-padded dual from a compressed solve satisfies the operator
    inequality Y1 (x) I + I (x) Y2 >= P only on supp(rho1) (x) supp(rho2);
    P couples that block to its orthocomplement, where the padding offers
    nothing. The completion buys a uniform slack eta on the support block
    (spending eta * tr(rho1) of the trace margin) and raises the
    orthocomplements by a constant big enough that the Schur-complement
    bound eta * m >= ||cross||^2 (with ||cross|| <= ||P|| = 1) closes the
    off-support blocks. Dual feasibility of the result is exact, not
    approximate; the cost is a certificate whose margin shrinks by a
    quarter and whose norm grows like 1/margin.
    """
    d1, d2 = problem.dims
    yt1 = linalg.herm(v1.conj().T @ sol.dual_y1 @ v1)
    yt2 = linalg.herm(v2.conj().T @ sol.dual_y2 @ v2)
    w = np.kron(v1, v2)
    at = linalg.herm(w.conj().T @ problem.subspace.projector @ w)
    slack = float(
        np.linalg.eigvalsh(
            _phi_star(yt1, yt2) - at
        )[0]
    )
    margin = t1 - sol.dual_value
    eta = margin / (4.0 * max(t1, 1.0))
    eta_eff = eta + min(slack, 0.0)
    if eta_eff <= 0.0:
        raise SolverFailure(
            "trace margin too small to complete the dual certificate "
            f"(margin {margin:.3e}, support-block slack {slack:.3e})",
            sol,
        )
    spec = max(
        float(np.abs(np.linalg.eigvalsh(yt1)).max(initial=0.0)),
        float(np.abs(np.linalg.eigvalsh(yt2)).max(initial=0.0)),
    )
    big = 1.0 + spec + 2.0 / eta_eff
    q1 = np.eye(d1) - v1 @ v1.conj().T
    q2 = np.eye(d2) - v2 @ v2.conj().T
    y1 = linalg.herm(v1 @ (yt1 + eta * np.eye(v1.shape[1])) @ v1.conj().T + big * q1)
    y2 = linalg.herm(v2 @ yt2 @ v2.conj().T + big * q2)
    return y1, y2


def check_quantum_lifting(
    problem: CouplingProblem,
    eps_solve: float = EPS_SOLVE,
    eps_decide: float = EPS_DECIDE,
) -> LiftingVerdict:
    """Decide whether (rho1, rho2) admits a coupling inside the subspace.

    Exists when the SDP optimum reaches tr(rho1) - eps_decide; the witness
    is the cleaned-up optimizer (symmetrized, PSD-projected, trace-matched)
    and must re-verify at 10*eps_solve or the verdict degrades to a solver
    failure. NotExists returns a certificate built from the dual optimum
    (condition-A transform, positivity shift, then rescaled to operator
    norm at most 1 when that keeps the trace gap decisive), verified the
    same way; for rank-deficient marginals the compressed dual is first
    completed to a full-space feasible pair. The zero state couples with
    itself inside any subspace, via the zero witness.
    """
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
        return LiftingVerdict(True, DensityOperator(zero), None, sol)

    sol = solve_coupling_sdp(problem, eps_solve)
    tol = 10.0 * eps_solve
    if t1 - sol.primal_value <= eps_decide:
        w = linalg.psd_project(sol.primal_x)
        trw = float(np.trace(w).real)
        if trw > 0.0:
            w = w * (t1 / trw)
        witness = DensityOperator(w)
        if not quantum.is_lifting_witness(witness, problem, tol):
            raise SolverFailure(
                "witness cleanup pushed residuals beyond 10*eps_solve", sol
            )
        return LiftingVerdict(True, witness, None, sol)

    y1, y2 = sol.dual_y1, sol.dual_y2
    v1 = linalg.support_isometry(problem.rho1.mat, linalg.SUPPORT_CUT)
    v2 = linalg.support_isometry(problem.rho2.mat, linalg.SUPPORT_CUT)
    if v1.shape[1] < d1 or v2.shape[1] < d2:
        y1, y2 = _complete_dual(sol, v1, v2, problem, t1)
    y1, y2 = condition_a_transform(y1, y2)
    y1, y2, _ = shift_positive(y1, y2)
    norm = max(_spectral_norm(y1), _spectral_norm(y2))
    if norm > 1.0:
        margin = quantum.expectation(y1, problem.rho1) - quantum.expectation(
            y2, problem.rho2
        )
        if margin / norm > eps_decide:
            y1 = y1 / norm
            y2 = y2 / norm
    if not verify_dual_certificate(y1, y2, problem, tol):
        raise SolverFailure(
            "dual certificate failed verification at 10*eps_solve", sol
        )
    return LiftingVerdict(False, None, (y1, y2), sol)
