"""Correctness gate that shares no code with the layers being measured.

Every check here uses plain numpy/LAPACK and the raw generated inputs, never
``qcoupling.linalg`` or the library's own verifiers, so a bug in a measured
layer cannot also hide itself from the gate. Each check returns None when the
proof object holds and a short reason string when it does not.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Tolerances of the gate, looser than the library's own 10 * eps_solve = 1e-7
# so that LAPACK-vs-Jacobi round-off never flips a correct proof object.
MARGINAL_TOL = 1e-6
LEAK_TOL = 1e-6
PSD_TOL = 1e-6
HERMITIAN_TOL = 1e-9


def herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def partial_traces(x: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """(tr_2 X, tr_1 X) with the composite index (i, k) -> i * d2 + k."""
    t = x.reshape(d1, d2, d1, d2)
    return np.einsum("ikjk->ij", t), np.einsum("ikil->kl", t)


def span_projector(vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the row span of ``vectors`` (via SVD)."""
    _, s, vh = np.linalg.svd(np.atleast_2d(vectors), full_matrices=False)
    keep = s > 1e-9 * max(float(s[0]), 1e-300)
    q = vh[keep].T  # rows of vh span the row space of the vectors
    return q @ q.conj().T


def numerical_rank(rho: np.ndarray, rel_cut: float = 1e-12) -> int:
    w = np.linalg.eigvalsh(herm(rho))
    return int(np.sum(w > rel_cut * max(float(w[-1]), 0.0)))


def check_witness(w, rho1, rho2, proj) -> str | None:
    """W is a PSD coupling of (rho1, rho2) with no mass outside range(proj)."""
    w = np.asarray(w, dtype=np.complex128)
    d1, d2 = rho1.shape[0], rho2.shape[0]
    if w.shape != (d1 * d2, d1 * d2):
        return f"witness has shape {w.shape}"
    if np.linalg.norm(w - w.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(w)):
        return "witness is not Hermitian"
    w = herm(w)
    lam = float(np.linalg.eigvalsh(w)[0])
    if lam < -PSD_TOL:
        return f"witness has eigenvalue {lam:.3e}"
    p1, p2 = partial_traces(w, d1, d2)
    dev = max(np.linalg.norm(p1 - rho1), np.linalg.norm(p2 - rho2))
    if dev > MARGINAL_TOL:
        return f"witness marginals off by {dev:.3e}"
    leak = float(np.vdot(np.eye(d1 * d2) - proj, w).real)
    if leak > LEAK_TOL:
        return f"witness leaks {leak:.3e} outside the subspace"
    return None


def check_certificate(y1, y2, rho1, rho2, span) -> str | None:
    """P_perp - (Y1 (x) I - I (x) Y2) >= lam I with lam >= -tol, and a trace
    gap above -lam * tr(rho1), where P is the projector onto the span.

    That gap rules out every coupling W inside the subspace: such a W has
    tr(W P_perp) = 0, so gap = tr(W (Y1 (x) I - I (x) Y2)) <= -lam * tr(W).
    ``roundoff`` is the eigensolver's error allowance, which grows with the
    certificate's norm (support-completed certificates can reach 1e6). A
    certificate that fails in double precision by no more than twice that
    allowance is decided again, without it, in 40-digit arithmetic.
    """
    reason, marginal = _check_certificate_double(y1, y2, rho1, rho2, span_projector(span))
    if marginal and _decisive_exactly(y1, y2, rho1, rho2, span):
        return None
    return reason


def _decisive_exactly(y1, y2, rho1, rho2, span, digits: int = 40) -> bool:
    """The certificate test of ``check_certificate`` without its round-off
    allowance, on the same double inputs, in ``digits``-digit arithmetic
    (mpmath); False when mpmath is missing or the span is degenerate."""
    try:
        import mpmath
    except ImportError:
        return False
    ctx = mpmath.mp.clone()
    ctx.dps = digits

    def mat(a):
        a = np.asarray(a, dtype=np.complex128)
        return ctx.matrix([[ctx.mpc(complex(x)) for x in row] for row in a])

    y1 = mat(herm(np.asarray(y1, dtype=np.complex128)))
    y2 = mat(herm(np.asarray(y2, dtype=np.complex128)))
    r1, r2 = mat(rho1), mat(rho2)
    d1, d2 = r1.rows, r2.rows
    cols = mat(np.atleast_2d(span).T)  # the span's vectors as columns
    try:
        proj = cols * ctx.inverse(cols.H * cols) * cols.H
    except ZeroDivisionError:
        return False
    op = ctx.eye(d1 * d2) - proj
    for i in range(d1):
        for k in range(d2):
            for j in range(d1):
                for m in range(d2):
                    op[i * d2 + k, j * d2 + m] -= (y1[i, j] if k == m else 0) - (y2[k, m] if i == j else 0)
    op = (op + op.H) / 2
    lam = min(ctx.re(e) for e in ctx.eighe(op, eigvals_only=True))
    gap = sum(ctx.re(ctx.conj(r1[i, j]) * y1[i, j]) for i in range(d1) for j in range(d1)) - sum(
        ctx.re(ctx.conj(r2[k, m]) * y2[k, m]) for k in range(d2) for m in range(d2))
    trace = sum(ctx.re(r1[i, i]) for i in range(d1))
    return lam >= -PSD_TOL and gap > max(-lam, 0) * trace


def _check_certificate_double(y1, y2, rho1, rho2, proj) -> tuple[str | None, bool]:
    """The reason the certificate fails in double precision (None if it
    holds), and whether it fails by no more than twice the allowance."""
    y1 = np.asarray(y1, dtype=np.complex128)
    y2 = np.asarray(y2, dtype=np.complex128)
    d1, d2 = rho1.shape[0], rho2.shape[0]
    if y1.shape != (d1, d1) or y2.shape != (d2, d2):
        return f"certificate has shapes {y1.shape}, {y2.shape}", False
    y1, y2 = herm(y1), herm(y2)
    diff = np.kron(y1, np.eye(d2)) - np.kron(np.eye(d1), y2)
    roundoff = 1e-12 * max(1.0, float(np.linalg.norm(diff, 2)))
    lam = float(np.linalg.eigvalsh(herm(np.eye(d1 * d2) - proj - diff))[0])
    if lam < -PSD_TOL - roundoff:
        return (f"certificate operator inequality fails by {lam:.3e}",
                lam >= -PSD_TOL - 2 * roundoff)
    gap = float(np.vdot(rho1, y1).real - np.vdot(rho2, y2).real)
    bar = max(-lam, 0.0) * float(np.trace(rho1).real) + roundoff
    if gap <= bar:
        return (f"certificate trace gap {gap:.3e} is not decisive (lam {lam:.3e})",
                gap > bar - 2 * roundoff)
    return None, False


def hall_exists(mu1, mu2, pairs, m: int, n: int) -> bool:
    """Exact exhaustive Strassen/Hall test: mu1(S) <= mu2(R(S)) for every S."""
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        image = {j for (i, j) in pairs if i in rows}
        if sum((mu1[i] for i in rows), Fraction(0)) > sum(
            (mu2[j] for j in image), Fraction(0)
        ):
            return False
    return True


def matrix_from_json(obj) -> np.ndarray:
    """Rebuild a matrix from the CLI's {"re": ..., "im": ...} form."""
    re_part = np.array(obj["re"], dtype=np.float64)
    im_part = np.array(obj["im"], dtype=np.float64) if "im" in obj else 0.0
    return re_part + 1j * im_part
