"""Dense complex linear algebra for desk-scale operator problems.

Conventions used throughout the package:

* matrices are numpy complex128 arrays, row-major;
* the composite space H1 (x) H2 with dims (d1, d2) uses the index map
  (i, k) -> i * d2 + k, which is what ``numpy.kron`` produces;
* Hermitian data is symmetrized once at the boundary (``hermitize``)
  and trusted afterwards, and so are states: the public constructors
  validate, and states valid by construction are built unchecked;
* every eigendecomposition goes through ``_eigh`` (LAPACK), and the
  Jacobi kernel ``_jacobi_eigvals`` serves only the PSD test ``_is_psd``,
  which a lifting decision runs to validate its input and verify its
  proof object; the lifting solver's step-length tests and a certificate's
  eigenvalue bounds are eigenvalue-only ``np.linalg.eigvalsh`` calls in
  ``sdp``;
* one support rule, ``support_mask``, serves states, the lifting solver's
  marginal compression and spans: a direction whose weight is at most
  RANK_TOL times the largest weight counts as absent;
* caller data is checked to ``errors.SLACK``, a projector to PROJECTOR_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SLACK, InputError, NumericalError, check_threshold

PROJECTOR_TOL = 1e-8
RANK_TOL = 1e-9  # the one support cut, relative to the largest weight

_JACOBI_MAX_SWEEPS = 100
_JACOBI_OFF_FACTOR = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    try:
        m = np.array(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"not interpretable as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InputError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def hermitize(m, tol: float = SLACK) -> np.ndarray:
    """Return the Hermitian part (M + M^dagger)/2.

    Rejects inputs whose anti-Hermitian part exceeds ``tol`` relative to
    max(1, ||M||_F): silently symmetrizing genuinely non-Hermitian data
    would hide caller bugs. ``tol`` must be finite and positive.
    """
    check_threshold("tol", tol)
    m = as_matrix(m)
    skew = np.linalg.norm(m - m.conj().T)
    if skew > tol * max(1.0, np.linalg.norm(m)):
        raise InputError(
            f"matrix is not Hermitian: anti-Hermitian part has norm {skew:.3e}"
        )
    return herm(m)


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2 of a matrix or a stack of matrices:
    the unvalidated kernel for trusted data (``hermitize`` checks input)."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product with composite index (i,k) -> i*d2 + k."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m: np.ndarray, d1: int, d2: int, side: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on H1 (x) H2.

    side="first" returns tr_1(M) of shape (d2, d2); side="second"
    returns tr_2(M) of shape (d1, d1).
    """
    m = as_matrix(m)
    if d1 < 1 or d2 < 1 or m.shape[0] != d1 * d2:
        raise InputError(
            f"dimension mismatch: matrix of dim {m.shape[0]} is not {d1}x{d2} composite"
        )
    if side not in ("first", "second"):
        raise InputError(f"side must be 'first' or 'second', got {side!r}")
    tr2, tr1 = partial_traces(m, d1, d2)
    return tr1 if side == "first" else tr2


def partial_traces(x: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Both partial traces (tr_2(X), tr_1(X)) of a (d1*d2)-square X: the
    unvalidated kernel for trusted data (``partial_trace`` checks input)."""
    t = x.reshape(d1, d2, d1, d2)
    return np.einsum("ikjk->ij", t), np.einsum("ikil->kl", t)


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(A^dagger B) of two Hermitian matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    v = np.vdot(a, b)
    if abs(v.imag) > SLACK * max(1.0, abs(v.real)):
        raise InputError(
            f"inner product has imaginary part {v.imag:.3e}; operands must be Hermitian"
        )
    return float(v.real)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors[:, k] is the
    unit eigenvector paired with eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Eigendecomposition of Hermitian h, validated, from LAPACK (``_eigh``);
    within a degenerate eigenvalue the basis is LAPACK's choice."""
    w, v = _eigh(hermitize(h))
    return Spectrum(w[::-1], v[:, ::-1])


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one eigendecomposition: LAPACK on trusted Hermitian
    data, eigenvalues ascending and eigenvectors as columns; a LinAlgError
    becomes a NumericalError."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _jacobi_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, unsorted, by cyclic Jacobi rotations (complex Givens):
    the PSD test's kernel for trusted Hermitian data, which it leaves intact.

    Sweeps the strict upper triangle, annihilating one off-diagonal entry
    per rotation, until the off-diagonal Frobenius norm, tested before the
    first sweep and after each one, falls below 1e-12 * ||H||_F. Raises
    NumericalError if 100 sweeps leave it above, which for Hermitian input
    does not happen in practice.
    """
    a = np.array(h, dtype=np.complex128)
    d = a.shape[0]
    stop = _JACOBI_OFF_FACTOR * np.linalg.norm(a)
    # entries at or below skip cannot push the off-diagonal norm above stop
    skip = stop / d
    sweeps = 0
    while np.linalg.norm(a - np.diag(np.diagonal(a))) > stop:
        if sweeps == _JACOBI_MAX_SWEEPS:
            raise NumericalError(
                f"jacobi eigensolver did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
            )
        sweeps += 1
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                theta = (a[p, p].real - a[q, q].real) / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * phase.conjugate()
                sc = s.conjugate()
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp + s * cq
                a[:, q] = c * cq - sc * cp
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp + sc * rq
                a[q, :] = c * rq - s * rp
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.diagonal(a).real


def is_psd(h: np.ndarray, tol: float = SLACK) -> bool:
    """True iff Hermitian h has smallest eigenvalue >= -tol, tol finite > 0."""
    return _is_psd(hermitize(h), check_threshold("tol", tol))


def _is_psd(h: np.ndarray, tol: float) -> bool:
    """``is_psd`` on trusted Hermitian data."""
    return bool(_jacobi_eigvals(h).min() >= -tol)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues to 0,
    in LAPACK's eigenbasis (``_eigh``)."""
    w, v = _eigh(hermitize(h))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def pair_index(i: int, j: int, n: int) -> int:
    """Composite index of |i>|j> on H1 (x) H2 with dim(H2) = n."""
    return i * n + j


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^d held as its orthogonal projector.

    The constructor checks, without changing the matrix, that it is one:
    Hermitian and idempotent within PROJECTOR_TOL. Idempotency in Frobenius
    norm pins every eigenvalue that close to {0, 1}, so no spectral check
    is needed.
    """

    ambient_dim: int
    projector: np.ndarray

    def __post_init__(self):
        p = as_matrix(self.projector)
        if p.shape[0] != self.ambient_dim:
            raise InputError(
                f"projector dim {p.shape[0]} does not match ambient dim {self.ambient_dim}"
            )
        hermitize(p, PROJECTOR_TOL)
        if np.linalg.norm(p @ p - p) > PROJECTOR_TOL:
            raise InputError("matrix is not idempotent: not a projector")
        p.setflags(write=False)
        object.__setattr__(self, "projector", p)

    @classmethod
    def _trusted(cls, projector: np.ndarray) -> "Subspace":
        """The subspace of a complex matrix that is an orthogonal projector by
        construction, unchecked; the matrix becomes read-only."""
        projector.setflags(write=False)
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "ambient_dim", projector.shape[0])
        object.__setattr__(subspace, "projector", projector)
        return subspace

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.projector).real))

    @property
    def perp(self) -> np.ndarray:
        """Projector onto the orthogonal complement."""
        return np.eye(self.ambient_dim) - self.projector

    @classmethod
    def from_projector(cls, p) -> "Subspace":
        """Build from a claimed projector, stored as its Hermitian part."""
        p = hermitize(p, PROJECTOR_TOL)
        return cls(p.shape[0], p)

    @classmethod
    def from_span(cls, vectors) -> "Subspace":
        """Span of vectors of any finite scale: each is divided by its largest
        real or imaginary part, and the span is that of the right singular
        vectors whose singular values ``support_mask`` keeps (the numerical
        rank of Golub & Van Loan, Matrix Computations, 5.4)."""
        vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not vecs:
            raise InputError("span requires at least one vector")
        dim = vecs[0].size
        if any(v.size != dim for v in vecs):
            raise InputError("span vectors have inconsistent dimensions")
        a = np.array(vecs)
        if not np.all(np.isfinite(a)):
            raise InputError("span vector entries must be finite")
        scale = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=1, initial=0.0)
        nonzero = scale > 0.0
        try:
            _, s, vh = np.linalg.svd(a[nonzero] / scale[nonzero, None], full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"span SVD failed: {exc}") from exc
        v = vh[support_mask(s)].T
        return cls(dim, v @ v.conj().T)

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, np.eye(dim, dtype=np.complex128))

    @classmethod
    def zero(cls, dim: int) -> "Subspace":
        return cls(dim, np.zeros((dim, dim), dtype=np.complex128))


def support_mask(w: np.ndarray) -> np.ndarray:
    """The support rule: which of the weights w (eigenvalues, singular values,
    or a state's weights on any orthonormal basis) exceed RANK_TOL * max(w);
    none do when w is empty or max(w) <= 0."""
    return w > RANK_TOL * w.max(initial=0.0)

