"""Density operators, couplings, and lifting witnesses.

A coupling for (rho1, rho2) is a bipartite state whose partial traces are
rho1 and rho2; a lifting witness additionally lives inside a prescribed
subspace of the composite space. States may be sub-normalized (trace <= 1):
everything here works for partial density operators, and only the tensor
coupling genuinely requires trace one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-7
PSD_TOL = 1e-9


@dataclass(frozen=True)
class DensityOperator:
    """A positive semidefinite operator with trace at most one."""

    mat: np.ndarray

    def __post_init__(self):
        m = linalg.hermitize(self.mat, PSD_TOL)
        if not linalg._is_psd(m, PSD_TOL):
            raise InputError("density operator is not positive semidefinite")
        tr = float(np.trace(m).real)
        if tr > 1.0 + PSD_TOL:
            raise InputError(f"density operator has trace {tr:.12g} > 1")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _trusted(cls, mat: np.ndarray) -> "DensityOperator":
        """The state of a complex matrix that is Hermitian, PSD and of trace
        at most one by construction, unchecked; mat becomes read-only."""
        mat.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "mat", mat)
        return state

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @cached_property
    def support_isometry(self) -> np.ndarray:
        """Isometry onto the eigenvectors that ``linalg.support_mask`` keeps,
        from one eigendecomposition per state; its columns are the full
        eigenbasis when the state has full rank. Read-only, as it is shared."""
        w, v = linalg._eigh(self.mat)
        v = np.ascontiguousarray(v[:, linalg.support_mask(w)])
        v.setflags(write=False)
        return v

    def support(self) -> linalg.Subspace:
        v = self.support_isometry
        return linalg.Subspace(self.dim, v @ v.conj().T)


@dataclass(frozen=True)
class CouplingProblem:
    """The lifting question: does some coupling of (rho1, rho2) live in subspace?"""

    rho1: DensityOperator
    rho2: DensityOperator
    subspace: linalg.Subspace

    def __post_init__(self):
        want = self.rho1.dim * self.rho2.dim
        if self.subspace.ambient_dim != want:
            raise InputError(
                f"subspace ambient dim {self.subspace.ambient_dim} != d1*d2 = {want}"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.rho1.dim, self.rho2.dim


def marginal_deviation(
    rho: DensityOperator, rho1: DensityOperator, rho2: DensityOperator
) -> tuple[float, float]:
    """Frobenius distances of the two partial traces from (rho1, rho2)."""
    d1, d2 = rho1.dim, rho2.dim
    if rho.dim != d1 * d2:
        raise InputError(f"coupling dim {rho.dim} != d1*d2 = {d1 * d2}")
    tr2, tr1 = linalg.partial_traces(rho.mat, d1, d2)
    return float(np.linalg.norm(tr2 - rho1.mat)), float(np.linalg.norm(tr1 - rho2.mat))


def is_coupling(
    rho: DensityOperator,
    rho1: DensityOperator,
    rho2: DensityOperator,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff tr_2(rho) = rho1 and tr_1(rho) = rho2, each within tol."""
    dev1, dev2 = marginal_deviation(rho, rho1, rho2)
    return dev1 <= tol and dev2 <= tol


def support_leakage(rho: DensityOperator, subspace: linalg.Subspace) -> float:
    """Mass of rho outside the subspace, tr(rho * P_perp)."""
    if rho.dim != subspace.ambient_dim:
        raise InputError("state and subspace dimensions differ")
    return linalg.inner_product(rho.mat, subspace.perp)


def is_lifting_witness(
    rho: DensityOperator, problem: CouplingProblem, tol: float = DEFAULT_TOL
) -> bool:
    """True iff rho couples (rho1, rho2) and is supported in the subspace.

    The support condition is checked as tr(rho * P_perp) <= tol, which for
    PSD rho is equivalent to supp(rho) inside the subspace.
    """
    if not is_coupling(rho, problem.rho1, problem.rho2, tol):
        return False
    return support_leakage(rho, problem.subspace) <= tol


def uniform_density(d: int) -> DensityOperator:
    """The maximally mixed state I/d."""
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    return DensityOperator(np.eye(d, dtype=np.complex128) / d)


def coupling_unitary(u) -> tuple[DensityOperator, linalg.Subspace]:
    """The coupling rho_U = (1/d) sum_i |i, Ui><i, Ui| of two uniform states.

    Returns rho_U together with the subspace span{|i> (x) U|i>}, against
    which rho_U is a lifting witness. Distinct unitaries give distinct
    couplings of the same pair (I/d, I/d).
    """
    u = linalg.as_matrix(u)
    d = u.shape[0]
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-9 * max(1.0, float(np.sqrt(d))):
        raise InputError("matrix is not unitary")
    vecs = [np.kron(np.eye(d, dtype=np.complex128)[:, i], u[:, i]) for i in range(d)]
    rho = np.zeros((d * d, d * d), dtype=np.complex128)
    for v in vecs:
        rho += np.outer(v, v.conj())
    return DensityOperator(rho / d), linalg.Subspace.from_span(vecs)


def coupling_identity_basis(
    rho: DensityOperator, basis=None
) -> tuple[DensityOperator, linalg.Subspace]:
    """The identity coupling sum_i p_i |ii><ii| of (rho, rho) in an eigenbasis.

    basis defaults to LAPACK's eigenvectors of rho (``linalg._eigh``),
    whose choice within a degenerate eigenvalue is LAPACK's; another
    orthonormal eigenbasis may be passed in, and the resulting coupling
    genuinely depends on that choice. The subspace spans the |ii> whose
    weights p_i the support rule ``linalg.support_mask`` keeps.
    """
    if basis is None:
        weights, vectors = linalg._eigh(rho.mat)
    else:
        vectors = linalg.as_matrix(basis)
        if vectors.shape[0] != rho.dim:
            raise InputError("basis dimension does not match the state")
        if np.linalg.norm(vectors.conj().T @ vectors - np.eye(rho.dim)) > 1e-9:
            raise InputError("basis columns must be orthonormal")
        weights = np.array(
            [linalg.inner_product(np.outer(v, v.conj()), rho.mat) for v in vectors.T]
        )
    d = rho.dim
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    span = []
    for p, keep, v in zip(weights, linalg.support_mask(weights), vectors.T):
        vv = np.kron(v, v)
        out += max(float(p), 0.0) * np.outer(vv, vv.conj())
        if keep:
            span.append(vv)
    # PSD by construction; clamping negative weights can still raise the trace
    tr = float(np.trace(out).real)
    if tr > 1.0 + PSD_TOL:
        raise InputError(f"density operator has trace {tr:.12g} > 1")
    subspace = (
        linalg.Subspace.from_span(span) if span else linalg.Subspace.zero(d * d)
    )
    return DensityOperator._trusted(linalg.herm(out)), subspace


def coupling_tensor(rho1: DensityOperator, rho2: DensityOperator) -> DensityOperator:
    """The product coupling rho1 (x) rho2; requires both traces to be 1.

    For a sub-normalized factor the product's marginals shrink by the
    missing trace, so it is not a coupling; such inputs are rejected.
    """
    if abs(rho1.trace - 1.0) > 1e-9 or abs(rho2.trace - 1.0) > 1e-9:
        raise InputError(
            "tensor coupling requires normalized states: tr_2(rho1 x rho2) = "
            "tr(rho2) * rho1, so any trace deficit breaks the marginals"
        )
    return DensityOperator(linalg.tensor(rho1.mat, rho2.mat))


def expectation(a: np.ndarray, rho: DensityOperator) -> float:
    """Expectation value tr(A rho) of Hermitian A in state rho."""
    a = linalg.hermitize(a)
    if a.shape[0] != rho.dim:
        raise InputError(f"observable dim {a.shape[0]} != state dim {rho.dim}")
    return linalg.inner_product(a, rho.mat)


def couplings_imply_equal_trace(
    rho: DensityOperator,
    rho1: DensityOperator,
    rho2: DensityOperator,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Check that a coupling forces tr(rho1) = tr(rho2); returns both traces.

    Both marginal traces equal tr(rho), and |tr A| <= sqrt(d) * ||A||_F, so
    they cannot differ by more than (sqrt(d1) + sqrt(d2)) * tol. Raises
    InputError if rho is not a coupling.
    """
    if not is_coupling(rho, rho1, rho2, tol):
        raise InputError("rho is not a coupling for (rho1, rho2) at this tolerance")
    t1, t2 = rho1.trace, rho2.trace
    if abs(t1 - t2) > (math.sqrt(rho1.dim) + math.sqrt(rho2.dim)) * tol:
        raise NumericalError(f"coupling marginal traces differ by {abs(t1 - t2):.3e}")
    return t1, t2
