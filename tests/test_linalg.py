"""Tests for the dense Hermitian tool layer: validation, tensor/partial
trace, the LAPACK eigendecomposition and the Jacobi PSD test, and subspace
handling."""

import json
import math

import numpy as np
import pytest

from qcoupling import cli, jsonio, linalg, quantum
from qcoupling.errors import InputError, NumericalError
from qcoupling.quantum import DensityOperator

from helpers import rand_density, rand_hermitian, rand_unitary


def test_as_matrix_accepts_lists_and_casts():
    m = linalg.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(InputError):
        linalg.as_matrix([1, 2, 3])
    with pytest.raises(InputError):
        linalg.as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InputError):
        linalg.as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(InputError):
        linalg.as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(InputError):
        linalg.as_matrix(np.zeros((0, 0)))


def test_hermitize_averages_and_rejects_skew():
    rng = np.random.default_rng(0)
    h = rand_hermitian(rng, 4)
    noise = rng.normal(size=(4, 4)) * 1e-12
    out = linalg.hermitize(h + noise)
    assert np.allclose(out, out.conj().T)
    assert np.linalg.norm(out - h) < 1e-11
    with pytest.raises(InputError):
        linalg.hermitize(np.array([[0, 1], [0, 0]]))


def test_tensor_is_kron():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [-1j, 0]])
    t = linalg.tensor(a, b)
    assert t.shape == (4, 4)
    assert t[0, 1] == 1j  # a[0,0] * b[0,1]
    assert t[2, 3] == 4j  # a[1,1] * b[0,1]
    assert t[3, 0] == -3j  # a[1,0] * b[1,0]


def test_partial_trace_of_product_states():
    rng = np.random.default_rng(1)
    a = rand_hermitian(rng, 2)
    b = rand_hermitian(rng, 3)
    ab = linalg.tensor(a, b)
    assert np.allclose(linalg.partial_trace(ab, 2, 3, "second"), np.trace(b) * a)
    assert np.allclose(linalg.partial_trace(ab, 2, 3, "first"), np.trace(a) * b)


def test_partial_trace_is_trace_preserving():
    rng = np.random.default_rng(2)
    m = rand_hermitian(rng, 6)
    t1 = np.trace(linalg.partial_trace(m, 2, 3, "second"))
    t2 = np.trace(linalg.partial_trace(m, 2, 3, "first"))
    assert abs(t1 - np.trace(m)) < 1e-12
    assert abs(t2 - np.trace(m)) < 1e-12


def test_partial_trace_adjoint_identity():
    """<Phi(M), N> = <M, Phi*(N)> where Phi = (tr_2, tr_1) and
    Phi*(N1, N2) = N1 (x) I + I (x) N2."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        d1, d2 = rng.integers(1, 5), rng.integers(1, 5)
        m = rand_hermitian(rng, d1 * d2)
        n1 = rand_hermitian(rng, d1)
        n2 = rand_hermitian(rng, d2)
        lhs = linalg.inner_product(
            linalg.partial_trace(m, d1, d2, "second"), n1
        ) + linalg.inner_product(linalg.partial_trace(m, d1, d2, "first"), n2)
        rhs = linalg.inner_product(
            m,
            linalg.tensor(n1, np.eye(d2)) + linalg.tensor(np.eye(d1), n2),
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_inner_product_real_for_hermitian_pairs():
    rng = np.random.default_rng(4)
    a, b = rand_hermitian(rng, 5), rand_hermitian(rng, 5)
    v = linalg.inner_product(a, b)
    assert isinstance(v, float)
    assert abs(v - np.trace(a @ b).real) < 1e-12


def test_inner_product_rejects_large_imaginary_part():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 1j], [0, 0]], dtype=complex)
    with pytest.raises(InputError):
        linalg.inner_product(a, b)  # tr(a^dag b) = 1j, not a real pairing


def test_hermitian_eig_reconstructs_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 17))
        h = rand_hermitian(rng, d, scale=float(rng.uniform(0.1, 10)))
        spec = linalg.hermitian_eig(h)
        v = spec.eigenvectors
        rel = np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - h) / max(
            1e-300, np.linalg.norm(h)
        )
        assert rel <= 1e-9
        # columns orthonormal, eigenvalues descending
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-10
        assert all(
            spec.eigenvalues[i] >= spec.eigenvalues[i + 1] for i in range(d - 1)
        )


def test_hermitian_eig_matches_lapack_eigenvalues():
    """Independent route: the eigenvalues of the Jacobi sweep behind the PSD
    test must agree with LAPACK."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        h = rand_hermitian(rng, d)
        ours = np.sort(linalg._jacobi_eigvals(linalg.hermitize(h)))
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_hermitian_eig_exact_on_diagonal():
    spec = linalg.hermitian_eig(np.diag([3.0, -1.0, 2.0]))
    v = spec.eigenvectors
    assert np.array_equal(spec.eigenvalues, [3.0, 2.0, -1.0])
    assert np.allclose((v * spec.eigenvalues) @ v.conj().T, np.diag([3.0, -1.0, 2.0]))


@pytest.mark.parametrize("h, want", [
    (np.diag([3.0, -1.0, 2.0]), [3.0, -1.0, 2.0]),
    (np.array([[-2.5]]), [-2.5]),
    (np.zeros((4, 4)), [0.0] * 4),
], ids=["diagonal", "1x1", "zero"])
def test_jacobi_kernel_is_exact_without_rotations(h, want):
    """A matrix with no off-diagonal mass needs no rotation: the kernel
    returns its diagonal exactly, in diagonal order."""
    assert np.array_equal(linalg._jacobi_eigvals(linalg.hermitize(h)), want)


def test_jacobi_sweep_cap_is_a_numerical_error(monkeypatch, tmp_path):
    """The kernel's one raise: with the cap at one sweep, a dense 9 x 9
    matrix exhausts it, so the PSD test raises NumericalError and a CLI
    certificate check exits 2."""
    rng = np.random.default_rng(12)
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericalError):
        linalg.is_psd(rand_hermitian(rng, 9))
    # diagonal marginals pass the door without a rotation; the certificate's
    # 9 x 9 difference P_perp - (Y1 (x) I - I (x) Y2) is dense
    files = {
        "rho1": np.diag([0.5, 0.3, 0.2]),
        "rho2": np.diag([0.2, 0.3, 0.5]),
        "y1": rand_hermitian(rng, 3),
        "y2": rand_hermitian(rng, 3),
    }
    args = []
    for name, m in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"re": m.real.tolist(), "im": m.imag.tolist()}))
        args += [f"--{name}", str(path)]
    span = tmp_path / "sub.json"
    span.write_text(json.dumps({"span": rng.normal(size=(4, 9)).tolist()}))
    assert cli.run(["verify-certificate", *args, "--subspace", str(span)]) == 2


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_and_projection():
    h = np.diag([1.0, -1e-12, -0.5])
    assert not linalg.is_psd(h, tol=1e-13)
    assert linalg.is_psd(np.diag([1.0, -1e-12]), tol=1e-9)
    p = linalg.psd_project(h)
    w = np.linalg.eigvalsh(p)
    assert w[0] >= -1e-15
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-11)
    # already-PSD input passes through unchanged up to roundoff
    rng = np.random.default_rng(7)
    rho = rand_density(rng, 4).mat
    assert np.linalg.norm(linalg.psd_project(rho) - rho) < 1e-12


def test_pair_index():
    assert linalg.pair_index(0, 0, 3) == 0
    assert linalg.pair_index(1, 2, 3) == 5
    assert linalg.pair_index(2, 0, 3) == 6


def test_subspace_from_projector_roundtrip():
    p = np.diag([1.0, 1.0, 0.0])
    sub = linalg.Subspace.from_projector(p)
    assert sub.rank == 2
    assert sub.ambient_dim == 3
    assert np.allclose(sub.perp, np.diag([0.0, 0.0, 1.0]))


def test_subspace_from_projector_rejects_non_idempotent():
    with pytest.raises(InputError):
        linalg.Subspace.from_projector(np.diag([0.5, 1.0]))


def test_subspace_from_span_orthonormalizes():
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    sub = linalg.Subspace.from_span(vecs)
    p = sub.projector
    assert np.linalg.norm(p @ p - p) < 1e-12
    assert sub.rank == 3
    for v in vecs:  # every input vector lies inside
        assert np.linalg.norm(p @ v - v) < 1e-9 * np.linalg.norm(v)


def test_subspace_from_span_drops_dependent_vectors():
    v = np.array([1.0, 2.0, 0.0])
    sub = linalg.Subspace.from_span([v, 2 * v, [0.0, 0.0, 1.0]])
    assert sub.rank == 2


# pytest turns a RuntimeWarning (an overflow or underflow in the span
# arithmetic) into an error, so each of these also fails on a warning
@pytest.mark.parametrize(
    "vecs, rank",
    [
        ([[1e308, 1e308, 0.0, 0.0]], 1),
        ([[1e308 + 1e308j, 0.0, 0.0, 1e308j]], 1),
        ([[1e-10, 0.0, 0.0, 0.0]], 1),
        ([[1e-300, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], 2),
        ([[0.0, 0.0, 0.0, 0.0]], 0),
    ],
)
def test_span_rank_ignores_vector_scale(vecs, rank):
    sub = linalg.Subspace.from_span(vecs)
    assert sub.rank == rank
    p = sub.projector
    assert np.linalg.norm(p @ p - p) < 1e-12
    for v in np.asarray(vecs, dtype=complex):  # each vector lies inside
        if v.any():
            u = v / np.abs(v).max()
            assert np.linalg.norm(p @ u - u) < 1e-12


def test_span_projector_is_scale_invariant():
    rng = np.random.default_rng(12)
    vecs = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    want = linalg.Subspace.from_span(vecs).projector
    for scale in (1e-200, 1e200):
        got = linalg.Subspace.from_span(vecs * scale).projector
        assert np.linalg.norm(got - want) < 1e-12


def test_parse_subspace_keeps_a_huge_span_vector():
    sub = jsonio.parse_subspace({"span": [[1e308, 1e308, 0, 0]]}, 4)
    assert sub.rank == 1
    assert np.allclose(sub.projector, np.outer([1, 1, 0, 0], [1, 1, 0, 0]) / 2)


def _lapack_breaks(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def test_span_svd_failure_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _lapack_breaks)
    with pytest.raises(NumericalError):
        linalg.Subspace.from_span([[1.0, 0.0], [1.0, 1.0]])


def test_support_eigh_failure_is_a_numerical_error(monkeypatch):
    rho = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    monkeypatch.setattr(np.linalg, "eigh", _lapack_breaks)
    with pytest.raises(NumericalError):
        rho.support()


@pytest.mark.parametrize("decompose", [
    linalg.hermitian_eig,
    linalg.psd_project,
    lambda m: quantum.coupling_identity_basis(DensityOperator(m)),
], ids=["hermitian_eig", "psd_project", "coupling_identity_basis"])
def test_eigh_failure_is_a_numerical_error(monkeypatch, decompose):
    """Every eigendecomposition goes through linalg._eigh, so a LAPACK
    breakdown reaches each caller as a NumericalError, never raw."""
    m = np.diag([0.5, 0.3, 0.2])
    monkeypatch.setattr(np.linalg, "eigh", _lapack_breaks)
    with pytest.raises(NumericalError):
        decompose(m)


def test_subspace_full_and_zero():
    assert linalg.Subspace.full(4).rank == 4
    assert linalg.Subspace.zero(4).rank == 0
    assert np.array_equal(linalg.Subspace.zero(4).perp, np.eye(4))


def test_support_of_low_rank_state():
    rng = np.random.default_rng(9)
    rho = rand_density(rng, 5, rank=2)
    sub = rho.support()
    assert sub.rank == 2
    assert abs(linalg.inner_product(rho.mat, sub.perp)) < 1e-12


def test_support_zero_matrix_is_zero_subspace():
    assert DensityOperator(np.zeros((3, 3))).support().rank == 0


def test_support_matches_expectation_characterization():
    """supp(rho) equals the orthocomplement of {psi : tr(rho |psi><psi|) = 0};
    checked both ways on random low-rank states."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        rho = rand_density(rng, d, rank=r).mat
        p = DensityOperator(rho).support().projector
        # vectors inside the support see positive mass
        spec = linalg.hermitian_eig(rho)
        for k in range(r):
            v = spec.eigenvectors[:, k]
            assert np.vdot(v, rho @ v).real > 1e-12
            assert np.linalg.norm(p @ v - v) < 1e-8
        # vectors with zero mass are orthogonal to the support
        for k in range(r, d):
            v = spec.eigenvectors[:, k]
            assert abs(np.vdot(v, rho @ v).real) < 1e-10
            assert np.linalg.norm(p @ v) < 1e-7
