"""Shared random generators for the test suite, plus two solver probes. Every
generator takes an explicit numpy Generator so each test pins its own seed."""

from fractions import Fraction

import numpy as np

from qcoupling import DensityOperator, Relation, Subspace, linalg, sdp


def rand_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2.0


def rand_density(rng, d, trace=1.0, rank=None):
    """Random PSD matrix of the given trace; rank defaults to full."""
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityOperator(m * (trace / np.trace(m).real))


def rand_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_subspace(rng, d, r):
    """Span of r random complex vectors in dimension d."""
    span = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
    return Subspace.from_span(span)


def rand_matched_rationals(rng, m, n, max_den=20):
    """Two rational sub-distributions with equal totals and one common
    denominator <= max_den, so every Strassen margin is 0 or >= 1/max_den."""
    den = int(rng.integers(2, max_den + 1))
    tot = int(rng.integers(0, den + 1))
    a = rng.multinomial(tot, [1.0 / m] * m)
    b = rng.multinomial(tot, [1.0 / n] * n)
    mu1 = [Fraction(int(x), den) for x in a]
    mu2 = [Fraction(int(x), den) for x in b]
    return mu1, mu2


def all_relations(m, n):
    """Every relation on [m] x [n], as an iterator (2^(m*n) of them)."""
    for mask in range(1 << (m * n)):
        pairs = [(k // n, k % n) for k in range(m * n) if mask >> k & 1]
        yield Relation.from_pairs(m, n, pairs)


def rand_relation(rng, m, n, p=0.5):
    pairs = [(i, j) for i in range(m) for j in range(n) if rng.random() < p]
    return Relation.from_pairs(m, n, pairs)


def record_cones(monkeypatch):
    """The list of cones that every later interior-point solve runs on, in
    call order, recorded by wrapping sdp._solve_core."""
    cones = []
    core = sdp._solve_core

    def recording(cone, *args):
        cones.append(cone)
        return core(cone, *args)

    monkeypatch.setattr(sdp, "_solve_core", recording)
    return cones


def record_eigen_calls(monkeypatch):
    """The orders of the matrices passed to linalg._eigh and to
    linalg._is_psd, each list in call order, from now on."""
    eighs, psds = [], []
    eigh, is_psd = linalg._eigh, linalg._is_psd
    monkeypatch.setattr(linalg, "_eigh", lambda h: eighs.append(h.shape[0]) or eigh(h))
    monkeypatch.setattr(
        linalg, "_is_psd", lambda h, tol: psds.append(h.shape[0]) or is_psd(h, tol)
    )
    return eighs, psds
