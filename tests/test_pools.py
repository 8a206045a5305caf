"""Every input of every benchmark pool decides, on the cone its data allows.

The benchmark counts an op that ends in a typed failure against
``decided_frac`` and refuses a change that fails a larger share of ops, while
its own smoke test only checks that the count is in range. These tests decide
each workload's whole pool at seed 1 through the workload's own op and gate,
imported read-only from ``bench/workloads.py``, and pin which cone each
solve runs on.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from helpers import record_cones, record_eigen_calls  # noqa: E402
from qcoupling import reduction, sdp  # noqa: E402
from qcoupling.quantum import CouplingProblem  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pool_input_decides_and_passes_the_gate(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    pool = workload.make_pool(np.random.default_rng(SEED))
    workload.write_inputs(pool)
    for k, inst in enumerate(pool):
        status, payload = workload.run_op(inst)
        assert status not in workloads.FAILED, f"{name} input {k} ({inst.cls}): {status}"
        err = workload.check(inst, status, payload)
        assert err is None, f"{name} input {k} ({inst.cls}): {err}"


def _cones_per_input(name, tmp_path, monkeypatch):
    """Each seed-1 pool input of the workload with its op's status and the
    cones the op solved on."""
    cones = record_cones(monkeypatch)
    workload = workloads.WORKLOADS[name](str(tmp_path))
    pool = workload.make_pool(np.random.default_rng(SEED))
    workload.write_inputs(pool)
    for inst in pool:
        cones.clear()
        status, _ = workload.run_op(inst)
        yield inst, status, [(type(c), c.d1 * c.d2) for c in cones]


def test_embedded_instances_solve_on_the_diagonal_cone(tmp_path, monkeypatch):
    # a Theorem-2 instance is exactly diagonal: an LP with D 1x1 blocks, decided
    # on vectors with no eigendecomposition, whose only PSD test verifies a
    # NotExists certificate (D = 9); only the zero state is decided without a
    # solve
    eighs, psds = record_eigen_calls(monkeypatch)
    solved = 0
    for inst, status, cones in _cones_per_input("embedded3x3", tmp_path, monkeypatch):
        want = [sdp._DiagonalCone] if sum(inst.data[0]) > 0 else []
        assert [kind for kind, _ in cones] == want
        assert eighs == [] and psds == ([] if status == "exists" else [9])
        psds.clear()
        solved += len(cones)
    assert solved == 927


def test_dense_inputs_keep_the_dense_cone(tmp_path, monkeypatch):
    for _, _, cones in _cones_per_input("dense6", tmp_path, monkeypatch):
        assert [kind for kind, _ in cones] == [sdp._DenseCone]


def test_degenerate_inputs_keep_the_dense_cone_even_at_d_one(tmp_path, monkeypatch):
    # the cone is chosen from the input, and a random subspace is never
    # exactly diagonal: inputs whose marginals both have rank one compress
    # to a 1 x 1 problem and still run on the dense cone
    sizes = []
    for _, _, cones in _cones_per_input("cli_degenerate3", tmp_path, monkeypatch):
        assert [kind for kind, _ in cones] == [sdp._DenseCone]
        sizes += [d for _, d in cones]
    assert 1 in sizes and max(sizes) > 1


def test_embedded_certificates_are_the_hall_pair(tmp_path):
    """Every NotExists verdict on an embedded seed-1 pool input carries the
    0/1 pair (diag(1_S), diag(1_R(S))) with S inside supp(mu1), whose exact
    deficiency mu1(S) - mu2(R(S)) is positive; with one entry of Y2 on R(S)
    zeroed, the pair no longer separates."""
    workload = workloads.WORKLOADS["embedded3x3"](str(tmp_path))
    refuted = 0
    for inst in workload.make_pool(np.random.default_rng(SEED)):
        mu1, mu2, rel = inst.data
        if sum(mu1) == 0:
            continue
        problem = CouplingProblem(
            reduction.embed_distribution(mu1),
            reduction.embed_distribution(mu2),
            reduction.embed_relation(rel),
        )
        verdict = sdp.check_quantum_lifting(problem)
        if verdict.exists:
            continue
        refuted += 1
        y1, y2 = verdict.certificate
        s = {i for i in range(3) if y1[i, i] == 1.0}
        image = {j for i, j in rel.pairs if i in s}
        assert np.array_equal(y1, np.diag([float(i in s) for i in range(3)]))
        assert np.array_equal(y2, np.diag([float(j in image) for j in range(3)]))
        assert all(mu1[i] > 0 for i in s)
        assert sum((Fraction(mu1[i]) for i in s), Fraction(0)) > sum(
            (Fraction(mu2[j]) for j in image), Fraction(0))
        for j in image:
            cut = y2.copy()
            cut[j, j] = 0.0
            assert not sdp.verify_dual_certificate(y1, cut, problem, 10 * sdp.EPS_SOLVE)
    assert refuted == 658
