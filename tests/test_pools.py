"""Every input of every benchmark pool decides, on the cone its data allows.

The benchmark counts an op that ends in a typed failure against
``decided_frac`` and refuses a change that fails a larger share of ops, while
its own smoke test only checks that the count is in range. These tests decide
each workload's whole pool at seed 1 through the workload's own op and gate,
imported read-only from ``bench/workloads.py``, and pin which cone each
solve runs on.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from helpers import record_cones  # noqa: E402
from qcoupling import sdp  # noqa: E402

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
    """Each seed-1 pool input of the workload with the cones its op solved on."""
    cones = record_cones(monkeypatch)
    workload = workloads.WORKLOADS[name](str(tmp_path))
    pool = workload.make_pool(np.random.default_rng(SEED))
    workload.write_inputs(pool)
    for inst in pool:
        cones.clear()
        workload.run_op(inst)
        yield inst, [(type(c), c.d1 * c.d2) for c in cones]


def test_embedded_instances_solve_on_the_diagonal_cone(tmp_path, monkeypatch):
    # a Theorem-2 instance compresses to diagonal data: an LP with D 1x1 blocks;
    # only the zero state is decided without a solve
    solved = 0
    for inst, cones in _cones_per_input("embedded3x3", tmp_path, monkeypatch):
        want = [sdp._DiagonalCone] if sum(inst.data[0]) > 0 else []
        assert [kind for kind, _ in cones] == want
        solved += len(cones)
    assert solved == 927


def test_dense_inputs_keep_the_dense_cone(tmp_path, monkeypatch):
    for _, cones in _cones_per_input("dense6", tmp_path, monkeypatch):
        assert [kind for kind, _ in cones] == [sdp._DenseCone]


def test_degenerate_inputs_take_the_diagonal_cone_exactly_at_d_one(tmp_path, monkeypatch):
    # a random subspace compresses to dense data unless both marginals have
    # rank one, when the compressed problem is 1 x 1
    sizes = {sdp._DiagonalCone: [], sdp._DenseCone: []}
    for _, cones in _cones_per_input("cli_degenerate3", tmp_path, monkeypatch):
        for kind, d in cones:
            sizes[kind].append(d)
    assert sizes[sdp._DiagonalCone] and set(sizes[sdp._DiagonalCone]) == {1}
    assert sizes[sdp._DenseCone] and 1 not in sizes[sdp._DenseCone]
