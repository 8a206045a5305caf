"""Every input of every benchmark pool decides.

The benchmark counts an op that ends in a typed failure against
``decided_frac`` and refuses a change that fails a larger share of ops, while
its own smoke test only checks that the count is in range. This test decides
each workload's whole pool at seed 1 through the workload's own op and gate,
imported read-only from ``bench/workloads.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

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
