#!/usr/bin/env python3
"""Digest of every benchmark pool input's outcome, for equivalence checks.

    python3 tools/pool_digest.py --root DIR --seeds 1 11 7919

Imports the library from ``DIR/src`` and the workloads from
``DIR/bench/workloads.py``, writing nothing under DIR, and decides every
input of every workload's pool at each seed through the workload's own op.
It prints one line per workload: the number of inputs and the SHA-256 of
their outcomes. An outcome is the op's status plus its result: the proof
object of a lifting verdict, the emitted and re-verified JSON of a CLI op,
the report of a cross-check. Two checkouts that print the same digests gave
every input the same verdict and bit-identical proof objects. Run it once
per checkout, each in its own process. BLAS/OpenMP threads are pinned to 1
before numpy is imported, as in ``bench/run.py``.
"""

import os

for _k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"

import argparse  # noqa: E402  (the pins must precede any numpy import)
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _feed(h, obj) -> None:
    """Hash obj by value: arrays by dtype, shape and bytes, dataclasses field
    by field, containers element by element, anything else by repr."""
    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(json.dumps(obj, sort_keys=True).encode())
    else:
        h.update(repr(obj).encode())


def _outcome(status: str, payload):
    """What an op's result contributes: a lifting verdict only its proof
    object, anything else (CLI JSON, a cross-check report, an error
    message) all of itself."""
    if hasattr(payload, "certificate"):
        return payload.witness, payload.certificate
    return payload


def digest(workloads, name: str, seeds) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.WORKLOADS[name](workdir)
            pool = wl.make_pool(np.random.default_rng(seed))
            wl.write_inputs(pool)
            for inst in pool:
                status, payload = wl.run_op(inst)
                h.update(status.encode())
                _feed(h, _outcome(status, payload))
                count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", required=True, help="a source checkout with src/ and bench/")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 11, 7919])
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    print(f"root {root}, seeds {' '.join(map(str, args.seeds))}")
    for name in workloads.WORKLOADS:
        count, hexdigest = digest(workloads, name, args.seeds)
        print(f"{name}: {count} inputs, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
