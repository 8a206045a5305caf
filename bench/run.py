#!/usr/bin/env python3
"""qcoupling benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` and from nowhere else. BLAS/OpenMP threads are pinned to 1 before
numpy is imported. ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs every op twice, traced and untraced, reports the
per-layer metrics and the tracing overhead, and fails unless both runs of
every op return the same status; it then runs a fixed near-singular probe
once and counts the probe's solver failures. Every verdict and proof
object is re-checked after the timed loop by ``gate.py``. The last line of
stdout is the JSON result; the line before it carries the environment and
the input mix. Records and spans go to ``.bench_out/`` in the checkout.
See README.md in this directory for the workloads and the metric map.
"""

import os

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINS_BEFORE = {k: os.environ.get(k) for k in PINS}
for _k in PINS:
    os.environ[_k] = "1"

import argparse  # noqa: E402  (the pins must precede any numpy import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("classical", "linalg", "quantum", "sdp", "reduction", "jsonio", "cli")
SETUP_REPEATS = 9

# BENCHMARK.json is the one list of workload names and metric units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "pins": {k: os.environ[k] for k in PINS},
        "pins_before": PINS_BEFORE,
    }


def _clear_caches(modules: dict) -> None:
    """Empty every functools cache in the package, so each set-up refills them."""
    for mod in modules.values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _setup(wl, seed: int, modules: dict, np):
    """Inputs from the seed, then one warm-up op per pair of marginal ranks
    (the dimension the solver works in), which fills its per-dimension caches."""
    _clear_caches(modules)
    pool = wl.make_pool(np.random.default_rng(seed))
    first = {}
    for inst in pool:
        first.setdefault(inst.signature, inst)
    for inst in first.values():
        wl.run_op(inst)
    return pool


def _loop(wl, pool, seconds):
    """Closed loop over the pool until ``seconds`` have passed."""
    statuses, payloads, latencies = [], [], []
    start = now = perf_counter()
    i = 0
    while now - start < seconds:
        t0 = perf_counter()
        status, payload = wl.run_op(pool[i % len(pool)])
        now = perf_counter()
        latencies.append(now - t0)
        statuses.append(status)
        payloads.append(payload)
        i += 1
    return statuses, payloads, latencies, now - start


def _traced_loop(wl, pool, seconds, tracer, modules):
    """Run every op twice, traced and untraced, alternating which goes first
    so that drift in machine speed cancels out of the overhead. Returns the
    traced statuses and payloads, the untraced statuses, both summed op
    times, and the span names that could not be traced."""
    statuses, payloads, plain = [], [], []
    traced_s = plain_s = 0.0
    missing: list = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        inst = pool[i % len(pool)]
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                missing = tracer.install(modules)
                tracer.op = i
            try:
                t0 = perf_counter()
                status, payload = wl.run_op(inst)
                dt = perf_counter() - t0
            finally:
                tracer.uninstall()
            if traced:
                statuses.append(status)
                payloads.append(payload)
                traced_s += dt
            else:
                plain.append(status)
                plain_s += dt
        i += 1
    return statuses, payloads, plain, traced_s, plain_s, missing


def _gate(wl, pool, statuses, payloads, failed_statuses) -> list[str]:
    errors = []
    for i, (status, payload) in enumerate(zip(statuses, payloads)):
        if status in failed_statuses:
            continue
        err = wl.check(pool[i % len(pool)], status, payload)
        if err:
            errors.append(f"op {i} ({pool[i % len(pool)].cls}): {err}")
    return errors


def _inputs(pool, statuses) -> dict:
    n = len(statuses)
    mix: dict = {}
    deficient = 0
    for i, status in enumerate(statuses):
        inst = pool[i % len(pool)]
        deficient += inst.rank_deficient
        per = mix.setdefault(inst.cls, {})
        per[status] = per.get(status, 0) + 1
    return {
        "exists_frac": statuses.count("exists") / max(n, 1),
        "rank_deficient_frac": deficient / max(n, 1),
        "mix": mix,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "qcoupling" / "__init__.py").is_file():
        print(f"error: no qcoupling sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np
    import qcoupling
    from qcoupling import classical, cli, jsonio, linalg, quantum, reduction, sdp
    import_s = perf_counter() - t0
    if not Path(qcoupling.__file__).resolve().is_relative_to(src):
        print(f"error: qcoupling imported from {qcoupling.__file__}, not {src}",
              file=sys.stderr)
        return 2
    modules = dict(zip(LAYERS, (classical, linalg, quantum, sdp, reduction, jsonio, cli)))

    import spans as spans_mod
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](str(workdir))
        # input files are the benchmark's own I/O, not the library's: written
        # once, untimed, so that the file system's speed stays out of setup_s
        wl.write_inputs(wl.make_pool(np.random.default_rng(args.seed)))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            pool = _setup(wl, args.seed, modules, np)
            setup_times.append(perf_counter() - t0)

        info: dict = {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "import_s": import_s, "setup_repeats_s": setup_times}
        if args.trace:
            tracer = spans_mod.Tracer()
            statuses, payloads, plain, traced_s, plain_s, missing = _traced_loop(
                wl, pool, args.seconds, tracer, modules)
            wall = traced_s + plain_s
            metrics = spans_mod.layer_metrics(tracer.spans, len(statuses))
            metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
            probe, probe_errors = workloads.near_singular_probe(
                np.random.default_rng((args.seed, 1)))
            metrics["near_singular.solver_failures"] = probe.count("SolverFailure")
            metrics["near_singular.raw_linalg_errors"] = probe.count("LinAlgError")
            info["near_singular_probe"] = {"statuses": probe, "gate_errors": probe_errors}
            info["trace_check"] = {"same_statuses_untraced": plain == statuses,
                                   "untraced_targets": missing, "spans": len(tracer.spans)}
            with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump({"fields": spans_mod.FIELDS, "spans": tracer.spans}, fh)
        else:
            statuses, payloads, latencies, wall = _loop(wl, pool, args.seconds)

        errors = _gate(wl, pool, statuses, payloads, workloads.FAILED)
        failed = sum(s in workloads.FAILED for s in statuses)
        n = len(statuses)
        inputs = _inputs(pool, statuses)
        info.update(ops=n, wall_s=wall, inputs=inputs, gate_errors=errors[:10],
                    env=_environment(np))
        if args.trace:
            correct = (not errors and not probe_errors
                       and info["trace_check"]["same_statuses_untraced"])
        else:
            ms = [1e3 * t for t in latencies]
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "ops_per_s": n / wall,
                "latency_p50_ms": spans_mod.decile(ms, 5),
                "latency_p90_ms": spans_mod.decile(ms, 9),
                "decided_frac": (n - failed) / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            correct = not errors
        result = {
            "correct": correct,
            "attempted": n,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        }
        record = {"info": info, "result": result, "statuses": statuses}
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
