"""Smoke test of the benchmark itself (not part of the library's test suite).

A one-second run of every workload, untraced and traced, must pass the
correctness gate and emit exactly the metrics BENCHMARK.json names, each with
its unit; the traced run must return the same statuses as the untraced one;
and a directory without the library sources must make the benchmark fail
without a result. Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_tracing_changes_nothing(workload):
    statuses = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        *_, info_line, result_line = proc.stdout.strip().splitlines()
        info, result = json.loads(info_line)["info"], json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, info["gate_errors"]
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        record = OUT / f"{workload}-seed{SEED}-trace{trace}.json"
        statuses[trace] = json.loads(record.read_text(encoding="utf-8"))["statuses"]
        if trace:
            assert info["trace_check"]["same_statuses_untraced"]
            assert info["trace_check"]["untraced_targets"] == []
    common = min(len(statuses[0]), len(statuses[1]))
    assert common >= 1
    assert statuses[0][:common] == statuses[1][:common]


def test_fails_without_library_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
