"""In-memory span tracing around the library's public module attributes.

Every internal call path of the package resolves these names through their
module (``sdp.check_quantum_lifting`` calls ``sdp.solve_coupling_sdp``,
``linalg.is_psd`` calls ``linalg.hermitian_eig``, ...), so replacing the
module attribute with a recording wrapper traces internal calls as well as
the benchmark's own. Classes are traced through a method on the class, which
every binding of the class shares. Spans stay in memory and are written out
once the run ends; nothing is recorded unless a Tracer is installed.
"""

from __future__ import annotations

import functools
import os
import statistics
from time import perf_counter

# (module, attribute path, span name). DensityOperator is traced through its
# validation hook, which is the whole cost of constructing one.
TARGETS = (
    ("classical", "check_lifting_maxflow", "classical.check_lifting_maxflow"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "is_psd", "linalg.is_psd"),
    ("linalg", "psd_project", "linalg.psd_project"),
    ("linalg", "Subspace.from_span", "linalg.Subspace.from_span"),
    ("quantum", "DensityOperator.__post_init__", "quantum.DensityOperator"),
    ("quantum", "is_lifting_witness", "quantum.is_lifting_witness"),
    ("sdp", "check_quantum_lifting", "sdp.check_quantum_lifting"),
    ("sdp", "solve_coupling_sdp", "sdp.solve_coupling_sdp"),
    ("sdp", "verify_dual_certificate", "sdp.verify_dual_certificate"),
    ("reduction", "cross_check", "reduction.cross_check"),
    ("jsonio", "load_file", "jsonio.load_file"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("cli", "run", "cli.run"),
)

FIELDS = ("name", "start", "end", "parent", "op", "error", "value", "nested")


def _value(name, args, result):
    """The count a span carries beside its times, where its layer has one."""
    if name == "sdp.solve_coupling_sdp":
        return result.iterations
    if name == "jsonio.load_file":
        return os.path.getsize(args[0])
    if name == "jsonio.dumps":
        return len(result.encode("utf-8"))
    if name == "cli.run":
        return int(result != 0)
    return None


class Tracer:
    """Records one span per traced call: name, start, end, parent span
    index, op id, escaping exception type, a layer count, and whether it
    ran inside another span of the same name."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = tracer._stack, tracer._active
            nested = active.get(name, 0) > 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, None, nested]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            active[name] = active.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[name] -= 1
            span[6] = _value(name, args, result)
            return result

        return traced

    def install(self, modules: dict) -> list[str]:
        """Patch every target that exists; returns the span names not found."""
        missing = []
        for mod_name, path, name in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)
        return missing

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


def decile(values, k: int) -> float:
    """The k-th decile (k = 5 is the median) by the inclusive method; 0 if empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics, per op unless a count.

    Inclusive times count only the outermost span of a name; self time is a
    span's duration minus the durations of its direct children, which are
    nested and sequential in this single-threaded run.
    """
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    iters, solve_s = [], 0.0
    nonzero = 0
    json_bytes = 0
    for k, (name, start, end, _parent, _op, err, value, nested) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child[k]
        if not nested:
            incl[name] = incl.get(name, 0.0) + dur
        if name == "sdp.solve_coupling_sdp" and err is None:
            iters.append(value)
            solve_s += dur
        elif name in ("jsonio.load_file", "jsonio.dumps") and value:
            json_bytes += value
        elif name == "cli.run" and value:
            nonzero += 1

    per_op = 1e3 / max(ops, 1)

    def ms(name):
        return incl.get(name, 0.0) * per_op

    def self_ms(name):
        return self_t.get(name, 0.0) * per_op

    return {
        "sdp.solve_coupling_sdp.ms_per_op": ms("sdp.solve_coupling_sdp"),
        "sdp.ms_per_iteration": 1e3 * solve_s / max(sum(iters), 1),
        "sdp.iterations_p50": decile(iters, 5),
        "sdp.iterations_p90": decile(iters, 9),
        "sdp.check_quantum_lifting.self_ms_per_op": self_ms("sdp.check_quantum_lifting"),
        "sdp.verify_dual_certificate.ms_per_op": ms("sdp.verify_dual_certificate"),
        "linalg.hermitian_eig.calls_per_op": calls.get("linalg.hermitian_eig", 0) / max(ops, 1),
        "linalg.hermitian_eig.ms_per_op": ms("linalg.hermitian_eig"),
        "linalg.is_psd.ms_per_op": ms("linalg.is_psd"),
        "linalg.psd_project.ms_per_op": ms("linalg.psd_project"),
        "linalg.Subspace.from_span.ms_per_op": ms("linalg.Subspace.from_span"),
        "quantum.DensityOperator.ms_per_op": ms("quantum.DensityOperator"),
        "quantum.is_lifting_witness.ms_per_op": ms("quantum.is_lifting_witness"),
        "classical.check_lifting_maxflow.ms_per_op": ms("classical.check_lifting_maxflow"),
        "reduction.cross_check.self_ms_per_op": self_ms("reduction.cross_check"),
        "jsonio.load_file.ms_per_op": ms("jsonio.load_file"),
        "jsonio.dumps.ms_per_op": ms("jsonio.dumps"),
        "jsonio.bytes_per_op": json_bytes / max(ops, 1),
        "cli.run.self_ms_per_op": self_ms("cli.run"),
        "cli.exit_nonzero": nonzero,
    }
