"""The three closed-loop workloads: seeded input generation, one op, its gate.

Each workload draws a pool of raw numpy / Fraction inputs from the seed and
cycles through it, one op after another with no think time (one client).
A pool is small enough that a run times each input several times.
Input classes follow a fixed schedule over the op index, so every seed runs
the same mix and only the random draws inside each class change; ranks are
cycled the same way. An op calls the library only through its public module
attributes, so a traced run sees every layer it crosses. Typed failures are
returned as a status, never skipped, and count against ``decided_frac``.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from qcoupling import cli, classical, linalg, quantum, reduction, sdp
from qcoupling.errors import InputError, NumericalError

import gate

# statuses of an op that ended in a typed failure; everything else is a verdict
# (or an error the gate rejects)
FAILED = ("SolverFailure", "NumericalError", "LinAlgError", "exit_1", "exit_2")


@dataclass(frozen=True)
class Instance:
    cls: str
    planted: bool
    rank_deficient: bool
    signature: tuple  # warm-up key: the marginal ranks, i.e. the solved dimension
    data: tuple


# ----------------------------------------------------------------- generators


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _density(rng, d: int, rank: int) -> np.ndarray:
    g = _gaussian(rng, d, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _near_singular(rng, d: int, eps: float) -> np.ndarray:
    u = _haar(rng, d)
    m = (u * np.array([1.0] + [eps] * (d - 1))) @ u.conj().T
    return m / np.trace(m).real


def _planted(rng, d: int, rank: int, extra: int = 0):
    """A rank-``rank`` state X on a random span, its marginals, and the span
    (plus ``extra`` random vectors): a lifting exists by construction."""
    vecs = _gaussian(rng, rank, d * d)
    x = (vecs.T * rng.uniform(0.1, 1.0, size=rank)) @ vecs.conj()
    x /= np.trace(x).real
    rho1, rho2 = gate.partial_traces(x, d, d)
    span = np.vstack([vecs, _gaussian(rng, extra, d * d)]) if extra else vecs
    return gate.herm(rho1), gate.herm(rho2), span


def _half_planted(rng, d: int, i: int, pairs: int):
    """Input i of a half-planted mix: odd i planted (Exists by construction),
    even i full-rank random marginals and a random subspace (mostly
    NotExists). Over ``pairs`` pairs the subspace rank steps evenly from d
    towards D-1, the same in both halves."""
    rank = d + (i // 2 % pairs) * (d * d - d) // pairs
    if i % 2:
        return ("planted", True, *_planted(rng, d, rank))
    return "random", False, _density(rng, d, d), _density(rng, d, d), _gaussian(rng, rank, d * d)


def _degenerate(rng, d: int, slot: str, turn: int):
    """One d x d input of a degenerate class. Every class but the planted one
    gets a random subspace whose rank cycles over [1, D-1] with ``turn``."""
    big = d * d
    rank = 1 + turn % (big - 1)
    if slot.startswith("near:"):
        eps = float(slot[5:])
        return (_near_singular(rng, d, eps), _near_singular(rng, d, eps),
                _gaussian(rng, rank, big))
    if slot == "rank_deficient":
        return (_density(rng, d, 1 + turn % 2), _density(rng, d, 1 + turn // 2 % 2),
                _gaussian(rng, rank, big))
    if slot == "planted_low_rank":
        return _planted(rng, d, 1 + turn % (d - 1), extra=turn // 2 % 3)
    raise ValueError(f"unknown input class {slot!r}")


def _quantum_instance(cls, planted, rho1, rho2, span, *extra) -> Instance:
    r1, r2 = gate.numerical_rank(rho1), gate.numerical_rank(rho2)
    deficient = r1 < rho1.shape[0] or r2 < rho2.shape[0]
    return Instance(cls, planted, deficient, (r1, r2), (rho1, rho2, span, *extra))


# --------------------------------------------------------------- op and gate


def _lifting(rho1, rho2, span):
    """One quantum op: build the problem through the public API and decide it."""
    try:
        problem = quantum.CouplingProblem(
            quantum.DensityOperator(rho1),
            quantum.DensityOperator(rho2),
            linalg.Subspace.from_span(span),
        )
        verdict = sdp.check_quantum_lifting(problem)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, None
    except InputError as exc:
        return "InputError", str(exc)
    return ("exists" if verdict.exists else "not_exists"), verdict


def _check_proof(inst: Instance, witness, certificate) -> str | None:
    """Gate one proof object: the witness if given, else the certificate."""
    rho1, rho2, span = inst.data[:3]
    if witness is not None:
        return gate.check_witness(witness, rho1, rho2, gate.span_projector(span))
    if inst.planted:
        return "planted (feasible) instance decided not_exists"
    return gate.check_certificate(*certificate, rho1, rho2, span)


def _check_lifting(inst: Instance, status: str, verdict) -> str | None:
    """None when the verdict and its proof object pass the gate."""
    if status not in ("exists", "not_exists"):
        return f"op raised {status}: {verdict}"
    if verdict.exists:
        return _check_proof(inst, verdict.witness.mat, None)
    return _check_proof(inst, None, verdict.certificate)


class LiftingWorkload:
    """Base for the workloads whose op is one ``check_quantum_lifting``."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def write_inputs(self, pool):
        """Write the pool's input files, if its ops read any."""

    def run_op(self, inst: Instance):
        return _lifting(*inst.data)

    def check(self, inst: Instance, status: str, verdict) -> str | None:
        return _check_lifting(inst, status, verdict)


class Dense6(LiftingWorkload):
    """d1 = d2 = 6 (D = 36), full-rank marginals, half planted: the random
    half exercises the certificate path, the planted half the witness path."""

    d = 6
    pool_size = 30

    def make_pool(self, rng):
        pairs = self.pool_size // 2
        return [_quantum_instance(*_half_planted(rng, self.d, i, pairs))
                for i in range(self.pool_size)]


def _degenerate_pool(rng, d: int, slots: tuple, size: int) -> list[Instance]:
    """``size`` inputs cycling over ``slots``: each slot's rank schedule
    advances once per cycle."""
    pool = []
    for i in range(size):
        slot, turn = slots[i % len(slots)], i // len(slots)
        data = _degenerate(rng, d, slot, turn)
        pool.append(_quantum_instance(slot, slot.startswith("planted"), *data))
    return pool


# d = 3 classes on which the solver decides every input: exactly
# rank-deficient marginals (mostly NotExists: the certificate is completed
# on their kernels) and planted witnesses of rank < d (Exists,
# support-compressed)
DEGENERATE_SLOTS = ("rank_deficient", "planted_low_rank")
# d = 3 classes on which the solver is known to fail on most inputs (a
# SolverFailure or a raw LinAlgError); run only as a fixed probe
NEAR_SINGULAR_SLOTS = ("near:1e-6", "near:1e-8")
NEAR_SINGULAR_PROBE = 16


def near_singular_probe(rng) -> tuple[list[str], list[str]]:
    """Decide the fixed near-singular probe once: the status of each op and
    the gate errors of the ops that ended in a verdict."""
    statuses, errors = [], []
    for k, inst in enumerate(_degenerate_pool(rng, 3, NEAR_SINGULAR_SLOTS, NEAR_SINGULAR_PROBE)):
        status, verdict = _lifting(*inst.data)
        statuses.append(status)
        err = None if status in FAILED else _check_lifting(inst, status, verdict)
        if err:
            errors.append(f"probe op {k} ({inst.cls}): {err}")
    return statuses, errors


class Embedded3x3(LiftingWorkload):
    """Theorem-2 instances: a random relation on [3]x[3] and two matched
    rational sub-distributions over one denominator <= 20; one op is
    ``reduction.cross_check`` on exact Fractions (a D = 9 SDP plus max-flow),
    gated against an exact exhaustive Hall check of the benchmark's own."""

    pool_size = 1024

    def make_pool(self, rng):
        pool = []
        for _ in range(self.pool_size):
            den = int(rng.integers(2, 21))
            tot = int(rng.integers(0, den + 1))
            mu1 = [Fraction(int(k), den) for k in rng.multinomial(tot, [1 / 3] * 3)]
            mu2 = [Fraction(int(k), den) for k in rng.multinomial(tot, [1 / 3] * 3)]
            mask = int(rng.integers(0, 512))
            pairs = frozenset((k // 3, k % 3) for k in range(9) if mask >> k & 1)
            rel = classical.Relation.from_pairs(3, 3, pairs)
            nnz = (sum(w > 0 for w in mu1), sum(w > 0 for w in mu2))
            pool.append(Instance("embedded", False, min(nnz) < 3, nnz, (mu1, mu2, rel)))
        return pool

    def run_op(self, inst: Instance):
        try:
            report = reduction.cross_check(*inst.data)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            return type(exc).__name__, None
        except InputError as exc:
            return "InputError", str(exc)
        return report.quantum_verdict, report

    def check(self, inst: Instance, status: str, report) -> str | None:
        if status not in ("exists", "not_exists"):
            return f"op raised {status}: {report}"
        mu1, mu2, rel = inst.data
        want = "exists" if gate.hall_exists(mu1, mu2, rel.pairs, 3, 3) else "not_exists"
        if (report.classical_verdict, report.quantum_verdict) != (want, want):
            return f"verdicts {report.classical_verdict}/{report.quantum_verdict}, oracle {want}"
        if report.witness_roundtrip_error > gate.MARGINAL_TOL:
            return f"witness round trip off by {report.witness_roundtrip_error:.3e}"
        return None


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


class CliDegenerate3(LiftingWorkload):
    """In-process ``cli.run`` on d = 3 JSON input files, over the degenerate
    classes the solver decides: one op is ``check-lifting --out`` and then
    ``verify-witness`` or ``verify-certificate`` on the proof object it
    emitted, as a CLI user re-checks it."""

    d = 3
    pool_size = 150

    def make_pool(self, rng):
        pool = _degenerate_pool(rng, self.d, DEGENERATE_SLOTS, self.pool_size)
        for i, inst in enumerate(pool):
            names = [os.path.join(self.workdir, f"{i}-{k}.json") for k in ("rho1", "rho2", "sub")]
            pool[i] = replace(inst, data=(*inst.data, names))
        return pool

    def write_inputs(self, pool):
        for inst in pool:
            rho1, rho2, span, names = inst.data
            _write_json(names[0], _matrix_json(rho1))
            _write_json(names[1], _matrix_json(rho2))
            _write_json(names[2], {"span": [_matrix_json(v) for v in span]})

    def run_op(self, inst: Instance):
        f1, f2, fx = inst.data[3]
        problem = ["--rho1", f1, "--rho2", f2, "--subspace", fx]
        out = os.path.join(self.workdir, "verdict.json")
        report = os.path.join(self.workdir, "report.json")
        with redirect_stderr(io.StringIO()):
            code = cli.run(["check-lifting", *problem, "--out", out])
            if code:
                return f"exit_{code}", None
            verdict = _read_json(out)
            if verdict["verdict"] == "exists":
                w = os.path.join(self.workdir, "w.json")
                _write_json(w, verdict["witness"])
                argv = ["verify-witness", "--rho", w]
            else:
                y1 = os.path.join(self.workdir, "y1.json")
                y2 = os.path.join(self.workdir, "y2.json")
                _write_json(y1, verdict["certificate"]["y1"])
                _write_json(y2, verdict["certificate"]["y2"])
                argv = ["verify-certificate", "--y1", y1, "--y2", y2]
            code = cli.run([*argv, *problem, "--out", report])
            if code:
                return f"exit_{code}", None
            return verdict["verdict"], (verdict, _read_json(report))

    def check(self, inst: Instance, status: str, payload) -> str | None:
        verdict, report = payload
        if not report.get("valid"):
            return f"CLI re-verification of its own {status} proof object failed"
        if status == "exists":
            return _check_proof(inst, gate.matrix_from_json(verdict["witness"]), None)
        cert = verdict["certificate"]
        pair = (gate.matrix_from_json(cert["y1"]), gate.matrix_from_json(cert["y2"]))
        return _check_proof(inst, None, pair)


WORKLOADS = {
    "embedded3x3": Embedded3x3,
    "dense6": Dense6,
    "cli_degenerate3": CliDegenerate3,
}
