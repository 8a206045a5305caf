"""Command-line interface.

Subcommands map one-to-one onto the library's checkers: `check-lifting`
(quantum), `classical-check` (max-flow), `verify-witness` and
`verify-certificate` (re-verification of proof objects), `cross-check`
(classical vs. quantum on an embedded instance), and `demo` (worked
examples, printed with their verification). All inputs and outputs are
JSON. Exit codes: 0 a verdict was produced (Exists and NotExists both
count), 1 bad input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import classical, jsonio, linalg, quantum, reduction, sdp
from .errors import InputError, NumericalError
from .quantum import CouplingProblem


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; that code is reserved
    for numerical failures here, so usage errors become input errors."""

    def error(self, message):
        raise InputError(message)


def _threshold(text: str) -> float:
    """argparse type of the solver and verifier thresholds: finite and > 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcoupling", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")

    def add_quantum_eps(p):
        p.add_argument("--eps-solve", type=_threshold, default=sdp.EPS_SOLVE,
                       help="target duality gap and residuals (default 1e-8)")
        p.add_argument("--eps-decide", type=_threshold, default=sdp.EPS_DECIDE,
                       help="decision threshold on tr(rho1) - optimum (default 1e-6)")

    p = sub.add_parser("check-lifting", help="decide quantum lifting existence")
    p.add_argument("--rho1", required=True, metavar="FILE")
    p.add_argument("--rho2", required=True, metavar="FILE")
    p.add_argument("--subspace", required=True, metavar="FILE")
    add_quantum_eps(p)
    add_common(p)

    p = sub.add_parser("classical-check", help="decide classical lifting existence")
    p.add_argument("--mu1", required=True, metavar="FILE")
    p.add_argument("--mu2", required=True, metavar="FILE")
    p.add_argument("--relation", required=True, metavar="FILE")
    p.add_argument("--exact", action="store_true",
                   help="require exact rational inputs (num/den form)")
    add_common(p)

    p = sub.add_parser("verify-witness", help="re-verify a lifting witness")
    p.add_argument("--rho", required=True, metavar="FILE")
    p.add_argument("--rho1", required=True, metavar="FILE")
    p.add_argument("--rho2", required=True, metavar="FILE")
    p.add_argument("--subspace", required=True, metavar="FILE")
    p.add_argument("--tol", type=_threshold, default=quantum.DEFAULT_TOL)
    add_common(p)

    p = sub.add_parser("verify-certificate", help="re-verify a dual certificate")
    p.add_argument("--y1", required=True, metavar="FILE")
    p.add_argument("--y2", required=True, metavar="FILE")
    p.add_argument("--rho1", required=True, metavar="FILE")
    p.add_argument("--rho2", required=True, metavar="FILE")
    p.add_argument("--subspace", required=True, metavar="FILE")
    p.add_argument("--tol", type=_threshold, default=quantum.DEFAULT_TOL)
    add_common(p)

    p = sub.add_parser("cross-check", help="compare classical and quantum checkers")
    p.add_argument("--mu1", required=True, metavar="FILE")
    p.add_argument("--mu2", required=True, metavar="FILE")
    p.add_argument("--relation", required=True, metavar="FILE")
    add_quantum_eps(p)
    add_common(p)

    p = sub.add_parser("demo", help="worked examples with verification")
    p.add_argument("name", choices=["bell", "negation", "unitary", "no-lifting"])
    p.add_argument("--dim", type=int, default=2, help="local dimension for bell")
    p.add_argument("--file", metavar="FILE", help="unitary matrix JSON (demo unitary)")
    add_quantum_eps(p)
    add_common(p)

    return parser


def _cmd_check_lifting(args) -> dict:
    rho1 = jsonio.parse_density(jsonio.load_file(args.rho1))
    rho2 = jsonio.parse_density(jsonio.load_file(args.rho2))
    sub = jsonio.parse_subspace(
        jsonio.load_file(args.subspace), expected_dim=rho1.dim * rho2.dim
    )
    verdict = sdp.check_quantum_lifting(
        CouplingProblem(rho1, rho2, sub), args.eps_solve, args.eps_decide
    )
    return jsonio.verdict_to_json(verdict)


def _cmd_classical_check(args) -> dict:
    mu1 = jsonio.parse_distribution(jsonio.load_file(args.mu1))
    mu2 = jsonio.parse_distribution(jsonio.load_file(args.mu2))
    rel = jsonio.parse_relation(jsonio.load_file(args.relation))
    if args.exact and not classical.is_exact(mu1, mu2):
        raise InputError('--exact requires rational inputs ({"num": ..., "den": ...})')
    verdict = classical.check_lifting_maxflow(mu1, mu2, rel)
    return jsonio.classical_verdict_to_json(verdict)


def _cmd_verify_witness(args) -> dict:
    rho = jsonio.parse_density(jsonio.load_file(args.rho))
    rho1 = jsonio.parse_density(jsonio.load_file(args.rho1))
    rho2 = jsonio.parse_density(jsonio.load_file(args.rho2))
    sub = jsonio.parse_subspace(
        jsonio.load_file(args.subspace), expected_dim=rho1.dim * rho2.dim
    )
    problem = CouplingProblem(rho1, rho2, sub)
    r1, r2 = quantum.marginal_deviation(rho, rho1, rho2)
    return {
        "valid": quantum.is_lifting_witness(rho, problem, args.tol),
        "marginal_residuals": [r1, r2],
        "support_leakage": quantum.support_leakage(rho, sub),
    }


def _cmd_verify_certificate(args) -> dict:
    y1 = jsonio.parse_matrix(jsonio.load_file(args.y1))
    y2 = jsonio.parse_matrix(jsonio.load_file(args.y2))
    rho1 = jsonio.parse_density(jsonio.load_file(args.rho1))
    rho2 = jsonio.parse_density(jsonio.load_file(args.rho2))
    sub = jsonio.parse_subspace(
        jsonio.load_file(args.subspace), expected_dim=rho1.dim * rho2.dim
    )
    problem = CouplingProblem(rho1, rho2, sub)
    gap = quantum.expectation(y1, rho1) - quantum.expectation(y2, rho2)
    return {
        "valid": sdp.verify_dual_certificate(y1, y2, problem, args.tol),
        "trace_gap": gap,
    }


def _cmd_cross_check(args) -> dict:
    mu1 = jsonio.parse_distribution(jsonio.load_file(args.mu1))
    mu2 = jsonio.parse_distribution(jsonio.load_file(args.mu2))
    rel = jsonio.parse_relation(jsonio.load_file(args.relation))
    report = reduction.cross_check(mu1, mu2, rel, args.eps_solve, args.eps_decide)
    return jsonio.report_to_json(report)


def _demo_bell(args) -> dict:
    d = args.dim
    if d < 2:
        raise InputError("bell demo needs --dim >= 2")
    uniform = quantum.uniform_density(d)
    psi = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        psi[linalg.pair_index(i, i, d)] = 1.0 / np.sqrt(d)
    bell = quantum.DensityOperator(np.outer(psi, psi.conj()))
    span = [np.eye(d * d)[linalg.pair_index(i, i, d)] for i in range(d)]
    sub = linalg.Subspace.from_span(span)
    problem = CouplingProblem(uniform, uniform, sub)
    r1, r2 = quantum.marginal_deviation(bell, uniform, uniform)
    verdict = sdp.check_quantum_lifting(problem, args.eps_solve, args.eps_decide)
    return {
        "description": f"maximally entangled witness for (I/{d}, I/{d}) "
        "inside span{|ii>}",
        "witness": jsonio.matrix_to_json(bell.mat),
        "marginal_residuals": [r1, r2],
        "support_leakage": quantum.support_leakage(bell, sub),
        "is_lifting_witness": quantum.is_lifting_witness(bell, problem, 1e-9),
        "checker": jsonio.verdict_to_json(verdict),
    }


def _demo_negation(args) -> dict:
    flip = classical.Relation.from_pairs(2, 2, [(0, 1), (1, 0)])
    mu = [0.5, 0.5]
    verdict = classical.check_lifting_maxflow(mu, mu, flip)
    return {
        "description": "negation coupling of two fair coins inside i != j",
        "relation": {"m": 2, "n": 2, "pairs": sorted(flip.pairs)},
        "checker": jsonio.classical_verdict_to_json(verdict),
        "witness_valid": verdict.exists
        and classical.is_lifting_witness_classical(verdict.witness, mu, mu, flip),
    }


def _demo_unitary(args) -> dict:
    if not args.file:
        raise InputError("demo unitary needs --file with a unitary matrix JSON")
    u = jsonio.parse_matrix(jsonio.load_file(args.file))
    rho_u, sub = quantum.coupling_unitary(u)
    d = u.shape[0]
    uniform = quantum.uniform_density(d)
    problem = CouplingProblem(uniform, uniform, sub)
    r1, r2 = quantum.marginal_deviation(rho_u, uniform, uniform)
    verdict = sdp.check_quantum_lifting(problem, args.eps_solve, args.eps_decide)
    return {
        "description": "coupling (1/d) sum |i, Ui><i, Ui| of (I/d, I/d) "
        "inside span{|i>|Ui>}",
        "witness": jsonio.matrix_to_json(rho_u.mat),
        "marginal_residuals": [r1, r2],
        "support_leakage": quantum.support_leakage(rho_u, sub),
        "is_lifting_witness": quantum.is_lifting_witness(rho_u, problem, 1e-9),
        "checker": jsonio.verdict_to_json(verdict),
    }


def _demo_no_lifting(args) -> dict:
    rho1 = quantum.DensityOperator(np.diag([1.0, 0.0]).astype(np.complex128))
    rho2 = quantum.DensityOperator(np.diag([0.0, 1.0]).astype(np.complex128))
    span = np.zeros((1, 4))
    span[0, 0] = 1.0
    sub = linalg.Subspace.from_span(span)
    problem = CouplingProblem(rho1, rho2, sub)
    verdict = sdp.check_quantum_lifting(problem, args.eps_solve, args.eps_decide)
    out = {
        "description": "orthogonal pure states with only |00> allowed: "
        "no coupling fits, the certificate proves it",
        "checker": jsonio.verdict_to_json(verdict),
    }
    if not verdict.exists:
        y1, y2 = verdict.certificate
        out["certificate_valid"] = sdp.verify_dual_certificate(y1, y2, problem, 1e-7)
        out["trace_gap"] = quantum.expectation(y1, rho1) - quantum.expectation(y2, rho2)
    return out


_DEMOS = {
    "bell": _demo_bell,
    "negation": _demo_negation,
    "unitary": _demo_unitary,
    "no-lifting": _demo_no_lifting,
}

_COMMANDS = {
    "check-lifting": _cmd_check_lifting,
    "classical-check": _cmd_classical_check,
    "verify-witness": _cmd_verify_witness,
    "verify-certificate": _cmd_verify_certificate,
    "cross-check": _cmd_cross_check,
}


def run(argv=None) -> int:
    """Parse argv, dispatch, print JSON; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "demo":
            payload = _DEMOS[args.name](args)
        else:
            payload = _COMMANDS[args.command](args)
        text = jsonio.dumps(payload)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc.strerror or exc}")
        else:
            print(text)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
