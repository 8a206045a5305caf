"""Command-line interface.

Subcommands map one-to-one onto the library's checkers: `check-lifting`
(quantum), `classical-check` (max-flow), `verify-witness` and
`verify-certificate` (re-verification of proof objects), `cross-check`
(classical vs. quantum on an embedded instance), and `demo` (worked
examples, printed with their verification). All inputs and outputs are
JSON. Exit codes: 0 a verdict was produced (Exists and NotExists both
count), 1 bad input, 2 numerical failure.

The parser is one table: each flag group is declared once, and each
subcommand is composed from its groups and bound to its handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import classical, jsonio, linalg, quantum, reduction, sdp
from .errors import SLACK, InputError, NumericalError, check_threshold
from .quantum import CouplingProblem


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; that code is reserved
    for numerical failures here, so usage errors become input errors."""

    def error(self, message):
        raise InputError(message)


def _threshold(text: str) -> float:
    """argparse type of the solver and verifier thresholds: the library's
    rule, which argparse reports under the flag's name."""
    try:
        return check_threshold("threshold", float(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _problem(args) -> CouplingProblem:
    """The lifting problem named by --rho1, --rho2 and --subspace."""
    rho1 = jsonio.parse_density(jsonio.load_file(args.rho1))
    rho2 = jsonio.parse_density(jsonio.load_file(args.rho2))
    sub = jsonio.parse_subspace(jsonio.load_file(args.subspace), rho1.dim * rho2.dim)
    return CouplingProblem(rho1, rho2, sub)


def _classical(args) -> tuple:
    """The classical instance named by --mu1, --mu2 and --relation."""
    return (
        jsonio.parse_distribution(jsonio.load_file(args.mu1)),
        jsonio.parse_distribution(jsonio.load_file(args.mu2)),
        jsonio.parse_relation(jsonio.load_file(args.relation)),
    )


def _cmd_check_lifting(args) -> dict:
    verdict = sdp.check_quantum_lifting(_problem(args), args.eps_solve, args.eps_decide)
    return jsonio.verdict_to_json(verdict)


def _cmd_classical_check(args) -> dict:
    mu1, mu2, rel = _classical(args)
    if args.exact and not classical.is_exact(mu1, mu2):
        raise InputError('--exact requires rational inputs ({"num": ..., "den": ...})')
    verdict = classical.check_lifting_maxflow(mu1, mu2, rel)
    return jsonio.classical_verdict_to_json(verdict)


def _cmd_verify_witness(args) -> dict:
    rho = jsonio.parse_density(jsonio.load_file(args.rho))
    problem = _problem(args)
    r1, r2 = quantum.marginal_deviation(rho, problem.rho1, problem.rho2)
    return {
        "valid": quantum.is_lifting_witness(rho, problem, args.tol),
        "marginal_residuals": [r1, r2],
        "support_leakage": quantum.support_leakage(rho, problem.subspace),
    }


def _cmd_verify_certificate(args) -> dict:
    y1 = jsonio.parse_matrix(jsonio.load_file(args.y1))
    y2 = jsonio.parse_matrix(jsonio.load_file(args.y2))
    problem = _problem(args)
    gap = quantum.expectation(y1, problem.rho1) - quantum.expectation(y2, problem.rho2)
    return {
        "valid": sdp.verify_dual_certificate(y1, y2, problem, args.tol),
        "trace_gap": gap,
    }


def _cmd_cross_check(args) -> dict:
    report = reduction.cross_check(*_classical(args), args.eps_solve, args.eps_decide)
    return dataclasses.asdict(report)


def _witness_demo(args, d: int, witness, sub, description: str) -> dict:
    """A known lifting witness of (I/d, I/d) inside sub, its verification,
    and the checker's verdict on the same problem."""
    uniform = quantum.uniform_density(d)
    problem = CouplingProblem(uniform, uniform, sub)
    r1, r2 = quantum.marginal_deviation(witness, uniform, uniform)
    verdict = sdp.check_quantum_lifting(problem, args.eps_solve, args.eps_decide)
    return {
        "description": description,
        "witness": jsonio.matrix_to_json(witness.mat),
        "marginal_residuals": [r1, r2],
        "support_leakage": quantum.support_leakage(witness, sub),
        "is_lifting_witness": quantum.is_lifting_witness(witness, problem, SLACK),
        "checker": jsonio.verdict_to_json(verdict),
    }


def _demo_bell(args) -> dict:
    d = args.dim
    if d < 2:
        raise InputError("bell demo needs --dim >= 2")
    psi = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        psi[linalg.pair_index(i, i, d)] = 1.0 / np.sqrt(d)
    bell = quantum.DensityOperator(np.outer(psi, psi.conj()))
    span = [np.eye(d * d)[linalg.pair_index(i, i, d)] for i in range(d)]
    return _witness_demo(
        args, d, bell, linalg.Subspace.from_span(span),
        f"maximally entangled witness for (I/{d}, I/{d}) inside span{{|ii>}}",
    )


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
    return _witness_demo(
        args, u.shape[0], rho_u, sub,
        "coupling (1/d) sum |i, Ui><i, Ui| of (I/d, I/d) inside span{|i>|Ui>}",
    )


def _demo_no_lifting(args) -> dict:
    rho1 = quantum.DensityOperator(np.diag([1.0, 0.0]).astype(np.complex128))
    rho2 = quantum.DensityOperator(np.diag([0.0, 1.0]).astype(np.complex128))
    sub = linalg.Subspace.from_span([[1.0, 0.0, 0.0, 0.0]])
    problem = CouplingProblem(rho1, rho2, sub)
    verdict = sdp.check_quantum_lifting(problem, args.eps_solve, args.eps_decide)
    out = {
        "description": "orthogonal pure states with only |00> allowed: "
        "no coupling fits, the certificate proves it",
        "checker": jsonio.verdict_to_json(verdict),
    }
    if not verdict.exists:
        y1, y2 = verdict.certificate
        out["certificate_valid"] = sdp.verify_dual_certificate(y1, y2, problem)
        out["trace_gap"] = quantum.expectation(y1, rho1) - quantum.expectation(y2, rho2)
    return out


_DEMOS = {
    "bell": _demo_bell,
    "negation": _demo_negation,
    "unitary": _demo_unitary,
    "no-lifting": _demo_no_lifting,
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every run shares it. Each flag group is a parent parser,
    declared once; each subcommand is composed from its groups and binds
    its handler."""

    def group(*flags, **kwargs) -> argparse.ArgumentParser:
        g = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            g.add_argument(flag, **kwargs)
        return g

    files = functools.partial(group, required=True, metavar="FILE")
    states = files("--rho1", "--rho2", "--subspace")
    distributions = files("--mu1", "--mu2", "--relation")
    eps = group()
    eps.add_argument("--eps-solve", type=_threshold, default=sdp.EPS_SOLVE,
                     help="target duality gap and residuals (default %(default)g)")
    eps.add_argument("--eps-decide", type=_threshold, default=sdp.EPS_DECIDE,
                     help="decision threshold on tr(rho1) - optimum (default %(default)g)")
    tol = group("--tol", type=_threshold, default=quantum.DEFAULT_TOL)
    out = group("--out", metavar="FILE", help="write JSON here instead of stdout")
    exact = group("--exact", action="store_true",
                  help="require exact rational inputs (num/den form)")
    demo = group("name", choices=_DEMOS)
    demo.add_argument("--dim", type=int, default=2, help="local dimension for bell")
    demo.add_argument("--file", metavar="FILE", help="unitary matrix JSON (demo unitary)")

    parser = _Parser(prog="qcoupling", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, parents, handler in (
        ("check-lifting", "decide quantum lifting existence",
         [states, eps, out], _cmd_check_lifting),
        ("classical-check", "decide classical lifting existence",
         [distributions, exact, out], _cmd_classical_check),
        ("verify-witness", "re-verify a lifting witness",
         [files("--rho"), states, tol, out], _cmd_verify_witness),
        ("verify-certificate", "re-verify a dual certificate",
         [files("--y1", "--y2"), states, tol, out], _cmd_verify_certificate),
        ("cross-check", "compare classical and quantum checkers",
         [distributions, eps, out], _cmd_cross_check),
        ("demo", "worked examples with verification",
         [demo, eps, out], lambda args: _DEMOS[args.name](args)),
    ):
        sub.add_parser(name, help=summary, parents=parents).set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    """Parse argv, dispatch, print JSON; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        text = jsonio.dumps(args.handler(args))
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
