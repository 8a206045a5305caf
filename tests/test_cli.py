"""CLI tests: dispatch, JSON round trips, and exit-code discipline."""

import json

import numpy as np
import pytest

from qcoupling import cli, jsonio, linalg, quantum
from qcoupling.errors import InputError
from qcoupling.quantum import CouplingProblem, DensityOperator


def jwrite(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def mat_json(m):
    m = np.asarray(m, dtype=complex)
    out = {"re": m.real.tolist()}
    if np.any(m.imag):
        out["im"] = m.imag.tolist()
    return out


def bell_files(tmp_path):
    """Instance (I/2, I/2, span{|00>, |11>}): a lifting exists."""
    half = mat_json(np.eye(2) / 2)
    sub = {"span": [[1, 0, 0, 0], [0, 0, 0, 1]]}
    return (
        jwrite(tmp_path, "rho1.json", half),
        jwrite(tmp_path, "rho2.json", half),
        jwrite(tmp_path, "sub.json", sub),
    )


def point_files(tmp_path):
    """Instance (diag(1,0), diag(0,1), span{|00>}): no lifting exists."""
    return (
        jwrite(tmp_path, "p1.json", mat_json(np.diag([1.0, 0.0]))),
        jwrite(tmp_path, "p2.json", mat_json(np.diag([0.0, 1.0]))),
        jwrite(tmp_path, "psub.json", {"span": [[1, 0, 0, 0]]}),
    )


def run_json(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, json.loads(captured.out)


def test_check_lifting_reports_exists(tmp_path, capsys):
    rho1, rho2, sub = bell_files(tmp_path)
    rc, out = run_json(
        capsys, ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub]
    )
    assert rc == 0
    assert out["verdict"] == "exists"
    assert out["gap"] <= 1e-8
    witness = jsonio.parse_matrix(out["witness"])
    problem = CouplingProblem(
        DensityOperator(np.eye(2) / 2),
        DensityOperator(np.eye(2) / 2),
        linalg.Subspace.from_span([np.eye(4)[0], np.eye(4)[3]]),
    )
    assert quantum.is_lifting_witness(DensityOperator(witness), problem, 1e-6)


def test_check_lifting_reports_not_exists(tmp_path, capsys):
    rho1, rho2, sub = point_files(tmp_path)
    rc, out = run_json(
        capsys, ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub]
    )
    assert rc == 0  # NotExists is still a verdict
    assert out["verdict"] == "not_exists"
    assert out["primal_value"] <= 1e-6
    assert "certificate" in out and "witness" not in out


def test_emitted_witness_passes_verify_witness(tmp_path, capsys):
    rho1, rho2, sub = bell_files(tmp_path)
    _, out = run_json(
        capsys, ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub]
    )
    wfile = jwrite(tmp_path, "w.json", out["witness"])
    rc, verif = run_json(
        capsys,
        ["verify-witness", "--rho", wfile, "--rho1", rho1, "--rho2", rho2,
         "--subspace", sub, "--tol", "1e-6"],
    )
    assert rc == 0
    assert verif["valid"] is True
    assert max(verif["marginal_residuals"]) <= 1e-6
    assert verif["support_leakage"] <= 1e-6


def test_emitted_certificate_passes_verify_certificate(tmp_path, capsys):
    rho1, rho2, sub = point_files(tmp_path)
    _, out = run_json(
        capsys, ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub]
    )
    y1 = jwrite(tmp_path, "y1.json", out["certificate"]["y1"])
    y2 = jwrite(tmp_path, "y2.json", out["certificate"]["y2"])
    rc, verif = run_json(
        capsys,
        ["verify-certificate", "--y1", y1, "--y2", y2, "--rho1", rho1,
         "--rho2", rho2, "--subspace", sub, "--tol", "1e-6"],
    )
    assert rc == 0
    assert verif["valid"] is True
    assert verif["trace_gap"] > 1e-6


def test_classical_check_both_verdicts(tmp_path, capsys):
    mu = jwrite(tmp_path, "mu.json", {"weights": [0.5, 0.5]})
    eq = jwrite(tmp_path, "eq.json", {"m": 2, "n": 2, "pairs": [[0, 0], [1, 1]]})
    rc, out = run_json(
        capsys, ["classical-check", "--mu1", mu, "--mu2", mu, "--relation", eq]
    )
    assert rc == 0
    assert out["verdict"] == "exists"
    assert out["witness"] == [[0.5, 0.0], [0.0, 0.5]]

    corner = jwrite(tmp_path, "c.json", {"m": 2, "n": 2, "pairs": [[0, 0]]})
    rc, out = run_json(
        capsys, ["classical-check", "--mu1", mu, "--mu2", mu, "--relation", corner]
    )
    assert rc == 0
    assert out["verdict"] == "not_exists"
    # whatever set comes back must actually violate domination: here R(S)
    # misses index 1 entirely, so any violating S must contain it
    assert 1 in out["violating_set"]
    mass1 = sum(0.5 for i in out["violating_set"])
    image = {0} if 0 in out["violating_set"] else set()
    assert mass1 > sum(0.5 for j in image)


def test_classical_exact_flag_requires_rationals(tmp_path, capsys):
    exact = jwrite(tmp_path, "e.json", {"num": [1, 1], "den": [2, 2]})
    floats = jwrite(tmp_path, "f.json", {"weights": [0.5, 0.5]})
    eq = jwrite(tmp_path, "eq.json", {"m": 2, "n": 2, "pairs": [[0, 0], [1, 1]]})
    rc, out = run_json(
        capsys,
        ["classical-check", "--mu1", exact, "--mu2", exact, "--relation", eq, "--exact"],
    )
    assert rc == 0 and out["verdict"] == "exists"
    rc = cli.run(
        ["classical-check", "--mu1", floats, "--mu2", floats, "--relation", eq, "--exact"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "--exact" in captured.err


def test_classical_exact_unequal_totals_exit_one(tmp_path, capsys):
    short = jwrite(tmp_path, "s.json", {"num": [4999999999], "den": [10**10]})
    half = jwrite(tmp_path, "h.json", {"num": [1], "den": [2]})
    full = jwrite(tmp_path, "r.json", {"m": 1, "n": 1, "pairs": [[0, 0]]})
    rc = cli.run(
        ["classical-check", "--mu1", short, "--mu2", half, "--relation", full, "--exact"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "total weights differ" in captured.err


def test_cross_check_subcommand(tmp_path, capsys):
    mu = jwrite(tmp_path, "mu.json", {"num": [1, 1], "den": [2, 2]})
    eq = jwrite(tmp_path, "eq.json", {"m": 2, "n": 2, "pairs": [[0, 0], [1, 1]]})
    rc, out = run_json(
        capsys, ["cross-check", "--mu1", mu, "--mu2", mu, "--relation", eq]
    )
    assert rc == 0
    assert out["agreement"] is True
    assert out["classical_verdict"] == out["quantum_verdict"] == "exists"
    assert out["witness_roundtrip_error"] <= 1e-6


def test_back_to_back_runs_match_separate_runs(tmp_path, capsys):
    # the parser is built once per process; no run may inherit the previous
    # run's subcommand, thresholds or defaults
    rho1, rho2, sub = bell_files(tmp_path)
    p1, p2, psub = point_files(tmp_path)
    mu = jwrite(tmp_path, "mu.json", {"num": [1, 1], "den": [2, 2]})
    eq = jwrite(tmp_path, "eq.json", {"m": 2, "n": 2, "pairs": [[0, 0], [1, 1]]})
    runs = [
        ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub,
         "--eps-solve", "1e-6"],
        ["cross-check", "--mu1", mu, "--mu2", mu, "--relation", eq, "--eps-decide", "1e-3"],
        ["demo", "no-lifting", "--eps-solve", "0.01"],
        ["check-lifting", "--rho1", p1, "--rho2", p2, "--subspace", psub],
        ["demo", "bell", "--dim", "3"],
        ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub],
    ]
    separate = []
    for argv in runs:
        cli._build_parser.cache_clear()
        assert cli.run(argv) == 0
        separate.append(capsys.readouterr().out)
    cli._build_parser.cache_clear()
    for argv, want in zip(runs, separate):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == want
    assert cli._build_parser.cache_info().misses == 1


def test_out_flag_writes_file_and_silences_stdout(tmp_path, capsys):
    mu = jwrite(tmp_path, "mu.json", {"weights": [1.0]})
    full = jwrite(tmp_path, "r.json", {"m": 1, "n": 1, "pairs": [[0, 0]]})
    target = tmp_path / "result.json"
    rc = cli.run(
        ["classical-check", "--mu1", mu, "--mu2", mu, "--relation", full,
         "--out", str(target)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert json.loads(target.read_text())["verdict"] == "exists"


def test_out_flag_unwritable_path_is_input_error(tmp_path, capsys):
    mu = jwrite(tmp_path, "mu.json", {"weights": [1.0]})
    full = jwrite(tmp_path, "r.json", {"m": 1, "n": 1, "pairs": [[0, 0]]})
    rc = cli.run(
        ["classical-check", "--mu1", mu, "--mu2", mu, "--relation", full,
         "--out", str(tmp_path / "no" / "such" / "dir.json")]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "cannot write" in captured.err


def test_demo_bell(capsys):
    rc, out = run_json(capsys, ["demo", "bell", "--dim", "3"])
    assert rc == 0
    assert out["is_lifting_witness"] is True
    assert out["checker"]["verdict"] == "exists"
    assert max(out["marginal_residuals"]) <= 1e-9
    assert out["support_leakage"] <= 1e-9


def test_demo_negation(capsys):
    rc, out = run_json(capsys, ["demo", "negation"])
    assert rc == 0
    assert out["checker"]["verdict"] == "exists"
    assert out["witness_valid"] is True
    # the off-diagonal coupling of two fair coins
    assert out["checker"]["witness"] == [[0.0, 0.5], [0.5, 0.0]]


def test_demo_unitary(tmp_path, capsys):
    ufile = jwrite(tmp_path, "x.json", mat_json([[0, 1], [1, 0]]))
    rc, out = run_json(capsys, ["demo", "unitary", "--file", ufile])
    assert rc == 0
    assert out["is_lifting_witness"] is True
    assert out["checker"]["verdict"] == "exists"
    rc = cli.run(["demo", "unitary"])
    captured = capsys.readouterr()
    assert rc == 1 and "--file" in captured.err


def _assert_hall_pair_demo(capsys, argv):
    # the input is exactly diagonal, so the certificate is the 0/1 Hall pair
    # S = {0}, R(S) = {0}: diag(1, 0) twice, with trace gap 1
    rc, out = run_json(capsys, ["demo", "no-lifting", *argv])
    assert rc == 0
    assert out["checker"]["verdict"] == "not_exists"
    assert out["certificate_valid"] is True
    assert out["trace_gap"] == 1.0
    for k in ("y1", "y2"):
        assert out["checker"]["certificate"][k]["re"] == [[1.0, 0.0], [0.0, 0.0]]


def test_demo_no_lifting(capsys):
    _assert_hall_pair_demo(capsys, [])


def test_demo_no_lifting_at_a_coarse_eps_solve(capsys):
    # verification demands a trace gap above 10 * eps_solve = 0.1; the 0/1
    # pair is the same at any eps_solve
    _assert_hall_pair_demo(capsys, ["--eps-solve", "0.01"])


def test_eps_decide_at_or_above_the_trace_exits_one(tmp_path, capsys):
    # NotExists is out of reach at such a threshold, so no verdict is printed
    rho1, rho2, sub = point_files(tmp_path)
    for argv in (
        ["demo", "no-lifting", "--eps-solve", "0.2", "--eps-decide", "2"],
        ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub,
         "--eps-decide", "1"],
    ):
        rc = cli.run(argv)
        captured = capsys.readouterr()
        assert rc == 1, argv
        assert "eps_decide" in captured.err
        assert captured.out == ""


def test_usage_errors_exit_one(tmp_path, capsys):
    cases = [
        [],  # no subcommand
        ["frobnicate"],  # unknown subcommand
        ["check-lifting"],  # missing required flags
        ["demo", "nonsense"],  # bad demo name
        ["demo", "bell", "--dim", "1"],  # bell needs dim >= 2
    ]
    for argv in cases:
        rc = cli.run(argv)
        captured = capsys.readouterr()
        assert rc == 1, argv
        assert captured.out == ""


def test_missing_input_file_exits_one(tmp_path, capsys):
    rho1, rho2, _ = bell_files(tmp_path)
    rc = cli.run(
        ["check-lifting", "--rho1", rho1, "--rho2", rho2,
         "--subspace", str(tmp_path / "absent.json")]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "cannot read" in captured.err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"re": [[0.5, 0.0], [0.0,', encoding="utf-8")
    _, rho2, sub = bell_files(tmp_path)
    rc = cli.run(
        ["check-lifting", "--rho1", str(bad), "--rho2", rho2, "--subspace", sub]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "line" in captured.err and "column" in captured.err


def test_malformed_inputs_never_exit_zero(tmp_path, capsys):
    """Exit-code discipline under fuzzed corruption: exit 0 only ever comes
    with a verdict object on stdout."""
    good = json.dumps(mat_json(np.eye(2) / 2))
    rng = np.random.default_rng(11)

    corruptions = [
        lambda: good[: int(rng.integers(1, len(good) - 1))],  # truncation
        lambda: good.replace("0.5", "NaN", 1),
        lambda: good.replace("0.5", "Infinity", 1),
        lambda: json.dumps({"re": [[0.5, 0.0], [0.5]]}),  # ragged rows
        lambda: json.dumps({"re": [[0.5, 0.0]]}),  # non-square
        lambda: json.dumps({"real": [[0.5, 0.0], [0.0, 0.5]]}),  # wrong key
        lambda: json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0]]}),
        lambda: json.dumps({"dim": 3, "re": [[0.5, 0.0], [0.0, 0.5]]}),
        lambda: json.dumps(mat_json(np.eye(3) / 3)),  # 3x3 against a 2x2 partner
    ]
    _, rho2, sub = bell_files(tmp_path)
    bad = tmp_path / "corrupt.json"
    for trial in range(60):
        bad.write_text(corruptions[int(rng.integers(len(corruptions)))]())
        rc = cli.run(
            ["check-lifting", "--rho1", str(bad), "--rho2", rho2, "--subspace", sub]
        )
        captured = capsys.readouterr()
        if rc == 0:
            assert "verdict" in json.loads(captured.out)
        else:
            assert rc == 1
            assert captured.out == ""
            assert captured.err != ""


def test_subspace_dimension_mismatch_exits_one(tmp_path, capsys):
    rho1, rho2, _ = bell_files(tmp_path)
    sub = jwrite(tmp_path, "small.json", {"span": [[1, 0]]})  # ambient 2, need 4
    rc = cli.run(["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub])
    captured = capsys.readouterr()
    assert rc == 1
    assert "ambient" in captured.err


def test_projector_subspace_decides_like_its_span(tmp_path, capsys):
    """A subspace given as {"projector": ...} gets the verdict of the span it
    projects onto, either way; a matrix that is no projector exits 1."""
    for files, kept, verdict in (
        (bell_files(tmp_path), [0, 3], "exists"),
        (point_files(tmp_path), [0], "not_exists"),
    ):
        rho1, rho2, span = files
        basis = np.eye(4)[kept]
        proj = jwrite(tmp_path, "proj.json", {"projector": mat_json(basis.T @ basis)})
        for sub in (span, proj):
            rc, out = run_json(
                capsys, ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub]
            )
            assert rc == 0 and out["verdict"] == verdict, sub
    half = jwrite(tmp_path, "half.json", {"projector": mat_json(np.diag([0.5, 1.0, 0.0, 0.0]))})
    rc = cli.run(["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", half])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and captured.err != ""


def test_unreachable_tolerance_exits_two(tmp_path, capsys):
    rho1, rho2, sub = bell_files(tmp_path)
    rc = cli.run(
        ["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub,
         "--eps-solve", "1e-300"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "numerical failure" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, value", [
    ("check-lifting", "--eps-solve", "nan"),
    ("check-lifting", "--eps-solve", "-1"),
    ("check-lifting", "--eps-solve", "0"),
    ("check-lifting", "--eps-decide", "-1"),
    ("check-lifting", "--eps-decide", "inf"),
    ("verify-witness", "--tol", "nan"),
    ("verify-witness", "--tol", "-1"),
    ("verify-certificate", "--tol", "0"),
    ("verify-certificate", "--tol", "abc"),
])
def test_invalid_threshold_exits_one(tmp_path, capsys, command, flag, value):
    rho1, rho2, sub = bell_files(tmp_path)
    half = jwrite(tmp_path, "half.json", mat_json(np.eye(2) / 2))
    extra = {
        "check-lifting": [],
        "verify-witness": ["--rho", jwrite(tmp_path, "w.json", mat_json(np.eye(4) / 4))],
        "verify-certificate": ["--y1", half, "--y2", half],
    }[command]
    rc = cli.run([command, *extra, "--rho1", rho1, "--rho2", rho2, "--subspace", sub,
                  flag, value])
    captured = capsys.readouterr()
    assert rc == 1
    assert flag in captured.err
    assert captured.out == ""


def test_check_lifting_has_no_tol_flag(tmp_path, capsys):
    rho1, rho2, sub = bell_files(tmp_path)
    rc = cli.run(["check-lifting", "--rho1", rho1, "--rho2", rho2, "--subspace", sub,
                  "--tol", "1e-6"])
    assert rc == 1
    assert "--tol" in capsys.readouterr().err


def test_emitted_matrices_reparse_exactly(capsys):
    """Serialized floats use shortest round-trip form, so re-parsing is exact
    (well inside the 1e-12 contract)."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        back = jsonio.parse_matrix(json.loads(json.dumps(jsonio.matrix_to_json(m))))
        assert np.array_equal(back, m)


def test_parse_distribution_rational_and_float_forms():
    from fractions import Fraction

    exact = jsonio.parse_distribution({"num": [1, 2], "den": [3, 3]})
    assert exact == [Fraction(1, 3), Fraction(2, 3)]
    floats = jsonio.parse_distribution({"weights": [0.25, 0.25]})
    assert floats == [0.25, 0.25]
    with pytest.raises(InputError):
        jsonio.parse_distribution({"num": [1], "den": [0]})
    with pytest.raises(InputError):
        jsonio.parse_distribution({"weights": [0.7, 0.7]})  # mass above one


@pytest.mark.parametrize("name, obj", [
    ("sub", {"span": [{"re": ["a", 0, 0, 0]}]}),
    ("sub", {"span": [{"re": [1, 0, 0, 0], "im": ["a", 0, 0, 0]}]}),
    ("sub", {"span": [{"re": [10**400, 0, 0, 0]}]}),
    ("sub", {"span": [[1, 0, 0, True]]}),
    ("rho1", {"re": [["0.5", "0"], ["0", "0.5"]]}),
    ("rho1", {"re": [[True, False], [False, False]]}),
    ("rho1", {"re": [[0.5, 0], [0, 0.5]], "im": [[False, False], [False, False]]}),
], ids=["span-re-string", "span-im-string", "span-overflow", "span-bool",
        "matrix-strings", "matrix-bools", "matrix-im-bools"])
def test_non_numbers_in_quantum_json_exit_one(tmp_path, capsys, name, obj):
    files = dict(zip(("rho1", "rho2", "sub"), bell_files(tmp_path)))
    files[name] = jwrite(tmp_path, "bad.json", obj)
    rc = cli.run(["check-lifting", "--rho1", files["rho1"], "--rho2", files["rho2"],
                  "--subspace", files["sub"]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "JSON numbers" in captured.err or "finite" in captured.err


@pytest.mark.parametrize("mu1, mu2, relation", [
    ({"weights": [True]}, {"weights": [1]}, {"m": 1, "n": 1, "pairs": [[0, 0]]}),
    ({"num": [True], "den": [1]}, {"num": [1], "den": [1]}, {"m": 1, "n": 1, "pairs": [[0, 0]]}),
    ({"num": [1], "den": [True]}, {"num": [1], "den": [1]}, {"m": 1, "n": 1, "pairs": [[0, 0]]}),
    ({"weights": [1]}, {"weights": [0.5, 0.5]}, {"m": True, "n": 2, "pairs": [[0, 1]]}),
    ({"weights": [1]}, {"weights": [0.5, 0.5]}, {"m": 1, "n": 2, "pairs": [[False, True]]}),
], ids=["weights-bool", "num-bool", "den-bool", "m-bool", "pairs-bool"])
def test_booleans_in_classical_json_exit_one(tmp_path, capsys, mu1, mu2, relation):
    argv = ["classical-check", "--mu1", jwrite(tmp_path, "mu1.json", mu1),
            "--mu2", jwrite(tmp_path, "mu2.json", mu2),
            "--relation", jwrite(tmp_path, "rel.json", relation)]
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("key", ["dim", "rows", "cols"])
def test_matrix_shape_keys_take_json_integers(key):
    assert jsonio.parse_matrix({key: 1, "re": [[1.0]]}).shape == (1, 1)
    for value in (True, 1.0, "1"):
        with pytest.raises(InputError):
            jsonio.parse_matrix({key: value, "re": [[1.0]]})


def test_trace_check_is_a_json_boolean():
    """"trace_check": true demands trace one; false, like leaving it out, does not."""
    with pytest.raises(InputError):
        jsonio.parse_density({"re": [[0.5]], "trace_check": True})
    assert jsonio.parse_density({"re": [[1.0]], "trace_check": True}).trace == 1.0
    assert jsonio.parse_density({"re": [[0.5]], "trace_check": False}).trace == 0.5


# each subcommand's own flags: the flag groups it is composed from
OWN_FLAGS = {
    "check-lifting": {"--rho1", "--rho2", "--subspace", "--eps-solve", "--eps-decide", "--out"},
    "classical-check": {"--mu1", "--mu2", "--relation", "--exact", "--out"},
    "verify-witness": {"--rho", "--rho1", "--rho2", "--subspace", "--tol", "--out"},
    "verify-certificate": {"--y1", "--y2", "--rho1", "--rho2", "--subspace", "--tol", "--out"},
    "cross-check": {"--mu1", "--mu2", "--relation", "--eps-solve", "--eps-decide", "--out"},
    "demo": {"--dim", "--file", "--eps-solve", "--eps-decide", "--out"},
}


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_subcommand_help_lists_exactly_its_flags(capsys, command):
    import re

    with pytest.raises(SystemExit) as exc:
        cli.run([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert flags - {"--help"} == OWN_FLAGS[command]
