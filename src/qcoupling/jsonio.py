"""JSON input/output for matrices, states, subspaces, distributions, relations.

Matrix objects carry "re" (nested rows) and optionally "im"; "dim" or
"rows"/"cols" may pin the expected shape. Distributions are {"weights":
[...]} for floats or {"num": [...], "den": [...]} for exact rationals.
Subspaces are {"projector": <matrix>} or {"span": [<vector>, ...]} where a
vector is either a plain number array or {"re": [...], "im": [...]}; one
reader takes the "re"/"im" form of both matrices and vectors, "im" optional.
A state may add "trace_check": true to demand trace one; the key takes JSON
booleans only.
Every number must be a JSON number: booleans and numeric strings are
rejected, and "m", "n", "pairs", "num", "den", "dim", "rows" and "cols"
take JSON integers only.
Output is compact, one document per line. Emitted floats use Python's
shortest round-trip representation, so re-parsing reproduces every value
exactly; NaN and infinities are rejected on both paths.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import classical, linalg
from .classical import ClassicalVerdict, Relation
from .errors import SLACK, InputError
from .quantum import DensityOperator
from .sdp import LiftingVerdict


def _reject_constant(token):
    raise InputError(f"non-finite JSON value {token!r} is not allowed")


def loads(text: str):
    """Parse JSON text; malformed input raises InputError with the position."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return loads(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def dumps(obj) -> str:
    """obj as compact JSON on one line, which json's C encoder writes."""
    return json.dumps(obj, allow_nan=False)


def _is_int(v) -> bool:
    """True for a JSON integer; booleans are not integers here."""
    return type(v) is int


def _number_array(obj, label: str, ndim: int) -> np.ndarray:
    """A non-empty rectangular array, ndim levels deep, of JSON numbers as
    float64. Booleans, strings and numbers beyond the float range raise
    InputError."""
    shape = "array" if ndim == 1 else "array of rows"
    if not isinstance(obj, list) or not obj:
        raise InputError(f'"{label}" must be a non-empty {shape}')
    arr = np.array(obj, dtype=object)
    if arr.ndim != ndim or not all(type(v) in (int, float) for v in arr.flat):
        raise InputError(f'"{label}" must be a rectangular {shape} of JSON numbers')
    try:
        arr = arr.astype(np.float64)
        finite = bool(np.all(np.isfinite(arr)))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise InputError(f'"{label}" entries must be finite')
    return arr


def _complex_array(obj: dict, label: str, ndim: int) -> np.ndarray:
    """The complex array, ndim levels deep, of a {"re": ..., "im": ...}
    object; "im" may be left out, and if given must match "re" in shape."""
    re_part = _number_array(obj.get("re"), f"{label}re", ndim)
    im_part = np.zeros_like(re_part)
    if "im" in obj:
        im_part = _number_array(obj["im"], f"{label}im", ndim)
    if im_part.shape != re_part.shape:
        raise InputError(f'{label}"im" shape differs from "re"')
    return re_part + 1j * im_part


def parse_matrix(obj) -> np.ndarray:
    """Read a complex square matrix from its JSON object form."""
    if not isinstance(obj, dict):
        raise InputError("matrix must be a JSON object with a \"re\" field")
    m = _complex_array(obj, "", 2)
    rows, cols = m.shape
    for key, want in (("dim", rows), ("rows", rows), ("cols", cols)):
        if key in obj and not (_is_int(obj[key]) and obj[key] == want):
            raise InputError(f'"{key}" must be the integer {want}, got {obj[key]!r}')
    if rows != cols:
        raise InputError(f"matrix must be square, got {rows}x{cols}")
    return m


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    out = {"dim": int(m.shape[0]), "re": m.real.tolist()}
    if np.any(m.imag):
        out["im"] = m.imag.tolist()
    return out


def parse_density(obj) -> DensityOperator:
    """Matrix JSON to a state; "trace_check": true additionally demands tr = 1,
    and the key takes JSON booleans only."""
    rho = DensityOperator(parse_matrix(obj))
    check = obj.get("trace_check", False)
    if type(check) is not bool:
        raise InputError(f'"trace_check" must be true or false, got {check!r}')
    if check and abs(rho.trace - 1.0) > SLACK:
        raise InputError(f"trace_check requested but tr = {rho.trace:.12g} != 1")
    return rho


def parse_subspace(obj, expected_dim: int | None = None) -> linalg.Subspace:
    if not isinstance(obj, dict):
        raise InputError('subspace must be {"projector": ...} or {"span": [...]}')
    if ("projector" in obj) == ("span" in obj):
        raise InputError('subspace needs exactly one of "projector" or "span"')
    if "projector" in obj:
        sub = linalg.Subspace.from_projector(parse_matrix(obj["projector"]))
    else:
        vecs = obj["span"]
        if not isinstance(vecs, list) or not vecs:
            raise InputError('"span" must be a non-empty array of vectors')
        sub = linalg.Subspace.from_span([
            _complex_array(v, "span vector ", 1) if isinstance(v, dict)
            else _number_array(v, "span vector", 1)
            for v in vecs
        ])
    if expected_dim is not None and sub.ambient_dim != expected_dim:
        raise InputError(
            f"subspace ambient dim {sub.ambient_dim} != expected {expected_dim}"
        )
    return sub


def parse_distribution(obj) -> list:
    """{"weights": [...]} as floats, or {"num": [...], "den": [...]} as Fractions."""
    if not isinstance(obj, dict):
        raise InputError('distribution must be {"weights": ...} or {"num"/"den": ...}')
    if "weights" in obj:
        weights = _number_array(obj["weights"], "weights", 1)
        return classical.check_subdistribution(weights.tolist())
    if "num" in obj or "den" in obj:
        num, den = obj.get("num"), obj.get("den")
        if not (isinstance(num, list) and isinstance(den, list)) or len(num) != len(den):
            raise InputError('"num" and "den" must be integer arrays of equal length')
        out = []
        for k, (a, b) in enumerate(zip(num, den)):
            if not (_is_int(a) and _is_int(b)):
                raise InputError(f"num/den entries must be integers (index {k})")
            if b == 0:
                raise InputError(f"zero denominator at index {k}")
            out.append(Fraction(a, b))
        return classical.check_subdistribution(out)
    raise InputError('distribution needs "weights" or "num"/"den"')


def parse_relation(obj) -> Relation:
    if not isinstance(obj, dict):
        raise InputError('relation must be {"m": ..., "n": ..., "pairs": [...]}')
    for key in ("m", "n", "pairs"):
        if key not in obj:
            raise InputError(f'relation is missing "{key}"')
    m, n, pairs = obj["m"], obj["n"], obj["pairs"]
    if not (_is_int(m) and _is_int(n)):
        raise InputError('"m" and "n" must be integers')
    if not isinstance(pairs, list):
        raise InputError('"pairs" must be an array of [i, j] pairs')
    cleaned = []
    for k, p in enumerate(pairs):
        if (
            not isinstance(p, list)
            or len(p) != 2
            or not all(_is_int(c) for c in p)
        ):
            raise InputError(f'"pairs"[{k}] must be an integer pair [i, j]')
        cleaned.append((p[0], p[1]))
    return Relation.from_pairs(m, n, cleaned)


def verdict_to_json(verdict: LiftingVerdict) -> dict:
    sol = verdict.diagnostics
    out = {
        "verdict": "exists" if verdict.exists else "not_exists",
        "primal_value": sol.primal_value,
        "dual_value": sol.dual_value,
        "gap": sol.gap,
        "iterations": sol.iterations,
    }
    if verdict.exists:
        out["witness"] = matrix_to_json(verdict.witness.mat)
    else:
        y1, y2 = verdict.certificate
        out["certificate"] = {"y1": matrix_to_json(y1), "y2": matrix_to_json(y2)}
    return out


def classical_verdict_to_json(verdict: ClassicalVerdict) -> dict:
    if verdict.exists:
        return {
            "verdict": "exists",
            "witness": [[float(w) for w in row] for row in verdict.witness],
        }
    return {
        "verdict": "not_exists",
        "violating_set": sorted(verdict.violating),
    }
