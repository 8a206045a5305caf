"""Couplings and liftings of finite sub-distributions.

A sub-distribution assigns nonnegative mass summing to at most 1; a joint
sub-distribution couples two of them when its row and column sums match
them; a lifting additionally confines the support to a relation. Lifting
existence is equivalent to mu1(S) <= mu2(R(S)) for every subset S of the
left index set, and is decided here by max-flow (Edmonds-Karp) with the
exhaustive subset scan kept as the brute-force oracle.

Weights may be floats or fractions.Fraction; all routines are written so
that rational inputs stay rational. The oracle and max-flow run both
exactly, a float as the dyadic rational it is, on integers over the weights'
common denominator; in max-flow floats only keep the ``errors.SLACK`` of
1e-9 on the totals and get float witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import SLACK, InputError, check_threshold

WEIGHT_SLACK = 1e-12  # round-off on a float sum of classical weights
WITNESS_TOL = 1e-9
_TOTAL_SLACK = SLACK.as_integer_ratio()  # the slack on float totals, compared in integers


def _check_entries(values, what: str) -> list:
    """The one rule for weights and observables: finite and non-negative. A
    rational is finite (and may overflow a float); any other number must pass isfinite."""
    out = list(values)
    for v in out:
        if not isinstance(v, Rational) and not math.isfinite(v):
            raise InputError(f"{what} has a non-finite entry")
        if v < 0:
            raise InputError(f"{what} has a negative entry {v}")
    return out


def _check_weights(weights, what: str) -> list:
    out = _check_entries(weights, what)
    if not out:
        raise InputError(f"{what} must carry at least one weight")
    if sum(out) > 1 + WEIGHT_SLACK:
        raise InputError(f"{what} has total mass above 1")
    return out


def check_subdistribution(weights) -> list:
    """Validate and return a sub-distribution as a plain list of weights."""
    return _check_weights(weights, "sub-distribution")


def check_joint(weights) -> list[list]:
    """Validate a joint sub-distribution given as nested [row][col] weights."""
    rows = [list(r) for r in weights]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputError("joint weights must form a non-empty rectangular grid")
    _check_weights([w for r in rows for w in r], "joint sub-distribution")
    return rows


def is_exact(*weight_lists) -> bool:
    """True when every weight is rational (int or Fraction), enabling exact mode."""
    return all(
        isinstance(w, Rational) for ws in weight_lists for w in ws
    )


@dataclass(frozen=True)
class Relation:
    """A relation between index sets [m] and [n], held as a pair set."""

    m: int
    n: int
    pairs: frozenset

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError("relation index sets must be non-empty")
        for i, j in self.pairs:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise InputError(f"relation pair ({i},{j}) out of range")

    @classmethod
    def from_pairs(cls, m: int, n: int, pairs) -> "Relation":
        return cls(m, n, frozenset((int(i), int(j)) for i, j in pairs))

    @classmethod
    def full(cls, m: int, n: int) -> "Relation":
        return cls(m, n, frozenset((i, j) for i in range(m) for j in range(n)))

    @classmethod
    def equality(cls, n: int) -> "Relation":
        return cls(n, n, frozenset((i, i) for i in range(n)))


def relation_image(relation: Relation, s) -> set:
    """Image R(S) = {j : some i in S with (i,j) in R}."""
    s = set(s)
    for i in s:
        if not 0 <= i < relation.m:
            raise InputError(f"index {i} out of range for left set of size {relation.m}")
    return {j for (i, j) in relation.pairs if i in s}


def marginals(joint) -> tuple[list, list]:
    """Row sums and column sums of a joint sub-distribution."""
    return _sums(check_joint(joint))


def _sums(rows) -> tuple[list, list]:
    """``marginals`` of a validated grid."""
    return [sum(r) for r in rows], [sum(r[j] for r in rows) for j in range(len(rows[0]))]


def is_lifting_witness_classical(
    joint, mu1, mu2, relation: Relation, tol: float = WITNESS_TOL
) -> bool:
    """True iff the joint's marginals match (mu1, mu2) within tol (entrywise)
    and it carries at most tol mass on any pair outside the relation. tol
    must be finite and positive, or 0: an exact check, which exact
    (Fraction) inputs can pass."""
    if tol != 0:
        check_threshold("tol", tol)
    rows = check_joint(joint)
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    if len(rows) != relation.m or len(rows[0]) != relation.n:
        raise InputError("joint shape does not match the relation")
    if len(mu1) != relation.m or len(mu2) != relation.n:
        raise InputError("marginal sizes do not match the relation")
    return _is_witness(rows, mu1, mu2, relation, tol)


def _is_witness(rows, mu1, mu2, relation: Relation, tol: float) -> bool:
    """``is_lifting_witness_classical`` on validated lists of matching sizes."""
    got1, got2 = _sums(rows)
    if any(abs(a - b) > tol for a, b in zip(got1, mu1)):
        return False
    if any(abs(a - b) > tol for a, b in zip(got2, mu2)):
        return False
    return all(
        rows[i][j] <= tol
        for i in range(relation.m)
        for j in range(relation.n)
        if (i, j) not in relation.pairs
    )


def _integers(weights) -> tuple[list[int], int]:
    """Each weight as an integer over the weights' common denominator, plus
    that denominator; a float enters through its exact ratio, as the dyadic
    rational it is."""
    ratios = [(w.numerator, w.denominator) if isinstance(w, Rational)
              else float(w).as_integer_ratio() for w in weights]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def check_strassen_exhaustive(mu1, mu2, relation: Relation):
    """Brute-force scan of all S: returns None if mu1(S) <= mu2(R(S)) for
    every S, else the first violating S in lexicographic (bitmask) order.
    Both sides are summed exactly, as integers (``_integers``).

    This is the oracle the other checkers are tested against; it costs
    2^m subset evaluations, hence the m <= 24 guard.
    """
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    m, n = relation.m, relation.n
    if len(mu1) != m or len(mu2) != n:
        raise InputError("distribution sizes do not match the relation")
    if m > 24:
        raise InputError("left index set too large to enumerate; use check_lifting_maxflow")
    caps, _ = _integers(mu1 + mu2)
    row_image = [0] * m
    for i, j in relation.pairs:
        row_image[i] |= 1 << j
    for mask in range(1, 1 << m):
        w1 = sum(caps[i] for i in range(m) if mask >> i & 1)
        image = 0
        for i in range(m):
            if mask >> i & 1:
                image |= row_image[i]
        w2 = sum(caps[m + j] for j in range(n) if image >> j & 1)
        if w1 > w2:
            return frozenset(i for i in range(m) if mask >> i & 1)
    return None


def _edmonds_karp(cap, source, sink):
    """Edmonds-Karp max-flow on residual capacities cap[u][v], updated in
    place; neighbours are scanned in insertion order. Returns the flow and
    the vertices the last, failing search reached: the source side of a
    minimum cut."""
    flow = 0
    while True:
        parent = {source: None}
        queue = [source]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if sink in parent:
                break
        else:
            return flow, set(parent)
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


@dataclass(frozen=True)
class ClassicalVerdict:
    """Outcome of the max-flow lifting check: a witness or a violating set."""

    exists: bool
    witness: tuple | None
    violating: frozenset | None


def check_lifting_maxflow(mu1, mu2, relation: Relation) -> ClassicalVerdict:
    """Decide lifting existence for matched-weight sub-distributions by
    Edmonds-Karp max-flow.

    The network routes mu1(i) from the source through relation edges of
    effectively infinite capacity into sinks of capacity mu2(j). Full
    saturation (max flow = |mu1|) yields the witness mu(i,j) = flow on
    edge (i,j); otherwise the left vertices still reachable in the
    residual graph form a set S with mu1(S) > mu2(R(S)), straight from
    the min cut: infinite edges never cross it, so the cut capacity is
    mu1(complement of S) + mu2(R(S)) < |mu1|.

    Every weight runs exactly: it becomes an integer over the weights'
    common denominator (a float through its exact ratio, as the dyadic
    rational it is), so floats and fractions share one integer network,
    every comparison and so every augmenting path. Exact weights must have
    equal totals and saturate exactly; floats may differ in total, and fall
    short of saturation, by SLACK (relative to |mu1| above 1). The witness
    comes back as Fractions for exact weights and as floats otherwise.
    """
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    m, n = relation.m, relation.n
    if len(mu1) != m or len(mu2) != n:
        raise InputError("distribution sizes do not match the relation")
    exact = is_exact(mu1, mu2)
    caps, scale = _integers(mu1 + mu2)
    value = (lambda c: Fraction(c, scale)) if exact else (lambda c: c / scale)
    t1, t2 = sum(caps[:m]), sum(caps[m:])
    num, den = (0, 1) if exact else _TOTAL_SLACK
    if abs(t1 - t2) * den > num * scale:
        raise InputError(
            f"total weights differ (|mu1| = {value(t1)}, |mu2| = {value(t2)}); "
            "no coupling can exist"
        )

    source, sink = m + n, m + n + 1
    infinite = t1 + 1
    cap = [{} for _ in range(m + n + 2)]

    def add_edge(u, v, c):
        cap[u][v] = c
        cap[v][u] = 0

    for i in range(m):
        add_edge(source, i, caps[i])
    for j in range(n):
        add_edge(m + j, sink, caps[m + j])
    for i, j in sorted(relation.pairs):
        add_edge(i, m + j, infinite)
    flow, reached = _edmonds_karp(cap, source, sink)

    if (t1 - flow) * den <= num * max(scale, t1):
        witness = [[value(0)] * n for _ in range(m)]
        for i, j in relation.pairs:
            witness[i][j] = value(infinite - cap[i][m + j])
        return ClassicalVerdict(True, tuple(tuple(r) for r in witness), None)

    violating = frozenset(i for i in range(m) if i in reached)
    image = relation_image(relation, violating)
    # min-cut guarantee; if this trips, the flow computation is wrong
    assert sum(caps[i] for i in violating) > sum(caps[m + j] for j in image)
    return ClassicalVerdict(False, None, violating)


def level_set_decomposition(y1) -> list:
    """Write a nonnegative vector as sum_k lambda_k * Z_k with 0/1 vectors Z_k.

    The Z_k are the indicator vectors of the super-level sets at the
    distinct positive values t_1 < t_2 < ... of y1, with lambda_1 = t_1
    and lambda_k = t_k - t_{k-1}. Support sets strictly decrease and the
    sum reconstructs y1 exactly.
    """
    y1 = _check_entries(y1, "observable")
    levels = sorted({v for v in y1 if v > 0})
    out = []
    prev = 0
    for t in levels:
        out.append((t - prev, tuple(1 if v >= t else 0 for v in y1)))
        prev = t
    return out


def y2_min(y1, relation: Relation):
    """Minimal nonnegative right observable compatible with y1 over a relation.

    Built by pushing each level set through the relation: with S_k the
    level sets of y1 and T_k = R(S_k), the result is sum_k lambda_k * 1_{T_k}.
    That equals, entry by entry, the max of y1 over the related rows
    (0 for columns with no related row), and any nonnegative Y2 satisfying
    Y2[j] >= Y1[i] on the relation dominates it entrywise.
    """
    y1 = _check_entries(y1, "observable")
    if len(y1) != relation.m:
        raise InputError("observable size does not match the relation")
    out = [0] * relation.n
    for lam, z1 in level_set_decomposition(y1):
        image = relation_image(relation, {i for i, z in enumerate(z1) if z})
        for j in image:
            out[j] = out[j] + lam
    return out


def check_statement_2prime(
    mu1, mu2, relation: Relation, y1, y2, constraint_tol=0
) -> bool:
    """Expectation inequality for a compatible observable pair.

    Validates that (y1, y2) satisfies y2[j] >= y1[i] - constraint_tol on
    relation pairs and y2[j] >= y1[i] - 1 - constraint_tol off them
    (raising an input error naming the first violated pair), then returns
    whether sum_i mu1[i] y1[i] <= sum_j mu2[j] y2[j] + WEIGHT_SLACK. constraint_tol
    must be finite and positive, or 0: an exact check.
    """
    if constraint_tol != 0:
        check_threshold("constraint_tol", constraint_tol)
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    y1 = _check_entries(y1, "left observable")
    y2 = _check_entries(y2, "right observable")
    if len(y1) != relation.m or len(y2) != relation.n:
        raise InputError("observable sizes do not match the relation")
    if len(mu1) != relation.m or len(mu2) != relation.n:
        raise InputError("distribution sizes do not match the relation")
    for i in range(relation.m):
        for j in range(relation.n):
            bound = y1[i] if (i, j) in relation.pairs else y1[i] - 1
            if y2[j] < bound - constraint_tol:
                raise InputError(
                    f"observable pair violates the constraint at ({i},{j}): "
                    f"y2[{j}] = {y2[j]} < required {bound}"
                )
    lhs = sum(a * b for a, b in zip(mu1, y1))
    rhs = sum(a * b for a, b in zip(mu2, y2))
    return lhs <= rhs + WEIGHT_SLACK
