"""Couplings and liftings of finite sub-distributions.

A sub-distribution assigns nonnegative mass summing to at most 1; a joint
sub-distribution couples two of them when its row and column sums match
them; a lifting additionally confines the support to a relation. Lifting
existence is equivalent to mu1(S) <= mu2(R(S)) for every subset S of the
left index set, and is decided here by max-flow (Dinic) with the
exhaustive subset scan kept as the brute-force oracle.

Weights may be floats or fractions.Fraction; all routines are written so
that rational inputs stay rational, making the oracle path exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import InputError

WEIGHT_SLACK = 1e-12
WITNESS_TOL = 1e-9
SUM_TOL = 1e-12
_FLOW_CUTOFF = 1e-12


def _check_weights(weights, what: str) -> list:
    out = list(weights)
    if not out:
        raise InputError(f"{what} must carry at least one weight")
    for w in out:
        if isinstance(w, float) and not (w == w and abs(w) != float("inf")):
            raise InputError(f"{what} has a non-finite weight")
        if w < 0:
            raise InputError(f"{what} has a negative weight {w}")
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

    def membership(self) -> list[list[bool]]:
        return [[(i, j) in self.pairs for j in range(self.n)] for i in range(self.m)]


def relation_image(relation: Relation, s) -> set:
    """Image R(S) = {j : some i in S with (i,j) in R}."""
    s = set(s)
    for i in s:
        if not 0 <= i < relation.m:
            raise InputError(f"index {i} out of range for left set of size {relation.m}")
    return {j for (i, j) in relation.pairs if i in s}


def marginals(joint) -> tuple[list, list]:
    """Row sums and column sums of a joint sub-distribution."""
    rows = check_joint(joint)
    mu1 = [sum(r) for r in rows]
    mu2 = [sum(r[j] for r in rows) for j in range(len(rows[0]))]
    return mu1, mu2


def is_lifting_witness_classical(
    joint, mu1, mu2, relation: Relation, tol: float = WITNESS_TOL
) -> bool:
    """True iff the joint's marginals match (mu1, mu2) within tol (entrywise)
    and it carries at most tol mass on any pair outside the relation."""
    rows = check_joint(joint)
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    if len(rows) != relation.m or len(rows[0]) != relation.n:
        raise InputError("joint shape does not match the relation")
    if len(mu1) != relation.m or len(mu2) != relation.n:
        raise InputError("marginal sizes do not match the relation")
    got1, got2 = marginals(rows)
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


def check_strassen_exhaustive(mu1, mu2, relation: Relation):
    """Brute-force scan of all S: returns None if mu1(S) <= mu2(R(S)) for
    every S, else the first violating S in lexicographic (bitmask) order.

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
    row_image = [0] * m
    for i, j in relation.pairs:
        row_image[i] |= 1 << j
    for mask in range(1, 1 << m):
        w1 = sum(mu1[i] for i in range(m) if mask >> i & 1)
        image = 0
        for i in range(m):
            if mask >> i & 1:
                image |= row_image[i]
        w2 = sum(mu2[j] for j in range(n) if image >> j & 1)
        if w1 > w2:
            return frozenset(i for i in range(m) if mask >> i & 1)
    return None


class _Dinic:
    """Dinic's max-flow on a small dense-ish network, generic over the
    number type of the capacities (float or Fraction)."""

    def __init__(self, num_nodes, zero):
        self.graph = [[] for _ in range(num_nodes)]
        self.zero = zero

    def add_edge(self, u, v, cap):
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, self.zero, len(self.graph[u]) - 1])

    def _levels(self, s, t):
        level = [-1] * len(self.graph)
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in self.graph[u]:
                if cap > self.cutoff and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.graph[u]):
            edge = self.graph[u][it[u]]
            v, cap, rev = edge
            if cap > self.cutoff and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, cap), level, it)
                if pushed > self.cutoff:
                    edge[1] -= pushed
                    self.graph[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        return self.zero

    def max_flow(self, s, t, cutoff):
        self.cutoff = cutoff
        flow = self.zero
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * len(self.graph)
            while True:
                pushed = self._push(s, t, self.infinite, level, it)
                if pushed <= self.cutoff:
                    break
                flow += pushed

    def reachable(self, s):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v, cap, _ in self.graph[u]:
                if cap > self.cutoff and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


@dataclass(frozen=True)
class ClassicalVerdict:
    """Outcome of the max-flow lifting check: a witness or a violating set."""

    exists: bool
    witness: tuple | None
    violating: frozenset | None


def check_lifting_maxflow(mu1, mu2, relation: Relation) -> ClassicalVerdict:
    """Decide lifting existence for matched-weight sub-distributions.

    The network routes mu1(i) from the source through relation edges of
    effectively infinite capacity into sinks of capacity mu2(j). Full
    saturation (max flow = |mu1|) yields the witness mu(i,j) = flow on
    edge (i,j); otherwise the left vertices still reachable in the
    residual graph form a set S with mu1(S) > mu2(R(S)), straight from
    the min cut: infinite edges never cross it, so the cut capacity is
    mu1(complement of S) + mu2(R(S)) < |mu1|.

    Rational weights (int/Fraction) are processed exactly; floats use an
    augmentation cutoff of 1e-12 * |mu1|.
    """
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    m, n = relation.m, relation.n
    if len(mu1) != m or len(mu2) != n:
        raise InputError("distribution sizes do not match the relation")
    t1, t2 = sum(mu1), sum(mu2)
    if abs(t1 - t2) > 1e-9:
        raise InputError(
            f"total weights differ (|mu1| = {t1}, |mu2| = {t2}); no coupling can exist"
        )
    exact = is_exact(mu1, mu2)
    zero = Fraction(0) if exact else 0.0
    if t1 <= (0 if exact else WEIGHT_SLACK):
        witness = tuple(tuple(zero for _ in range(n)) for _ in range(m))
        return ClassicalVerdict(True, witness, None)

    source, sink = m + n, m + n + 1
    net = _Dinic(m + n + 2, zero)
    net.infinite = t1 + 1
    for i in range(m):
        net.add_edge(source, i, mu1[i] + zero)
    for j in range(n):
        net.add_edge(m + j, sink, mu2[j] + zero)
    edge_of = {}
    for i, j in sorted(relation.pairs):
        edge_of[(i, j)] = len(net.graph[i])
        net.add_edge(i, m + j, net.infinite)
    cutoff = zero if exact else _FLOW_CUTOFF * float(t1)
    flow = net.max_flow(source, sink, cutoff)

    saturated = flow == t1 if exact else t1 - flow <= 1e-9 * max(1.0, float(t1))
    if saturated:
        witness = [[zero] * n for _ in range(m)]
        for (i, j), idx in edge_of.items():
            sent = net.infinite - net.graph[i][idx][1]
            witness[i][j] = sent if exact else max(float(sent), 0.0)
        return ClassicalVerdict(True, tuple(tuple(r) for r in witness), None)

    reach = net.reachable(source)
    violating = frozenset(i for i in range(m) if i in reach)
    image = relation_image(relation, violating)
    # min-cut guarantee; if this trips, the flow computation is wrong
    assert sum(mu1[i] for i in violating) > sum(mu2[j] for j in image)
    return ClassicalVerdict(False, None, violating)


def _check_observable(y, what: str) -> list:
    out = list(y)
    for v in out:
        if isinstance(v, float) and not (v == v and abs(v) != float("inf")):
            raise InputError(f"{what} has a non-finite entry")
        if v < 0:
            raise InputError(f"{what} has a negative entry {v}")
    return out


def level_set_decomposition(y1) -> list:
    """Write a nonnegative vector as sum_k lambda_k * Z_k with 0/1 vectors Z_k.

    The Z_k are the indicator vectors of the super-level sets at the
    distinct positive values t_1 < t_2 < ... of y1, with lambda_1 = t_1
    and lambda_k = t_k - t_{k-1}. Support sets strictly decrease and the
    sum reconstructs y1 exactly.
    """
    y1 = _check_observable(y1, "observable")
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
    y1 = _check_observable(y1, "observable")
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
    whether sum_i mu1[i] y1[i] <= sum_j mu2[j] y2[j] + 1e-12.
    """
    mu1 = check_subdistribution(mu1)
    mu2 = check_subdistribution(mu2)
    y1 = _check_observable(y1, "left observable")
    y2 = _check_observable(y2, "right observable")
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
    return lhs <= rhs + SUM_TOL
