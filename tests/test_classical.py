"""Tests for the classical side: relations, the max-flow and exhaustive
checkers, and the level-set / minimal-completion machinery."""

import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from qcoupling import classical
from qcoupling.classical import Relation
from qcoupling.errors import InputError

from helpers import all_relations, rand_matched_rationals, rand_relation

FLIP = Relation.from_pairs(2, 2, [(0, 1), (1, 0)])
HALF = [Fr(1, 2), Fr(1, 2)]


def test_check_subdistribution():
    assert classical.check_subdistribution([0.2, 0.3]) == [0.2, 0.3]
    with pytest.raises(InputError):
        classical.check_subdistribution([0.2, -0.1])
    with pytest.raises(InputError):
        classical.check_subdistribution([0.8, 0.3])  # mass 1.1
    with pytest.raises(InputError):
        classical.check_subdistribution([float("nan")])
    with pytest.raises(InputError):
        classical.check_subdistribution([])


def test_relation_construction_and_membership():
    rel = Relation.from_pairs(2, 3, [(0, 2), (1, 0)])
    assert rel.pairs == frozenset([(0, 2), (1, 0)])
    assert Relation.full(2, 2).pairs == frozenset(
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    )
    assert Relation.equality(3).pairs == frozenset([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InputError):
        Relation.from_pairs(2, 2, [(0, 2)])  # column out of range
    with pytest.raises(InputError):
        Relation.from_pairs(0, 2, [])


def test_relation_image():
    rel = Relation.from_pairs(3, 3, [(0, 0), (0, 1), (2, 2)])
    assert classical.relation_image(rel, {0}) == {0, 1}
    assert classical.relation_image(rel, {1}) == set()
    assert classical.relation_image(rel, {0, 2}) == {0, 1, 2}
    with pytest.raises(InputError):
        classical.relation_image(rel, {3})


def test_marginals_and_witness_predicate():
    joint = [[Fr(0), Fr(1, 2)], [Fr(1, 2), Fr(0)]]
    mu1, mu2 = classical.marginals(joint)
    assert mu1 == HALF and mu2 == HALF
    assert classical.is_lifting_witness_classical(joint, HALF, HALF, FLIP)
    # same joint fails against the equality relation (off-support mass)
    assert not classical.is_lifting_witness_classical(
        joint, HALF, HALF, Relation.equality(2)
    )
    # marginal mismatch, in the rows and then in the columns alone
    assert not classical.is_lifting_witness_classical(
        joint, [Fr(1), Fr(0)], HALF, FLIP
    )
    assert not classical.is_lifting_witness_classical(
        joint, HALF, [Fr(1), Fr(0)], FLIP
    )


def test_flip_example_exhaustive_and_maxflow():
    """Fair coin vs fair coin under i != j: the anti-diagonal witness."""
    assert classical.check_strassen_exhaustive(HALF, HALF, FLIP) is None
    v = classical.check_lifting_maxflow(HALF, HALF, FLIP)
    assert v.exists
    assert v.witness == ((Fr(0), Fr(1, 2)), (Fr(1, 2), Fr(0)))


def test_point_relation_blocks_mass():
    rel = Relation.from_pairs(2, 2, [(0, 0)])
    s = classical.check_strassen_exhaustive(HALF, HALF, rel)
    assert s == frozenset({1})
    v = classical.check_lifting_maxflow(HALF, HALF, rel)
    assert not v.exists
    assert v.violating == frozenset({1})


def test_exhaustive_oracle_sums_float_weights_exactly():
    """mu1({0, 1}) = 0.5 + 5e-324 exceeds mu2(R({0, 1})) = 0.5 by less than
    an ulp of 0.5; the oracle sums the weights exactly, so it finds the
    violation on floats as it does on the same weights as Fractions."""
    rel = Relation.from_pairs(2, 2, [(0, 0), (1, 0)])
    mu = [0.5, 5e-324]
    assert classical.check_strassen_exhaustive(mu, mu, rel) == frozenset({0, 1})
    exact = [Fr(w) for w in mu]
    assert classical.check_strassen_exhaustive(exact, exact, rel) == frozenset({0, 1})


def test_maxflow_rejects_unequal_totals():
    with pytest.raises(InputError):
        classical.check_lifting_maxflow([Fr(1, 2)], [Fr(1, 4)], Relation.full(1, 1))


def test_maxflow_exact_totals_must_be_equal():
    # exact weights whose totals differ by less than the float slack have no
    # coupling either; float weights keep the 1e-9 slack
    short = [Fr(1, 2) - Fr(1, 10**10)]
    with pytest.raises(InputError):
        classical.check_lifting_maxflow(short, [Fr(1, 2)], Relation.full(1, 1))
    assert classical.check_lifting_maxflow(
        [0.5 - 1e-10], [0.5], Relation.full(1, 1)
    ).exists


def test_zero_mass_couples_vacuously():
    v = classical.check_lifting_maxflow([0.0, 0.0], [0.0, 0.0], FLIP)
    assert v.exists
    assert all(w == 0 for row in v.witness for w in row)


def test_exhaustive_guard_on_large_m():
    mu = [Fr(1, 30)] * 25
    with pytest.raises(InputError):
        classical.check_strassen_exhaustive(mu, mu, Relation.equality(25))


def test_checkers_agree_on_small_instances():
    """Exhaustive oracle vs max-flow across every relation on [2]x[2] and
    a sample of [3]x[3], with exact rationals."""
    rng = np.random.default_rng(0)
    checked = 0
    for rel in all_relations(2, 2):
        for _ in range(8):
            mu1, mu2 = rand_matched_rationals(rng, 2, 2)
            s = classical.check_strassen_exhaustive(mu1, mu2, rel)
            v = classical.check_lifting_maxflow(mu1, mu2, rel)
            assert v.exists == (s is None)
            if v.exists:
                assert classical.is_exact(*v.witness)
                assert classical.is_lifting_witness_classical(v.witness, mu1, mu2, rel)
            else:
                img = classical.relation_image(rel, v.violating)
                assert sum(mu1[i] for i in v.violating) > sum(mu2[j] for j in img)
            checked += 1
    prng = random.Random(1)
    for _ in range(150):
        rel = Relation.from_pairs(
            3, 3, [(i, j) for i in range(3) for j in range(3) if prng.random() < 0.5]
        )
        mu1, mu2 = rand_matched_rationals(rng, 3, 3)
        s = classical.check_strassen_exhaustive(mu1, mu2, rel)
        v = classical.check_lifting_maxflow(mu1, mu2, rel)
        assert v.exists == (s is None)
        checked += 1
    assert checked == 278


def test_maxflow_float_mode_matches_exact_verdicts():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rel = Relation.from_pairs(
            3, 3, [(i, j) for i in range(3) for j in range(3) if rng.random() < 0.5]
        )
        mu1, mu2 = rand_matched_rationals(rng, 3, 3)
        exact = classical.check_lifting_maxflow(mu1, mu2, rel)
        fl = classical.check_lifting_maxflow(
            [float(w) for w in mu1], [float(w) for w in mu2], rel
        )
        assert exact.exists == fl.exists
        if fl.exists:
            assert classical.is_lifting_witness_classical(
                fl.witness, [float(w) for w in mu1], [float(w) for w in mu2], rel
            )


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_maxflow_matches_subset_scan_on_rectangular_shapes(exact):
    """Every shape m, n in 1..6 at several relation densities: the max-flow
    verdict equals the exhaustive scan's, every witness is a lifting, and
    every violating set breaks Hall's condition. Margins are 0 or at least
    1/20, so the float path must reach the exact verdicts."""
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        for n in range(1, 7):
            for density in (0.2, 0.5, 0.8):
                for _ in range(4):
                    rel = rand_relation(rng, m, n, density)
                    mu1, mu2 = rand_matched_rationals(rng, m, n)
                    want = classical.check_strassen_exhaustive(mu1, mu2, rel) is None
                    w1, w2 = (mu1, mu2) if exact else (
                        [float(w) for w in mu1], [float(w) for w in mu2]
                    )
                    v = classical.check_lifting_maxflow(w1, w2, rel)
                    assert v.exists == want, (m, n, sorted(rel.pairs), mu1, mu2)
                    if v.exists:
                        assert classical.is_exact(*v.witness) == exact
                        assert classical.is_lifting_witness_classical(v.witness, w1, w2, rel)
                    else:
                        img = classical.relation_image(rel, v.violating)
                        assert sum(mu1[i] for i in v.violating) > sum(mu2[j] for j in img)


def _rational_maxflow(mu1, mu2, rel):
    """Edmonds-Karp on the Fraction network itself, unscaled: the witness
    (or None) and the violating set (or None), for reference."""
    m, n = rel.m, rel.n
    infinite, zero = sum(mu1) + 1, Fr(0)
    cap = [{} for _ in range(m + n + 2)]

    def add_edge(u, v, c):
        cap[u][v], cap[v][u] = c, zero

    for i in range(m):
        add_edge(m + n, i, mu1[i] + zero)
    for j in range(n):
        add_edge(m + j, m + n + 1, mu2[j] + zero)
    for i, j in sorted(rel.pairs):
        add_edge(i, m + j, infinite)
    flow, reached = classical._edmonds_karp(cap, m + n, m + n + 1)
    if flow == sum(mu1):
        sent = lambda i, j: infinite - cap[i][m + j] if (i, j) in rel.pairs else zero
        return tuple(tuple(sent(i, j) for j in range(n)) for i in range(m)), None
    return None, frozenset(i for i in range(m) if i in reached)


def test_integer_maxflow_matches_the_rational_network():
    """Exact weights run on integers scaled by their common denominator. On
    every [2]x[2] relation and on seeded [3]x[3] instances the verdict
    matches the exhaustive scan, a witness has exactly the marginals, and the
    witness and violating set are those of the Fraction network itself."""
    rng = np.random.default_rng(43)
    cases = [(rel, *rand_matched_rationals(rng, 2, 2)) for rel in all_relations(2, 2)
             for _ in range(12)]
    cases += [(rand_relation(rng, 3, 3), *rand_matched_rationals(rng, 3, 3, 60))
              for _ in range(300)]
    cases += [(rel, [1, 0], [0, 1]) for rel in all_relations(2, 2)]
    seen = set()
    for rel, mu1, mu2 in cases:
        v = classical.check_lifting_maxflow(mu1, mu2, rel)
        assert v.exists == (classical.check_strassen_exhaustive(mu1, mu2, rel) is None)
        assert (v.witness, v.violating) == _rational_maxflow(mu1, mu2, rel)
        if v.exists:
            assert all(type(w) is Fr for row in v.witness for w in row)
            assert classical.is_lifting_witness_classical(v.witness, mu1, mu2, rel, 0)
        seen.add(v.exists)
    assert seen == {True, False}


def test_exact_violating_margin_is_rational():
    mu1 = [Fr(3, 7), Fr(4, 7)]
    mu2 = [Fr(4, 7), Fr(3, 7)]
    rel = Relation.from_pairs(2, 2, [(0, 0), (1, 1)])
    v = classical.check_lifting_maxflow(mu1, mu2, rel)
    assert not v.exists
    assert v.violating == frozenset({1})  # 4/7 > 3/7, exactly


def test_level_set_decomposition_reconstructs():
    y1 = [Fr(2), Fr(1), Fr(2), Fr(0)]
    levels = classical.level_set_decomposition(y1)
    assert levels == [(Fr(1), (1, 1, 1, 0)), (Fr(1), (1, 0, 1, 0))]
    rebuilt = [sum(lam * ind[i] for lam, ind in levels) for i in range(4)]
    assert rebuilt == y1


def test_level_set_chain_strictly_decreasing():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        y1 = [Fr(int(rng.integers(0, 6)), int(rng.integers(1, 5))) for _ in range(n)]
        levels = classical.level_set_decomposition(y1)
        assert all(lam > 0 for lam, _ in levels)
        sets = [frozenset(i for i, b in enumerate(ind) if b) for _, ind in levels]
        for a, b in zip(sets, sets[1:]):
            assert b < a  # strict inclusion, decreasing chain
        rebuilt = [sum(lam * ind[i] for lam, ind in levels) for i in range(n)]
        assert rebuilt == y1


def test_level_set_rejects_negative():
    with pytest.raises(InputError):
        classical.level_set_decomposition([1.0, -0.5])


def test_y2_min_is_per_column_max_and_minimal():
    rng = np.random.default_rng(4)
    prng = random.Random(5)
    dominated = 0
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rel = Relation.from_pairs(
            m, n, [(i, j) for i in range(m) for j in range(n) if prng.random() < 0.6]
        )
        y1 = [Fr(int(rng.integers(0, 8)), 4) for _ in range(m)]
        y2 = classical.y2_min(y1, rel)
        # independent oracle: per-column maximum over related rows
        for j in range(n):
            related = [y1[i] for i, j2 in rel.pairs if j2 == j]
            assert y2[j] == (max(related) if related else 0)
        # any nonnegative Y2 satisfying the on-relation constraints dominates
        cand = [Fr(int(rng.integers(0, 13)), 4) for _ in range(n)]
        if all(cand[j] >= y1[i] for i, j in rel.pairs):
            assert all(c >= y for c, y in zip(cand, y2))
            dominated += 1
    assert dominated > 20  # rejection sampling actually exercised the check


def test_check_statement_2prime_spec_cases():
    ones2 = [Fr(1), Fr(1)]
    assert classical.check_statement_2prime(
        HALF, HALF, Relation.full(2, 2), ones2, ones2
    )
    # Y1=(0,1), Y2=(0,0) with R={(0,0)}: constraints hold, sums fail
    rel = Relation.from_pairs(2, 2, [(0, 0)])
    assert not classical.check_statement_2prime(
        HALF, HALF, rel, [Fr(0), Fr(1)], [Fr(0), Fr(0)]
    )


def test_check_statement_2prime_rejects_violated_constraints():
    rel = Relation.equality(2)
    with pytest.raises(InputError) as err:
        classical.check_statement_2prime(
            HALF, HALF, rel, [Fr(1), Fr(0)], [Fr(0), Fr(0)]
        )
    assert "(0,0)" in str(err.value)
    with pytest.raises(InputError):
        classical.check_statement_2prime(HALF, HALF, rel, [Fr(-1), Fr(0)], [Fr(0), Fr(0)])


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_check_statement_2prime_rejects_a_bad_constraint_tolerance(tol):
    # an infinite or NaN tolerance would skip the constraint check that the
    # exact tolerance 0 fails on this pair
    rel = Relation.equality(2)
    with pytest.raises(InputError, match="constraint_tol"):
        classical.check_statement_2prime(
            HALF, HALF, rel, [Fr(1), Fr(0)], [Fr(0), Fr(0)], constraint_tol=tol
        )
    assert classical.check_statement_2prime(
        HALF, HALF, rel, [Fr(0), Fr(0)], [Fr(0), Fr(0)], constraint_tol=1e-9
    )


def test_statement_2prime_via_y2_min_when_strassen_holds():
    """When the domination condition holds, (Y1, y2_min(Y1)) always satisfies
    the 2' inequality; when it fails at S, the indicator pair refutes it."""
    rng = np.random.default_rng(6)
    prng = random.Random(7)
    done = 0
    while done < 60:
        rel = Relation.from_pairs(
            3, 3, [(i, j) for i in range(3) for j in range(3) if prng.random() < 0.6]
        )
        mu1, mu2 = rand_matched_rationals(rng, 3, 3)
        s = classical.check_strassen_exhaustive(mu1, mu2, rel)
        if s is None:
            # Entries in [0, 1]: off-relation pairs need y2 >= y1 - 1 with y2 = 0.
            y1 = [Fr(int(rng.integers(0, 7)), 6) for _ in range(3)]
            y2 = classical.y2_min(y1, rel)
            assert classical.check_statement_2prime(mu1, mu2, rel, y1, y2)
        else:
            img = classical.relation_image(rel, s)
            y1 = [Fr(1 if i in s else 0) for i in range(3)]
            y2 = [Fr(1 if j in img else 0) for j in range(3)]
            assert not classical.check_statement_2prime(mu1, mu2, rel, y1, y2)
        done += 1


def _hall_deficit(mu1, mu2, rel):
    """max over S of mu1(S) - mu2(R(S)), exactly (S = {} gives 0): the
    maximum flow falls short of |mu1| by exactly this much."""
    mu1, mu2 = [Fr(w) for w in mu1], [Fr(w) for w in mu2]
    subsets = ({i for i in range(rel.m) if mask >> i & 1} for mask in range(1 << rel.m))
    return max(
        sum(mu1[i] for i in s) - sum(mu2[j] for j in classical.relation_image(rel, s))
        for s in subsets
    )


def _verifies(v, mu1, mu2, rel):
    """The proof object of v checks on its own problem: a witness within
    the default tolerance (exactly for Fractions), or a set S with
    mu1(S) > mu2(R(S)) exactly."""
    if v.exists:
        tol = 0 if classical.is_exact(mu1, mu2) else classical.WITNESS_TOL
        return classical.is_lifting_witness_classical(v.witness, mu1, mu2, rel, tol)
    img = classical.relation_image(rel, v.violating)
    return sum(Fr(mu1[i]) for i in v.violating) > sum(Fr(mu2[j]) for j in img)


def _float_sweep_cases(rng):
    """Float weights in three families, each a third of the cases: totals
    that differ by less than 1e-9; a subnormal weight 5e-324 beside 0.5;
    and mass below 1e-12 * |mu1| moved between entries, so that some
    Strassen margins lie under that size."""
    for k in range(240):
        m, n = (int(x) for x in rng.integers(2 if k % 3 == 1 else 1, 5, size=2))
        rel = rand_relation(rng, m, n)
        mu1, mu2 = ([float(w) for w in ws] for ws in rand_matched_rationals(rng, m, n))
        if k % 3 == 0:
            side = mu1 if rng.random() < 0.5 else mu2
            i = int(rng.integers(len(side)))
            side[i] -= min(side[i], float(rng.uniform(0, 0.9e-9)))
        elif k % 3 == 1:
            mu1, mu2 = (
                [float(w) for w in rng.permutation([0.5, 5e-324] + [0.0] * (size - 2))]
                for size in (m, n)
            )
        else:
            for side in (mu1, mu2):
                a, b = rng.integers(len(side), size=2)
                delta = min(side[a], float(rng.uniform(0, 1e-12)) * sum(mu1))
                side[a] -= delta
                side[b] += delta
        yield mu1, mu2, rel


def test_float_weights_run_exactly_on_the_integer_network():
    """Floats run as the dyadic rationals they are: the verdict is Exists
    exactly when the maximum flow, |mu1| minus the exact Hall deficit, falls
    short of |mu1| by at most 1e-9 (relative above 1); it agrees with the
    exhaustive scan on the exact weights wherever the deficit is 0; every
    witness is a float lifting and every violating set breaks Hall's
    condition exactly. No scale, 2^1074 included, overflows."""
    rng = np.random.default_rng(71)
    seen = set()
    for mu1, mu2, rel in _float_sweep_cases(rng):
        v = classical.check_lifting_maxflow(mu1, mu2, rel)
        deficit = _hall_deficit(mu1, mu2, rel)
        slack = Fr(1e-9) * max(1, sum(Fr(w) for w in mu1))
        assert v.exists == (deficit <= slack), (mu1, mu2, sorted(rel.pairs))
        if deficit == 0 or deficit > slack:
            oracle = classical.check_strassen_exhaustive(mu1, mu2, rel)
            assert v.exists == (oracle is None)
        assert _verifies(v, mu1, mu2, rel)
        if v.exists:
            assert all(type(w) is float for row in v.witness for w in row)
        seen.add((v.exists, 0 < deficit <= slack))
    assert seen == {(True, False), (True, True), (False, False)}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_maxflow_verdict_is_invariant_under_swaps_and_permutations(exact):
    """Swapping the sides (mu2, mu1, R transposed) and permuting either index
    set keep the verdict, and each proof object verifies on its own problem."""
    rng = np.random.default_rng(73)
    seen = set()
    for _ in range(120):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rel = rand_relation(rng, m, n)
        mu1, mu2 = rand_matched_rationals(rng, m, n)
        if not exact:
            mu1, mu2 = [float(w) for w in mu1], [float(w) for w in mu2]
        p, q = rng.permutation(m), rng.permutation(n)
        variants = [
            (mu1, mu2, rel),
            (mu2, mu1, Relation.from_pairs(n, m, [(j, i) for i, j in rel.pairs])),
            ([mu1[p[i]] for i in range(m)], mu2,
             Relation.from_pairs(m, n, [(int(np.argsort(p)[i]), j) for i, j in rel.pairs])),
            (mu1, [mu2[q[j]] for j in range(n)],
             Relation.from_pairs(m, n, [(i, int(np.argsort(q)[j])) for i, j in rel.pairs])),
        ]
        verdicts = set()
        for w1, w2, r in variants:
            v = classical.check_lifting_maxflow(w1, w2, r)
            assert _verifies(v, w1, w2, r)
            verdicts.add(v.exists)
        assert len(verdicts) == 1
        seen |= verdicts
    assert seen == {True, False}
