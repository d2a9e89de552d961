import gc
from itertools import combinations
from random import Random

import numpy as np
import pytest
from conftest import exact_opt_enumeration, uniform_metric
from hypothesis import given, settings, strategies as st

from revgreedy.consolidation import gamma
from revgreedy.exact import (OracleCapError, _can_cover, _first_cover, exact_opt,
                             opt_value, optimal_solution)
from revgreedy.kcenter import cost
from revgreedy.lowerbound import build_lower_bound_instance, known_opt
from revgreedy.metric import MetricSpace, random_metric
from test_cover_differential import fresh_state, search


def test_k_equals_n():
    m = uniform_metric(4)
    sol = exact_opt(m, 4)
    assert sol.opt_value == 0
    assert sol.facilities == frozenset(range(4))
    assert all(b == {o} for o, b in zip(sorted(sol.facilities), sol.balls))


def test_uniform_any_k_is_one():
    m = uniform_metric(5)
    for k in (1, 2, 4):
        assert exact_opt(m, k).opt_value == 1


def test_lower_bound_k2_unique_optimum():
    inst = build_lower_bound_instance(2)
    centers = frozenset(s.center for s in inst.stars)
    for solver in (exact_opt_enumeration, exact_opt):
        sol = solver(inst.metric, 2)
        assert sol.opt_value == 1
        assert sol.facilities == centers
    # Enumeration oracle: 1 is the unique minimal value, and the centers are
    # the lexicographically first set attaining it.
    by_cost = sorted((cost(inst.metric, c), c)
                     for c in combinations(range(inst.n), 2))
    assert by_cost[0] == (1, tuple(sorted(centers)))
    assert min(v for v, c in by_cost if set(c) != centers and v != 1) == 2


def test_opt_value_is_a_pairwise_distance():
    for seed in range(10):
        kind = "euclidean" if seed % 2 else "random-graph"
        m = random_metric(kind, 9, 300 + seed)
        sol = exact_opt(m, 3)
        pairwise = set(np.asarray(m.dist).ravel().tolist())
        assert sol.opt_value in pairwise


def test_balls_cover_everything():
    for seed in range(10):
        m = random_metric("random-graph", 10, 400 + seed)
        sol = exact_opt(m, 3)
        assert frozenset().union(*sol.balls) == frozenset(range(m.n))


def test_opt_balls_lower_bound_k3():
    inst = build_lower_bound_instance(3)
    sol = known_opt(inst)
    # Direct distance-scan oracle for each ball.
    for o, got in zip(sorted(sol.facilities), sol.balls):
        expected = {c for c in range(inst.n) if inst.metric.dist[o, c] <= 1}
        assert got == expected
    for star, b in zip(inst.stars, sol.balls):
        assert star.vertices <= b
    # Only the two big stars touch each other's centers.
    assert sol.balls[2] == inst.stars[2].vertices
    assert sol.balls[0] == inst.stars[0].vertices | {inst.stars[1].center}


def test_opt_balls_uniform_k1():
    m = uniform_metric(5)
    sol = exact_opt(m, 1)
    assert sol.balls == (frozenset(range(5)),)


def test_ball_radius_zero_is_center():
    m = uniform_metric(4)
    assert optimal_solution(m, 0, {2}).balls == ({2},)


def test_ball_uniform_radius_one_is_everything():
    m = uniform_metric(4)
    assert optimal_solution(m, 1, {0}).balls == (frozenset(range(4)),)


def test_ball_lower_bound_k2():
    inst = build_lower_bound_instance(2)
    c0 = inst.stars[0].center
    (got,) = optimal_solution(inst.metric, 1, {c0}).balls
    expected = {c for c in range(inst.n) if inst.metric.dist[c0, c] <= 1}
    assert got == expected
    assert got == inst.stars[0].vertices | {inst.stars[1].center}


def test_strategies_agree_and_match_enumeration():
    for seed in range(30):
        kind = "euclidean" if seed % 2 else "random-graph"
        n = 6 + seed % 7
        k = 2 + seed % 3
        m = random_metric(kind, n, 500 + seed)
        a = exact_opt_enumeration(m, k)
        b = exact_opt(m, k)
        assert a.opt_value == b.opt_value
        assert cost(m, a.facilities) == a.opt_value
        assert cost(m, b.facilities) == b.opt_value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000),
       max_weight=st.sampled_from([1, 2, 3, 9]), data=st.data())
def test_oracle_matches_enumeration_exactly(n, seed, max_weight, data):
    # Small weights make many optimal sets, so the lexicographic choice
    # among them is exercised, not just the optimum value.
    k = data.draw(st.integers(1, n - 1))
    m = random_metric("random-graph", n, seed, max_weight=max_weight)
    assert exact_opt(m, k) == exact_opt_enumeration(m, k)


def test_coincident_points_give_zero_optimum():
    # Zero is a candidate radius too: coincident points share a center.
    d = np.ones((16, 16), dtype=np.int64)
    np.fill_diagonal(d, 0)
    d[0, 1] = d[1, 0] = 0
    m = MetricSpace(dist=d, mode="int")
    assert exact_opt(m, 15) == exact_opt_enumeration(m, 15)
    assert exact_opt(m, 15).opt_value == 0


def test_first_cover_is_first_covering_combination():
    rng = Random(7)
    for trial in range(600):
        n = rng.randint(1, 9)
        full = (1 << n) - 1
        # Symmetric, as the oracle's masks are (mask q also lists q's
        # coverers): each pair drawn once, sparse or dense, so that masks
        # are often duplicate or nested, which the search's reduction drops.
        share = rng.choice((0.25, 0.5, 0.75))
        near = {(i, j) for i in range(n) for j in range(i, n) if rng.random() < share}
        masks = [sum(1 << j for j in range(n) if (min(i, j), max(i, j)) in near)
                 for i in range(n)]
        k = rng.randint(1, n)
        covering = [c for c in combinations(range(n), k)
                    if sum(1 << b for b in range(n)
                           if any(masks[i] >> b & 1 for i in c)) == full]
        assert _can_cover(fresh_state(), masks, full, k) == bool(covering), trial
        if covering:
            assert _first_cover(fresh_state(), masks, full, k) == list(covering[0]), trial


def test_no_smaller_cost_among_k_subsets():
    m = random_metric("random-graph", 9, 123)
    sol = exact_opt(m, 3)
    best = min(cost(m, c) for c in combinations(range(m.n), 3))
    assert sol.opt_value == best


def test_cap_exceeded():
    m = uniform_metric(25)
    with pytest.raises(OracleCapError, match="cap exceeded"):
        exact_opt(m, 3, cap=20)


def test_k_out_of_range():
    m = uniform_metric(3)
    with pytest.raises(ValueError):
        exact_opt(m, 0)
    with pytest.raises(ValueError):
        exact_opt(m, 4)


def test_lower_bound_k3_exact_matches_known():
    inst = build_lower_bound_instance(3)
    sol = exact_opt(inst.metric, 3)
    assert sol.opt_value == known_opt(inst).opt_value == 1


def test_searches_leave_no_garbage_cycles():
    # A cycle would hold a search's state, coverer table or adjacency until
    # a full collection; with the collector off, none may be left to collect.
    inst = build_lower_bound_instance(6)
    opt = known_opt(inst)
    masks = [0b0011, 0b0110, 0b1100, 0b1000]
    m = random_metric("random-graph", 12, 5)
    gc.collect()
    gc.disable()
    try:
        assert search(fresh_state(), masks, 0b1111, 2)
        assert gc.collect() == 0
        assert _can_cover(fresh_state(), masks, 0b1111, 2)
        assert gc.collect() == 0
        assert opt_value(m, 3) == exact_opt(m, 3).opt_value
        assert gc.collect() == 0
        assert gamma(inst.metric, opt, frozenset(range(inst.n))) >= 1
        assert gc.collect() == 0
    finally:
        gc.enable()
