"""Property-based suites for the module invariants."""

import numpy as np
from conftest import facility_sets, greedy_farthest_first
from hypothesis import given, settings, strategies as st

from revgreedy.consolidation import critical_indices, gamma, is_consolidation
from revgreedy.exact import exact_opt
from revgreedy.kcenter import TiePolicy, cost, marginal_costs, reverse_greedy
from revgreedy.lowerbound import build_lower_bound_instance
from revgreedy.metric import (MetricSpace, WeightedGraph, _narrowest, metric_from_graph,
                              random_metric, validate_metric)

COMMON = dict(deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=10_000)
kinds = st.sampled_from(["euclidean", "random-graph"])


def metric_for(kind, n, seed):
    return random_metric(kind, n, seed)


@settings(max_examples=150, **COMMON)
@given(kind=kinds, n=st.integers(2, 12), seed=seeds)
def test_generated_metrics_satisfy_axioms(kind, n, seed):
    assert validate_metric(metric_for(kind, n, seed)).ok


@settings(max_examples=40, **COMMON)
@given(k=st.integers(2, 7), pad=st.integers(0, 5))
def test_lower_bound_metrics_satisfy_axioms(k, pad):
    from revgreedy.lowerbound import size_formula
    inst = build_lower_bound_instance(k, size_formula(k) + pad)
    m = inst.metric
    assert m.dist.dtype == _narrowest(int(m.dist.max()), int(m.dist.min()))
    assert validate_metric(m).ok


# Entry bounds at and around the edges of uint8, int16 and int32.
_EDGES = [0, 1, 255, 256, 32767, 32768, 2**31 - 1, 2**31, 2**62]


@st.composite
def integer_tables(draw):
    """A square integer table and what MetricSpace is given for it: a
    random graph's or the family's metric, a list of ints, an ndarray of
    any integer type that holds it, or integral floats."""
    source = draw(st.sampled_from(["random-graph", "family", "list", "ndarray",
                                   "floats"]))
    if source == "random-graph":
        m = random_metric("random-graph", draw(st.integers(1, 12)), draw(seeds),
                          max_weight=draw(st.sampled_from([1, 9, 200, 2**20, 2**40])))
        return m.dist.tolist(), m
    if source == "family":
        m = build_lower_bound_instance(draw(st.integers(2, 6))).metric
        return m.dist.tolist(), m
    n = draw(st.integers(1, 5))
    hi = draw(st.sampled_from(_EDGES))
    lo = -draw(st.sampled_from(_EDGES)) if draw(st.booleans()) else 0
    if source == "floats":  # integral floats, exact below 2**53
        hi, lo = min(hi, 2**53), max(lo, -2**53)
    cells = draw(st.lists(st.integers(lo, hi), min_size=n * n, max_size=n * n))
    rows = [cells[i:i + n] for i in range(0, n * n, n)]
    if source == "list":
        return rows, rows
    if source == "floats":
        return rows, np.array(rows, np.float64)
    fits = [t for t in (np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int16,
                        np.int32, np.int64)
            if np.iinfo(t).min <= min(cells) and max(cells) <= np.iinfo(t).max]
    return rows, np.array(rows, draw(st.sampled_from(fits)))


@settings(max_examples=300, **COMMON)
@given(case=integer_tables())
def test_integer_tables_are_stored_in_their_narrowest_type(case):
    rows, given_as = case
    m = given_as if isinstance(given_as, MetricSpace) else MetricSpace(dist=given_as)
    assert m.dist.dtype == _narrowest(max(map(max, rows)), min(map(min, rows)))
    assert m.dist.tolist() == rows and not m.dist.flags.writeable


@settings(max_examples=100, **COMMON)
@given(n=st.integers(3, 8), seed=seeds, bump=st.integers(1, 5),
       edge_seed=seeds)
def test_single_edge_increase_never_shrinks_distances(n, seed, bump, edge_seed):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v, int(rng.integers(1, 6)))
             for v in range(1, n)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3]
    edges += [(u, v, int(rng.integers(1, 6))) for u, v in extra]
    base = metric_from_graph(WeightedGraph(n, tuple(edges)))
    idx = edge_seed % len(edges)
    u, v, w = edges[idx]
    edges[idx] = (u, v, w + bump)
    heavier = metric_from_graph(WeightedGraph(n, tuple(edges)))
    assert (heavier.dist >= base.dist).all()


@settings(max_examples=150, **COMMON)
@given(kind=kinds, n=st.integers(3, 12), seed=seeds, data=st.data())
def test_cost_monotone_under_subsets(kind, n, seed, data):
    m = metric_for(kind, n, seed)
    big = data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
    small = data.draw(st.sets(st.sampled_from(sorted(big)), min_size=1,
                              max_size=len(big)))
    assert cost(m, small) >= cost(m, big)


@settings(max_examples=100, **COMMON)
@given(kind=kinds, n=st.integers(3, 11), seed=seeds, k_off=st.integers(0, 5),
       policy_seed=seeds)
def test_trace_structure(kind, n, seed, k_off, policy_seed):
    m = metric_for(kind, n, seed)
    k = 1 + k_off % n
    policy = (TiePolicy.lowest_index() if policy_seed % 2
              else TiePolicy.seeded_random(policy_seed))
    trace = reverse_greedy(m, k, policy)
    assert len(trace.steps) == n - k
    assert len(trace.final) == k
    seq = trace.cost_sequence()
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    sets = list(facility_sets(trace))
    for i, step in enumerate(trace.steps, start=1):
        assert step.removed in sets[i - 1]
        assert sets[i] == sets[i - 1] - {step.removed}


@settings(max_examples=60, **COMMON)
@given(kind=kinds, n=st.integers(4, 9), seed=seeds, policy_seed=seeds)
def test_trace_is_argmin_legal_for_any_policy(kind, n, seed, policy_seed):
    m = metric_for(kind, n, seed)
    policy = TiePolicy.seeded_random(policy_seed)
    trace = reverse_greedy(m, 2, policy)
    current = set(range(n))
    for step in trace.steps:
        margins = marginal_costs(m, current)
        assert margins[step.removed] == min(margins.values())
        current.discard(step.removed)


@settings(max_examples=60, **COMMON)
@given(kind=kinds, n=st.integers(4, 10), seed=seeds, k_off=st.integers(0, 2))
def test_reverse_greedy_within_2k_of_optimal(kind, n, seed, k_off):
    m = metric_for(kind, n, seed)
    k = 2 + k_off
    if k >= n:
        k = n - 1
    opt = exact_opt(m, k)
    trace = reverse_greedy(m, k)
    final = trace.steps[-1].cost if trace.steps else 0
    assert final <= 2 * k * opt.opt_value + m.tol()


@settings(max_examples=60, **COMMON)
@given(kind=kinds, n=st.integers(3, 10), seed=seeds, first=st.integers(0, 9))
def test_farthest_first_within_2_of_optimal(kind, n, seed, first):
    m = metric_for(kind, n, seed)
    k = 2 if n > 2 else 1
    opt = exact_opt(m, k)
    chosen = greedy_farthest_first(m, k, first % n)
    assert cost(m, chosen) <= 2 * opt.opt_value + m.tol()


@settings(max_examples=60, **COMMON)
@given(kind=kinds, n=st.integers(4, 9), seed=seeds, k_off=st.integers(0, 1),
       data=st.data())
def test_gamma_bounds_and_subset_stability(kind, n, seed, k_off, data):
    m = metric_for(kind, n, seed)
    k = 2 + k_off
    opt = exact_opt(m, k)
    big = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=2,
                                      max_size=n)))
    g_big = gamma(m, opt, big)
    assert 1 <= g_big <= k
    small = frozenset(data.draw(st.sets(st.sampled_from(sorted(big)),
                                        min_size=1, max_size=len(big))))
    assert 1 <= gamma(m, opt, small) <= g_big


@settings(max_examples=60, **COMMON)
@given(kind=kinds, n=st.integers(4, 9), seed=seeds, data=st.data())
def test_consolidation_subset_stability(kind, n, seed, data):
    m = metric_for(kind, n, seed)
    opt = exact_opt(m, 2)
    big = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=2,
                                      max_size=n)))
    assert is_consolidation(m, opt, big, opt.balls).valid
    small = frozenset(data.draw(st.sets(st.sampled_from(sorted(big)),
                                        min_size=1, max_size=len(big))))
    assert is_consolidation(m, opt, small, opt.balls).valid


@settings(max_examples=100, **COMMON)
@given(kind=kinds, n=st.integers(4, 10), seed=seeds, policy_seed=seeds)
def test_critical_indices_cross_their_thresholds(kind, n, seed, policy_seed):
    m = metric_for(kind, n, seed)
    opt = exact_opt(m, 2)
    trace = reverse_greedy(m, 2, TiePolicy.seeded_random(policy_seed))
    crit = critical_indices(trace, opt.opt_value)
    costs = trace.cost_sequence()
    for level, index in crit.items():
        assert costs[index] <= 2 * level * opt.opt_value
        assert costs[index + 1] > 2 * level * opt.opt_value
    if crit:
        # Defined levels are contiguous from 0; indices never move backwards.
        assert sorted(crit) == list(range(len(crit)))
        values = [crit[l] for l in sorted(crit)]
        assert values == sorted(values)
