import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from conftest import facility_sets, greedy_farthest_first, uniform_metric

from revgreedy import kcenter
from revgreedy.exact import exact_opt
from revgreedy.kcenter import (ScriptedStepError, TiePolicy, cost,
                               load_trace, marginal_costs, reverse_greedy,
                               save_trace, serves)
from revgreedy.lowerbound import (build_lower_bound_instance,
                                  scripted_schedule)
from revgreedy.metric import (MetricSpace, WeightedGraph, metric_from_graph,
                              random_metric)


def two_point_metric(d=5):
    return MetricSpace(dist=np.array([[0, d], [d, 0]]))


def brute_marginals(m, facilities):
    """Direct evaluation oracle: one cost() call per removal."""
    return {g: cost(m, set(facilities) - {g}) for g in facilities}


# --- cost ---

def test_cost_all_points_zero():
    m = uniform_metric(5)
    assert cost(m, range(5)) == 0


def test_cost_two_point():
    assert cost(two_point_metric(5), {0}) == 5


def test_cost_lower_bound_centers_is_one():
    inst = build_lower_bound_instance(2)
    centers = {s.center for s in inst.stars}
    assert cost(inst.metric, centers) == 1


def test_cost_empty_set_errors():
    with pytest.raises(ValueError, match="empty"):
        cost(uniform_metric(3), set())


# --- serves ---

def test_serves_self():
    m = uniform_metric(4)
    assert serves(m, {0, 2}, 2) == 2


def test_serves_lowest_index_on_tie():
    m = uniform_metric(9)
    assert serves(m, {3, 7}, 1) == 3


def test_serves_on_lower_bound_instance():
    inst = build_lower_bound_instance(2)
    c0, c1 = inst.stars[0].center, inst.stars[1].center
    assert serves(inst.metric, {c0}, c1) == c0


# --- marginal costs ---

def test_marginals_uniform_all_one():
    m = uniform_metric(6)
    assert marginal_costs(m, range(6)) == {g: 1 for g in range(6)}


def test_marginals_two_point():
    assert marginal_costs(two_point_metric(5), {0, 1}) == {0: 5, 1: 5}


def test_marginals_lower_bound_full_set():
    inst = build_lower_bound_instance(2)
    margins = marginal_costs(inst.metric, range(inst.n))
    assert margins == brute_marginals(inst.metric, range(inst.n))
    assert set(margins.values()) == {1}


def test_marginals_match_direct_evaluation_random():
    for seed in range(8):
        kind = "euclidean" if seed % 2 else "random-graph"
        m = random_metric(kind, 9, seed)
        fac = set(range(m.n)) - {seed % m.n}
        assert marginal_costs(m, fac) == pytest.approx(brute_marginals(m, fac))


def test_marginals_need_two_facilities():
    with pytest.raises(ValueError):
        marginal_costs(uniform_metric(3), {0})


# --- reverse greedy ---

def test_reverse_greedy_k_equals_n():
    m = uniform_metric(4)
    trace = reverse_greedy(m, 4)
    assert trace.steps == []
    assert trace.final == frozenset(range(4))
    assert cost(m, trace.final) == 0 == trace.final_cost


@pytest.mark.parametrize("k", [1, 2, 4])
def test_reverse_greedy_uniform_final_cost_one(k):
    m = uniform_metric(5)
    for policy in (TiePolicy.lowest_index(), TiePolicy.seeded_random(3)):
        trace = reverse_greedy(m, k, policy)
        assert trace.steps[-1].cost == 1 == trace.final_cost
        assert len(trace.final) == k


def test_reverse_greedy_k_out_of_range():
    m = uniform_metric(3)
    with pytest.raises(ValueError):
        reverse_greedy(m, 0)
    with pytest.raises(ValueError):
        reverse_greedy(m, 4)


def test_reverse_greedy_scripted_lower_bound_k5():
    inst = build_lower_bound_instance(5)
    script = scripted_schedule(inst).script()
    trace = reverse_greedy(inst.metric, 5, TiePolicy.scripted(script))
    assert trace.steps[-1].cost == 8


def test_scripted_removal_outside_argmin_errors():
    inst = build_lower_bound_instance(3)
    script = list(scripted_schedule(inst).script())
    # Pulling the leaf tied to the last star's center into the cost-2 block
    # displaces its matched partner to cost 3 while the minimum is still 2.
    moved = inst.stars[0].leaf(4)
    script.remove(moved)
    script.insert(script.index(inst.stars[0].center) + 1, moved)
    with pytest.raises(ScriptedStepError,
                       match=r"step 8: facility 4 has marginal cost 3 > minimum 2"):
        reverse_greedy(inst.metric, 3, TiePolicy.scripted(script))


def test_scripted_wrong_length_errors():
    m = uniform_metric(5)
    with pytest.raises(ValueError, match="removals"):
        reverse_greedy(m, 2, TiePolicy.scripted((0, 1)))


@pytest.mark.parametrize("entry", [1.0, 1.5, "1", True, False])
def test_scripted_removals_must_be_integers(entry):
    # A bool is no facility, though it is an int: True would read as 1.
    for make in (lambda s: TiePolicy.scripted(s), lambda s: TiePolicy("scripted", script=s)):
        with pytest.raises(ValueError, match="^scripted removals must be integers$"):
            make((0, entry, 2))


def test_scripted_removals_are_held_as_python_ints():
    policy = TiePolicy("scripted", script=[np.int16(3), np.uint8(0), 1])
    assert policy.script == (3, 0, 1)
    assert all(type(p) is int for p in policy.script)
    trace = reverse_greedy(uniform_metric(5), 2, policy)
    assert [type(s.removed) for s in trace.steps] == [int] * 3


@pytest.mark.parametrize("seed", [1.5, "1", True, False])
def test_seeded_random_seeds_must_be_integers(seed):
    # "1" would draw another stream than 1, 1.5 is seeded by its hash, and a
    # bool would go into the trace's policy as true or false.
    for make in (TiePolicy.seeded_random, lambda s: TiePolicy("seeded-random", seed=s)):
        with pytest.raises(ValueError, match="^seeded-random seeds must be integers$"):
            make(seed)


@pytest.mark.parametrize("kind, fields, unread", [
    ("lowest-index", {"seed": 5}, "seed"),
    ("lowest-index", {"seed": True}, "seed"),
    ("scripted", {"seed": 0, "script": (0,)}, "seed"),
    ("lowest-index", {"script": (5,)}, "removal sequence"),
    ("seeded-random", {"seed": 0, "script": (5,)}, "removal sequence"),
])
def test_a_policy_takes_only_what_its_kind_reads(kind, fields, unread):
    # describe() would write a seed into the trace's policy.
    with pytest.raises(ValueError, match=f"^{kind} policy takes no {unread}$"):
        TiePolicy(kind, **fields)


def test_seeded_random_seeds_are_held_as_python_ints():
    policy = TiePolicy("seeded-random", seed=np.int16(3))
    assert type(policy.seed) is int
    assert policy.describe() == {"kind": "seeded-random", "seed": 3}
    m = random_metric("random-graph", 10, 5)
    assert (reverse_greedy(m, 3, policy).steps
            == reverse_greedy(m, 3, TiePolicy.seeded_random(3)).steps)


def test_trace_costs_nondecreasing_and_consistent():
    for seed in range(6):
        m = random_metric("random-graph", 10, 100 + seed)
        trace = reverse_greedy(m, 3, TiePolicy.seeded_random(seed))
        seq = trace.cost_sequence()
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        # Recorded cost after each removal equals cost() of the shrunk set.
        sets = list(facility_sets(trace))
        for i, step in enumerate(trace.steps, start=1):
            assert step.removed in sets[i - 1]
            assert step.cost == cost(m, sets[i])


def test_seeded_random_reproducible():
    m = random_metric("random-graph", 10, 5)
    a = reverse_greedy(m, 3, TiePolicy.seeded_random(11))
    b = reverse_greedy(m, 3, TiePolicy.seeded_random(11))
    assert [s.removed for s in a.steps] == [s.removed for s in b.steps]


def test_every_policy_trace_is_argmin_legal():
    m = random_metric("random-graph", 9, 42)
    for policy in (TiePolicy.lowest_index(), TiePolicy.seeded_random(0),
                   TiePolicy.seeded_random(9)):
        trace = reverse_greedy(m, 2, policy)
        current = set(range(m.n))
        for step in trace.steps:
            margins = marginal_costs(m, current)
            assert margins[step.removed] == min(margins.values())
            current.discard(step.removed)


def test_record_argmin_captures_tied_candidates():
    m = uniform_metric(5)
    trace = reverse_greedy(m, 2, record_argmin=True)
    assert trace.steps[0].argmin == tuple(range(5))
    plain = reverse_greedy(m, 2)
    assert plain.steps[0].argmin is None


def window_rounds_per_step(m, k, policy):
    """Window rounds of each step's pointer advance, counted with a profile
    hook: a window round is the engine's one call of ndarray.argmax, and a
    step's advance ends at the next call of nonzero, which lists the next
    step's argmin set (after the last step, the final set)."""
    per_step, rounds = [], 0

    def hook(frame, event, arg):
        nonlocal rounds
        name = getattr(arg, "__name__", None) if event == "c_call" else None
        if name == "argmax":
            rounds += 1
        elif name == "nonzero":
            per_step.append(rounds)
            rounds = 0

    sys.setprofile(hook)
    try:
        reverse_greedy(m, k, policy)
    finally:
        sys.setprofile(None)
    return per_step[1:] + [rounds]


@pytest.mark.parametrize("m, policy", [
    (uniform_metric(200), TiePolicy.seeded_random(0)),
    (random_metric("random-graph", 120, 1, edge_prob=0.6, max_weight=3),
     TiePolicy.lowest_index()),
])
def test_pointer_advance_takes_logarithmic_rounds(m, policy):
    # Windows of 8, 16, 32, ... positions cover any skip of up to n - 1
    # positions within ceil(log2(n / 8 + 1)) rounds.  Every step takes the
    # numpy rounds: a step with few stale clients would re-point them in
    # Python, in no window at all.
    with mock.patch.object(kcenter, "_FEW_STALE", 0):
        rounds = window_rounds_per_step(m, 1, policy)
    assert max(rounds) >= 3
    assert max(rounds) <= math.ceil(math.log2(m.n / 8 + 1))


def minimum_reads(m, k, policy):
    """The trace, and the calls of ndarray.min the run made, counted with a
    profile hook: one at set-up, then one per read of the runs' minima."""
    reads = 0

    def hook(frame, event, arg):
        nonlocal reads
        if event == "c_call" and getattr(arg, "__name__", None) == "min":
            reads += 1

    sys.setprofile(hook)
    try:
        trace = reverse_greedy(m, k, policy)
    finally:
        sys.setprofile(None)
    return trace, reads


@pytest.mark.parametrize("k", [4, 8])
def test_scripted_run_reads_the_minimum_only_where_the_cost_rises(k):
    # A removal that costs no more than the last step's cost, the floor, is
    # in the argmin set, as no removal costs less; only the others compare
    # with the minimum.
    inst = build_lower_bound_instance(k)
    trace, reads = minimum_reads(inst.metric, k,
                                 TiePolicy.scripted(scripted_schedule(inst).script()))
    costs = trace.cost_sequence()
    rises = sum(b > a for a, b in zip(costs, costs[1:]))
    assert rises == 2 * k - 2 < len(trace.steps) / 3
    assert reads == 1 + rises


# --- farthest-first baseline ---

def test_farthest_first_k1():
    m = uniform_metric(4)
    assert greedy_farthest_first(m, 1, 2) == {2}


def test_farthest_first_path():
    g = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
    m = metric_from_graph(g)
    assert greedy_farthest_first(m, 2, 0) == {0, 2}


def test_farthest_first_within_twice_optimal():
    m = random_metric("random-graph", 12, 77)
    opt = exact_opt(m, 3)
    chosen = greedy_farthest_first(m, 3, 0)
    assert cost(m, chosen) <= 2 * opt.opt_value


# --- trace files ---

def test_trace_roundtrip_int(tmp_path):
    inst = build_lower_bound_instance(3)
    trace = reverse_greedy(inst.metric, 3,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    path = tmp_path / "trace.json"
    save_trace(path, trace)
    loaded = load_trace(path)
    assert loaded.k == 3
    assert loaded.final == trace.final
    assert [s.cost for s in loaded.steps] == [s.cost for s in trace.steps]
    assert all(isinstance(s.cost, int) for s in loaded.steps)


def test_trace_roundtrip_float_decimal_strings(tmp_path):
    m = random_metric("euclidean", 7, 2)
    trace = reverse_greedy(m, 2)
    path = tmp_path / "trace.json"
    save_trace(path, trace)
    raw = path.read_text()
    assert '"cost": "' in raw  # decimal strings, not JSON numbers
    loaded = load_trace(path)
    assert [s.cost for s in loaded.steps] == [s.cost for s in trace.steps]


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "JSON object"),
    ({"version": 1}, "lacks 'k', 'policy', 'steps', 'final'"),
    ({"version": 1, "k": "3", "policy": {}, "steps": [], "final": []}, "k='3'"),
    ({"version": 2, "k": 1, "policy": {}, "steps": [], "final": [0]}, "version"),
    ({"version": 1, "k": 1, "policy": {}, "steps": [{"removed": 0}],
      "final": [1]}, "trace step 0 lacks 'cost'"),
    ({"version": 1, "k": 1, "policy": {}, "steps": [{"removed": 0, "cost": None}],
      "final": [1]}, "cost=None"),
])
def test_trace_file_schema_checked(tmp_path, doc, message):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_trace(path)
