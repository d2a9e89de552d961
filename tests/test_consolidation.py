from itertools import combinations

import numpy as np
import pytest
from conftest import facility_sets, gamma_unrestricted, separated_pairs_metric

from revgreedy import consolidation, exact
from revgreedy.consolidation import (GammaCapError, critical_indices, gamma,
                                     is_consolidation, verify_gamma_decrement)
from revgreedy.exact import exact_opt
from revgreedy.kcenter import TiePolicy, Trace, TraceStep, reverse_greedy
from revgreedy.lowerbound import (build_lower_bound_instance, known_opt,
                                  scripted_schedule)
from revgreedy.metric import MetricSpace, random_metric, validate_metric


def lb_context(k):
    inst = build_lower_bound_instance(k)
    return inst, known_opt(inst)


# --- is_consolidation ---

def test_optimal_balls_are_a_consolidation_of_anything():
    inst, opt = lb_context(3)
    for facilities in (range(inst.n), [0, 4, 9], [5]):
        report = is_consolidation(inst.metric, opt, facilities, opt.balls)
        assert report.valid, str(report)


def test_empty_family_fails_covering():
    inst, opt = lb_context(2)
    report = is_consolidation(inst.metric, opt, {0, 1}, ())
    assert not report.valid
    assert report.violated == "covering"


def test_wide_set_fails_diameter_with_pair_witness():
    inst, opt = lb_context(2)
    # leaf_1(C_0) to leaf_2(C_1) is 3 = 3 * optimum.
    wide = {inst.stars[0].leaf(1), inst.stars[1].leaf(2)}
    report = is_consolidation(inst.metric, opt, wide, (wide,))
    assert report.violated == "diameter"
    _, x, y = report.witness
    assert {x, y} == wide


def test_split_ball_pair_fails_optimal_pairs():
    inst, opt = lb_context(2)
    pair = {inst.stars[0].leaf(1), inst.stars[0].leaf(2)}  # both in ball 0
    report = is_consolidation(inst.metric, opt, pair, ({p} for p in pair))
    assert report.violated == "optimal-pairs"
    _, f, g = report.witness
    assert {f, g} == pair


# --- gamma ---

def test_gamma_singleton_is_one():
    inst, opt = lb_context(3)
    for p in (0, 5, 13):
        assert gamma(inst.metric, opt, {p}) == 1


def test_gamma_bounds():
    for seed in range(6):
        m = random_metric("random-graph", 8, 600 + seed)
        opt = exact_opt(m, 3)
        trace = reverse_greedy(m, 3)
        for facilities in (frozenset(range(m.n)), trace.final):
            g = gamma(m, opt, facilities)
            assert 1 <= g <= 3


def test_gamma_full_set_lower_bound_k3():
    inst, opt = lb_context(3)
    everything = frozenset(range(inst.n))
    value = gamma(inst.metric, opt, everything)
    assert value == gamma_unrestricted(inst.metric, opt, everything) == 3


def test_gamma_matches_unrestricted_search():
    for seed in range(10):
        kind = "euclidean" if seed % 2 else "random-graph"
        n = 6 + seed % 4
        m = random_metric(kind, n, 700 + seed)
        opt = exact_opt(m, 2 + seed % 2)
        trace = reverse_greedy(m, 2 + seed % 2)
        for facilities in (frozenset(range(n)), trace.final):
            assert gamma(m, opt, facilities) == \
                gamma_unrestricted(m, opt, facilities)


def test_gamma_subset_never_larger():
    inst, opt = lb_context(3)
    full = frozenset(range(inst.n))
    g_full = gamma(inst.metric, opt, full)
    for sub in (frozenset([1, 2, 3]), frozenset([0, 6, 12]), frozenset([4])):
        assert gamma(inst.metric, opt, sub) <= g_full


def test_gamma_empty_facilities_errors():
    inst, opt = lb_context(2)
    with pytest.raises(ValueError):
        gamma(inst.metric, opt, frozenset())


def test_gamma_cap_errors(monkeypatch):
    inst, opt = lb_context(4)
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    # Size 1 needs only the root node; size 2 is the first to branch.
    with pytest.raises(GammaCapError, match="infeasible.* at size 2$"):
        gamma(inst.metric, opt, frozenset(range(inst.n)))
    monkeypatch.undo()
    with pytest.raises(GammaCapError, match="infeasible"):
        gamma(inst.metric, opt, frozenset(range(inst.n)), clique_cap=2)
    # Loading does not check a float table's triangle inequality; this one
    # breaks it, d(0, 2) = 4 > d(0, 1) + d(1, 2) = 2, and the ball of radius
    # OPT = 2 about point 3 holds 0 and 2, 4 > 2 * OPT apart.
    m = MetricSpace(dist=TRIANGLE_BROKEN, mode="float")
    with pytest.raises(GammaCapError) as err:
        gamma(m, exact_opt(m, 3), range(4))
    assert str(err.value) == ("gamma not settled: no consolidation of at most 3 sets "
                              "within 2*OPT (the table breaks the triangle inequality)")


TRIANGLE_BROKEN = [[0.0, 1.0, 4.0, 2.0], [1.0, 0.0, 1.0, 3.0], [4.0, 1.0, 0.0, 4.0],
                   [2.0, 3.0, 4.0, 0.0]]

# Four points on a line, k=3, with distances tied within the float slack:
# the first table exactly symmetric, the second symmetric only within the
# slack.  Compared exactly, the first table's optimal balls share no final
# facility; the second is no metric.
SLACK_TABLES = {
    "symmetric": [[0.0, 0.4999999991, 1.0, 2.5], [0.4999999991, 0.0, 0.5, 2.0],
                  [1.0, 0.5, 0.0, 1.4999999994], [2.5, 2.0, 1.4999999994, 0.0]],
    "asymmetric": [[0.0, 0.4999999994, 1.0, 2.0], [0.4999999996, 0.0, 0.5, 1.5000000009],
                   [1.0, 0.4999999996, 0.0, 1.0000000006], [2.0000000004, 1.5, 1.0, 0.0]],
}


@pytest.mark.parametrize("name", SLACK_TABLES)
def test_the_slack_tables_under_exact_comparison(name):
    m = MetricSpace(dist=SLACK_TABLES[name], mode="float")
    if name == "asymmetric":
        assert str(validate_metric(m)) == "symmetry violation at (0, 1)"
        with pytest.raises(ValueError, match="exactly symmetric"):
            exact_opt(m, 3)
        return
    assert validate_metric(m).ok
    opt = exact_opt(m, 3)
    assert is_consolidation(m, opt, range(4), opt.balls).valid
    report = verify_gamma_decrement(m, reverse_greedy(m, 3), opt)
    assert (report.status, report.gamma_values) == ("premise not applicable", {})


def smallest_consolidation(m, opt, facilities):
    """The fewest sets `is_consolidation` accepts, or None when no family
    of at most k sets does.  Every family of subsets of the facilities is
    tried; dropping the other points from a family keeps it valid (they
    only add diameter pairs), so no smaller family exists elsewhere.  A
    subset that fails the diameter test alone is left out: it fails every
    family."""
    subsets = [part for size in range(1, len(facilities) + 1)
               for part in combinations(facilities, size)
               if is_consolidation(m, opt, (), [part]).valid]
    for size in range(1, len(opt.balls) + 1):
        if any(is_consolidation(m, opt, facilities, family).valid
               for family in combinations(subsets, size)):
            return size
    return None


def jittered_lines(trials, seed=0):
    """Points on a half-unit grid of a line, every distance moved by
    0.4-0.9e-9 either way, the same both ways: (metric, k, facilities) with
    up to four facilities.  Moved by up to twice the float slack against
    each other, some tables break the triangle inequality beyond it."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(3, 8))
        points = np.sort(rng.choice(8, n, replace=False)) / 2
        jitter = rng.uniform(0.4e-9, 0.9e-9, (n, n)) * rng.choice([-1, 1], (n, n))
        jitter = np.triu(jitter, 1) + np.triu(jitter, 1).T
        d = np.abs(points[:, None] - points[None, :]) + jitter
        np.fill_diagonal(d, 0.0)
        facilities = sorted(rng.choice(n, int(rng.integers(1, min(n, 4) + 1)),
                                       replace=False).tolist())
        yield MetricSpace(dist=d, mode="float"), int(rng.integers(1, n)), facilities


def test_gamma_is_the_smallest_family_is_consolidation_accepts_on_jittered_lines():
    none_exists = 0
    for trial, (m, k, facilities) in enumerate(jittered_lines(240)):
        opt = exact_opt(m, k)
        expected = smallest_consolidation(m, opt, facilities)
        if expected is None:
            none_exists += 1
            assert validate_metric(m).violations[0][0] == "triangle", trial
            with pytest.raises(GammaCapError, match=f"at most {k} sets "):
                gamma(m, opt, facilities)
        else:
            assert gamma(m, opt, facilities) == expected, trial
    assert none_exists


# --- critical indices ---

def synth_trace(costs, k=1):
    steps = [TraceStep(removed=i, cost=c) for i, c in enumerate(costs)]
    n = k + len(steps)
    return Trace(k=k, policy={"kind": "synthetic"}, steps=steps,
                 final=frozenset(range(len(steps), n)))


def test_critical_empty_for_zero_cost_trace():
    assert critical_indices(synth_trace([]), 1) == {}


def test_critical_reads_thresholds():
    trace = synth_trace([0, 1, 3, 5])
    assert critical_indices(trace, 1) == {0: 1, 1: 2, 2: 3}


def test_critical_requires_monotone_costs():
    with pytest.raises(ValueError, match="nondecreasing"):
        critical_indices(synth_trace([2, 1]), 1)


def test_critical_on_scripted_k5_trace():
    inst, opt = lb_context(5)
    trace = reverse_greedy(inst.metric, 5,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    crit = critical_indices(trace, opt.opt_value)
    costs = trace.cost_sequence()
    assert sorted(crit) == [0, 1, 2, 3]
    for level, index in crit.items():
        assert costs[index] == 2 * level
        assert costs[index + 1] > 2 * level
    assert list(crit.values()) == sorted(crit.values())  # strictly increasing


# --- gamma decrement ---

def test_decrement_on_lower_bound_traces():
    for k in (2, 3):
        inst, opt = lb_context(k)
        trace = reverse_greedy(inst.metric, k,
                               TiePolicy.scripted(scripted_schedule(inst).script()))
        report = verify_gamma_decrement(inst.metric, trace, opt)
        assert report.premise_holds
        assert report.status == "ok", report.violations
        values = [report.gamma_values[l] for l in sorted(report.gamma_values)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        assert report.accounting_ok


def test_premise_not_applicable_when_balls_keep_singles():
    m = separated_pairs_metric()
    opt = exact_opt(m, 2)
    trace = reverse_greedy(m, 2)
    assert all(len(b & trace.final) <= 1 for b in opt.balls)
    report = verify_gamma_decrement(m, trace, opt)
    assert report.status == "premise not applicable"
    assert not report.premise_holds
    assert report.ok


def test_decrement_on_random_premise_instances():
    checked = 0
    seed = 0
    while checked < 12 and seed < 200:
        seed += 1
        kind = "euclidean" if seed % 2 else "random-graph"
        m = random_metric(kind, 6 + seed % 5, seed)
        k = 2 + seed % 2
        opt = exact_opt(m, k)
        trace = reverse_greedy(m, k)
        if not any(len(b & trace.final) >= 2 for b in opt.balls):
            continue
        checked += 1
        report = verify_gamma_decrement(m, trace, opt)
        assert report.status in ("ok", "no critical states"), report.violations
    assert checked == 12


def test_decrement_incomplete_when_capped():
    inst, opt = lb_context(3)
    trace = reverse_greedy(inst.metric, 3,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    report = verify_gamma_decrement(inst.metric, trace, opt, clique_cap=1)
    assert report.status == "incomplete"
    assert not report.complete
    assert not report.ok


@pytest.mark.parametrize("clique_cap", [2000, 4])
def test_decrement_calls_gamma_once_per_critical_level(clique_cap, monkeypatch):
    """Each critical level's gamma is one call of the module's `gamma`, on
    that level's facility set, up to the first refusal."""
    inst, opt = lb_context(6)
    trace = reverse_greedy(inst.metric, 6,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    seen = []

    def recording_gamma(m, opt, facilities, **caps):
        seen.append(frozenset(facilities))
        return gamma(m, opt, facilities, **caps)

    monkeypatch.setattr(consolidation, "gamma", recording_gamma)
    report = verify_gamma_decrement(inst.metric, trace, opt, clique_cap=clique_cap)
    every = list(facility_sets(trace))
    expected = [every[i] for _, i in sorted(report.critical.items())]
    if report.complete:
        assert len(report.gamma_values) == 5
        assert seen == expected
    else:
        assert seen == expected[:len(report.gamma_values) + 1]


def test_report_json_shape():
    inst, opt = lb_context(3)
    trace = reverse_greedy(inst.metric, 3,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    doc = verify_gamma_decrement(inst.metric, trace, opt).to_json()
    assert doc["status"] == "ok"
    assert doc["premise_holds"] is True
    assert doc["critical_indices"].keys() == doc["gamma"].keys()
    assert doc["accounting_ok"] is True


# --- subset stability of consolidations ---

def test_consolidation_valid_for_subsets():
    for seed in range(6):
        m = random_metric("random-graph", 8, 800 + seed)
        opt = exact_opt(m, 3)
        facilities = frozenset(range(m.n))
        assert is_consolidation(m, opt, facilities, opt.balls).valid
        for drop in range(m.n):
            smaller = facilities - {drop}
            assert is_consolidation(m, opt, smaller, opt.balls).valid
            assert gamma(m, opt, smaller) <= gamma(m, opt, facilities)
