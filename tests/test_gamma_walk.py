"""`verify_gamma_decrement` walks the removals once, and `critical_indices`
bisects the costs; both against references that redo the work per level.

`report_by_levels` rebuilds each critical level's facility set from all the
removals before it and calls `gamma` on it, one level at a time, as a
from-scratch account of the report; `critical_indices_by_scan` scans every
cost at every level.  The reports must be equal on the 2k-2 family at
k=3..12 and on 480 random instances, and the indices on drawn cost runs.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from revgreedy import kcenter
from revgreedy.consolidation import (GammaCapError, GammaDecrementReport, critical_indices,
                                     gamma, required_pairs, verify_gamma_decrement)
from revgreedy.exact import exact_opt
from revgreedy.kcenter import Trace, TraceStep
from revgreedy.lowerbound import build_lower_bound_instance, known_opt, scripted_schedule
from revgreedy.metric import FLOAT_EPS, random_metric


def critical_indices_by_scan(trace, opt_value):
    """Per level, the last index whose cost is within 2 * level * opt_value,
    found by a scan of every cost (costs already checked nondecreasing)."""
    costs = trace.cost_sequence()
    entries = {}
    level = 0
    while costs[-1] > 2 * level * opt_value:
        threshold = 2 * level * opt_value
        entries[level] = max(i for i, c in enumerate(costs) if c <= threshold)
        level += 1
    return entries


def report_by_levels(m, trace, opt, clique_cap):
    """The decrement report, with one facility set rebuilt per level."""
    if not required_pairs(opt, trace.final):
        return GammaDecrementReport("premise not applicable", False).to_json()
    critical = critical_indices_by_scan(trace, opt.opt_value)
    if not critical:
        return GammaDecrementReport("no critical states", True,
                                    note="trace cost never exceeds 0").to_json()
    values, note = {}, None
    for level in sorted(critical):
        removed = {s.removed for s in trace.steps[:critical[level]]}
        facilities = frozenset(p for p in range(trace.n) if p not in removed)
        try:
            values[level] = gamma(m, opt, facilities, clique_cap=clique_cap)
        except GammaCapError as err:
            note = str(err)
            break
    levels = sorted(values)
    violations = [f"gamma did not decrease from level {a} ({values[a]}) "
                  f"to level {b} ({values[b]})"
                  for a, b in zip(levels, levels[1:]) if values[b] >= values[a]]
    accounting_ok = None
    if note is None:
        l_bar, k = max(critical), len(opt.balls)
        drop = values[0] - values[l_bar]
        accounting_ok = l_bar <= drop <= k - 1
        if not accounting_ok:
            violations.append(f"accounting failed: l_bar={l_bar}, "
                              f"gamma drop={drop}, k-1={k - 1}")
    status = "incomplete" if note else "violated" if violations else "ok"
    return GammaDecrementReport(status, True, critical, values, violations,
                                accounting_ok, note is None, note).to_json()


def family_cases():
    for k in range(3, 13):
        inst = build_lower_bound_instance(k)
        policy = kcenter.TiePolicy.scripted(scripted_schedule(inst).script())
        yield inst.metric, known_opt(inst), kcenter.reverse_greedy(inst.metric, k, policy)


def random_cases(kind, n):
    for seed in range(60):
        m = random_metric(kind, n, seed)
        for k in (3, 5):
            yield m, exact_opt(m, k, cap=40), kcenter.reverse_greedy(m, k)


@pytest.mark.parametrize("source", ["family", "euclidean-20", "euclidean-30",
                                    "random-graph-18", "random-graph-24"])
def test_one_walk_reports_match_the_per_level_reference(source):
    if source == "family":
        cases = family_cases()
    else:
        kind, n = source.rsplit("-", 1)
        cases = random_cases(kind, int(n))
    statuses = set()
    for m, opt, trace in cases:
        for clique_cap in (2000, 10):
            report = verify_gamma_decrement(m, trace, opt, clique_cap=clique_cap).to_json()
            assert report == report_by_levels(m, trace, opt, clique_cap)
            statuses.add(report["status"])
    # Every source reaches a checked chain and a refused one.
    assert {"ok", "incomplete"} <= statuses


def cost_trace(costs):
    steps = [TraceStep(removed=i, cost=c) for i, c in enumerate(costs)]
    return Trace(k=1, policy={"kind": "synthetic"}, steps=steps,
                 final=frozenset([len(steps)]))


@st.composite
def cost_runs(draw):
    """A nondecreasing run of step costs and an optimum value.  Integer or
    float optima; costs at the thresholds 2 * level * opt, off them by one,
    or by a few multiples of FLOAT_EPS on either side, or anywhere."""
    opt = draw(st.one_of(st.integers(1, 4), st.floats(0.01, 10),
                         st.sampled_from([0.1, 1 / 3, 0.7])))
    offsets = [-1, 1, -2 * FLOAT_EPS, -FLOAT_EPS, -FLOAT_EPS / 2, 0,
               FLOAT_EPS / 2, FLOAT_EPS, 2 * FLOAT_EPS]
    near = st.builds(lambda level, off: max(0, 2 * level * opt + off),
                     st.integers(0, 6), st.sampled_from(offsets))
    anywhere = st.one_of(st.integers(0, 14 * int(opt) + 14), st.floats(0, 14 * opt))
    return sorted(draw(st.lists(st.one_of(near, anywhere), max_size=30))), opt


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cost_runs())
@example(case=([0, 1, 3, 5], 1))
@example(case=([2.0 - FLOAT_EPS / 2, 2.0 + FLOAT_EPS / 2, 2.0 + 2 * FLOAT_EPS], 1.0))
@example(case=([2, 2, 2, 6], 1))
def test_bisected_critical_indices_match_the_scan(case):
    costs, opt = case
    trace = cost_trace(costs)
    assert critical_indices(trace, opt) == critical_indices_by_scan(trace, opt)
