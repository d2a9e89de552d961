"""Every decision compares the stored entries exactly, in both modes.

On near-tied float tables (`near_tied_table`: small integer distances plus
a symmetric jitter of up to three times the float slack, so that many
entries lie within the slack of each other), the engine's argmin set at
every step, `exact_opt`, `opt_value` and `critical_indices` must match
references that compare entries with `==` and `<=` and no slack.  Some of
these tables break the triangle inequality by more than the slack that
validation allows; there alone gamma may find no consolidation of k sets,
and it must name the table as the cause.
"""

from random import Random

from conftest import exact_opt_enumeration, near_tied_table

from revgreedy.consolidation import (GammaCapError, critical_indices, gamma,
                                     is_consolidation)
from revgreedy.exact import exact_opt, opt_value
from revgreedy.kcenter import TiePolicy, TraceStep, cost, reverse_greedy
from revgreedy.metric import FLOAT_EPS, validate_metric

# (seed, n) of each table: 60 tables of 6 to 12 points.
TABLES = [(seed, 6 + seed % 7) for seed in range(60)]


def steps_by_costs(m, k, pick):
    """Reverse greedy from `cost` alone: at each step every facility's cost
    of removal, the argmin set as the facilities whose cost equals the
    least, and pick(argmin) removed."""
    current, steps = set(range(m.n)), []
    while len(current) > k:
        margins = {g: cost(m, current - {g}) for g in sorted(current)}
        least = min(margins.values())
        argmin = tuple(g for g, value in margins.items() if value == least)
        removed = pick(argmin)
        current.discard(removed)
        steps.append(TraceStep(removed, least, argmin))
    return steps


def critical_by_scan(costs, opt):
    """Per level, the last index whose cost is at most 2 * level * opt."""
    entries, level = {}, 0
    while costs[-1] > 2 * level * opt:
        entries[level] = max(i for i, c in enumerate(costs) if c <= 2 * level * opt)
        level += 1
    return entries


def test_engine_argmin_sets_and_critical_indices_match_exact_comparison():
    widened = 0  # steps where a slack of FLOAT_EPS would widen the argmin set
    for seed, n in TABLES:
        m = near_tied_table(n, seed)
        for k in (2, 3):
            opt = exact_opt(m, k).opt_value
            rng = Random(seed)
            picks = [(TiePolicy.lowest_index(), min),
                     (TiePolicy.seeded_random(seed),
                      lambda argmin: argmin[rng.choice(range(len(argmin)))])]
            for policy, pick in picks:
                trace = reverse_greedy(m, k, policy, record_argmin=True)
                assert trace.steps == steps_by_costs(m, k, pick), (seed, k, policy)
                # The optimum, and values that put a level's threshold half
                # a slack below a cost.
                costs = trace.cost_sequence()
                for value in [opt, *(c / 2 - FLOAT_EPS / 4 for c in costs if c)]:
                    assert (critical_indices(trace, value)
                            == critical_by_scan(costs, value)), (seed, k, value)
            current = set(range(n))
            for step in trace.steps:
                limit = step.cost + FLOAT_EPS
                within = [g for g in current if cost(m, current - {g}) <= limit]
                widened += len(within) > len(step.argmin)
                current.discard(step.removed)
    assert widened


def test_oracle_matches_enumeration_on_near_tied_tables():
    for seed, n in TABLES:
        m = near_tied_table(n, seed)
        for k in (2, 3):
            expected = exact_opt_enumeration(m, k)
            assert exact_opt(m, k) == expected, (seed, k)
            value = opt_value(m, k)
            assert type(value) is float and value == expected.opt_value, (seed, k)


def test_gamma_is_refused_only_where_the_triangle_inequality_breaks():
    refused = 0
    for seed, n in TABLES:
        m = near_tied_table(n, seed)
        broken = [axiom for axiom, _ in validate_metric(m).violations]
        assert broken in ([], ["triangle"]), seed
        for k in (2, 3):
            opt = exact_opt(m, k)
            if not broken:
                assert is_consolidation(m, opt, range(n), opt.balls).valid, (seed, k)
            try:
                assert 1 <= gamma(m, opt, range(n)) <= k
            except GammaCapError as err:
                assert broken, (seed, k)
                assert str(err) == (f"gamma not settled: no consolidation of at most "
                                    f"{k} sets within 2*OPT (the table breaks the "
                                    f"triangle inequality)")
                refused += 1
    assert refused
