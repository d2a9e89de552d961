"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact unless a floating comparison slack of 1e-9
is inherent to the instance mode.
"""

import json
import time
from pathlib import Path

from conftest import (battery_instance, exact_opt_enumeration, gamma_unrestricted,
                      greedy_farthest_first, phase_sizes)

from revgreedy.consolidation import (gamma, is_consolidation,
                                     verify_gamma_decrement)
from revgreedy.exact import exact_opt
from revgreedy.kcenter import TiePolicy, cost, reverse_greedy, save_trace
from revgreedy.lowerbound import (build_lower_bound_instance, known_opt,
                                  scripted_schedule, size_formula,
                                  verify_schedule)
from revgreedy.metric import random_metric, validate_metric

GOLDEN = Path(__file__).parent / "data" / "golden_trace_k5.json"


def report(line):
    print(line)


def battery():
    """The fixed 200-instance battery shared by criteria 3 and 6."""
    for trial in range(200):
        yield trial, *battery_instance(trial)


def test_criterion_1_lower_bound_reproduction():
    start = time.perf_counter()
    for k in range(2, 11):
        inst = build_lower_bound_instance(k)
        assert inst.n == size_formula(k) == (3 * k - 2) * (k + 1) // 2
        sched = scripted_schedule(inst)
        assert len(sched.steps) == inst.n - k
        # verify_schedule runs the script under exact integer argmin
        # verification at every step.
        result = verify_schedule(inst, sched)
        assert result.ok, (k, result.failures)
        assert result.final_cost == 2 * k - 2
        assert known_opt(inst).opt_value == 1
        assert cost(inst.metric, known_opt(inst).facilities) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"PASS criterion 1: k=2..10 schedules greedy-legal, "
           f"final cost 2k-2 at OPT=1 ({elapsed:.2f}s)")


def test_criterion_2_figure_fidelity(tmp_path):
    inst = build_lower_bound_instance(5)
    assert inst.n == 39
    sched = scripted_schedule(inst)
    assert [phase_sizes(sched)[r] for r in range(1, 9)] == \
        [12, 16, 1, 1, 1, 1, 1, 1]
    trace = reverse_greedy(inst.metric, 5, TiePolicy.scripted(sched.script()))
    c0 = inst.stars[0]
    assert trace.final == {c0.leaf(j) for j in range(1, 6)}

    regenerated = tmp_path / "trace.json"
    save_trace(regenerated, trace)
    assert json.loads(regenerated.read_text()) == json.loads(GOLDEN.read_text())
    assert regenerated.read_text() == GOLDEN.read_text()
    report("PASS criterion 2: k=5 run matches the golden trace "
           "(n=39, phases 12/16/1x6, survivors = first five leaves)")


def test_criterion_3_upper_bound_battery():
    start = time.perf_counter()
    violations = []
    policies = [TiePolicy.lowest_index()] + \
        [TiePolicy.seeded_random(j) for j in range(5)]
    for trial, m, k in battery():
        opt = exact_opt(m, k)
        for policy in policies:
            trace = reverse_greedy(m, k, policy)
            final = trace.steps[-1].cost if trace.steps else 0
            if final > 2 * k * opt.opt_value + m.tol():
                violations.append((trial, policy.describe(),
                                   final, opt.opt_value))
    elapsed = time.perf_counter() - start
    assert not violations, violations
    assert elapsed < 60.0
    report(f"PASS criterion 3: 200 instances x 6 tie policies, "
           f"all costs <= 2k*OPT ({elapsed:.2f}s)")


def test_criterion_4_gamma_decrement_suite():
    for k in (2, 3):
        inst = build_lower_bound_instance(k)
        trace = reverse_greedy(inst.metric, k,
                               TiePolicy.scripted(scripted_schedule(inst).script()))
        result = verify_gamma_decrement(inst.metric, trace, known_opt(inst))
        assert result.premise_holds
        assert result.status == "ok", result.violations
        assert result.accounting_ok

    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        assert seed < 2000, "premise-holding instances too rare"
        kind = "euclidean" if seed % 2 == 0 else "random-graph"
        m = random_metric(kind, 6 + seed % 5, seed)
        k = 2 + seed % 2
        opt = exact_opt(m, k)
        trace = reverse_greedy(m, k)
        if not any(len(ball & trace.final) >= 2 for ball in opt.balls):
            continue
        checked += 1
        result = verify_gamma_decrement(m, trace, opt)
        assert result.complete
        assert result.status == "ok", (seed, result.violations)
        values = result.gamma_values
        levels = sorted(values)
        assert all(values[b] < values[a] for a, b in zip(levels, levels[1:]))
        l_bar = max(levels)
        assert l_bar <= values[0] - values[l_bar] <= k - 1
    report(f"PASS criterion 4: gamma strictly decreasing with valid "
           f"accounting on scripted k=2,3 runs and {checked} random instances")


def test_criterion_5_oracle_self_consistency():
    disagreements = 0
    for trial in range(100):
        m, k = battery_instance(trial, seed_base=9000)
        a = exact_opt_enumeration(m, k)
        b = exact_opt(m, k)
        disagreements += a.opt_value != b.opt_value
    assert disagreements == 0

    gamma_checked = 0
    for trial in range(20):
        m, k = battery_instance(trial, n_span=(6, 10), k_span=(2, 3),
                                seed_base=9500)
        opt = exact_opt(m, k)
        trace = reverse_greedy(m, k)
        for facilities in (frozenset(range(m.n)), trace.final):
            assert gamma(m, opt, facilities) == \
                gamma_unrestricted(m, opt, facilities)
            gamma_checked += 1
    report(f"PASS criterion 5: 100/100 exact-solver agreements, "
           f"{gamma_checked}/{gamma_checked} gamma oracle agreements")


def test_criterion_6_baseline_sanity():
    for trial, m, k in battery():
        opt = exact_opt(m, k)
        chosen = greedy_farthest_first(m, k, 0)
        assert cost(m, chosen) <= 2 * opt.opt_value + m.tol(), trial

    for k in range(3, 11):
        inst = build_lower_bound_instance(k)
        reverse_ratio = verify_schedule(inst, scripted_schedule(inst)).final_cost
        greedy_ratio = cost(inst.metric, greedy_farthest_first(inst.metric, k, 0))
        assert reverse_ratio > greedy_ratio, (k, reverse_ratio, greedy_ratio)
    report("PASS criterion 6: farthest-first within 2*OPT on the battery; "
           "reverse greedy strictly worse on the family for k >= 3")


def test_criterion_7_invariant_batteries():
    cases = 0

    for t in range(400):
        kind = "euclidean" if t % 2 == 0 else "random-graph"
        m = random_metric(kind, 2 + t % 11, 20_000 + t)
        assert validate_metric(m).ok, t
        cases += 1

    for t in range(300):
        m, k = battery_instance(t, n_span=(4, 10), seed_base=30_000)
        policy = (TiePolicy.lowest_index() if t % 3 == 0
                  else TiePolicy.seeded_random(t))
        seq = reverse_greedy(m, min(k, m.n), policy).cost_sequence()
        assert all(a <= b for a, b in zip(seq, seq[1:])), t
        cases += 1

    for t in range(150):
        m, k = battery_instance(t, n_span=(5, 9), k_span=(2, 3),
                                seed_base=40_000)
        opt = exact_opt(m, k)
        trace = reverse_greedy(m, k)
        for facilities in (frozenset(range(m.n)), trace.final):
            assert 1 <= gamma(m, opt, facilities) <= k, t
        cases += 1

    for t in range(150):
        m, k = battery_instance(t, n_span=(5, 9), k_span=(2, 3),
                                seed_base=50_000)
        opt = exact_opt(m, k)
        full = frozenset(range(m.n))
        assert is_consolidation(m, opt, full, opt.balls).valid
        smaller = frozenset(p for p in full if p % 3 != t % 3)
        assert is_consolidation(m, opt, smaller, opt.balls).valid
        if smaller:
            assert gamma(m, opt, smaller) <= gamma(m, opt, full)
        cases += 1

    assert cases >= 1000
    report(f"PASS criterion 7: {cases} generated invariant cases "
           "(metric axioms, trace monotonicity, gamma bounds, "
           "consolidation subset-stability)")
