"""The set-cover search against the backtrackers it replaced.

`exact._can_cover` first cuts the masks down to the bits left to cover and
drops empty, duplicate and contained masks.  Its reference is the search as
it was before that reduction: the same most-constrained-bit backtracking
over every mask of masks[first:].  Both must give the same answer for any
masks within `full`, `covered`, `first` and slot count.  (That `_first_cover`
still returns the first covering combination in lexicographic order is
checked in test_exact.py.)

`exact._branch` branches over columns, one per distinct set of coverers of
a bit, counting its nodes in a search state.  Its reference is the search
over a bit -> coverers table that scans every bit at each node; both must
give the same answer after the same number of nodes, and so must `gamma`
against the same reference over its old encoding, one extra bit per
required pair in every clique mask.
"""

import re
from unittest.mock import patch

import pytest
from conftest import facility_sets
from hypothesis import example, given, settings, strategies as st

from revgreedy import cli, consolidation, exact, kcenter
from revgreedy.consolidation import (_maximal_cliques, critical_indices, gamma,
                                     required_pairs)
from revgreedy.exact import (OracleCapError, _branch, _can_cover, _columns, _cover_masks,
                             _SearchState, exact_opt, opt_value)
from revgreedy.lowerbound import build_lower_bound_instance, known_opt, scripted_schedule
from revgreedy.metric import random_metric

COMMON = dict(deadline=None, derandomize=True)


def fresh_state():
    """A search state at zero nodes that refuses as the oracle does."""
    return _SearchState(OracleCapError, "more than %d backtrack nodes")


def search(state, masks, full, slots):
    """The search `_can_cover` runs on its kept masks, over `masks` as given."""
    return _branch(state, list(dict.fromkeys(_columns(masks, full))), slots)


def can_cover_unreduced(masks, full, slots, covered=0, first=0):
    """Backtracking on the uncovered bit with the fewest candidate masks,
    over every mask of masks[first:] as given."""
    candidates = range(first, len(masks))
    coverers = {}
    rest = full & ~covered
    while rest:
        bit = rest & -rest
        coverers[bit] = [c for c in candidates if masks[c] & bit]
        rest ^= bit

    def search(covered, slots):
        if covered == full:
            return True
        if slots == 0:
            return False
        best = None
        for bit, options in coverers.items():
            if not covered & bit and (best is None or len(options) < len(best)):
                best = options
                if not options:
                    return False
        return any(search(covered | masks[c], slots - 1) for c in best)

    return search(covered, slots)


@st.composite
def mask_sets(draw):
    """Random masks within `full`, with duplicates and nested masks likely.
    (The unreduced search needs masks and `covered` inside `full`; every
    caller passes such.)"""
    full = (1 << draw(st.integers(1, 12))) - 1
    bits = st.integers(0, full)
    pool = draw(st.lists(bits, min_size=1, max_size=6))
    masks = []
    for _ in range(draw(st.integers(0, 14))):
        base = draw(st.sampled_from(pool))
        # Subsets of pool masks: nested and duplicate masks.
        masks.append(base & draw(bits) if draw(st.booleans()) else base)
    covered = draw(bits) if draw(st.booleans()) else 0
    first = draw(st.integers(0, len(masks)))
    slots = draw(st.integers(0, 5))
    return masks, full, slots, covered, first


@settings(max_examples=600, **COMMON)
@given(case=mask_sets())
@example(case=([], 1, 1, 0, 0))
@example(case=([0, 0], 3, 2, 0, 0))
@example(case=([3, 3, 1, 2], 3, 1, 0, 1))
@example(case=([1, 2, 4], 7, 2, 1, 0))
@example(case=([1, 2], 3, 0, 3, 0))
@example(case=([], 1, 1, 1, 0))
def test_reduced_search_answers_like_the_unreduced_one(case):
    masks, full, slots, covered, first = case
    assert (_can_cover(fresh_state(), masks, full, slots, covered, first)
            == can_cover_unreduced(masks, full, slots, covered, first))


def test_budget_counts_branching_nodes_of_the_reduced_search(monkeypatch):
    full = (1 << 6) - 1
    # Every mask but the last lies inside it, so the reduced search keeps
    # one mask and branches once; the masks as given would branch twice.
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    state = fresh_state()
    assert _can_cover(state, [1 << b for b in range(6)] + [full], full, 2)
    assert state.nodes == 1
    with pytest.raises(OracleCapError, match="^more than 1 backtrack nodes$"):
        _can_cover(state, [1 << b for b in range(6)], full, 6)
    # 0b100 lies inside 0b1111: kept, it would cost the search a third node.
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 2)
    assert _can_cover(state, [0b111000, 0b101011, 0b1111, 0b100], full, 3)
    # Each search counts from zero in the caller's one state.
    assert state.nodes == 2


def test_oracle_budget_exhausted_raises_cap_error(monkeypatch):
    m = random_metric("random-graph", 32, 1)
    unlimited = exact_opt(m, 5, cap=40)
    # Graph 2's binary search needs a second node; every search of graph 1
    # that does picks its witness, which opt_value does not.
    probed = random_metric("random-graph", 32, 2)
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    with pytest.raises(OracleCapError, match="more than 1 backtrack nodes"):
        exact_opt(m, 5, cap=40)
    with pytest.raises(OracleCapError, match=re.escape(
            "exact oracle cap exceeded (more than 1 backtrack nodes in one "
            "cover search, n=32, k=5)")):
        opt_value(probed, 5, cap=40)
    assert opt_value(m, 5, cap=40) == unlimited.opt_value
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 10**9)
    assert exact_opt(m, 5, cap=40) == unlimited
    assert opt_value(m, 5, cap=40) == unlimited.opt_value


def test_oracle_budget_refusal_is_incomplete_in_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    assert cli.main(["verify", "upper", "--n", "32", "--k", "5", "--trials", "1",
                     "--exact-cap", "40"]) == 3
    assert "more than 1 backtrack nodes" in capsys.readouterr().err
    # `run` asks for the value alone: graph 2 is refused in the binary
    # search, while graph 1 went over the budget only in its witness.
    for seed, expected in ((2, "(ratio omitted: exact oracle cap exceeded (more than 1 "
                                "backtrack nodes in one cover search, n=32, k=5))"),
                           (1, "opt=4 ratio=1")):
        inst = tmp_path / f"rand{seed}.json"
        assert cli.main(["gen", "random", "--kind", "random-graph", "--n", "32",
                         "--seed", str(seed), "--k", "5", "--out", str(inst)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--instance", str(inst), "--exact-cap", "40"]) == 0
        assert capsys.readouterr().out.endswith(f" {expected}\n"), seed


def search_by_coverers(masks, full, slots):
    """The search over a bit -> coverers table: branch on the lowest
    uncovered bit with the fewest coverers, trying them in the given order.
    Returns the answer and the number of branching nodes."""
    coverers = {}
    rest = full
    while rest:
        bit = rest & -rest
        coverers[bit] = [mask for mask in masks if mask & bit]
        rest ^= bit
    nodes = 0

    def branch(covered, slots):
        nonlocal nodes
        if covered == full:
            return True
        if slots == 0:
            return False
        nodes += 1
        best = None
        for bit, options in coverers.items():
            if not covered & bit and (best is None or len(options) < len(best)):
                best = options
                if not options:
                    return False
        return any(branch(covered | mask, slots - 1) for mask in best)

    return branch(0, slots), nodes


@st.composite
def cover_cases(draw):
    """Masks within `full` over bits that fall into a few groups, every bit
    of a group covered by the same masks; duplicate masks and bits of `full`
    that no mask covers are both likely.  (The coverers-table search needs
    the masks inside `full`, as every caller passes them.)"""
    groups = draw(st.integers(2, 8))
    layout = draw(st.lists(st.integers(0, groups - 1), min_size=2, max_size=20))
    # Masks over one to three groups each, so that covers take several.
    group_sets = st.lists(st.integers(0, groups - 1), min_size=1, max_size=3)
    pool = [sum(1 << group for group in set(members))
            for members in draw(st.lists(group_sets, min_size=2, max_size=10))]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=14))
    # Mostly no group is left bare, so that most searches branch.
    if draw(st.integers(0, 4)) != 3:
        chosen += [1 << group for group in range(groups)
                   if not any(c >> group & 1 for c in chosen)]
    masks = [sum(1 << b for b, group in enumerate(layout) if c >> group & 1)
             for c in chosen]
    full = (1 << len(layout)) - 1
    if draw(st.integers(0, 4)) == 3:
        full |= draw(st.integers(1, 3)) << len(layout)
    return masks, full, draw(st.sampled_from([3, 2, 4, 5, 1, 6]))


@settings(max_examples=800, **COMMON)
@given(case=cover_cases())
@example(case=([], 0, 0))
@example(case=([1], 1, 0))
@example(case=([], 1, 1))
@example(case=([3, 3, 1], 0b111, 2))
@example(case=([0b101, 0b101, 0b010], 0b111, 2))
@example(case=([0b11], 0b111, 1))
def test_column_search_matches_the_coverers_table(case):
    masks, full, slots = case
    answer, nodes = search_by_coverers(masks, full, slots)
    state = fresh_state()
    assert search(state, masks, full, slots) == answer
    assert state.nodes == nodes
    # Same visiting order: the budget is first exceeded at the same node.
    # (A function-scoped monkeypatch would outlive one drawn example.)
    with patch.object(exact, "_SEARCH_BUDGET", nodes):
        assert search(fresh_state(), masks, full, slots) == answer
    if nodes:
        with patch.object(exact, "_SEARCH_BUDGET", nodes - 1), \
                pytest.raises(OracleCapError):
            search(fresh_state(), masks, full, slots)


def gamma_by_pair_bits(m, opt, facilities):
    """gamma over one mask per maximal clique, facility f as bit f and
    required pair j as bit n + j, searched by the coverers table: the value
    and the node count of each size tried."""
    facility_bits = sum(1 << f for f in facilities)
    cliques = _maximal_cliques([mask & ~(1 << p) for p, mask in
                                enumerate(_cover_masks(m, 2 * opt.opt_value + m.tol()))],
                               facility_bits)
    pair_bits = [((1 << f) | (1 << g), 1 << (m.n + j)) for j, (f, g)
                 in enumerate(sorted(required_pairs(opt, facilities)))]
    masks = [clique | sum(bit for both, bit in pair_bits if clique & both == both)
             for clique in cliques]
    full = facility_bits | sum(bit for _, bit in pair_bits)
    counts = []
    for size in range(1, len(opt.balls) + 1):
        answer, nodes = search_by_coverers(masks, full, size)
        counts.append(nodes)
        if answer:
            return size, counts
    raise AssertionError("the optimal balls cover by size k")


def gamma_cases():
    """(metric, optimum, trace) for the family at k=3..8 and random inputs."""
    for k in range(3, 9):
        inst = build_lower_bound_instance(k)
        policy = kcenter.TiePolicy.scripted(scripted_schedule(inst).script())
        yield (f"family-{k}", inst.metric, known_opt(inst),
               kcenter.reverse_greedy(inst.metric, k, policy))
    for kind, n in (("euclidean", 20), ("random-graph", 18)):
        for seed in range(6):
            m = random_metric(kind, n, seed)
            for k in (3, 5):
                yield (f"{kind}-{n}-{seed}-k{k}", m, exact_opt(m, k, cap=40),
                       kcenter.reverse_greedy(m, k))


@pytest.mark.parametrize("case", list(gamma_cases()), ids=lambda case: case[0])
def test_gamma_columns_match_the_pair_bit_search(case, monkeypatch):
    _, m, opt, trace = case
    counts = []

    def counting_branch(state, columns, slots):
        answer = exact._branch(state, columns, slots)
        counts.append(state.nodes)
        return answer

    monkeypatch.setattr(consolidation, "_branch", counting_branch)
    sets = [trace.final]
    if opt.opt_value > 0:
        every = list(facility_sets(trace))
        sets += [every[i] for i in critical_indices(trace, opt.opt_value).values()]
    for facilities in sets:
        counts.clear()
        value, expected = gamma_by_pair_bits(m, opt, facilities)
        assert gamma(m, opt, facilities) == value
        assert counts == expected
