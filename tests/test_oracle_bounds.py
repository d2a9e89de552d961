"""The oracle's bounded cover decision against the searches it goes ahead of.

`exact._decide` answers a cover question by a packing bound (refutes), a
greedy cover (proves), or else `_can_cover`.  Its reference is the search
over every mask as given (`can_cover_unreduced`): both must answer alike on
square symmetric mask families, where mask q is also q's coverer set, as
in the oracle's one table.  `exact_opt` is checked against
the probe-and-try loop it had before the bounds, every decision a
`_can_cover` search, which must pick the same value and the same
lexicographically smallest set, and against enumeration; and the oracle
refuses a table that is not exactly symmetric.
"""

from unittest.mock import patch

import numpy as np
import pytest
from conftest import exact_opt_enumeration, near_tied_table
from hypothesis import example, given, settings, strategies as st

from revgreedy import exact
from revgreedy.exact import (_BudgetExhausted, _can_cover, _cover_masks, _decide,
                             exact_opt, opt_value, optimal_solution)
from revgreedy.metric import MetricSpace, random_metric
from test_cover_differential import can_cover_unreduced

COMMON = dict(deadline=None, derandomize=True)


@st.composite
def square_cases(draw):
    """n masks over n bits, as the oracle's at some radius: symmetric,
    every point covering itself or not, sparse or dense.  Sometimes the
    masks before `first`, which no cover may use, cover nearly everything,
    so that a bound that uses them shows."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    rows = [draw(st.integers(0, full)) for _ in range(n)]
    if draw(st.booleans()):
        rows = [row & draw(st.integers(0, full)) for row in rows]
    if draw(st.booleans()):
        rows = [row | 1 << p for p, row in enumerate(rows)]
    covered = draw(st.integers(0, full)) if draw(st.booleans()) else 0
    first = draw(st.integers(0, n))
    if draw(st.booleans()):
        rows[:first] = [row | draw(st.integers(0, full)) | full >> 1 for row in rows[:first]]
    # Each row's bits from its own on, mirrored into the rows after it.
    rows = [sum((rows[min(p, q)] >> max(p, q) & 1) << q for q in range(n))
            for p in range(n)]
    return rows, full, draw(st.integers(0, 5)), covered, first


@settings(max_examples=1500, **COMMON)
@given(case=square_cases())
@example(case=([1], 1, 0, 0, 0))
@example(case=([1], 1, 0, 1, 0))
@example(case=([1], 1, 1, 0, 1))
@example(case=([0b011, 0b011, 0b100], 0b111, 1, 0, 0))
# Point 0 has no coverer from index 1 on.
@example(case=([0b001, 0b110, 0b110], 0b111, 2, 0, 1))
# One or two hubs that cover everything, before `first`, and seven points on
# a cycle, each mask covering a point, its two neighbours and the hubs:
# packing allows two masks, three are needed, and a hub would cover all.
@example(case=([0b11111111, 0b10000111, 0b00001111, 0b00011101, 0b00111001,
                0b01110001, 0b11100001, 0b11000011], 0b11111111, 2, 0b1, 1))
@example(case=([0b111111111, 0b111111111, 0b100001111, 0b000011111, 0b000111011,
                0b001110011, 0b011100011, 0b111000011, 0b110000111],
               0b111111111, 2, 0b11, 2))
def test_bounded_decision_answers_like_the_unreduced_search(case):
    masks, full, slots, covered, first = case
    assert (_decide(masks, full, slots, covered, first)
            == can_cover_unreduced(masks, full, slots, covered, first))


def test_a_decision_by_a_bound_spends_no_search_node():
    # A path of five points, each covering its neighbours.
    masks = [0b00011, 0b00111, 0b01110, 0b11100, 0b11000]
    with patch.object(exact, "_SEARCH_BUDGET", 0):
        # Points 0 and 4 share no coverer: one mask cannot serve both.
        assert not _decide(masks, 0b11111, 1)
        # No mask from index 2 on covers point 0.
        assert not _decide(masks, 0b11111, 3, first=2)
        # Greedy takes masks 1 and 3, which cover everything.
        assert _decide(masks, 0b11111, 2)
    # Greedy takes the largest mask, 0, first and then needs two more, while
    # packing allows two: only the search finds masks 3 and 4, at a node.
    masks = [0b11001, 0b10010, 0b01100, 0b01101, 0b10011]
    assert _decide(masks, 0b11111, 2)
    with patch.object(exact, "_SEARCH_BUDGET", 0), pytest.raises(_BudgetExhausted):
        _decide(masks, 0b11111, 2)


def same_value(value, expected):
    """Equal, and of the same type: a Python int or float, never numpy's."""
    return type(value) is type(expected) and value == expected


def exact_opt_by_searches(m, k):
    """exact_opt before its bounds: every binary-search probe and every
    slot try one `_can_cover` search, over the masks alone (k < n)."""
    n = m.n
    full = (1 << n) - 1
    cands = np.unique(m.dist[np.triu_indices(n, k=1)])
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _can_cover(_cover_masks(m, cands[mid]), full, k):
            hi = mid
        else:
            lo = mid + 1
    masks = _cover_masks(m, cands[lo])
    chosen, covered = [], 0
    for slot in range(k):
        start = chosen[-1] + 1 if chosen else 0
        c = next(c for c in range(start, n)
                 if _can_cover(masks, full, k - slot - 1, covered | masks[c], first=c + 1))
        chosen.append(c)
        covered |= masks[c]
    value = int(cands[lo]) if m.mode == "int" else float(cands[lo])
    return optimal_solution(m, value, chosen)


@pytest.mark.parametrize("block", range(6))
def test_oracle_matches_the_search_loop_on_the_battery(block):
    # The instances of `verify upper --n 32 --k 5`: generator seed t,
    # Euclidean for even t, a random graph for odd t.
    for t in range(10 * block, 10 * block + 10):
        m = random_metric("euclidean" if t % 2 == 0 else "random-graph", 32, t)
        expected = exact_opt_by_searches(m, 5)
        assert exact_opt(m, 5, cap=40) == expected, t
        assert same_value(opt_value(m, 5, cap=40), expected.opt_value), t


def test_oracle_matches_the_search_loop_on_tables_symmetric_within_the_slack():
    for seed in range(40):
        n = 8 + seed % 17
        m = near_tied_table(n, seed)
        for k in (2, 3, 5):
            expected = exact_opt_by_searches(m, k)
            assert exact_opt(m, k, cap=40) == expected, (seed, k)
            assert same_value(opt_value(m, k, cap=40), expected.opt_value), (seed, k)


def test_the_oracle_refuses_a_table_that_is_not_exactly_symmetric():
    d = near_tied_table(8, 0).dist.copy()
    d[0, 1] = np.nextafter(d[0, 1], np.inf)  # one step of float64 apart
    m = MetricSpace(dist=d, mode="float")
    for solve in (opt_value, exact_opt):
        with pytest.raises(ValueError, match="exactly symmetric"):
            solve(m, 3)
    with pytest.raises(ValueError, match="exactly symmetric"):
        _cover_masks(m, 1.0, [0, 1, 2])
    assert _cover_masks(m, 1.0, [0, 2, 3]) == _cover_masks(near_tied_table(8, 0), 1.0,
                                                            [0, 2, 3])


@pytest.mark.parametrize("kind", ["euclidean", "random-graph"])
def test_oracle_matches_enumeration_on_small_instances(kind):
    for seed in range(25):
        n = 4 + seed % 8
        m = random_metric(kind, n, 700 + seed, max_weight=3)
        for k in range(1, n):
            expected = exact_opt_enumeration(m, k)
            assert exact_opt(m, k) == expected, (seed, k)
            assert same_value(opt_value(m, k), expected.opt_value), (seed, k)
        assert same_value(opt_value(m, n), exact_opt(m, n).opt_value)
        assert same_value(opt_value(m, n), 0 if m.mode == "int" else 0.0)
