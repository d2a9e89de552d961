"""Exact small-instance k-center oracle.

`opt_value` binary-searches the pairwise distances, deciding each
candidate radius with one cover decision (`_decide`); `run` and `verify
upper` read only that value.  `exact_opt` adds the witness that `verify
gamma` and `verify separation` read: the lexicographically smallest
optimal set, picked one slot at a time with the same decision, and its
balls.  Two exact bounds answer most decisions before any search table
is built: a packing of uncovered clients with pairwise-disjoint coverer
sets refutes (each needs a mask of its own, the p-center packing bound),
and a greedy cover within the free slots proves.  Only what neither decides
goes to `_can_cover`, which cuts the masks to the bits left to cover and
drops those contained in another before it runs `_search`,
most-constrained-first backtracking (`_branch`) over columns (the masks
covering a bit).  Radii compare the stored entries exactly, and the table
must be exactly symmetric, so one mask table (`_cover_masks`) also lists
each client's coverers.  gamma builds its graph with `_cover_masks` and
searches it with `_branch`, which alone counts nodes against
_SEARCH_BUDGET: past it, OracleCapError or GammaCapError; a decision
settled by a bound spends no nodes.
The oracle is the trust anchor for every ratio claim downstream, so the
test suite checks it against an independent reference that tries every
k-subset.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from operator import and_

import numpy as np

from .metric import MetricSpace


class OracleCapError(RuntimeError):
    """Instance too large for the exact oracle's configured cap."""


@dataclass(frozen=True)
class OptimalSolution:
    """A certified optimum: value, a minimizing facility set, and its balls."""

    opt_value: int | float
    facilities: frozenset[int]
    balls: tuple[frozenset[int], ...]


def optimal_solution(m: MetricSpace, value, facilities) -> OptimalSolution:
    """The optimum `value` attained by `facilities`, with one closed ball of
    radius `value` per facility (ascending facility index)."""
    facilities = frozenset(facilities)
    balls = tuple(frozenset(np.flatnonzero(m.dist[o] <= value).tolist())
                  for o in sorted(facilities))
    return OptimalSolution(value, facilities, balls)


def _cover_masks(m: MetricSpace, radius, points=None) -> list[int]:
    """The cover masks at `radius`: bit q of mask p is set when
    dist(p, q) <= radius, so mask q is also the set of q's coverers.  Given
    ascending `points`, only those: entry and bit i are points[i].  Raises
    ValueError on a table that is not exactly symmetric."""
    d = m.dist if points is None else m.dist[np.ix_(points, points)]
    if not np.array_equal(d, d.T):
        raise ValueError("the exact oracle needs an exactly symmetric table")
    rows = np.packbits(d <= radius, axis=1, bitorder="little")
    width, packed = rows.shape[1], rows.tobytes()
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, len(packed), width)]


# Backtrack nodes one cover search may visit, in the oracle and in gamma.
# The most one search was seen to take: 137 over the 60 trials of the
# benchmark's oracle-battery (`verify upper --n 32 --k 5 --exact-cap 40`,
# generator seeds 0..59, values only: 123 searches, the other 245 of 368
# decisions settled by a bound), 20 over its gamma-potential commands, and
# 125,225 in `verify upper --n 96 --k 8 --trials 2 --exact-cap 96` (11
# searches of 15 decisions, all binary-search probes).
_SEARCH_BUDGET = 5_000_000


class _BudgetExhausted(RuntimeError):
    """A cover search ran past _SEARCH_BUDGET nodes, its one argument."""


def _bits(x: int):
    """The indices of the set bits of `x`, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _columns(masks: list[int], full: int) -> list[int]:
    """Per bit of `full`, ascending: bit p is set when masks[p] covers it."""
    columns = dict.fromkeys(_bits(full), 0)
    for p, mask in enumerate(masks):
        mask &= full
        while mask:  # _bits(mask), inlined: the oracle builds many small tables
            columns[(low := mask & -mask).bit_length() - 1] |= 1 << p
            mask ^= low
    return list(columns.values())


def _search(masks: list[int], full: int, slots: int) -> bool:
    """Do at most `slots` of `masks` cover every bit of `full`?"""
    return _branch(list(dict.fromkeys(_columns(masks, full))), slots, [0])


def _branch(columns: list[int], slots: int, nodes: list[int]) -> bool:
    """One search node, counted in nodes[0]: can `slots` positions hit every column?"""
    if not columns or not slots:
        return not columns
    nodes[0] += 1
    if nodes[0] > _SEARCH_BUDGET:
        raise _BudgetExhausted(_SEARCH_BUDGET)
    if slots == 1:  # a child with no slot is not a node: one position hits all
        return reduce(and_, columns) != 0
    best = min(columns, key=int.bit_count)
    while best:
        low = best & -best
        if _branch([c for c in columns if not c & low], slots - 1, nodes):
            return True
        best ^= low
    return False


def _can_cover(masks: list[int], full: int, slots: int, covered: int = 0,
               first: int = 0) -> bool:
    """Do at most `slots` masks from masks[first:], together with
    `covered`, cover every bit of `full`?

    The masks are first cut down to the bits left to cover, and empty and
    duplicate masks and every mask contained in another are dropped (the
    subset rule of Weihe's data reduction for set cover): a cover that uses
    a dropped mask still covers with its container instead, so the answer
    is unchanged.  _search then tries the kept masks largest first.
    """
    full &= ~covered
    kept: list[int] = []
    # Largest first, so a mask's containers are all kept before it is seen.
    # Quadratic in the number of masks, one per point here.
    for mask in sorted({mask & full for mask in masks[first:]} - {0},
                       key=int.bit_count, reverse=True):
        if all(mask & other != mask for other in kept):
            kept.append(mask)
    return _search(kept, full, slots)


def _decide(masks: list[int], full: int, slots: int, covered: int = 0,
            first: int = 0) -> bool:
    """_can_cover's answer, settled where they can by two bounds that build
    no search table; masks[q] is also q's coverers, as _cover_masks' are.

    Packing refutes: uncovered clients taken fewest allowed coverers first
    (those of masks[first:]), each kept when it shares none with those kept
    before, need one mask apiece, so more than `slots` of them, or one with
    no allowed coverer, leave no cover.  Greedy set cover proves: the mask
    covering most of what is left, `slots` times over, covers everything or
    `_can_cover` decides.  Neither bound visits a search node."""
    rest = full & ~covered
    allowed = -1 << first  # the indices of masks[first:], as bits
    options = sorted((masks[q] & allowed for q in _bits(rest)), key=int.bit_count)
    if options and not options[0]:
        return False
    taken = used = 0
    for option in options:
        if not option & used:
            used |= option
            taken += 1
            if taken > slots:
                return False
    left, pool = rest, masks[first:]
    for _ in range(slots):
        if not left:
            break
        gains = [(mask & left).bit_count() for mask in pool]
        left &= ~pool[gains.index(max(gains))]
    return not left or _can_cover(masks, full, slots, covered, first)


def _first_cover(masks: list[int], full: int, k: int) -> list[int]:
    """The lexicographically smallest k indices whose masks cover `full`
    (one must exist), filling the slots in turn with the smallest index
    that still extends to a cover (asked of `_decide`).  That index is at
    most the optimum's own, so it always leaves room for k distinct
    indices."""
    chosen: list[int] = []
    covered = 0
    for slot in range(k):
        start = chosen[-1] + 1 if chosen else 0
        c = next(c for c in range(start, len(masks))
                 if _decide(masks, full, k - slot - 1, covered | masks[c], c + 1))
        chosen.append(c)
        covered |= masks[c]
    return chosen


@contextmanager
def _refusing(n: int, k: int):
    """Turn a cover search's exhausted budget into OracleCapError."""
    try:
        yield
    except _BudgetExhausted as err:
        raise OracleCapError(f"exact oracle cap exceeded (more than "
                             f"{err.args[0]} backtrack nodes in one cover "
                             f"search, n={n}, k={k})") from None


def opt_value(m: MetricSpace, k: int, *, cap: int = 20) -> int | float:
    """The optimal k-center radius of a small instance, without a witness.

    The optimum is one of the pairwise distances (0 when k = n), and
    feasibility is monotone in the radius, so a binary search over those
    distances with a cover decision at each finds it.  A cover search that
    needs more than _SEARCH_BUDGET backtrack nodes raises OracleCapError.
    """
    n = m.n
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if n > cap:
        raise OracleCapError(f"exact oracle cap exceeded (n={n} > cap={cap})")
    if k == n:
        return 0 if m.mode == "int" else 0.0
    full = (1 << n) - 1
    cands = np.unique(m.dist[np.triu_indices(n, k=1)])
    lo, hi = 0, len(cands) - 1
    with _refusing(n, k):
        while lo < hi:
            mid = (lo + hi) // 2
            if _decide(_cover_masks(m, cands[mid]), full, k):
                hi = mid
            else:
                lo = mid + 1
    return int(cands[lo]) if m.mode == "int" else float(cands[lo])


def exact_opt(m: MetricSpace, k: int, *, cap: int = 20) -> OptimalSolution:
    """Certified optimal k-center solution for a small instance: the value
    of `opt_value` and, when several sets attain it, the lexicographically
    smallest, so downstream verifiers are reproducible.  A cover search
    past _SEARCH_BUDGET backtrack nodes, in either part, raises
    OracleCapError."""
    value = opt_value(m, k, cap=cap)
    n = m.n
    if k == n:
        return optimal_solution(m, value, range(n))
    with _refusing(n, k):
        chosen = _first_cover(_cover_masks(m, value), (1 << n) - 1, k)
    return optimal_solution(m, value, chosen)
